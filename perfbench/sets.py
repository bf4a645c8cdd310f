"""Reference figures: sets of benchmark runs over seeds, workloads interleaved.

    python3 perfbench/sets.py --seeds 1-10 --sets 2 [--seconds 38] [--traced]

Each set runs `run.py --trace 0` once per (seed, workload), looping over
workloads inside the loop over seeds, so a slow phase of the machine falls
on every workload alike. For every end-to-end metric it prints the median,
the quartiles (statistics.quantiles, n=4) and the quartile distance as a
share of the median, per set and workload, and flags a spread above a
third of the metric's bound or a median that moved between sets by more
than the bound. With --traced it then runs `--trace 1` once per workload
at the first seed. Every run's last output line is kept in
perfbench/results/sets.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = seed_list(args.seeds)
    record: dict = {"seconds": seconds, "seeds": seeds, "sets": [], "traced": {}}
    out_file = HERE / "results" / "sets.json"
    out_file.parent.mkdir(exist_ok=True)

    for s in range(args.sets):
        runs: dict[str, list[dict]] = {n: [] for n in names}
        for seed in seeds:
            for name in names:
                result = bench_run(name, seed, seconds, 0)
                runs[name].append(result)
                print(f"set {s + 1} seed {seed} {name}: correct={result['correct']} "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        record["sets"].append(runs)
        out_file.write_text(json.dumps(record, indent=1))

    print("\n| set | workload | metric | median | Q1 | Q3 | spread | bound |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- |")
    verdicts = []
    for name in names:
        for metric, bound in bounds.items():
            medians = []
            for s, runs in enumerate(record["sets"]):
                values = [r["metrics"][metric]["value"] for r in runs[name]]
                med, q1, q3, share = spread(values)
                medians.append(med)
                print(f"| {s + 1} | {name} | {metric} | {med:.4g} | {q1:.4g} | {q3:.4g} | {share:.3f} | {bound} |")
                if metric != "setup_s" and share > bound / 3:
                    verdicts.append(f"set {s + 1} {name} {metric}: spread {share:.3f} above a third of {bound}")
            better = next(m["better"] for m in spec["end_to_end"] if m["name"] == metric)
            for a, b in zip(medians, medians[1:]):
                worse = (b - a) / a if better == "lower" else (a - b) / a
                if worse > bound:
                    verdicts.append(f"{name} {metric}: second median worse by {worse:.3f} > {bound}")
    failed = {name: [r["failed"] / r["attempted"] for runs in record["sets"] for r in runs[name]] for name in names}
    for name, shares in failed.items():
        if len(set(shares)) > 1:
            verdicts.append(f"{name}: failed share differs between runs {sorted(set(shares))}")
    if not all(r["correct"] for runs in record["sets"] for n in names for r in runs[n]):
        verdicts.append("a run reported correct=false")

    if args.traced:
        for name in names:
            record["traced"][name] = bench_run(name, seeds[0], seconds, 1)
        out_file.write_text(json.dumps(record, indent=1))
        print("\n| metric | " + " | ".join(names) + " |")
        print("| --- |" + " --- |" * len(names))
        for metric in record["traced"][names[0]]["metrics"]:
            vals = [record["traced"][n]["metrics"][metric]["value"] for n in names]
            print(f"| `{metric}` | " + " | ".join(f"{v:.4g}" for v in vals) + " |")

    print("\n" + ("\n".join(verdicts) if verdicts else "every spread below a third of its bound; medians agree"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
