"""dddr benchmark: one workload, timed stage by stage, outputs checked.

    python3 perfbench/run.py --workload desk-dddr --seed 42 --seconds 36 --trace 0

Runs whole pipeline rounds of the workload, each in a fresh interpreter
(pipeline.py), until the next round would end after --seconds; at least
three rounds run. Each round's run directory is checked (checks.py), and
all rounds must produce byte-identical metrics.json and accuracy.csv.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": rounds, "failed": rounds that crashed, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, medians over rounds.
With --trace 1 untraced and traced rounds alternate, and the metrics are
the per-layer ones (medians over traced rounds) plus the tracing overhead.
A full record of the run, environment included, goes to
perfbench/results/<workload>-seed<seed>-trace<0|1>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import yaml

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_ROUNDS = 3
ROUND_TIMEOUT_S = 150
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict[str, str]:
    """BLAS pinned to one thread: the client pool is the only source of parallelism."""
    env = dict(os.environ)
    for key in THREAD_ENV:
        env[key] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def filesystem_of(path: Path) -> str:
    """Type of the filesystem holding `path`, from the mount table."""
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mounts") as f:
            for line in f:
                mount, kind = line.split()[1:3]
                if str(path).startswith(mount) and len(mount) > len(best):
                    best, fstype = mount, kind
    except OSError:
        pass
    return fstype


def environment(work: Path) -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = child_env()
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": {k: env[k] for k in THREAD_ENV}},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "run_dir_filesystem": filesystem_of(work),
    }


def train_rows(run: Path, cfg: dict) -> int:
    """Classifier input rows of all client local steps, from the training log and the batch make-up."""
    plan = json.loads((run / "data" / "plan.json").read_text())
    batch = cfg["training"]["batch"]
    dddr = cfg["experiment"]["method"] == "dddr"
    rows = 0
    for line in (run / "logs" / "training_rounds.jsonl").read_text().splitlines():
        rec = json.loads(line)
        t = rec["task"]
        n_real = len(plan["client_shards"][t][rec["client"]])
        n_cur = cfg["replay"]["current_per_class"] * len(plan["label_sets"][t]) if dddr else 0
        n_past = cfg["replay"]["past_per_class"] * sum(len(ys) for ys in plan["label_sets"][:t]) if dddr else 0
        if n_real and n_cur:
            main = batch
        else:
            main = min(batch, n_real or n_cur)
        rows += rec["steps"] * (main + min(batch, n_past))
    return rows


def result_digest(run: Path) -> str:
    """Digest of the report files that reruns at one seed must reproduce byte for byte."""
    return hashlib.sha256((run / "metrics.json").read_bytes() + b"\0" + (run / "accuracy.csv").read_bytes()).hexdigest()


def run_round(work: Path, index: int, cfg_file: Path, stages: list[str], traced: bool) -> dict:
    run = work / f"round{index}"
    result_file = work / f"round{index}.json"
    cmd = [sys.executable, str(HERE / "pipeline.py"), "--config", str(cfg_file), "--out", str(run),
           "--stages", ",".join(stages), "--result", str(result_file)]
    if traced:
        cmd += ["--spans", str(work / f"spans{index}.jsonl")]
    start = time.monotonic()
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, timeout=ROUND_TIMEOUT_S,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    elapsed = time.monotonic() - start
    if proc.returncode != 0:
        return {"ok": False, "elapsed": elapsed, "error": proc.stderr[-2000:]}
    out = json.loads(result_file.read_text())
    out.update(ok=True, elapsed=elapsed, run=run, setup_s=out["setup_end_monotonic"] - start)
    return out


def end_to_end(r: dict, rows: int) -> dict[str, float]:
    stage_s = r["stage_s"]
    return {
        "setup_s": r["setup_s"],
        "wall_s": sum(v for k, v in stage_s.items() if k != "gen_data"),
        "train_samples_per_s": rows / stage_s["train"],
        "peak_rss_mb": r["peak_rss_mb"],
    }


def medians(rows: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=38)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "dddr" / "__init__.py").is_file():
        print(f"run.py: no dddr sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    name, stages = args.workload, workloads.stages(args.workload)
    cfg = workloads.build_config(name, args.seed)
    tag = f"{name}-seed{args.seed}-trace{args.trace}"
    work = HERE / "runs" / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    cfg_file = work / "config.yaml"
    cfg_file.write_text(yaml.safe_dump(cfg, sort_keys=True))
    from dddr.config import parse_config

    full = parse_config(cfg_file).values  # the overrides over the program's defaults

    rounds: list[dict] = []
    problems: list[str] = []
    digests: set[str] = set()
    start = time.monotonic()
    longest = 0.0
    while True:
        traced = args.trace == 1 and len(rounds) % 2 == 1
        r = run_round(work, len(rounds), cfg_file, stages, traced)
        r["traced"] = traced
        rounds.append(r)
        longest = max(longest, r["elapsed"])
        if r["ok"]:
            run = r["run"]
            for check, fails in checks.check_run(run, full, stages, workloads.inversion_check(name)).items():
                problems += [f"round {len(rounds) - 1} {check}: {f}" for f in fails]
            problems += [f"round {len(rounds) - 1} traced: {f}" for f in r.get("trace_failures", [])]
            digests.add(result_digest(run))
            r["avg_acc"] = json.loads((run / "metrics.json").read_text())["average_accuracy"]
            r["rows"] = train_rows(run, full)
            if traced:
                shutil.copy(work / f"spans{len(rounds) - 1}.jsonl", results_dir / f"{tag}-spans.jsonl")
        else:
            print(f"round {len(rounds) - 1} failed:\n{r['error']}", file=sys.stderr)
        elapsed = time.monotonic() - start
        if len(rounds) >= MIN_ROUNDS and elapsed + longest > args.seconds:
            break
    if len(digests) > 1:
        problems.append(f"rounds at one seed produced {len(digests)} different metrics.json/accuracy.csv pairs")

    good = [r for r in rounds if r["ok"]]
    plain = [r for r in good if not r["traced"]]
    if not plain or (args.trace == 1 and len(plain) == len(good)):
        print("run.py: no round completed", file=sys.stderr)
        shutil.rmtree(work, ignore_errors=True)
        return 1

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [end_to_end(r, r["rows"]) for r in plain]
    e2e_median = medians(e2e)
    if args.trace == 1:
        traced_rounds = [r for r in good if r["traced"]]
        names = [m["name"] for m in spec["per_layer"] if m["name"] != "trace.overhead_pct"]
        values = medians([{n: tracer.layer_metric(n, r["span_totals"], r["stage_s"]) for n in names}
                          for r in traced_rounds])
        traced_wall = statistics.median(end_to_end(r, r["rows"])["wall_s"] for r in traced_rounds)
        values["trace.overhead_pct"] = 100.0 * (traced_wall / e2e_median["wall_s"] - 1.0)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": e2e_median[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}

    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    summary = {"correct": not problems, "attempted": len(rounds), "failed": len(rounds) - len(good),
               "metrics": metrics}
    record = {
        "workload": name, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
        "config": cfg, "stages": stages, "environment": environment(work),
        "choices": {"blas_threads": 1, "run_dir": str(work.relative_to(ROOT)),
                    "round_order": "untraced, traced alternating" if args.trace else "untraced"},
        "rounds": [{k: v for k, v in r.items() if k not in ("run", "span_totals")} for r in rounds],
        "end_to_end_rounds": e2e, "avg_acc": good[0]["avg_acc"], "problems": problems, "summary": summary,
    }
    (results_dir / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True, default=str))
    # run directories are removed only now: deleting thousands of files
    # between rounds slows the next round's file creation
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
