"""One benchmark round: a fresh interpreter runs dddr's stages on one config.

    python3 perfbench/pipeline.py --config CFG --out RUN_DIR --stages gen_data,train \
        --result RESULT.json [--spans SPANS.jsonl]

The stage functions of `dddr.experiment` are called in order, each timed
on its own. The result file gets the monotonic clock reading at which the
first stage after `gen_data` began (the end of set-up), the seconds of each
stage and the peak resident set. With --spans the layers are traced (see
tracer.py), the spans are written to that file after the last stage, and
the per-layer metrics go into the result.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from dddr import experiment  # noqa: E402
from dddr.config import parse_config  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--stages", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    tracer = None
    if args.spans:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    cfg = parse_config(args.config)
    paths = experiment.prepare_run_dir(cfg, args.out)
    seconds: dict[str, float] = {}
    setup_end = None
    for stage in args.stages.split(","):
        if stage != "gen_data" and setup_end is None:
            setup_end = time.monotonic()
        if tracer is not None:
            tracer.stage = stage
        fn = getattr(experiment, f"stage_{stage}")
        t0 = time.perf_counter()
        fn(cfg, paths)
        seconds[stage] = time.perf_counter() - t0

    result = {
        "setup_end_monotonic": setup_end,
        "stage_s": seconds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.unpatch()
        tracer.write(Path(args.spans))
        result["span_totals"] = tracing.totals(tracer.spans)
        result["trace_failures"] = tracer.failures
        result["spans"] = len(tracer.spans)
    Path(args.result).write_text(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
