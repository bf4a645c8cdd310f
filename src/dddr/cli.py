"""Command-line entry point.

Subcommands mirror the pipeline stages plus post-processing:

    gen-data   build corpora dumps and the task/partition plan
    pretrain   train and freeze the diffusion generator
    invert     learn per-class embeddings against the frozen generator
    train      federated classifier training + metrics
    run        all of the above in order
    eval       recompute metrics from stored checkpoints
    audit      PSNR/SSIM real-vs-generated report
    plot       SVG accuracy-vs-task curve from accuracy.csv

Exit codes: 0 success, 1 usage/config error, 2 data or artifact error,
3 numeric failure, 4 internal error (a bug in the program, such as a read
of sealed training data; the traceback goes to stderr). The output
directory defaults to <DDDR_OUT or ./runs>/<timestamp>-seed<seed> unless
--out is given.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
import traceback
from pathlib import Path

from .config import ConfigError, ExperimentConfig, parse_config
from .corpus import DataFormatError
from .experiment import (
    MissingArtifact,
    RunPaths,
    prepare_run_dir,
    run_fccl,
    stage_audit,
    stage_eval,
    stage_gen_data,
    stage_invert,
    stage_pretrain,
    stage_train,
)
from .params import CheckpointError
from .plotting import write_curve_svg
from .tensor import NumericsError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3
EXIT_INTERNAL = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dddr", description="Federated continual learning simulator with diffusion replay")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_command(name: str, help_: str):
        p = sub.add_parser(name, help=help_)
        p.add_argument("-c", "--config", help="YAML config file (defaults apply when omitted)")
        p.add_argument("--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config value, e.g. --set federation.clients=3")
        p.add_argument("--out", help="run directory (created if needed)")
        p.add_argument("--threads", type=int,
                       help="accepted for compatibility; no effect (clients run serially in index order)")
        return p

    add_config_command("run", "execute the full pipeline")
    add_config_command("gen-data", "generate corpora and the task plan")

    for name, help_ in [
        ("pretrain", "pretrain the diffusion generator"),
        ("invert", "run federated class inversion"),
        ("train", "run federated classifier training"),
        ("eval", "recompute metrics from stored artifacts"),
        ("audit", "similarity audit of replay caches"),
        ("plot", "emit the accuracy-vs-task SVG"),
    ]:
        p = sub.add_parser(name, help=help_)
        p.add_argument("--out", required=True, help="existing run directory")
        p.add_argument("--threads", type=int,
                       help="accepted for compatibility; no effect (clients run serially in index order)")
    return parser


def _default_out_dir(cfg: ExperimentConfig) -> Path:
    root = Path(os.environ.get("DDDR_OUT", "runs"))
    stamp = time.strftime("%Y%m%d-%H%M%S")
    return root / f"{stamp}-seed{cfg['experiment']['seed']}"


def _load_run_config(out: str, threads: int | None) -> tuple[ExperimentConfig, RunPaths]:
    paths = RunPaths(root=Path(out))
    if not paths.config_file.exists():
        raise MissingArtifact(paths.config_file, "dddr gen-data -c <config> --out <dir>")
    overrides = [f"experiment.threads={threads}"] if threads else []
    cfg = parse_config(paths.config_file, overrides)
    return cfg, paths


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK

    try:
        return _dispatch(args)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericsError as exc:
        print(f"error: numeric: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (MissingArtifact, DataFormatError, CheckpointError, FileNotFoundError, ValueError, KeyError) as exc:
        print(f"error: data: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:
        traceback.print_exc()
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def _dispatch(args: argparse.Namespace) -> int:
    if args.command in ("run", "gen-data"):
        overrides = list(args.overrides)
        if args.threads:
            overrides.append(f"experiment.threads={args.threads}")
        cfg = parse_config(args.config, overrides) if args.config else parse_config(None, overrides)
        out = Path(args.out) if args.out else _default_out_dir(cfg)
        if args.command == "run":
            report = run_fccl(cfg, out)
            print(f"run complete: out={out} acc={report.average_accuracy:.4f} "
                  f"fm={report.forgetting_measure:.4f}")
        else:
            paths = prepare_run_dir(cfg, out)
            stage_gen_data(cfg, paths)
            print(f"gen-data complete: out={out}")
        return EXIT_OK

    cfg, paths = _load_run_config(args.out, args.threads)
    if args.command == "pretrain":
        stage_pretrain(cfg, paths)
        print(f"pretrain complete: {paths.diffusion_ckpt}")
    elif args.command == "invert":
        stage_invert(cfg, paths)
        print(f"invert complete: {paths.embeddings_ckpt}")
    elif args.command == "train":
        report = stage_train(cfg, paths)
        print(f"train complete: acc={report.average_accuracy:.4f} fm={report.forgetting_measure:.4f}")
    elif args.command == "eval":
        report = stage_eval(cfg, paths)
        print(f"eval complete: acc={report.average_accuracy:.4f} fm={report.forgetting_measure:.4f}")
    elif args.command == "audit":
        payload = stage_audit(cfg, paths)
        top = max(p["best_psnr"] for p in payload)
        print(f"audit complete: classes={len(payload)} max_psnr={top:.2f}dB -> {paths.audit_json}")
    elif args.command == "plot":
        if not paths.accuracy_csv.exists():
            raise MissingArtifact(paths.accuracy_csv, "dddr train")
        write_curve_svg(paths.accuracy_csv, paths.curve_svg)
        print(f"plot complete: {paths.curve_svg}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
