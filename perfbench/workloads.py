"""Benchmark workloads: one dddr config per (workload, seed), plus the stages it runs.

Each workload is a set of overrides on top of `dddr.config.DEFAULTS`. The
seed only enters as `experiment.seed`, so the program sees nothing but the
generated config. Sizes are chosen so that one pipeline run takes a few
seconds on a 2-core machine and every stage does enough work to time.
"""

from __future__ import annotations

import os

# the seed run.py uses by default; seed 1009 is kept for confirming a gain
# on a seed not used while the change was written
DEFAULT_SEED = 42

WORKLOADS: dict[str, dict] = {
    # configs/desk.yaml with pretraining cut to what one run can hold;
    # pretraining stays the largest stage, as in the full desk run
    "desk-dddr": {
        "overrides": {
            "experiment": {"method": "dddr", "n_tasks": 2, "threads": 1},
            "data": {"classes": 8, "samples_per_class": 250},
            "federation": {"clients": 3, "partition": "dirichlet", "alpha": 0.5},
            "diffusion": {"pretrain_steps": 700},
            "inversion": {"rounds": 2, "local_steps": 8},
            "training": {"rounds": 4, "epochs": 1},
            "replay": {"past_per_class": 30, "current_per_class": 30},
        },
        "stages": ["gen_data", "pretrain", "invert", "train", "eval", "audit"],
        "inversion_check": "every class",
    },
    # every shape class over five tasks, so the replay history grows each
    # task; short pretraining and a 50-step sampler leave inversion and
    # sampling as the largest stages
    "replay-wide": {
        "overrides": {
            "experiment": {"method": "dddr", "n_tasks": 5, "threads": 1},
            "data": {"classes": 10, "samples_per_class": 200, "pretrain_samples_per_class": 80},
            "federation": {"clients": 3, "partition": "dirichlet", "alpha": 0.5},
            "diffusion": {"pretrain_steps": 250, "timesteps": 50},
            "inversion": {"rounds": 2, "local_steps": 20},
            "training": {"rounds": 2, "epochs": 2},
            "replay": {"past_per_class": 60, "current_per_class": 60},
        },
        "stages": ["gen_data", "pretrain", "invert", "train", "eval", "audit"],
        # after 250 pretraining steps the conditioning is weak: on about one
        # seed in ten one class's probe loss rises by a few parts in a
        # thousand, so the inversion check averages over the classes
        "inversion_check": "all classes",
    },
    # federated EWC over many clients with the client thread pool; no
    # diffusion, inversion or replay, so its pretraining corpus is kept
    # small. IID shards: under a Dirichlet split some seeds leave a client
    # without data for a task, which the program rejects (see CHANGES.md)
    "fedewc-clients": {
        "overrides": {
            "experiment": {"method": "fedewc", "n_tasks": 4, "threads": "nproc"},
            "data": {"classes": 8, "samples_per_class": 250, "pretrain_samples_per_class": 10},
            "federation": {"clients": 10, "partition": "iid"},
            "training": {"rounds": 6, "epochs": 2},
            "ewc": {"fisher_samples": 64},
        },
        "stages": ["gen_data", "train", "eval"],
    },
}


def build_config(name: str, seed: int) -> dict:
    """The full override tree for one workload at one seed."""
    spec = WORKLOADS[name]
    tree = {section: dict(values) for section, values in spec["overrides"].items()}
    tree["experiment"]["seed"] = int(seed) % 2**31
    if tree["experiment"].get("threads") == "nproc":
        tree["experiment"]["threads"] = os.cpu_count() or 1
    return tree


def stages(name: str) -> list[str]:
    return list(WORKLOADS[name]["stages"])


def inversion_check(name: str) -> str | None:
    return WORKLOADS[name].get("inversion_check")
