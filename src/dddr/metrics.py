"""Accuracy bookkeeping across the task sequence and the two summary metrics.

The accuracy matrix holds per-class accuracy measured after each task;
average accuracy is the mean of the final row, and the forgetting measure
is the mean per-class drop from peak to final. Both are pure functions of
the matrix.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .classifier import predict
from .params import ParamSet


class AccuracyMatrix:
    """A[t][c]: accuracy on class c after finishing task t; NaN where undefined."""

    def __init__(self, n_tasks: int, n_classes: int) -> None:
        self.values = np.full((n_tasks, n_classes), np.nan, dtype=np.float64)

    @property
    def n_tasks(self) -> int:
        return self.values.shape[0]

    @property
    def n_classes(self) -> int:
        return self.values.shape[1]

    def set(self, task: int, cls: int, accuracy: float) -> None:
        if not 0.0 <= accuracy <= 1.0:
            raise ValueError(f"accuracy must be in [0, 1], got {accuracy}")
        self.values[task, cls] = accuracy

    def defined(self, task: int, cls: int) -> bool:
        return bool(np.isfinite(self.values[task, cls]))

    def to_rows(self) -> list[tuple[int, int, float]]:
        rows = []
        for t in range(self.n_tasks):
            for c in range(self.n_classes):
                if self.defined(t, c):
                    rows.append((t, c, float(self.values[t, c])))
        return rows


def evaluate_global(
    params: ParamSet, images: np.ndarray, labels: np.ndarray, seen_classes: list[int]
) -> dict[int, float]:
    """Per-class accuracy on the global test split, argmax over the full head."""
    labels = np.asarray(labels, dtype=np.int64)
    predictions = predict(params, images)
    out: dict[int, float] = {}
    for c in seen_classes:
        mask = labels == c
        if not mask.any():
            raise ValueError(f"evaluate_global: no test samples for class {c}")
        out[int(c)] = float(np.mean(predictions[mask] == c))
    return out


def average_accuracy(matrix: AccuracyMatrix) -> float:
    """Mean over all classes of the final row."""
    final = matrix.values[-1]
    if not np.all(np.isfinite(final)):
        missing = [c for c in range(matrix.n_classes) if not np.isfinite(final[c])]
        raise ValueError(f"average_accuracy: final row undefined for classes {missing}")
    return float(np.mean(final))


def forgetting_measure(matrix: AccuracyMatrix) -> float:
    """Mean over classes of (peak accuracy across tasks - final accuracy)."""
    final = matrix.values[-1]
    if not np.all(np.isfinite(final)):
        missing = [c for c in range(matrix.n_classes) if not np.isfinite(final[c])]
        raise ValueError(f"forgetting_measure: final row undefined for classes {missing}")
    drops = []
    for c in range(matrix.n_classes):
        col = matrix.values[:, c]
        peak = np.nanmax(col)
        drops.append(peak - final[c])
    return float(np.mean(drops))


def accuracy_curve(matrix: AccuracyMatrix) -> list[float]:
    """Average accuracy over the classes defined at each task (the per-task curve)."""
    curve = []
    for t in range(matrix.n_tasks):
        row = matrix.values[t]
        defined = np.isfinite(row)
        curve.append(float(np.mean(row[defined])) if defined.any() else float("nan"))
    return curve


def local_client_eval(
    params: ParamSet, client_shards: list[tuple[np.ndarray, np.ndarray]]
) -> dict:
    """Mean and population std of per-client accuracy on local test shards."""
    accuracies: list[float] = []
    skipped: list[int] = []
    for j, (x, y) in enumerate(client_shards):
        y = np.asarray(y, dtype=np.int64)
        if y.size == 0:
            warnings.warn(f"client {j} has an empty local test shard; skipping")
            skipped.append(j)
            continue
        accuracies.append(float(np.mean(predict(params, x) == y)))
    if not accuracies:
        raise ValueError("local_client_eval: every client shard was empty")
    mean = float(np.mean(accuracies))
    std = float(np.std(accuracies))  # population std
    return {"per_client": accuracies, "mean": mean, "std": std, "skipped": skipped}


@dataclass
class MetricsReport:
    """Everything the run reports; recomputable from the matrix and logs."""

    method: str
    seed: int
    average_accuracy: float
    forgetting_measure: float
    curve: list[float]
    matrix_rows: list[tuple[int, int, float]]
    n_tasks: int
    n_classes: int
    local_eval: dict = field(default_factory=dict)
    past_data_reads: int = 0

    def to_json(self) -> str:
        payload = {
            "method": self.method,
            "seed": self.seed,
            "average_accuracy": self.average_accuracy,
            "forgetting_measure": self.forgetting_measure,
            "curve": self.curve,
            "n_tasks": self.n_tasks,
            "n_classes": self.n_classes,
            "matrix": [[t, c, a] for t, c, a in self.matrix_rows],
            "local_eval": self.local_eval,
            "past_data_reads": self.past_data_reads,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "MetricsReport":
        obj = json.loads(text)
        return cls(
            method=obj["method"],
            seed=int(obj["seed"]),
            average_accuracy=float(obj["average_accuracy"]),
            forgetting_measure=float(obj["forgetting_measure"]),
            curve=[float(v) for v in obj["curve"]],
            matrix_rows=[(int(t), int(c), float(a)) for t, c, a in obj["matrix"]],
            n_tasks=int(obj["n_tasks"]),
            n_classes=int(obj["n_classes"]),
            local_eval=obj.get("local_eval", {}),
            past_data_reads=int(obj.get("past_data_reads", 0)),
        )

    def accuracy_csv(self) -> str:
        lines = ["task,class,accuracy"]
        for t, c, a in self.matrix_rows:
            lines.append(f"{t},{c},{a!r}")
        return "\n".join(lines) + "\n"
