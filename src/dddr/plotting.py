"""Deterministic SVG line chart of average accuracy per task.

Hand-rolled so the output bytes depend only on the data (no library
version strings or generated ids).
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .artifacts import write_file

WIDTH, HEIGHT = 480, 320
MARGIN = 48


def curve_from_accuracy_csv(path: str | Path) -> list[float]:
    """Per-task mean accuracy over the classes defined at that task."""
    per_task: dict[int, list[float]] = {}
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != ["task", "class", "accuracy"]:
            raise ValueError(f"{path}: unexpected header {header}")
        for row in reader:
            per_task.setdefault(int(row[0]), []).append(float(row[2]))
    if not per_task:
        raise ValueError(f"{path}: no accuracy rows")
    return [float(np.mean(per_task[t])) for t in sorted(per_task)]


def _x(i: int, n: int) -> float:
    if n == 1:
        return WIDTH / 2
    return MARGIN + i * (WIDTH - 2 * MARGIN) / (n - 1)


def _y(value: float) -> float:
    return HEIGHT - MARGIN - value * (HEIGHT - 2 * MARGIN)


def accuracy_curve_svg(curve: list[float], label: str = "average accuracy") -> str:
    n = len(curve)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<line x1="{MARGIN}" y1="{_y(0.0):.1f}" x2="{WIDTH - MARGIN}" y2="{_y(0.0):.1f}" stroke="black"/>',
        f'<line x1="{MARGIN}" y1="{_y(0.0):.1f}" x2="{MARGIN}" y2="{_y(1.0):.1f}" stroke="black"/>',
    ]
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        parts.append(
            f'<text x="{MARGIN - 6}" y="{_y(tick) + 4:.1f}" font-size="10" text-anchor="end">{tick:.2f}</text>'
        )
        parts.append(
            f'<line x1="{MARGIN - 3}" y1="{_y(tick):.1f}" x2="{MARGIN}" y2="{_y(tick):.1f}" stroke="black"/>'
        )
    points = " ".join(f"{_x(i, n):.1f},{_y(v):.1f}" for i, v in enumerate(curve))
    parts.append(f'<polyline points="{points}" fill="none" stroke="#1f6fb2" stroke-width="2"/>')
    for i, v in enumerate(curve):
        parts.append(f'<circle cx="{_x(i, n):.1f}" cy="{_y(v):.1f}" r="3" fill="#1f6fb2"/>')
        parts.append(
            f'<text x="{_x(i, n):.1f}" y="{HEIGHT - MARGIN + 16}" font-size="10" text-anchor="middle">task {i + 1}</text>'
        )
    parts.append(
        f'<text x="{WIDTH / 2}" y="{MARGIN / 2}" font-size="12" text-anchor="middle">{label}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_curve_svg(accuracy_csv: str | Path, out_path: str | Path, label: str = "average accuracy") -> None:
    curve = curve_from_accuracy_csv(accuracy_csv)
    write_file(out_path, accuracy_curve_svg(curve, label))
