"""Similarity audit between real and generated images.

For each class the audit reports the real/generated pair with the highest
PSNR and the pair with the highest SSIM; a capped PSNR (no exact pixel
match) is the cheap check that the generator is synthesizing rather than
memorizing.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import starmap
from typing import Iterable

import numpy as np

PSNR_CAP_DB = 99.0
SSIM_C1 = 0.01**2
SSIM_C2 = 0.03**2


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """10 log10(1 / MSE) for [0, 1] images; identical pairs capped at 99 dB."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"psnr: shape mismatch {a.shape} vs {b.shape}")
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return PSNR_CAP_DB
    return min(PSNR_CAP_DB, 10.0 * np.log10(1.0 / mse))


def ssim(a: np.ndarray, b: np.ndarray) -> float:
    """Structural similarity with standard constants, computed on the full image."""
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    if a.shape != b.shape:
        raise ValueError(f"ssim: shape mismatch {a.shape} vs {b.shape}")
    mu_a, mu_b = a.mean(), b.mean()
    var_a, var_b = a.var(), b.var()
    cov = float(np.mean(a * b) - mu_a * mu_b)
    return float(
        ((2 * mu_a * mu_b + SSIM_C1) * (2 * cov + SSIM_C2))
        / ((mu_a**2 + mu_b**2 + SSIM_C1) * (var_a + var_b + SSIM_C2))
    )


@dataclass(frozen=True)
class PairReport:
    class_index: int
    best_psnr: float
    psnr_pair: tuple[int, int]  # (real index, generated index)
    best_ssim: float
    ssim_pair: tuple[int, int]


def _pairwise_stats(real: np.ndarray, gen: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(MSE, SSIM) matrices of shape (n_real, n_gen), vectorized."""
    r = real.reshape(real.shape[0], -1).astype(np.float64)
    g = gen.reshape(gen.shape[0], -1).astype(np.float64)
    d = r.shape[1]
    cross = r @ g.T / d
    r_sq = np.mean(r * r, axis=1)[:, None]
    g_sq = np.mean(g * g, axis=1)[None, :]
    mse = np.maximum(r_sq + g_sq - 2 * cross, 0.0)
    mu_r = r.mean(axis=1)[:, None]
    mu_g = g.mean(axis=1)[None, :]
    var_r = r.var(axis=1)[:, None]
    var_g = g.var(axis=1)[None, :]
    cov = cross - mu_r * mu_g
    ssim_matrix = ((2 * mu_r * mu_g + SSIM_C1) * (2 * cov + SSIM_C2)) / (
        (mu_r**2 + mu_g**2 + SSIM_C1) * (var_r + var_g + SSIM_C2)
    )
    return mse, ssim_matrix


def _class_report(c: int, real: np.ndarray, gen: np.ndarray) -> PairReport:
    if real.shape[0] == 0 or gen.shape[0] == 0:
        raise ValueError(f"similarity_audit: class {c} has an empty side")
    if real.shape[1:] != gen.shape[1:]:
        raise ValueError(
            f"similarity_audit: class {c} image shapes differ: {real.shape[1:]} vs {gen.shape[1:]}"
        )
    mse, ssim_matrix = _pairwise_stats(real, gen)
    with np.errstate(divide="ignore"):
        psnr_matrix = np.where(mse == 0.0, PSNR_CAP_DB, np.minimum(PSNR_CAP_DB, 10.0 * np.log10(1.0 / np.maximum(mse, 1e-300))))
    pi = np.unravel_index(np.argmax(psnr_matrix), psnr_matrix.shape)
    si = np.unravel_index(np.argmax(ssim_matrix), ssim_matrix.shape)
    return PairReport(
        class_index=int(c),
        best_psnr=float(psnr_matrix[pi]),
        psnr_pair=(int(pi[0]), int(pi[1])),
        best_ssim=float(ssim_matrix[si]),
        ssim_pair=(int(si[0]), int(si[1])),
    )


def similarity_audit(classes: Iterable[tuple[int, np.ndarray, np.ndarray]]) -> list[PairReport]:
    """Top real/generated pair by PSNR and by SSIM for each (class, real, generated) in order.

    One class is scored at a time: its images and its (n_real, n_gen)
    matrices are let go before the next class is drawn from `classes`, so
    a generator that builds each class's images on demand holds only one.
    """
    reports = list(starmap(_class_report, classes))
    if not reports:
        raise ValueError("similarity_audit: no classes to audit")
    return reports
