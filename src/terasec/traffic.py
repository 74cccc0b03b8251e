"""Stochastic task arrivals driven by fractional Gaussian noise.

Counts per slot are round(max(0, mean * (1 + relative_std * X_t))) where X_t
is standardized fGn with the configured Hurst index, generated by circulant
embedding (Davies-Harte).  Identical seeds yield identical matrices.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class TrafficConfigError(ValueError):
    pass


@dataclass(frozen=True)
class TrafficConfig:
    mean_tasks_per_slot: float = 122.0
    hurst: float = 0.8
    relative_std: float = 0.2
    slot_duration_s: float = 0.05
    task_size_bytes: int = 2500
    seed: int = 0

    def __post_init__(self):
        if self.mean_tasks_per_slot <= 0:
            raise TrafficConfigError("mean_tasks_per_slot must be positive")
        if not 0.0 < self.hurst < 1.0:
            raise TrafficConfigError("hurst must be in (0, 1)")
        if self.relative_std < 0:
            raise TrafficConfigError("relative_std must be nonnegative")
        if self.slot_duration_s <= 0:
            raise TrafficConfigError("slot_duration_s must be positive")
        if self.task_size_bytes < 1:
            raise TrafficConfigError("task_size_bytes must be at least 1")

    @property
    def mean_bytes_per_slot(self) -> float:
        return self.mean_tasks_per_slot * self.task_size_bytes


def _fgn_autocovariance(hurst: float, n: int) -> np.ndarray:
    k = np.arange(n, dtype=float)
    h2 = 2.0 * hurst
    return 0.5 * (np.abs(k + 1) ** h2 - 2.0 * np.abs(k) ** h2 + np.abs(k - 1) ** h2)


def fgn_rows(hurst: float, n: int, rows: int,
             rng: np.random.Generator) -> np.ndarray:
    """[rows, n] independent draws of standardized (unit-variance) fractional
    Gaussian noise, the random stream consumed row by row, one FFT for all."""
    if not 0.0 < hurst < 1.0:
        raise TrafficConfigError("hurst must be in (0, 1)")
    if n == 1:
        return rng.standard_normal((rows, 1))
    r = _fgn_autocovariance(hurst, n)
    # circulant embedding of the covariance; eigenvalues are nonnegative for fGn
    row = np.concatenate([r, r[-2:0:-1]])
    lam = np.fft.fft(row).real
    lam = np.clip(lam, 0.0, None)
    m = row.size
    # per row: m real parts, then m imaginary parts
    z = rng.standard_normal((rows, 2, m))
    w = z[:, 0] + 1j * z[:, 1]
    x = np.fft.fft(np.sqrt(lam / (2.0 * m)) * w, axis=-1)
    # the real part carries half the circulant covariance
    return np.sqrt(2.0) * x.real[:, :n]


def generate_counts(cfg: TrafficConfig, sources: int, steps: int) -> np.ndarray:
    """Nonnegative integer task counts, shape [sources, steps]."""
    if steps < 1:
        raise TrafficConfigError("steps must be >= 1")
    x = fgn_rows(cfg.hurst, steps, sources, np.random.default_rng(cfg.seed))
    raw = cfg.mean_tasks_per_slot * (1.0 + cfg.relative_std * x)
    return np.round(np.maximum(0.0, raw)).astype(np.int64)
