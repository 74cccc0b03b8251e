import numpy as np
import pytest

from terasec.traffic import (MAX_SLOT_BYTES, MAX_SLOT_DURATION_S,
                             TrafficConfig, TrafficConfigError,
                             _fgn_autocovariance, fgn_rows, generate_counts)


def lag1_autocorr(x: np.ndarray) -> float:
    x = x - x.mean()
    return float(np.sum(x[:-1] * x[1:]) / np.sum(x * x))


def test_degenerate_noise_gives_mean():
    cfg = TrafficConfig(relative_std=0.0, seed=7)
    counts = generate_counts(cfg, 3, 50)
    assert np.all(counts == 122)


def test_counts_nonnegative_integers():
    cfg = TrafficConfig(relative_std=1.5, seed=2)   # large noise forces clipping
    counts = generate_counts(cfg, 5, 400)
    assert counts.dtype.kind == "i"
    assert np.all(counts >= 0)


def test_determinism_per_seed():
    cfg = TrafficConfig(seed=11)
    a = generate_counts(cfg, 4, 200)
    b = generate_counts(cfg, 4, 200)
    assert np.array_equal(a, b)
    c = generate_counts(TrafficConfig(seed=12), 4, 200)
    assert not np.array_equal(a, c)


def test_empirical_mean_within_5pct():
    cfg = TrafficConfig(seed=0)
    counts = generate_counts(cfg, 1, 10_000)
    assert abs(counts.mean() / 122.0 - 1.0) < 0.05


def test_fgn_unit_variance():
    rng = np.random.default_rng(0)
    x = fgn_rows(0.8, 10_000, 1, rng)[0]
    assert abs(x.std() - 1.0) < 0.1
    assert abs(x.mean()) < 0.05


def test_hurst_half_is_uncorrelated():
    rng = np.random.default_rng(1)
    x = fgn_rows(0.5, 10_000, 1, rng)[0]
    assert abs(lag1_autocorr(x)) < 0.05


def test_hurst_08_long_range_dependent():
    rng = np.random.default_rng(1)
    x = fgn_rows(0.8, 10_000, 1, rng)[0]
    rho1 = lag1_autocorr(x)
    assert rho1 > 0.0
    # theoretical fGn lag-1 autocorrelation: 2^(2H-1) - 1 ~ 0.516 at H=0.8
    assert abs(rho1 - (2.0 ** (2 * 0.8 - 1) - 1.0)) < 0.1


def test_counts_formula_matches_generator():
    # counts must equal round(max(0, mean*(1 + s*X))) for the same fGn draw
    cfg = TrafficConfig(seed=5)
    counts = generate_counts(cfg, 1, 64)
    rng = np.random.default_rng(5)
    x = fgn_rows(cfg.hurst, 64, 1, rng)[0]
    expected = np.round(np.maximum(
        0.0, cfg.mean_tasks_per_slot * (1.0 + cfg.relative_std * x)))
    assert np.array_equal(counts[0], expected.astype(np.int64))


def test_invalid_config_errors():
    with pytest.raises(TrafficConfigError):
        generate_counts(TrafficConfig(hurst=1.5), 1, 10)
    with pytest.raises(TrafficConfigError):
        generate_counts(TrafficConfig(mean_tasks_per_slot=0.0), 1, 10)
    with pytest.raises(TrafficConfigError):
        generate_counts(TrafficConfig(relative_std=-0.1), 1, 10)
    with pytest.raises(TrafficConfigError):
        generate_counts(TrafficConfig(), 1, 0)
    with pytest.raises(TrafficConfigError):
        TrafficConfig(hurst=0.0)


def test_slot_bytes_past_their_bound_are_refused():
    """One slot's bytes over all sources are bounded before the int64 cast;
    at the bound the counts are drawn as before."""
    cfg = TrafficConfig(relative_std=0.0, mean_tasks_per_slot=2.0,
                        task_size_bytes=MAX_SLOT_BYTES // 4)
    assert np.array_equal(generate_counts(cfg, 2, 3), np.full((2, 3), 2))
    with pytest.raises(TrafficConfigError, match="task bytes"):
        generate_counts(cfg, 3, 3)
    for cfg in (TrafficConfig(mean_tasks_per_slot=1e300),
                TrafficConfig(relative_std=1e300)):
        with pytest.raises(TrafficConfigError, match="task bytes"):
            generate_counts(cfg, 2, 4)
    with pytest.raises(TrafficConfigError, match="task_size_bytes"):
        TrafficConfig(task_size_bytes=MAX_SLOT_BYTES + 1)
    assert TrafficConfig(slot_duration_s=MAX_SLOT_DURATION_S)
    with pytest.raises(TrafficConfigError, match="slot_duration_s"):
        TrafficConfig(slot_duration_s=MAX_SLOT_DURATION_S * 2)


def test_mean_bytes_per_slot():
    cfg = TrafficConfig()
    assert cfg.mean_bytes_per_slot == 122.0 * 2500


def reference_counts(cfg: TrafficConfig, sources: int, steps: int):
    """The per-source loop generate_counts replaced: one fGn draw, with its
    own circulant eigenvalues and FFT, per source."""
    rng = np.random.default_rng(cfg.seed)
    counts = np.empty((sources, steps), dtype=np.int64)
    for i in range(sources):
        if steps == 1:
            x = rng.standard_normal(1)
        else:
            r = _fgn_autocovariance(cfg.hurst, steps)
            row = np.concatenate([r, r[-2:0:-1]])
            lam = np.clip(np.fft.fft(row).real, 0.0, None)
            m = row.size
            w = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            x = np.sqrt(2.0) * np.fft.fft(np.sqrt(lam / (2.0 * m)) * w).real[:steps]
        raw = cfg.mean_tasks_per_slot * (1.0 + cfg.relative_std * x)
        counts[i] = np.round(np.maximum(0.0, raw)).astype(np.int64)
    return counts


@pytest.mark.parametrize("sources,steps", [(10, 60), (200, 8), (50, 12),
                                           (500, 390), (3, 1), (4, 2), (0, 5)])
def test_batched_counts_equal_the_per_source_loop(sources, steps):
    cfg = TrafficConfig(seed=sources + steps)
    got = generate_counts(cfg, sources, steps)
    assert got.shape == (sources, steps)
    assert np.array_equal(got, reference_counts(cfg, sources, steps))
