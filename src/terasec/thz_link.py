"""THz/Ka/Ku link budget: path gain, beamformed link gain, SINR and
multi-sub-band Shannon capacity.

The beamformer is abstracted as an ideal aligned beam: the full transmit and
receive array gains are applied and the combiner noise term is folded into
the thermal noise power.  All functions are pure; path_gain, link_gain, sinr
and link_rate take broadcast arrays, so one chain call rates a whole
[links x sub-bands] grid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constellation import EARTH_RADIUS_KM

SPEED_OF_LIGHT_M_S = 299792458.0
BOLTZMANN_J_K = 1.380649e-23


class LinkDomainError(ValueError):
    """Invalid physical argument (e.g. zero-distance path)."""


@dataclass(frozen=True)
class ArrayConfig:
    m_x: int = 4
    m_y: int = 4
    d0_wavelengths: float = 0.5          # spacing in wavelengths; not read (ideal beam)
    element_gain_dbi: float = 10.0
    s_max: int = 64                      # max transmitting sub-arrays
    rx_subarrays_per_isl: int = 1

    def __post_init__(self):
        # a source pre-allocates one sub-array to each of its 4 ISLs
        if min(self.m_x, self.m_y, self.rx_subarrays_per_isl) < 1 or self.s_max < 4:
            raise LinkDomainError("m_x, m_y, rx_subarrays_per_isl must be >= 1"
                                  " and s_max >= 4")

    def element_gain_linear(self) -> float:
        return 10.0 ** (self.element_gain_dbi / 10.0)


@dataclass(frozen=True)
class AbsorptionProfile:
    """Exponential atmosphere: g_abs(f, h) = g0 * exp(-h / scale_height).

    Paths entirely above `ceiling_km` are treated as absorption-free.
    """

    g0_per_km: float = 0.0
    scale_height_km: float = 6.0
    ceiling_km: float = 100.0

    def coefficient(self, altitude_km: float) -> float:
        if altitude_km >= self.ceiling_km:
            return 0.0
        return self.g0_per_km * math.exp(-max(altitude_km, 0.0) / self.scale_height_km)


@dataclass(frozen=True)
class BandPlan:
    """Sub-band layout for one transmission phase."""

    phase: str                                  # "offloading" | "outcome"
    centers_hz: tuple
    bandwidth_hz: float = 2e9
    absorption: AbsorptionProfile = field(default_factory=AbsorptionProfile)
    element_gain_scale: float = 1.0             # fixed-aperture scaling vs THz

    def __post_init__(self):
        if len(self.centers_hz) < 1:
            raise LinkDomainError("band plan needs at least one sub-band")
        if self.bandwidth_hz <= 0:
            raise LinkDomainError("sub-band bandwidth must be positive")

    @property
    def n_subbands(self) -> int:
        return len(self.centers_hz)


@dataclass(frozen=True)
class LinkBudgetParams:
    p_max_w: float = 10.0                 # 40 dBm
    noise_temperature_k: float = 290.0
    interference_mean_w: float = 0.0
    gain_interpretation: str = "amplitude"  # "amplitude" | "power"

    def __post_init__(self):
        if self.p_max_w <= 0 or self.noise_temperature_k <= 0:
            raise LinkDomainError("p_max and noise temperature must be positive")
        if self.interference_mean_w < 0:
            raise LinkDomainError("interference mean must be nonnegative")
        if self.gain_interpretation not in ("amplitude", "power"):
            raise LinkDomainError("gain_interpretation must be amplitude or power")


# THz sub-band centers: 5 bands in 130-140 GHz (offloading) and 210-220 GHz
# (outcome transmission).
_THZ_OFFLOAD_CENTERS = tuple(1e9 * f for f in (131.0, 133.0, 135.0, 137.0, 139.0))
_THZ_OUTCOME_CENTERS = tuple(1e9 * f for f in (211.0, 213.0, 215.0, 217.0, 219.0))
_LOW_BAND_CENTERS = {"ka": (30e9, 35e9), "ku": (14e9, 16e9)}
_DEFAULT_G0 = {"thz": 0.05, "ka": 0.005, "ku": 0.002}


def band_preset(name: str, phase: str, g0_per_km: float | None = None) -> BandPlan:
    """Band plan for `name` in {thz, ka, ku} and phase in {offloading, outcome}.

    Low-frequency bands keep the THz fractional bandwidth and the effective
    antenna aperture (per-element gain scales with frequency squared).
    """
    if phase not in ("offloading", "outcome"):
        raise LinkDomainError(f"unknown phase {phase!r}")
    thz_centers = _THZ_OFFLOAD_CENTERS if phase == "offloading" else _THZ_OUTCOME_CENTERS
    thz_mid = thz_centers[len(thz_centers) // 2]
    if g0_per_km is None:
        g0_per_km = _DEFAULT_G0.get(name, 0.0)
    absorption = AbsorptionProfile(g0_per_km=g0_per_km)
    if name == "thz":
        return BandPlan(phase=phase, centers_hz=thz_centers, bandwidth_hz=2e9,
                        absorption=absorption, element_gain_scale=1.0)
    if name not in _LOW_BAND_CENTERS:
        raise LinkDomainError(f"unknown band {name!r}")
    mid = _LOW_BAND_CENTERS[name][0 if phase == "offloading" else 1]
    ratio = mid / thz_mid
    centers = tuple(f * ratio for f in thz_centers)
    return BandPlan(phase=phase, centers_hz=centers, bandwidth_hz=2e9 * ratio,
                    absorption=absorption, element_gain_scale=ratio**2)


def absorption_factor(tx_pos_km: np.ndarray, rx_pos_km: np.ndarray,
                      profile: AbsorptionProfile, n_segments: int = 64) -> float:
    """exp(-integral of g_abs along one path); trapezoidal quadrature.
    g_abs has no frequency dependence: one factor serves every sub-band."""
    p0 = np.asarray(tx_pos_km, dtype=float)
    p1 = np.asarray(rx_pos_km, dtype=float)
    alts = np.linalg.norm(
        p0[None, :] + np.linspace(0.0, 1.0, n_segments + 1)[:, None] * (p1 - p0)[None, :],
        axis=1) - EARTH_RADIUS_KM
    if np.min(alts) >= profile.ceiling_km or profile.g0_per_km == 0.0:
        return 1.0
    g = np.array([profile.coefficient(h) for h in alts])
    length = float(np.linalg.norm(p1 - p0))
    integral = float(np.trapezoid(g, dx=length / n_segments))
    return math.exp(-integral)


def path_gain(f_hz, tx_pos_km: np.ndarray, rx_pos_km: np.ndarray,
              profile: AbsorptionProfile | None = None):
    """Line-of-sight power path gain |alpha|^2 including molecular absorption.

    Positions are [..., 3] and broadcast; f_hz broadcasts against the
    distances.  An absorption profile applies to a single path.
    """
    v = np.asarray(rx_pos_km, float) - np.asarray(tx_pos_km, float)
    d_km = np.sqrt(np.vecdot(v, v))          # bit-identical to np.linalg.norm
    if np.any(d_km <= 0.0):
        raise LinkDomainError("path gain undefined for zero distance")
    # float_power rounds as libm pow does (Python's float ** 2); an ndarray
    # ** 2 is a plain square, which differs in the last bit on some values
    spreading = np.float_power(
        SPEED_OF_LIGHT_M_S / (4.0 * math.pi * np.asarray(f_hz) * d_km * 1e3), 2)
    if profile is None:
        return spreading
    return spreading * absorption_factor(tx_pos_km, rx_pos_km, profile)


def link_gain(s_tx, s_rx: int, a: ArrayConfig, alpha2,
              gain_interpretation: str = "amplitude",
              element_gain_scale: float = 1.0):
    """Effective beamformed power gain |h|^2 under ideal beam alignment;
    the transmit sub-array counts broadcast against alpha2."""
    if np.any(s_tx < 1) or s_rx < 1:
        raise LinkDomainError("at least one sub-array per link end")
    g_lin = a.element_gain_linear() * element_gain_scale
    g = g_lin**2 if gain_interpretation == "amplitude" else g_lin
    m = a.m_x * a.m_y
    return (s_tx * m) * (s_rx * m) * g * g * alpha2


def sinr(p_w, h2, interference_w: float, noise_w: float):
    if noise_w <= 0:
        raise LinkDomainError("noise power must be positive")
    if np.any(p_w < 0) or interference_w < 0:
        raise LinkDomainError("power and interference must be nonnegative")
    return p_w * h2 / (interference_w + noise_w)


def noise_power(t_sys_k: float, bandwidth_hz: float) -> float:
    return BOLTZMANN_J_K * t_sys_k * bandwidth_hz


def link_rate(psi, gamma, bandwidth_hz: float):
    """Aggregate Shannon capacity over the active sub-bands (last axis), bit/s."""
    psi = np.asarray(psi, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    return np.sum(psi * bandwidth_hz * np.log2(1.0 + gamma), axis=-1)
