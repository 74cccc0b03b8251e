"""THz/Ka/Ku link budget: path gain, beamformed link gain, SINR and
multi-sub-band Shannon capacity.

The beamformer is abstracted as an ideal aligned beam: the full transmit and
receive array gains are applied and the combiner noise term is folded into
the thermal noise power.  All functions are pure; path_gain, link_gain, sinr
and link_rate take broadcast arrays, so one chain call rates a whole
[links x sub-bands] grid from the links' distances.
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
        # element counts stay below 2**53: exact as floats, and the int64
        # sub-array counts quantize_subarrays casts cannot wrap
        if max(self.s_max, self.rx_subarrays_per_isl) * self.m_x * self.m_y > 2**53:
            raise LinkDomainError("s_max and rx_subarrays_per_isl times m_x * m_y"
                                  " must be <= 2**53")
        # the beamformed gain of full arrays at both ends must be a float:
        # an infinite one makes infinite SINR features and NaN actions
        try:
            m = float(self.m_x * self.m_y)
            full = (self.element_gain_linear() ** 4 * (self.s_max * m)
                    * (self.rx_subarrays_per_isl * m))
        except OverflowError:
            full = math.inf
        if not math.isfinite(full):
            raise LinkDomainError(
                "the beamformed gain of full arrays overflows a float: "
                f"element_gain_dbi={self.element_gain_dbi!r}, m_x={self.m_x}, "
                f"m_y={self.m_y}, s_max={self.s_max}")

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
#: trapezoidal segments along a path for the absorption integral
_ABSORPTION_SEGMENTS = 64


def band_preset(name: str, phase: str) -> BandPlan:
    """Band plan for `name` in {thz, ka, ku} and phase in {offloading, outcome}.

    Low-frequency bands keep the THz fractional bandwidth and the effective
    antenna aperture (per-element gain scales with frequency squared).
    """
    if phase not in ("offloading", "outcome"):
        raise LinkDomainError(f"unknown phase {phase!r}")
    thz_centers = _THZ_OFFLOAD_CENTERS if phase == "offloading" else _THZ_OUTCOME_CENTERS
    thz_mid = thz_centers[len(thz_centers) // 2]
    absorption = AbsorptionProfile(g0_per_km=_DEFAULT_G0.get(name, 0.0))
    if name == "thz":
        return BandPlan(centers_hz=thz_centers, bandwidth_hz=2e9,
                        absorption=absorption, element_gain_scale=1.0)
    if name not in _LOW_BAND_CENTERS:
        raise LinkDomainError(f"unknown band {name!r}")
    mid = _LOW_BAND_CENTERS[name][0 if phase == "offloading" else 1]
    ratio = mid / thz_mid
    centers = tuple(f * ratio for f in thz_centers)
    return BandPlan(centers_hz=centers, bandwidth_hz=2e9 * ratio,
                    absorption=absorption, element_gain_scale=ratio**2)


def absorption_path(tx_pos_km: np.ndarray, rx_pos_km: np.ndarray) -> tuple:
    """(altitudes, length): one path's altitudes in km at its
    _ABSORPTION_SEGMENTS + 1 evenly spaced points, as a list, and its length
    in km.  No band changes them, so one sampling serves every band."""
    p0 = np.asarray(tx_pos_km, dtype=float)
    p1 = np.asarray(rx_pos_km, dtype=float)
    s = np.linspace(0.0, 1.0, _ABSORPTION_SEGMENTS + 1)[:, None]
    alts = np.linalg.norm(p0 + s * (p1 - p0), axis=1) - EARTH_RADIUS_KM
    return alts.tolist(), float(np.linalg.norm(p1 - p0))


def absorption_factor(path: tuple, profile: AbsorptionProfile) -> float:
    """exp(-integral of g_abs along a path of absorption_path's samples);
    trapezoidal quadrature.  g_abs has no frequency dependence: one factor
    serves every sub-band."""
    alts, length = path
    g = np.array([profile.coefficient(h) for h in alts])
    integral = float(np.trapezoid(g, dx=length / _ABSORPTION_SEGMENTS))
    return math.exp(-integral)


def path_gain(f_hz, d_km):
    """Line-of-sight free-space power path gain |alpha|^2 over d_km; molecular
    absorption is absorption_factor's.  f_hz broadcasts against d_km."""
    d_km = np.asarray(d_km, float)
    if np.any(d_km <= 0.0):
        raise LinkDomainError("path gain needs a positive distance")
    # float_power rounds as libm pow does (Python's float ** 2); an ndarray
    # ** 2 is a plain square, which differs in the last bit on some values
    return np.float_power(
        SPEED_OF_LIGHT_M_S / (4.0 * math.pi * np.asarray(f_hz) * d_km * 1e3), 2)


def link_gain(s_tx, s_rx: int, a: ArrayConfig, alpha2,
              gain_interpretation: str = "amplitude",
              element_gain_scale: float = 1.0):
    """Effective beamformed power gain |h|^2 under ideal beam alignment;
    the transmit sub-array counts broadcast against alpha2."""
    if np.any(s_tx < 1) or s_rx < 1:
        raise LinkDomainError("at least one sub-array per link end")
    g_lin = a.element_gain_linear() * element_gain_scale
    g = g_lin**2 if gain_interpretation == "amplitude" else g_lin
    # float64: an int64 product of element counts wraps at large arrays;
    # below 2**53 the float product has the integer product's bits
    m = float(a.m_x * a.m_y)
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
