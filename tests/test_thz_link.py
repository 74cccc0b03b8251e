import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from terasec.thz_link import (AbsorptionProfile, ArrayConfig, BandPlan,
                              LinkBudgetParams, LinkDomainError, band_preset,
                              link_gain, link_rate, noise_power, path_gain,
                              sinr)

C_M_S = 299792458.0


# -- path gain ---------------------------------------------------------------

def test_path_gain_oracle_135ghz():
    # independent evaluation of the free-space spreading term
    f, d_km = 135e9, 1969.9
    expected = (C_M_S / (4.0 * math.pi * f * d_km * 1e3)) ** 2
    assert abs(expected / 8.05e-21 - 1.0) < 0.01
    got = path_gain(f, np.zeros(3), np.array([d_km, 0.0, 0.0]), None)
    assert abs(got / expected - 1.0) < 1e-12


def test_path_gain_inverse_square():
    f = 135e9
    g1 = path_gain(f, np.zeros(3), np.array([1000.0, 0.0, 0.0]), None)
    g2 = path_gain(f, np.zeros(3), np.array([2000.0, 0.0, 0.0]), None)
    assert abs(g1 / g2 - 4.0) < 1e-12


def test_path_gain_isl_above_atmosphere():
    profile = AbsorptionProfile(g0_per_km=0.05)
    # two satellites at 550 km altitude: whole path above the 100 km ceiling
    p0 = np.array([6921.0, 0.0, 0.0])
    ang = 2.0 * math.pi / 22.0
    p1 = 6921.0 * np.array([math.cos(ang), math.sin(ang), 0.0])
    with_abs = path_gain(135e9, p0, p1, profile)
    without = path_gain(135e9, p0, p1, None)
    assert with_abs == without


def test_path_gain_ground_path_attenuates():
    profile = AbsorptionProfile(g0_per_km=0.05)
    p0 = np.array([6921.0, 0.0, 0.0])      # satellite
    p1 = np.array([6371.0, 0.0, 0.0])      # ground
    assert path_gain(215e9, p0, p1, profile) < path_gain(215e9, p0, p1, None)


def test_path_gain_zero_distance_error():
    with pytest.raises(LinkDomainError):
        path_gain(135e9, np.zeros(3), np.zeros(3), None)


# -- link gain ---------------------------------------------------------------

def test_link_gain_identity():
    a = ArrayConfig(m_x=1, m_y=1, element_gain_dbi=0.0)
    assert abs(link_gain(1, 1, a, 3.5e-21) / 3.5e-21 - 1.0) < 1e-12


def test_link_gain_linear_in_subarrays():
    a = ArrayConfig()
    g1 = link_gain(4, 1, a, 1e-20)
    g2 = link_gain(8, 1, a, 1e-20)
    assert abs(g2 / g1 - 2.0) < 1e-12


def test_link_gain_73db_oracle():
    # 8 tx sub-arrays of 4x4, 1 rx sub-array, 10 dBi per element in the
    # amplitude reading: total gain over alpha2 is 10*log10(128*16) + 40 dB
    a = ArrayConfig(m_x=4, m_y=4, element_gain_dbi=10.0)
    ratio = link_gain(8, 1, a, 1.0, gain_interpretation="amplitude")
    expected_db = 10.0 * math.log10(128 * 16) + 40.0
    assert abs(10.0 * math.log10(ratio) - expected_db) < 1e-9
    assert abs(expected_db - 73.1) < 0.02


def test_link_gain_power_interpretation():
    a = ArrayConfig(m_x=4, m_y=4, element_gain_dbi=10.0)
    amp = link_gain(2, 1, a, 1.0, gain_interpretation="amplitude")
    pow_ = link_gain(2, 1, a, 1.0, gain_interpretation="power")
    assert abs(amp / pow_ - 100.0) < 1e-9   # (10*10) extra in amplitude mode


# -- sinr and noise ----------------------------------------------------------

def test_noise_power_oracle():
    expected = 1.380649e-23 * 290.0 * 2e9
    got = noise_power(290.0, 2e9)
    assert abs(got - expected) < 1e-30
    assert abs(got / 8.01e-12 - 1.0) < 0.01
    assert noise_power(290.0, 0.0) == 0.0
    assert abs(noise_power(290.0, 4e9) / got - 2.0) < 1e-12


def test_sinr_oracle():
    sigma2 = 8.01e-12
    got = sinr(1.0, 1e-12, sigma2, sigma2)
    assert abs(got - 1e-12 / (2 * sigma2)) < 1e-18
    assert abs(got / 0.0624 - 1.0) < 0.01
    assert sinr(0.0, 1e-12, 0.0, sigma2) == 0.0
    assert abs(sinr(1.0, sigma2, 0.0, sigma2) - 1.0) < 1e-12


# -- rate --------------------------------------------------------------------

def test_link_rate_oracles():
    assert abs(link_rate([1.0], [1.0], 2e9) - 2e9) < 1e-3
    assert link_rate([0.0] * 5, [3.0] * 5, 2e9) == 0.0
    # 5 sub-bands at gamma=3: 5 * 2 GHz * log2(4) = 20 Gbps
    assert abs(link_rate([1.0] * 5, [3.0] * 5, 2e9) - 20e9) < 1e-3


@settings(max_examples=30, deadline=None)
@given(g=st.floats(0.0, 1e4), dg=st.floats(0.0, 1e3))
def test_rate_monotone_in_gamma(g, dg):
    assert link_rate([1.0], [g + dg], 2e9) >= link_rate([1.0], [g], 2e9)


# -- band presets ------------------------------------------------------------

def test_band_presets_fractional_bandwidth():
    for phase in ("offloading", "outcome"):
        thz = band_preset("thz", phase)
        mid = thz.centers_hz[len(thz.centers_hz) // 2]
        frac = thz.bandwidth_hz / mid
        for name in ("ka", "ku"):
            b = band_preset(name, phase)
            bmid = b.centers_hz[len(b.centers_hz) // 2]
            assert abs(b.bandwidth_hz / bmid - frac) < 1e-12
            # fixed aperture: per-element gain scales with frequency squared
            assert abs(b.element_gain_scale - (bmid / mid) ** 2) < 1e-12


def test_band_rate_ordering_same_allocation():
    a = ArrayConfig()
    budget = LinkBudgetParams()
    d_km = 1969.9
    tx, rx = np.zeros(3), np.array([d_km, 0.0, 0.0])
    rates = {}
    for name in ("thz", "ka", "ku"):
        band = band_preset(name, "offloading")
        sigma2 = noise_power(budget.noise_temperature_k, band.bandwidth_hz)
        gammas = []
        for f in band.centers_hz:
            h2 = link_gain(16, 1, a, path_gain(f, tx, rx, None),
                           element_gain_scale=band.element_gain_scale)
            gammas.append(sinr(2.0, h2, 0.0, sigma2))
        rates[name] = link_rate(np.ones(band.n_subbands), gammas,
                                band.bandwidth_hz)
    assert rates["thz"] > rates["ka"] > rates["ku"]


def test_band_preset_errors():
    with pytest.raises(LinkDomainError):
        band_preset("x", "offloading")
    with pytest.raises(LinkDomainError):
        band_preset("thz", "sideways")
    with pytest.raises(LinkDomainError):
        BandPlan(phase="offloading", centers_hz=())
