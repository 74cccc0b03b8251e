import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from terasec.thz_link import (AbsorptionProfile, ArrayConfig, BandPlan,
                              LinkBudgetParams, LinkDomainError,
                              absorption_factor, absorption_path,
                              band_preset, link_gain, link_rate, noise_power,
                              path_gain, sinr)

import slot_reference as ref

C_M_S = 299792458.0


# -- path gain ---------------------------------------------------------------

def test_path_gain_oracle_135ghz():
    # independent evaluation of the free-space spreading term
    f, d_km = 135e9, 1969.9
    expected = (C_M_S / (4.0 * math.pi * f * d_km * 1e3)) ** 2
    assert abs(expected / 8.05e-21 - 1.0) < 0.01
    got = path_gain(f, d_km)
    assert abs(got / expected - 1.0) < 1e-12


def test_path_gain_inverse_square():
    f = 135e9
    g1 = path_gain(f, 1000.0)
    g2 = path_gain(f, 2000.0)
    assert abs(g1 / g2 - 4.0) < 1e-12


def test_path_gain_isl_above_atmosphere():
    profile = AbsorptionProfile(g0_per_km=0.05)
    # two satellites at 550 km altitude: whole path above the 100 km ceiling
    p0 = np.array([6921.0, 0.0, 0.0])
    ang = 2.0 * math.pi / 22.0
    p1 = 6921.0 * np.array([math.cos(ang), math.sin(ang), 0.0])
    without = path_gain(135e9, np.linalg.norm(p1 - p0))
    path = absorption_path(p0, p1)
    assert absorption_factor(path, profile) == 1.0
    assert without * absorption_factor(path, profile) == without


def test_path_gain_ground_path_attenuates():
    profile = AbsorptionProfile(g0_per_km=0.05)
    p0 = np.array([6921.0, 0.0, 0.0])      # satellite
    p1 = np.array([6371.0, 0.0, 0.0])      # ground
    without = path_gain(215e9, np.linalg.norm(p1 - p0))
    assert without * absorption_factor(absorption_path(p0, p1),
                                       profile) < without


def test_a_ground_path_without_absorption_reads_exactly_one():
    p0 = np.array([6921.0, 0.0, 0.0])      # satellite
    p1 = np.array([6371.0, 0.0, 0.0])      # ground, below the ceiling
    assert absorption_factor(absorption_path(p0, p1),
                             AbsorptionProfile(g0_per_km=0.0)) == 1.0


def test_path_gain_zero_distance_error():
    with pytest.raises(LinkDomainError):
        path_gain(135e9, 0.0)


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


@pytest.mark.parametrize("fields", [
    {"element_gain_dbi": 1e12}, {"element_gain_dbi": 1000.0},
    {"element_gain_dbi": math.nan}, {"m_x": 10**160},
    # 10**76.9 per element: its fourth power times 64 * 16 * 16 overflows
    {"element_gain_dbi": 769.0},
    # m_x * m_y itself too large for a float
    {"m_x": 10**400}, {"m_y": 10**400}])
def test_array_config_rejects_an_overflowing_full_array_gain(fields):
    with pytest.raises(LinkDomainError):
        ArrayConfig(**fields)


def test_array_config_accepts_a_large_finite_full_array_gain():
    a = ArrayConfig(element_gain_dbi=760.0)
    assert math.isfinite(a.element_gain_linear() ** 4 * (64 * 16) * 16)


def test_link_gain_does_not_wrap_at_a_huge_array():
    """The element-count product is taken in float64: positive and equal to
    the float formula at m_x = 10**9, where an int64 product wraps, and
    bit-equal to the integer product at the default array."""
    s_tx = np.array([4, 64])
    big = ArrayConfig(m_x=10**9)
    g = big.element_gain_linear() ** 2
    gain = link_gain(s_tx, 1, big, 1e-20)
    assert np.all(gain > 0.0)
    np.testing.assert_allclose(gain, s_tx * 4e9 * 4e9 * g * g * 1e-20,
                               rtol=1e-12)
    a = ArrayConfig()
    m = a.m_x * a.m_y
    g = a.element_gain_linear() ** 2
    want = (s_tx * m) * (1 * m) * g * g * 1e-20
    assert link_gain(s_tx, 1, a, 1e-20).tobytes() == want.tobytes()


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
    rates = {}
    for name in ("thz", "ka", "ku"):
        band = band_preset(name, "offloading")
        sigma2 = noise_power(budget.noise_temperature_k, band.bandwidth_hz)
        gammas = []
        for f in band.centers_hz:
            h2 = link_gain(16, 1, a, path_gain(f, d_km),
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
        BandPlan(centers_hz=())


# -- array calls against per-element scalar calls ------------------------------

def random_links(rng, n):
    """n random satellite pairs around a 550 km shell."""
    def shell(size):
        v = rng.normal(size=(size, 3))
        return 6921.0 * v / np.linalg.norm(v, axis=1, keepdims=True)
    return shell(n), shell(n)


def test_path_gain_array_equals_scalar_calls():
    rng = np.random.default_rng(7)
    tx, rx = random_links(rng, 200)
    f = np.array(band_preset("thz", "outcome").centers_hz)
    d_km = np.linalg.norm(rx - tx, axis=1)
    got = path_gain(f, d_km[:, None])
    assert got.shape == (200, f.size)
    for i in range(200):
        d = float(d_km[i])
        for k, fk in enumerate(f.tolist()):
            assert got[i, k] == path_gain(fk, d)
            # the Python-float formula, libm pow included
            assert got[i, k] == (C_M_S / (4.0 * math.pi * fk * d * 1e3)) ** 2


def test_path_gain_ground_link_array_equals_scalar_calls():
    profile = AbsorptionProfile(g0_per_km=0.05)
    sat = np.array([6921.0, 0.0, 0.0])
    for gs in (np.array([6371.0, 0.0, 0.0]), np.array([6300.0, 1000.0, 0.0])):
        f = np.array(band_preset("thz", "outcome").centers_hz)
        d_km = np.linalg.norm(gs - sat)
        path = absorption_path(sat, gs)
        got = path_gain(f, d_km) * absorption_factor(path, profile)
        want = [path_gain(fk, d_km) * absorption_factor(path, profile)
                for fk in f.tolist()]
        assert np.array_equal(got, want)
        assert np.all(got < path_gain(f, d_km))


def test_a_shared_path_gives_each_profile_the_bits_of_a_direct_call():
    """One absorption_path sampling serves every band: each profile's factor
    from it has the bits of the direct call that samples the path itself
    (the reference), for the thz, ka and ku profiles and one with another
    scale height and ceiling.  The paths run from a satellite to the
    ground, some dipping below it (a negative altitude), and all cross the
    40 km ceiling."""
    profiles = [band_preset(name, "outcome").absorption
                for name in ("thz", "ka", "ku")]
    profiles.append(AbsorptionProfile(g0_per_km=0.05, scale_height_km=2.5,
                                      ceiling_km=40.0))
    rng = np.random.default_rng(4)
    gs = np.array([6371.0, 0.0, 0.0])
    below_ground = 0
    for _ in range(30):
        to_sat = rng.normal(size=3)
        to_sat[0] = abs(to_sat[0])
        sat = (6371.0 + rng.uniform(300.0, 1200.0)) * to_sat / np.linalg.norm(
            to_sat)
        path = absorption_path(sat, gs)
        below_ground += min(path[0]) < 0.0
        factors = [absorption_factor(path, p) for p in profiles]
        assert [f.hex() for f in factors] == [
            ref.absorption_factor(sat, gs, p).hex() for p in profiles]
        assert len(set(factors)) == len(factors) and max(factors) < 1.0
    assert 0 < below_ground < 30


def test_link_chain_arrays_equal_scalar_calls():
    rng = np.random.default_rng(8)
    a, sigma2 = ArrayConfig(), noise_power(290.0, 2e9)
    alpha2 = 10.0 ** rng.uniform(-22.0, -19.0, size=(50, 5))
    s_tx = rng.integers(1, 65, size=(50, 1))
    power = rng.uniform(0.0, 2.0, size=(50, 5)) * (rng.random((50, 5)) > 0.3)
    h2 = link_gain(s_tx, 1, a, alpha2, element_gain_scale=0.3)
    gamma = sinr(power, h2, 1e-13, sigma2)
    rate = link_rate(power > 0.0, gamma, 2e9)
    assert rate.shape == (50,)
    for i in range(50):
        for k in range(5):
            h = link_gain(int(s_tx[i, 0]), 1, a, float(alpha2[i, k]),
                          element_gain_scale=0.3)
            assert h2[i, k] == h
            assert gamma[i, k] == sinr(float(power[i, k]), h, 1e-13, sigma2)
        assert rate[i] == link_rate(power[i] > 0.0, gamma[i], 2e9)


def test_array_domain_errors_anywhere():
    with pytest.raises(LinkDomainError):
        path_gain(np.array([135e9, 137e9]), np.array([[1.0], [0.0], [2.0]]))
    with pytest.raises(LinkDomainError):
        link_gain(np.array([[4], [0], [2]]), 1, ArrayConfig(), np.ones((3, 5)))
    with pytest.raises(LinkDomainError):
        sinr(np.array([1.0, -1e-9, 0.0]), np.ones(3), 0.0, 1.0)
