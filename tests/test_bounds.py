import math
from dataclasses import replace

import numpy as np
import pytest

from fdmimo import (HomogeneousConfig, LargeScaleProfile,
                    PowerScalingSchedule, SystemConfig,
                    antenna_reduction_curve, asymptotic_gain_limits,
                    asymptotic_rates, closed_form_report, expand_homogeneous,
                    fd_gain, homogeneous_rates, prop1_rates, prop2_rates)
from fdmimo import bounds, dl_rates_fd_imperfect, fd_rates_mc, rates
from fdmimo.experiments import experiment_tradeoff, reference_schedule

from conftest import random_config, random_profile, uniform_mixed_profile
from reference import (asymptotic_rates_loop, prop1_rates_loop, prop2_rates_loop,
                       wishart_inverse_moments)


def unit_profile():
    """Single cell, one full-duplex user, every gain exactly 1."""
    ones = np.ones((1, 1, 1))
    return LargeScaleProfile(beta_u=ones, beta_d=ones.copy(),
                             beta_b=np.ones((1, 1)),
                             beta_I=np.ones((1, 1, 1, 1)), K_f=1)


def unit_cfg(M=3, **kw):
    d = dict(L=1, M=M, K_f=1, K_h_u=0, K_h_d=0, P_u=1.0, P_d=1.0, P_tr=1.0,
             kappa=0.0, sigma2=1.0, T=196)
    d.update(kw)
    return SystemConfig(**d)


def test_prop1_hand_values_m3():
    """Single cell, unit gains, unit powers, M = 3.

    Uplink: numerator P_u (M-1) = 2, denominator sigma^2 = 1 -> log2(3).
    Downlink: eta = 1/3, numerator eta (M-1)(M-2) = 2/3; the only downlink
    interference is the user's own cancelled uplink signal, so the
    denominator is sigma^2 = 1 -> log2(5/3).
    """
    ul, dl = prop1_rates(unit_profile(), unit_cfg())
    assert ul[0, 0] == pytest.approx(math.log2(3.0), rel=1e-14)
    assert dl[0, 0] == pytest.approx(math.log2(5.0 / 3.0), rel=1e-14)


def test_prop1_kappa_raises_noise_floor():
    ul0, dl0 = prop1_rates(unit_profile(), unit_cfg())
    ul1, dl1 = prop1_rates(unit_profile(), unit_cfg(kappa=0.05))
    assert ul1[0, 0] < ul0[0, 0] and dl1[0, 0] < dl0[0, 0]
    # uplink denominator gains exactly kappa * P_d * beta_b = 0.05
    assert ul1[0, 0] == pytest.approx(math.log2(1 + 2.0 / 1.05), rel=1e-14)


def test_prop2_hand_value_single_cell_ul():
    """M = 3, unit everything: lambda = 2, est_err = 1, N_t = 2 -> rate
    log2(1 + 2/3)."""
    ul, _ = prop2_rates(unit_profile(), unit_cfg())
    assert ul[0, 0] == pytest.approx(math.log2(1 + 2.0 / 3.0), rel=1e-14)


def test_bounds_require_m3():
    with pytest.raises(ValueError):
        prop1_rates(unit_profile(), unit_cfg(M=2))
    with pytest.raises(ValueError):
        prop2_rates(unit_profile(), unit_cfg(M=2))


@pytest.mark.parametrize("fn", [prop1_rates, prop2_rates], ids=["prop1", "prop2"])
@pytest.mark.parametrize("kw,match", [
    (dict(P_u=-1.0), "P_u"),
    (dict(sigma2=float("nan")), "sigma2"),
    (dict(T=1), "< T"),
    (dict(K_f=1, K_h_u=2, K_h_d=3, tau=None, tau_u=None, tau_d=None),
     "disagree on K_f"),
    (dict(L=2), "disagree on L"),
], ids=["P_u", "sigma2", "T", "K_f", "L"])
def test_closed_forms_check_inputs(small_profile, small_config, fn, kw, match):
    """The closed forms reject what the Monte Carlo driver rejects: an
    invalid config, or one whose counts disagree with the profile."""
    with pytest.raises(ValueError, match=match):
        fn(small_profile, small_config.replace(**kw))


@pytest.mark.parametrize("system", ["fd", "tdd"])
def test_array_forms_match_loops(system):
    """The array closed forms equal the per-user loops to 1e-12 on random
    profiles with L = 1..5 cells and K_f = 0..3 FD users, at a random M and
    at M = 10^4 and 10^7 (the antenna-reduction curve's M_max), where the
    bounds' rational functions of M are evaluated far from their build."""
    rng = np.random.default_rng(505)
    laws = (("perfect_csi_1_over_M", 64.0), ("imperfect_csi_1_over_sqrtM", 8.0))
    for i in range(60):
        L, K_f = 1 + i % 5, i % 4
        K_h_u = int(rng.integers(0, 3)) if K_f else int(rng.integers(1, 3))
        K_h_d = int(rng.integers(0, 3)) if K_f else int(rng.integers(1, 3))
        prof = random_profile(rng, L=L, K_f=K_f, K_h_u=K_h_u, K_h_d=K_h_d)
        cfg = random_config(rng, prof, M=int(rng.integers(3, 400)))
        pairs = [(fn(prof, c, system=system), loop(prof, c, system=system))
                 for c in (cfg, cfg.replace(M=10 ** 4), cfg.replace(M=10 ** 7))
                 for fn, loop in ((prop1_rates, prop1_rates_loop),
                                  (prop2_rates, prop2_rates_loop))]
        for law, fac in laws:
            sched = PowerScalingSchedule(E_u=cfg.P_u * fac, E_d=cfg.P_d * fac,
                                         E_tr=cfg.P_tr * fac, exponent=law)
            big = sched.apply(cfg, 10 ** 6)
            pairs.append((asymptotic_rates(prof, big, sched),
                          asymptotic_rates_loop(prof, big, sched)))
        for got, want in pairs:
            for a, b in zip(got, want):
                np.testing.assert_allclose(a, b, rtol=1e-12, atol=0)


@pytest.mark.parametrize("call", [
    lambda p, c, h: prop1_rates(p, c, system="FD"),
    lambda p, c, h: prop2_rates(p, c, system="FD"),
    lambda p, c, h: homogeneous_rates(h, "Perfect"),
    lambda p, c, h: asymptotic_gain_limits(c, "perfekt"),
], ids=["prop1-system", "prop2-system", "homogeneous-csi", "gain-limits-csi"])
def test_closed_forms_reject_unknown_modes(call, paper_homogeneous):
    prof = expand_homogeneous(paper_homogeneous)
    cfg = paper_homogeneous.system_config()
    with pytest.raises(ValueError, match="must be one of"):
        call(prof, cfg, paper_homogeneous)


def test_tdd_variant_drops_cross_terms():
    """In the TDD bounds neither kappa nor the BS-BS / UE-UE gains appear."""
    rng = np.random.default_rng(3)
    prof = random_profile(rng, L=3, K_f=0, K_h_u=2, K_h_d=2)
    cfg = random_config(rng, prof, M=16)
    prof2 = LargeScaleProfile(beta_u=prof.beta_u, beta_d=prof.beta_d,
                              beta_b=prof.beta_b * 7.0,
                              beta_I=prof.beta_I * 7.0, K_f=0)
    for fn in (prop1_rates, prop2_rates):
        a = fn(prof, cfg, system="tdd")
        b = fn(prof2, cfg.replace(kappa=0.09), system="tdd")
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])
        fd_a = fn(prof, cfg, system="fd")
        assert (fd_a[0] <= a[0] + 1e-12).all()
        assert (fd_a[1] <= a[1] + 1e-12).all()


def test_homogeneous_reduction_spot():
    h = HomogeneousConfig(L=5, K=4, beta=0.4, M=32, P_u=2.0, P_d=8.0,
                          P_tr=2.0, kappa=1e-4, T=196)
    prof = expand_homogeneous(h)
    cfg = h.system_config()
    ul, dl = prop1_rates(prof, cfg)
    hu, hd = homogeneous_rates(h, "perfect")
    assert abs(h.K * ul[0, 0] - hu) < 1e-12
    assert abs(h.K * dl[0, 0] - hd) < 1e-12
    ul2, dl2 = prop2_rates(prof, cfg)
    hu2, hd2 = homogeneous_rates(h, "imperfect")
    pref = h.K * (h.T - h.tau) / h.T
    assert abs(pref * ul2[0, 0] - hu2) < 1e-12
    assert abs(pref * dl2[0, 0] - hd2) < 1e-12


def test_homogeneous_monotone_in_m():
    h = HomogeneousConfig(L=7, K=5, beta=0.3, M=64, P_u=10.0, P_d=100.0,
                          P_tr=10.0, kappa=1e-5, T=196)
    for csi in ("perfect", "imperfect"):
        ms = [3, 8, 32, 100, 500, 5000]
        vals = [sum(homogeneous_rates(h, csi, M=m)) for m in ms]
        assert all(a < b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("M", [0, 2, 2.5])
def test_homogeneous_rates_rejects_m(paper_homogeneous, M):
    """Below 3 antennas, or a fractional count, the closed forms do not hold:
    homogeneous_rates names M instead of returning a zero or negative rate."""
    for csi in ("perfect", "imperfect"):
        with pytest.raises(ValueError, match="M: integer M >= 3"):
            homogeneous_rates(paper_homogeneous, csi, M=M)


@pytest.mark.parametrize("call", [
    lambda h: homogeneous_rates(h, "imperfect", M=64),
    lambda h: antenna_reduction_curve(h, [100], "perfect", gains=[1.1]),
], ids=["homogeneous_rates", "curve"])
@pytest.mark.parametrize("kw,match", [
    (dict(kappa=-1.0), "kappa: value in"),
    (dict(T=5), "tau: tau < T"),
    (dict(P_u=0.0), "P_u: strictly positive"),
], ids=["kappa", "T", "P_u"])
def test_homogeneous_network_validated(paper_homogeneous, call, kw, match):
    """An invalid homogeneous network is rejected by the field it breaks, as
    prop1/prop2 reject its expanded config, instead of returning rates."""
    with pytest.raises(ValueError, match=match):
        call(replace(paper_homogeneous, **kw))


def test_every_closed_form_reads_the_sinr_builder(monkeypatch, small_profile,
                                                  small_config, paper_homogeneous):
    """Every closed-form rate, the MC driver's analytic downlink included,
    comes from rates._sinr_terms: with it raising, each of them raises."""
    def boom(*args):
        raise RuntimeError("builder")

    for module in (rates, bounds):
        monkeypatch.setattr(module, "_sinr_terms", boom)
    bounds._homogeneous_se.cache_clear()
    calls = [lambda: prop1_rates(small_profile, small_config),
             lambda: prop2_rates(small_profile, small_config),
             lambda: dl_rates_fd_imperfect(small_profile, small_config),
             lambda: homogeneous_rates(paper_homogeneous, "perfect"),
             lambda: antenna_reduction_curve(paper_homogeneous, [100], "imperfect"),
             lambda: fd_rates_mc(small_profile, small_config, 8, 0, csi="imperfect")]
    for call in calls:
        with pytest.raises(RuntimeError, match="builder"):
            call()


def test_asymptotic_rates_perfect_law():
    prof = unit_profile()
    sched = PowerScalingSchedule(E_u=4.0, E_d=4.0, E_tr=4.0,
                                 exponent="perfect_csi_1_over_M")
    ul, dl = asymptotic_rates(prof, unit_cfg(M=100), sched)
    assert ul[0, 0] == pytest.approx(math.log2(5.0))
    assert dl[0, 0] == pytest.approx(math.log2(5.0))


def test_asymptotic_rates_imperfect_law():
    prof = unit_profile()
    sched = PowerScalingSchedule(E_u=3.0, E_d=3.0, E_tr=3.0,
                                 exponent="imperfect_csi_1_over_sqrtM")
    ul, dl = asymptotic_rates(prof, unit_cfg(M=100), sched)
    assert ul[0, 0] == pytest.approx(math.log2(1 + 9.0))
    assert dl[0, 0] == pytest.approx(math.log2(1 + 9.0))
    with pytest.raises(ValueError):
        asymptotic_rates(prof, unit_cfg(),
                         PowerScalingSchedule(E_u=1, E_d=1, E_tr=1,
                                              exponent="none"))


def test_bounds_converge_to_asymptote():
    """At very large M with the matching scaled-down powers the closed-form
    bounds approach the limit rates."""
    prof = uniform_mixed_profile()
    base = SystemConfig(L=3, M=64, K_f=2, K_h_u=1, K_h_d=2, P_u=10.0,
                        P_d=100.0, P_tr=10.0, kappa=1e-5, sigma2=1.0, T=196)
    for csi, fn in (("perfect", prop1_rates), ("imperfect", prop2_rates)):
        law = ("perfect_csi_1_over_M" if csi == "perfect"
               else "imperfect_csi_1_over_sqrtM")
        fac = 64.0 if csi == "perfect" else 8.0
        sched = PowerScalingSchedule(E_u=base.P_u * fac, E_d=base.P_d * fac,
                                     E_tr=base.P_tr * fac, exponent=law)
        cfg = sched.apply(base, 10 ** 6)
        a_ul, a_dl = asymptotic_rates(prof, cfg, sched)
        ul, dl = fn(prof, cfg)
        np.testing.assert_allclose(ul, a_ul, rtol=0.01)
        np.testing.assert_allclose(dl, a_dl, rtol=0.01)


def test_asymptotic_gain_limits_values():
    cfg = SystemConfig(L=2, M=8, K_f=0, K_h_u=5, K_h_d=5, P_u=1, P_d=1,
                       P_tr=1, kappa=0.0, sigma2=1.0, T=196)
    assert asymptotic_gain_limits(cfg, "perfect") == (2.0, 2.0)
    g_ul, g_dl = asymptotic_gain_limits(cfg, "imperfect")
    assert g_ul == pytest.approx(2 * (1 - 5 / (196 - 5)))
    assert g_dl == pytest.approx(2 * (1 - 5 / (196 - 5)))


def test_fd_gain_shapes_and_asymptotes(small_profile, small_config):
    fd = closed_form_report(small_profile, small_config, "perfect", "fd")
    tdd = closed_form_report(small_profile, small_config, "perfect", "tdd")
    g_ul, g_dl = fd_gain(fd, tdd)
    assert g_ul > 0 and g_dl > 0
    # per-user TDD rates dominate FD rates; the gain comes from concurrency
    assert (fd.ul_rates <= tdd.ul_rates + 1e-12).all()
    assert g_ul < 2.0


def test_wishart_moment_formulas():
    assert wishart_inverse_moments(1, 4) == (pytest.approx(1 / 3),
                                             pytest.approx(1 / 6))
    assert wishart_inverse_moments(2, 8) == (pytest.approx(1 / 3),
                                             pytest.approx(16 / 210))
    with pytest.raises(ValueError):
        wishart_inverse_moments(3, 3)
    with pytest.raises(ValueError):
        wishart_inverse_moments(3, 4)


def test_antenna_reduction_curve_monotone(paper_homogeneous):
    pts = antenna_reduction_curve(paper_homogeneous, [100], "imperfect",
                                  gains=[1.0, 1.2, 1.4])
    assert [p.se_gain for p in pts] == [1.0, 1.2, 1.4]
    m_fd = [p.M_fd for p in pts]
    assert m_fd == sorted(m_fd)
    # matching TDD spectral efficiency needs fewer antennas in full duplex
    assert pts[0].M_fd < 100 and pts[0].antenna_reduction > 1.0
    assert all(p.reachable for p in pts)


def test_antenna_reduction_unreachable_flag(paper_homogeneous):
    pts = antenna_reduction_curve(paper_homogeneous, [100], "imperfect",
                                  gains=[50.0], M_max=10_000)
    assert not pts[0].reachable and pts[0].M_fd == 10_000


def _scan_curve(h, csi, M_tdd, gains, M_max):
    """The antenna-reduction points by exhaustive scan: for each gain g the
    smallest M in [3, M_max] whose FD gain over TDD reaches g, or None.  Both
    sides are the curve's per-M evaluators, built once per (h, csi)."""
    se = bounds._homogeneous_se(h, csi)
    se_tdd = sum(se(M_tdd, "tdd"))
    gain = [sum(se(m, "fd")) / se_tdd for m in range(3, M_max + 1)]
    return [next((m for m, r in enumerate(gain, start=3) if r >= g), None)
            for g in gains], gain


def random_homogeneous(rng):
    return HomogeneousConfig(
        L=int(rng.integers(1, 12)), K=int(rng.integers(1, 9)),
        beta=float(rng.uniform(0.02, 0.8)), M=64,
        P_u=float(10 ** rng.uniform(-1, 2)), P_d=float(10 ** rng.uniform(0, 2.5)),
        P_tr=float(10 ** rng.uniform(-1, 2)), kappa=float(10 ** rng.uniform(-7, -2)),
        T=int(rng.integers(60, 400)))


@pytest.mark.parametrize("csi", ["perfect", "imperfect"])
def test_antenna_reduction_curve_matches_scan(csi):
    """On random homogeneous networks every M_fd is the smallest M in
    [3, M_max] whose predicate holds, found by a linear scan: for unsorted
    and repeated gains (some below the gain at M = 3, some beyond M_max),
    for M_tdd above M_max, and on the default grid, whose last gain is the
    equal-antenna one and gives M_fd = M_tdd exactly."""
    rng = np.random.default_rng(21)
    for _ in range(16):
        h = random_homogeneous(rng)
        M_max = int(rng.integers(40, 1500))
        M_tdd_list = [int(rng.integers(3, M_max)), M_max + 7]
        for M_tdd in M_tdd_list:
            _, gain = _scan_curve(h, csi, M_tdd, [], M_max)
            gains = list(rng.uniform(gain[0], gain[-1], 4))
            gains += [1.01 * gain[-1], gains[1], 0.99 * gain[0], gain[0],
                      gain[min(M_tdd, M_max) - 3]]
            want, _ = _scan_curve(h, csi, M_tdd, gains, M_max)
            pts = antenna_reduction_curve(h, [M_tdd], csi, gains=gains, M_max=M_max)
            assert [p.se_gain for p in pts] == gains
            assert [(p.M_fd, p.reachable) for p in pts] == [
                (M_max, False) if m is None else (m, True) for m in want]
            assert {p.reachable for p in pts} == {True, False}
        M_tdd = M_tdd_list[0]
        pts = antenna_reduction_curve(h, [M_tdd], csi, M_max=M_max)
        want, _ = _scan_curve(h, csi, M_tdd, [p.se_gain for p in pts], M_max)
        assert [p.M_fd for p in pts] == want and want[-1] == M_tdd


@pytest.mark.parametrize("gains", [[1.2, float("nan")], [float("inf")], [0.0], [1.1, -1.2]])
def test_antenna_reduction_curve_rejects_gains(monkeypatch, paper_homogeneous, gains):
    """A NaN gain used to give M_fd = M_max reachable, a negative one M_fd = 3;
    every gain is now checked, by name, before any rate is built or evaluated."""
    calls = []
    monkeypatch.setattr(bounds, "homogeneous_rates", lambda *a, **k: calls.append(a))
    monkeypatch.setattr(bounds, "_homogeneous_se", lambda *a, **k: calls.append(a))
    with pytest.raises(ValueError, match="gains: finite positive"):
        antenna_reduction_curve(paper_homogeneous, [100], "imperfect", gains=gains)
    assert calls == []


@pytest.mark.parametrize("M_max", [2, 0, 50.0, True])
def test_antenna_reduction_curve_rejects_m_max(paper_homogeneous, M_max):
    with pytest.raises(ValueError, match="M_max: integer M_max >= 3"):
        antenna_reduction_curve(paper_homogeneous, [100], "perfect", gains=[1.1],
                                M_max=M_max)


@pytest.mark.parametrize("csi,calls", [("imperfect", 102), ("perfect", 112)])
def test_tradeoff_call_budget(monkeypatch, paper_homogeneous, csi, calls):
    """homogeneous_rates calls of the default tradeoff experiment (M_tdd 100,
    200, 400, 800, the 8-gain grid, M_max = 10^7).  Each M is evaluated once
    per curve and the search from M_tdd needs a few probes per point; a
    blind bisection over [3, 10^7] made 784 (imperfect) and 783 (perfect).
    The FD and TDD terms are built once, together, for the whole curve."""
    count = []
    real = bounds.homogeneous_rates

    def counting(*args, **kwargs):
        count.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(bounds, "homogeneous_rates", counting)
    bounds._homogeneous_se.cache_clear()
    experiment_tradeoff(paper_homogeneous, [100, 200, 400, 800], csi)
    assert len(count) == calls
    assert bounds._homogeneous_se.cache_info().misses == 1


def test_reference_schedule_anchor(paper_homogeneous):
    h = paper_homogeneous
    s = reference_schedule(h, "perfect", m_ref=64)
    assert s.powers_at(64) == pytest.approx((h.P_u, h.P_d, h.P_tr))
    s = reference_schedule(h, "imperfect", m_ref=64)
    assert s.powers_at(64) == pytest.approx((h.P_u, h.P_d, h.P_tr))
