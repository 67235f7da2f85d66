"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or on
failure) and asserts the criterion at its stated tolerance.
"""

import math
import time

import numpy as np
import pytest

from fdmimo import (HomogeneousConfig, PowerScalingSchedule, ScenarioParams,
                    SystemConfig,
                    asymptotic_gain_limits, asymptotic_rates,
                    closed_form_report, emit, estimation_stats,
                    expand_homogeneous, fd_gain,
                    fd_rates_mc, homogeneous_rates, prop1_rates, prop2_rates,
                    run_drop, tdd_rates_mc)
from fdmimo.experiments import experiment_power_scaling, experiment_tightness
from fdmimo.rates import _TrialSampler, dl_rates_fd_imperfect, overheads

from conftest import random_config, random_profile, uniform_mixed_profile
from reference import (homogeneous_rates_reduced, kernel_rates, mmse_estimate,
                       wishart_inverse_moments)

PAPER_H = HomogeneousConfig(L=7, K=5, beta=0.3, M=64, P_u=10.0, P_d=100.0,
                            P_tr=10.0, kappa=1e-5, T=196)


def report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    return ok


def simulated_fd_imperfect_dl(prof, cfg, trials, seed):
    """The FD estimated-CSI downlink, which the driver reports by its bound,
    simulated through the kernels: per-user rates and stderr."""
    sampler = _TrialSampler(prof, cfg, True, False)
    return kernel_rates(sampler.draw, prof, cfg, "fd", "imperfect", trials, seed)[2:]


def test_criterion_1_jensen_lower_bound_property():
    """Closed-form rates never exceed Monte Carlo + 3 standard errors.  The
    driver reports the FD estimated-CSI downlink by its bound, so that link
    is simulated through the kernels and checked by its z-scores."""
    rng = np.random.default_rng(2024)
    m_set = [3, 8, 32, 100]
    worst, z_min = -np.inf, np.inf
    for i in range(20):
        L = int(rng.integers(2, 4))
        K_f = int(rng.integers(0, 3))
        K_h_u = int(rng.integers(0, 3)) if K_f else int(rng.integers(1, 3))
        K_h_d = int(rng.integers(0, 3)) if K_f else int(rng.integers(1, 3))
        prof = random_profile(rng, L=L, K_f=K_f, K_h_u=K_h_u, K_h_d=K_h_d)
        cfg = random_config(rng, prof, M=m_set[i % 4])
        for csi, fn in (("perfect", prop1_rates), ("imperfect", prop2_rates)):
            mc = fd_rates_mc(prof, cfg, 400, [991, i], csi=csi)
            b_ul, b_dl = fn(prof, cfg)
            worst = max(worst, (b_ul - (mc.ul_rates + 3 * mc.ul_stderr)).max())
            if csi == "perfect":
                worst = max(worst, (b_dl - (mc.dl_rates + 3 * mc.dl_stderr)).max())
            else:
                dl, dl_se = simulated_fd_imperfect_dl(prof, cfg, 2048, [991, i])
                z_min = min(z_min, ((dl - b_dl) / dl_se).min())
    ok = worst <= 0 and z_min >= -3
    assert report(1, "jensen-lower-bound-property", ok,
                  f"worst excess {worst:.3e}; simulated FD imperfect/dl "
                  f"min z {z_min:+.1f}")


def test_criterion_2_bound_tightness_m300():
    """At M = 300 the closed-form bounds sit within 5% of MC, in <= 5 min.
    The FD estimated-CSI downlink, which the driver reports by its bound, is
    simulated with the same trials and seed; no user of it may fall below
    the bound by more than 3 stderr."""
    t0 = time.time()
    res = experiment_tightness(PAPER_H, [300], 5000, 17)
    gaps = {(r["csi"], r["link"]): r["rel_gap"] for r in res.rows}
    prof, cfg = expand_homogeneous(PAPER_H), PAPER_H.system_config(M=300)
    dl, dl_se = simulated_fd_imperfect_dl(prof, cfg, 5000, [17, 0])
    sim = overheads(cfg, "fd", "imperfect")[1] * dl.sum(axis=1).mean()
    bound = next(r["bound_se"] for r in res.rows if r["csi"] == "imperfect"
                 and r["link"] == "dl")
    gaps["imperfect", "dl"] = (sim - bound) / sim
    z_min = ((dl - dl_rates_fd_imperfect(prof, cfg)) / dl_se).min()
    elapsed = time.time() - t0
    ok = all(abs(g) <= 0.05 for g in gaps.values()) and z_min >= -3 \
        and elapsed <= 300
    detail = ", ".join(f"{c}/{l} {g:.3f}" for (c, l), g in gaps.items())
    assert report(2, "bound-tightness-M300", ok,
                  f"{detail}; simulated imperfect/dl min z {z_min:+.1f}; "
                  f"{elapsed:.0f}s")


def test_criterion_3_gain_at_m64_perfect():
    """Perfect-CSI gains at M = 64: downlink 1.7 +/- 0.2, uplink 1.3 +/- 0.2."""
    prof = expand_homogeneous(PAPER_H)
    cfg = PAPER_H.system_config(M=64)
    fd = closed_form_report(prof, cfg, "perfect")
    tdd = tdd_rates_mc(prof, cfg, "perfect", 3000, 42)
    g_ul, g_dl = fd_gain(fd, tdd)
    ok = abs(g_dl - 1.7) <= 0.2 and abs(g_ul - 1.3) <= 0.2
    assert report(3, "gain-at-M64-perfect", ok,
                  f"ul {g_ul:.3f}, dl {g_dl:.3f}")


def test_criterion_4_asymptotic_limits():
    """Scaled-power closed forms at M = 1e6 within 1% of the limit rates, and
    the FD/TDD gains within 1% of their limits."""
    prof = uniform_mixed_profile()
    base = SystemConfig(L=3, M=64, K_f=2, K_h_u=1, K_h_d=2, P_u=10.0,
                        P_d=100.0, P_tr=10.0, kappa=1e-5, sigma2=1.0, T=196)
    M = 10 ** 6
    ok = True
    details = []
    for csi, fn in (("perfect", prop1_rates), ("imperfect", prop2_rates)):
        law = ("perfect_csi_1_over_M" if csi == "perfect"
               else "imperfect_csi_1_over_sqrtM")
        fac = 64.0 if csi == "perfect" else 8.0
        sched = PowerScalingSchedule(E_u=base.P_u * fac, E_d=base.P_d * fac,
                                     E_tr=base.P_tr * fac, exponent=law)
        cfg = sched.apply(base, M)
        a_ul, a_dl = asymptotic_rates(prof, cfg, sched)
        ul, dl = fn(prof, cfg)
        err = max(np.abs(ul / a_ul - 1).max(), np.abs(dl / a_dl - 1).max())
        ok &= err <= 0.01
        fd = closed_form_report(prof, cfg, csi, "fd")
        tdd = closed_form_report(prof, cfg, csi, "tdd")
        g_ul, g_dl = fd_gain(fd, tdd)
        lim_ul, lim_dl = asymptotic_gain_limits(cfg, csi)
        gerr = max(abs(g_ul / lim_ul - 1), abs(g_dl / lim_dl - 1))
        ok &= gerr <= 0.01
        details.append(f"{csi}: rate {err:.1e}, gain {gerr:.1e}")
    assert report(4, "asymptotic-limits-M1e6", ok, "; ".join(details))


def test_criterion_5_homogeneous_reduction_oracle():
    """The general bounds on the expanded homogeneous network, through
    prop1/prop2 and through homogeneous_rates, equal the hand-reduced
    two-parameter forms of tests/reference.py to 1e-12."""
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(50):
        h = HomogeneousConfig(
            L=int(rng.integers(2, 7)), K=int(rng.integers(1, 6)),
            beta=float(rng.uniform(0.0, 1.0)), M=int(rng.integers(3, 200)),
            P_u=float(10 ** rng.uniform(-1, 1.5)),
            P_d=float(10 ** rng.uniform(-1, 2)),
            P_tr=float(10 ** rng.uniform(-1, 1.5)),
            kappa=float(10 ** rng.uniform(-8, -2)), T=196)
        prof = expand_homogeneous(h)
        cfg = h.system_config()
        pref = h.K * (h.T - h.tau) / h.T
        ul1, dl1 = prop1_rates(prof, cfg)
        ul2, dl2 = prop2_rates(prof, cfg)
        want = [*homogeneous_rates_reduced(h, "perfect"),
                *homogeneous_rates_reduced(h, "imperfect")]
        got = [(h.K * ul1[0, 0], h.K * dl1[0, 0], pref * ul2[0, 0], pref * dl2[0, 0]),
               (*homogeneous_rates(h, "perfect"), *homogeneous_rates(h, "imperfect"))]
        for a, b in ((a, b) for row in got for a, b in zip(row, want)):
            worst = max(worst, abs(a - b) / max(abs(b), 1e-300))
    ok = worst <= 1e-12
    assert report(5, "homogeneous-reduction-oracle", ok, f"worst {worst:.2e}")


def _wishart_mc(m, n, draws, seed):
    rng = np.random.default_rng(seed)
    s1 = s2 = 0.0
    chunk = 100_000
    done = 0
    while done < draws:
        b = min(chunk, draws - done)
        X = (rng.standard_normal((b, m, n)) +
             1j * rng.standard_normal((b, m, n))) / math.sqrt(2)
        if m == 1:
            w = np.einsum("bmn,bmn->b", X, X.conj()).real
            inv1 = 1.0 / w
            inv2 = inv1 ** 2
        else:
            G = np.einsum("bin,bjn->bij", X, X.conj())
            tr = np.einsum("bii->b", G).real
            det = (G[:, 0, 0] * G[:, 1, 1] -
                   G[:, 0, 1] * G[:, 1, 0]).real
            inv1 = tr / det
            inv2 = (tr ** 2 - 2 * det) / det ** 2
        s1 += inv1.sum()
        s2 += inv2.sum()
        done += b
    return s1 / draws, s2 / draws


def test_criterion_6_wishart_moment_oracles():
    """1e6-draw Monte Carlo matches the inverse-moment formulas within 1%."""
    ok = True
    details = []
    for m, n in ((1, 4), (1, 8), (2, 8)):
        e1, e2 = wishart_inverse_moments(m, n)
        m1, m2 = _wishart_mc(m, n, 10 ** 6, seed=m * 100 + n)
        r1, r2 = abs(m1 / e1 - 1), abs(m2 / e2 - 1)
        ok &= r1 <= 0.01 and r2 <= 0.01
        details.append(f"({m},{n}) {r1:.4f}/{r2:.4f}")
    assert report(6, "wishart-moment-oracles", ok, ", ".join(details))


def test_criterion_7_mmse_estimator_suite():
    """Exact variance decomposition, empirical uncorrelatedness, and the
    high-pilot-power limit recovering the perfect-CSI rates."""
    ok = True
    # (a) decomposition exact to machine precision
    rng = np.random.default_rng(31)
    prof = random_profile(rng, L=3, K_f=1, K_h_u=2, K_h_d=1)
    cfg = random_config(rng, prof, M=8)
    st = estimation_stats(prof, cfg)
    jj = np.arange(prof.L)
    dec = max(np.abs(st.est_var_u + st.err_var_u -
                     prof.beta_u[jj, jj]).max(),
              np.abs(st.est_var_d + st.err_var_d -
                     prof.beta_d[jj, jj]).max())
    ok &= dec < 1e-14

    # (b) estimate/error sample correlation within 3 sigma at 1e5 trials
    n = 100_000
    betas = np.array([1.0, 0.5])
    y = ((np.random.default_rng(7).standard_normal((n, 2, 2)) @ [1, 1j])
         / math.sqrt(2))          # per-cell channel draws, CN(0,1) and CN(0,0.5)
    g = y[:, 0] * math.sqrt(betas[0])
    gc = y[:, 1] * math.sqrt(betas[1])
    noise = (np.random.default_rng(8).standard_normal((n, 2)) @ [1, 1j]) / math.sqrt(2)
    y_tr = g + gc + noise / math.sqrt(cfg.P_tr)
    gh, lam, est_var, err_var = mmse_estimate(y_tr, cfg, betas, 0)
    eps = g - gh
    corr = np.mean(gh * eps.conj()).real
    tol = 3 * math.sqrt(est_var * err_var / n)
    ok &= abs(corr) < tol

    # (c) P_tr = 1e6 sigma^2 recovers perfect CSI within 1%.  This applies to
    # the estimator (error variance -> 0) and to the uplink rates; the
    # downlink keeps an O(1/M) offset at any pilot power because the user
    # decodes against its mean effective channel rather than the
    # instantaneous one, which is a receiver assumption, not estimation
    # error.
    prof1 = random_profile(rng, L=1, K_f=1, K_h_u=1, K_h_d=1)
    cfg1 = random_config(rng, prof1, M=32).replace(P_tr=1e6)
    st1 = estimation_stats(prof1, cfg1)
    jj1 = np.arange(1)
    ok &= (st1.err_var_u <= 1e-5 * prof1.beta_u[jj1, jj1]).all()
    ok &= (st1.est_var_u >= 0.99 * prof1.beta_u[jj1, jj1]).all()
    ul_p, _ = prop1_rates(prof1, cfg1)
    ul_i, _ = prop2_rates(prof1, cfg1)
    lim = np.abs(ul_i / ul_p - 1).max()
    ok &= lim <= 0.01
    mc_p = fd_rates_mc(prof1, cfg1, 2000, 3, csi="perfect")
    mc_i = fd_rates_mc(prof1, cfg1, 2000, 3, csi="imperfect")
    mc_gap = np.abs(mc_i.ul_rates - mc_p.ul_rates).max()
    mc_tol = max(0.01 * mc_p.ul_rates.max(),
                 6 * (mc_p.ul_stderr + mc_i.ul_stderr).max())
    ok &= mc_gap <= mc_tol
    assert report(7, "mmse-estimator-suite", ok,
                  f"dec {dec:.1e}, corr {corr:.2e}<{tol:.2e}, limit {lim:.4f}")


def test_criterion_8_scenario_qualitative_trends():
    """Twenty random drops: downlink gain grows with M, is insensitive to the
    dynamic range, and the uplink gain improves with better dynamic range."""
    t0 = time.time()
    params = ScenarioParams()
    drops, trials = 20, 150

    def gains(M, kdb):
        gu, gd = [], []
        for d in range(drops):
            fd, tdd = run_drop(params, M, kdb, [4242, d], trials=trials)
            gu.append(float(fd.ul_se_per_cell.sum() / tdd.ul_se_per_cell.sum()))
            gd.append(float(fd.dl_se_per_cell.sum() / tdd.dl_se_per_cell.sum()))
        return np.asarray(gu), np.asarray(gd)

    by_m = {M: gains(M, -60.0) for M in (20, 50, 100)}
    ul50, dl50 = gains(100, -50.0)
    ul80, dl80 = gains(100, -80.0)

    def ci(x):
        return 1.96 * x.std(ddof=1) / math.sqrt(len(x))

    # (a) mean DL gain nondecreasing in M within confidence interval
    means = [by_m[M][1].mean() for M in (20, 50, 100)]
    cis = [ci(by_m[M][1]) for M in (20, 50, 100)]
    a_ok = all(means[i + 1] >= means[i] - cis[i] - cis[i + 1]
               for i in range(2))
    # (b) DL gain invariant across kappa in {-50, -80} dB (paired drops)
    diff_b = dl80 - dl50
    b_ok = abs(diff_b.mean()) <= max(ci(diff_b), 1e-9)
    # (c) UL gain higher at -80 dB than at -50 dB (paired drops)
    diff_c = ul80 - ul50
    c_ok = diff_c.mean() > 0
    elapsed = time.time() - t0
    ok = a_ok and b_ok and c_ok and elapsed <= 600
    assert report(8, "scenario-qualitative-trends", ok,
                  f"dl means {['%.3f' % m for m in means]}, "
                  f"kappa dl shift {diff_b.mean():.2e}, "
                  f"ul -80 vs -50 {diff_c.mean():+.4f}; {elapsed:.0f}s")


def test_criterion_9_byte_identical_determinism(tmp_path):
    """Re-running any experiment with the same seed gives identical CSV."""
    h = HomogeneousConfig(L=3, K=3, beta=0.3, M=32, P_u=10.0, P_d=100.0,
                          P_tr=10.0, kappa=1e-5, T=196)
    pairs = []
    for i, path in enumerate(("a.csv", "b.csv")):
        res = experiment_tightness(h, [16, 32], 128, 7)
        emit(res, "csv", tmp_path / path)
        pairs.append((tmp_path / path).read_bytes())
    same = pairs[0] == pairs[1]
    res1 = experiment_power_scaling(h, [16, 32], "perfect", 64, 3)
    emit(res1, "csv", tmp_path / "c.csv")
    res2 = experiment_power_scaling(h, [16, 32], "perfect", 64, 3)
    emit(res2, "csv", tmp_path / "d.csv")
    same &= ((tmp_path / "c.csv").read_bytes() ==
             (tmp_path / "d.csv").read_bytes())
    assert report(9, "byte-identical-determinism", same)
