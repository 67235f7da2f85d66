import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fdmimo import (LargeScaleProfile, SystemConfig, closed_form_report,
                    dl_rates_fd_imperfect, expand_homogeneous, fd_rates_mc,
                    overheads, prop1_rates, prop2_rates, tdd_rates_mc, validate)
from fdmimo import bounds, rates
from fdmimo.channel import draw_cn, trial_rng
from fdmimo.estimation import estimation_stats
from fdmimo.rates import (_batch_dl_logrates, _batch_ul_logrates, _bsbs_mean,
                          _mc_rates, per_cell_factors)
from fdmimo.scenario import (ScenarioParams, drop_topology, profile_from_topology,
                             run_drop)

from conftest import in_fresh_thread, pool_bytes, random_profile
from reference import (dl_sinr_fd_perfect, estimate_all, realize_channels,
                       ul_sinr_fd_imperfect, ul_sinr_fd_perfect, vector_batch)


def as_batch(real, est=None, bs_bs=False):
    """One realization as a batch of one, with the sampler's keys
    (:func:`reference.vector_batch`): perfect CSI or the estimates ``est``
    as combiners and precoders, and UE-UE powers |F|^2 without each FD
    user's own pair.  With ``bs_bs`` it also holds BS-BS powers of unit
    draws, and with them the uplink's full-duplex terms."""
    L, _, M, K_u = real.G_u.shape
    jj, ll, kk = np.arange(L), *np.ix_(np.arange(L), np.arange(real.K_f))
    F = np.abs(real.F) ** 2
    F[ll, kk, ll, kk] = 0.0
    W, V, Eps = real.G_u[None, jj, jj], real.G_d[None, jj, jj], None
    if est is not None:
        W, V, Eps = est.g_hat_u[None], est.g_hat_d[None], W - est.g_hat_u[None]
    Z = draw_cn(np.random.default_rng(0), (1, L, L - 1, K_u, M)) if bs_bs else None
    return vector_batch(np.moveaxis(real.G_u, 2, 1)[None], W,
                        np.moveaxis(real.G_d, 2, 1)[None], V, Eps, F[None], Z)


def vanishing_bs_bs(profile):
    """``profile`` with cross-cell BS gains of 1e-30: the uplink SINR then
    does not depend on the BS-BS draws."""
    bb = np.full_like(profile.beta_b, 1e-30)
    np.fill_diagonal(bb, profile.beta_b.diagonal())
    return LargeScaleProfile(beta_u=profile.beta_u, beta_d=profile.beta_d,
                             beta_b=bb, beta_I=profile.beta_I, K_f=profile.K_f)


def test_per_cell_factors_values(small_profile, small_config):
    """P_d / (K_d gamma): perfect CSI divides P_d by M times the own-cell
    gains, estimated CSI by M times the estimates' variances."""
    cfg = small_config
    jj = np.arange(small_profile.L)
    own = small_profile.beta_d[jj, jj]
    lam = cfg.sigma2 + cfg.P_tr * small_profile.beta_d.sum(axis=1)
    np.testing.assert_allclose(per_cell_factors(small_profile, cfg, "perfect"),
                               cfg.P_d / (cfg.M * own.sum(axis=1)))
    np.testing.assert_allclose(
        per_cell_factors(small_profile, cfg, "imperfect"),
        cfg.P_d / (cfg.M * (cfg.P_tr * own ** 2 / lam).sum(axis=1)))


def test_overheads_all_cases():
    cfg = SystemConfig(L=2, M=8, K_f=1, K_h_u=1, K_h_d=2, P_u=1, P_d=1,
                       P_tr=1, kappa=0.0, sigma2=1.0, T=100)
    assert overheads(cfg, "fd", "perfect") == (1.0, 1.0)
    assert overheads(cfg, "fd", "imperfect") == ((100 - 4) / 100,) * 2
    assert overheads(cfg, "tdd", "perfect") == (0.5, 0.5)
    o_ul, o_dl = overheads(cfg, "tdd", "imperfect")
    assert o_ul == pytest.approx(0.5 * (100 - 2) / 100)
    assert o_dl == pytest.approx(0.5 * (100 - 3) / 100)


def test_single_cell_uplink_reduces_to_snr():
    """With one cell, one user and no downlink the uplink SINR is the
    maximum-ratio-combining SNR P_u |g|^2 / sigma^2."""
    prof = random_profile(np.random.default_rng(1), L=1, K_f=0, K_h_u=1,
                          K_h_d=1)
    cfg = SystemConfig(L=1, M=8, K_f=0, K_h_u=1, K_h_d=1, P_u=3.0, P_d=1.0,
                       P_tr=1.0, kappa=0.0, sigma2=2.0, T=50)
    real = realize_channels(prof, 4, cfg.M)
    coef = per_cell_factors(prof, cfg, "perfect")
    (lu,), _ = _batch_ul_logrates(as_batch(real), prof, cfg, coef)
    g = real.G_u[0, 0, :, 0]
    snr = 3.0 * np.vdot(g, g).real / 2.0
    assert lu[0, 0] == pytest.approx(np.log2(1 + snr), rel=1e-12)


def test_batch_matches_loop_dl_perfect(small_profile, small_config):
    real = realize_channels(small_profile, 21, small_config.M)
    coef = per_cell_factors(small_profile, small_config, "perfect")
    (ld,), _ = _batch_dl_logrates(as_batch(real), small_profile, small_config, coef)
    K_f = small_profile.K_f
    for l in range(small_profile.L):
        for k in range(small_profile.K_d):
            cls = "FD" if k < K_f else "HD"
            ref = np.log2(1 + dl_sinr_fd_perfect(real, small_config, coef,
                                                 small_profile, l, k, cls))
            assert ld[l, k] == pytest.approx(ref, rel=1e-10)


def test_batch_matches_loop_ul_without_bs_bs(small_profile, small_config):
    """With vanishing cross-cell BS gains the uplink batch path is exactly the
    direct per-user evaluation (the BS-BS term is resampled otherwise)."""
    prof = vanishing_bs_bs(small_profile)
    real = realize_channels(prof, 22, small_config.M)
    coef = per_cell_factors(prof, small_config, "perfect")
    (lu,), _ = _batch_ul_logrates(as_batch(real, bs_bs=True), prof, small_config, coef)
    for j in range(prof.L):
        for n in range(prof.K_u):
            ref = np.log2(1 + ul_sinr_fd_perfect(real, small_config, coef,
                                                 prof, j, n))
            assert lu[j, n] == pytest.approx(ref, rel=1e-10)


def test_bs_bs_term_statistically_consistent(small_profile, small_config):
    """Uplink mean rates from the resampled BS-BS term match the direct
    M x M evaluation within Monte Carlo error."""
    trials = 500
    coef = per_cell_factors(small_profile, small_config, "perfect")
    acc = np.zeros((small_profile.L, small_profile.K_u))
    for t in range(trials):
        real = realize_channels(small_profile, trial_rng(31, t), small_config.M)
        for j in range(small_profile.L):
            for n in range(small_profile.K_u):
                acc[j, n] += np.log2(1 + ul_sinr_fd_perfect(
                    real, small_config, coef, small_profile, j, n))
    loop = acc / trials
    rep = fd_rates_mc(small_profile, small_config, 4000, 77, csi="perfect")
    loop_se = np.abs(loop).max() / np.sqrt(trials) * 0.5   # coarse scale
    assert np.abs(loop - rep.ul_rates).max() < 5 * (rep.ul_stderr.max() + loop_se)


def test_imperfect_ul_loop_reference(small_profile, small_config):
    """With MMSE estimates as combiners and vanishing cross-cell BS gains the
    uplink batch path, its estimation-error term included, is exactly the
    direct per-user evaluation."""
    prof = vanishing_bs_bs(small_profile)
    real = realize_channels(prof, 23, small_config.M)
    est = estimate_all(real, prof, small_config, 24)
    coef = per_cell_factors(prof, small_config, "imperfect")
    (lu,), _ = _batch_ul_logrates(as_batch(real, est, bs_bs=True), prof,
                                  small_config, coef)
    for j in range(prof.L):
        for n in range(prof.K_u):
            ref = np.log2(1 + ul_sinr_fd_imperfect(real, est, small_config, coef,
                                                   prof, j, n))
            assert lu[j, n] == pytest.approx(ref, rel=1e-10)


def traced_peak(fn):
    """The peak bytes tracemalloc traces while fn() runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("csi", ["perfect", "imperfect"])
def test_op_memory_peak(paper_homogeneous, csi):
    """One 64-trial fd_rates_mc (one full batch) on the paper config at
    M = 300 allocates at most 8.0 MB at its peak, as traced by tracemalloc:
    the per-op working set that sets the benchmark's peak resident memory.
    The call runs from an empty scratch pool, so the pool's buffers count.
    Measured peaks: 2.36 MB perfect and 1.87 MB estimated CSI with pilot
    groups and powers (1.89 MB estimated with the BS-BS Gram; 5.91 and
    5.50 MB drawing each BS's whole span; with fresh arrays per batch 6.68
    and 6.12 MB; before the batched-matmul layout and UE-UE powers 7.63 and
    7.55 MB)."""
    prof = expand_homogeneous(paper_homogeneous)
    cfg = paper_homogeneous.system_config(M=300)
    fd_rates_mc(prof, cfg, 64, 0, csi=csi)
    peak = in_fresh_thread(lambda: traced_peak(lambda: fd_rates_mc(prof, cfg, 64, 1, csi=csi)))
    assert peak <= 8.0e6, f"traced peak {peak / 1e6:.2f} MB"


@pytest.mark.parametrize("csi", ["perfect", "imperfect"])
def test_op_memory_steady_state(paper_homogeneous, csi):
    """A warm repeat of that call writes its batch into the pool: it adds no
    pool bytes and allocates under 0.8 MB (traced; measured 0.48 MB perfect
    and 0.67 MB estimated CSI, the small per-batch arrays; 0.55 and 0.69 MB
    with the BS-BS Gram, 0.56 and 0.75 MB drawing whole spans, 0.93 MB when
    V was a fresh copy of W)."""
    prof = expand_homogeneous(paper_homogeneous)
    cfg = paper_homogeneous.system_config(M=300)

    def repeat():
        fd_rates_mc(prof, cfg, 64, 0, csi=csi)
        before = pool_bytes()
        peak = traced_peak(lambda: fd_rates_mc(prof, cfg, 64, 1, csi=csi))
        return peak, pool_bytes() - before
    peak, grown = in_fresh_thread(repeat)
    assert grown == 0
    assert peak < 0.8e6, f"traced peak {peak / 1e6:.2f} MB"


def test_drop_pool_bytes():
    """After one criterion-8 drop at M = 100 with 64 trials (FD then TDD),
    the pool holds at most 16 MB: the largest set of batch arrays alive at
    once, 3.7 MB (the TDD batch's uplink and downlink powers; 13.8 MB when
    each BS drew its whole span)."""
    def drop():
        run_drop(ScenarioParams(), 100, -60.0, [4242, 0], trials=64)
        return pool_bytes()
    held = in_fresh_thread(drop)
    assert held <= 16e6, f"pool holds {held / 1e6:.2f} MB"


def test_mc_determinism(small_profile, small_config):
    a = fd_rates_mc(small_profile, small_config, 64, 5, csi="perfect")
    b = fd_rates_mc(small_profile, small_config, 64, 5, csi="perfect")
    np.testing.assert_array_equal(a.ul_rates, b.ul_rates)
    np.testing.assert_array_equal(a.dl_rates, b.dl_rates)


def test_mc_seed_sensitivity(small_profile, small_config):
    a = fd_rates_mc(small_profile, small_config, 64, 5, csi="perfect")
    b = fd_rates_mc(small_profile, small_config, 64, 6, csi="perfect")
    assert not np.array_equal(a.ul_rates, b.ul_rates)


def test_mc_rejects_invalid_config(small_profile, small_config):
    with pytest.raises(ValueError, match="invalid config"):
        fd_rates_mc(small_profile, small_config.replace(kappa=2.0), 8, 0)


@pytest.mark.parametrize("trials", [0, -64])
def test_mc_rejects_no_trials(small_profile, small_config, trials):
    with pytest.raises(ValueError, match="trials must be at least 1"):
        tdd_rates_mc(small_profile, small_config, "perfect", trials, 0)


@pytest.mark.parametrize("trials", [64.0, 8.5, True])
def test_mc_rejects_non_integer_trials(small_profile, small_config, trials):
    """A float or bool trial count is named, not run as one trial or left
    to fail as a raw TypeError."""
    with pytest.raises(ValueError, match="trials must be an integer"):
        fd_rates_mc(small_profile, small_config, trials, 0)
    rep = fd_rates_mc(small_profile, small_config, np.int64(8), 0)
    assert rep.n_trials == 8


@pytest.mark.parametrize("M", [20.5, 7.0])
def test_non_integer_antenna_count_rejected(small_profile, small_config, M):
    """M = 20.5 is no antenna count: the closed forms and both Monte Carlo
    drivers name it instead of returning rates or raising a TypeError."""
    cfg = small_config.replace(M=M)
    with pytest.raises(ValueError, match="M: integer required"):
        prop1_rates(small_profile, cfg)
    with pytest.raises(ValueError, match="M: integer required"):
        fd_rates_mc(small_profile, cfg, 8, 0)
    with pytest.raises(ValueError, match="M: integer required"):
        run_drop(ScenarioParams(n_bs=3, n_ul_hd=2, n_dl_hd=2), M, -60.0, 0, trials=8)


def test_fd_imperfect_dl_is_analytic(small_profile, small_config):
    rep = fd_rates_mc(small_profile, small_config, 32, 9, csi="imperfect")
    np.testing.assert_array_equal(rep.dl_stderr, 0.0)
    np.testing.assert_allclose(rep.dl_rates,
                               dl_rates_fd_imperfect(small_profile, small_config))


@pytest.mark.parametrize("M", [1, 2])
def test_fd_imperfect_dl_below_three_antennas(M):
    """The estimated-CSI downlink needs no M >= 3: one cell, one FD user,
    against the hand value P_tr P_d M b^2 / (lam (P_d b + kappa P_u b_I +
    sigma2_dl)) with lam = sigma2 + P_tr b.  The closed-form bounds still
    refuse M < 3."""
    b, b_I = 0.7, 0.2
    prof = LargeScaleProfile(beta_u=np.full((1, 1, 1), b), beta_d=np.full((1, 1, 1), b),
                             beta_b=np.full((1, 1), 0.3),
                             beta_I=np.full((1, 1, 1, 1), b_I), K_f=1)
    cfg = SystemConfig(L=1, M=M, K_f=1, K_h_u=0, K_h_d=0, P_u=2.0, P_d=5.0,
                       P_tr=3.0, kappa=1e-3, sigma2=1.5, sigma2_dl=0.8, T=196)
    lam = cfg.sigma2 + cfg.P_tr * b
    want = np.log2(1 + cfg.P_tr * cfg.P_d * M * b ** 2 / (
        lam * (cfg.P_d * b + cfg.kappa * cfg.P_u * b_I + cfg.sigma2_dl)))
    rep = fd_rates_mc(prof, cfg, 16, 0, csi="imperfect")
    assert rep.dl_rates[0, 0] == pytest.approx(want, rel=1e-14)
    with pytest.raises(ValueError, match="M >= 3"):
        prop2_rates(prof, cfg)


def test_tdd_excludes_fd_terms(small_profile, small_config):
    """TDD rates must not depend on kappa, BS-BS or UE-UE gains."""
    hi = small_config.replace(kappa=0.09)
    lo = small_config.replace(kappa=0.0)
    a = tdd_rates_mc(small_profile, hi, "perfect", 16, 3)
    b = tdd_rates_mc(small_profile, lo, "perfect", 16, 3)
    np.testing.assert_array_equal(a.ul_rates, b.ul_rates)
    np.testing.assert_array_equal(a.dl_rates, b.dl_rates)


@pytest.mark.parametrize("drop", range(7))
def test_bsbs_mean_is_exact_on_drops(drop):
    """The mean BS-BS power P_d sum_{l != j} beta_b[j, l] is exact to 1e-15 on
    12-cell drops, whose self-interference gain on the diagonal is millions
    of times the rest of its row: a row sum less the diagonal loses 1e-9 to
    1e-8 of it there."""
    params = ScenarioParams()
    rng = np.random.default_rng([24, drop])
    prof = profile_from_topology(params, drop_topology(params, rng), rng)
    cfg = params.system_config(M=20, kappa_db=-60.0)
    bb = prof.beta_b
    exact = [cfg.P_d * math.fsum(np.delete(row, j)) for j, row in enumerate(bb)]
    assert prof.L == 12
    np.testing.assert_allclose(_bsbs_mean(prof, cfg), exact, rtol=1e-15, atol=0)


def test_report_se_and_serialization(small_profile, small_config):
    rep = fd_rates_mc(small_profile, small_config, 16, 1, csi="imperfect")
    np.testing.assert_allclose(rep.ul_se_per_cell,
                               rep.overhead_ul * rep.ul_rates.sum(axis=1))
    rows = rep.rows()
    assert len(rows) == small_profile.K_u * 3 + small_profile.K_d * 3


@pytest.mark.parametrize("system,csi", [("fd", "imperfekt"), ("tdd", "Perfect"),
                                        ("hd", "perfect")])
def test_unknown_mode_strings_rejected(small_profile, small_config, system, csi):
    with pytest.raises(ValueError, match="must be one of"):
        overheads(small_config, system, csi)
    with pytest.raises(ValueError, match="must be one of"):
        _mc_rates(small_profile, small_config, system, csi, 8, 0)


def test_tdd_rejects_misspelt_csi(small_profile, small_config):
    with pytest.raises(ValueError, match="csi must be one of"):
        tdd_rates_mc(small_profile, small_config, "imperfekt", 8, 0)


@pytest.mark.parametrize("kw", [dict(L=2), dict(L=4),
                                dict(K_f=1, K_h_u=2, K_h_d=3),
                                dict(K_h_u=2), dict(K_h_d=1)])
def test_config_profile_mismatch_rejected(small_profile, small_config, kw):
    cfg = small_config.replace(tau=None, tau_u=None, tau_d=None, **kw)
    with pytest.raises(ValueError, match="disagree"):
        fd_rates_mc(small_profile, cfg, 8, 0)


@given(L=st.integers(1, 3), K_f=st.integers(0, 2), K_h_u=st.integers(0, 2),
       K_h_d=st.integers(0, 2), M=st.integers(1, 50),
       log_powers=st.lists(st.floats(-9.0, 9.0), min_size=4, max_size=4),
       kappa=st.floats(0.0, 0.99), seed=st.integers(0, 2 ** 16))
@settings(max_examples=40, deadline=None)
def test_valid_configs_give_finite_rates(L, K_f, K_h_u, K_h_d, M, log_powers,
                                         kappa, seed):
    """Every config that passes validate gives finite rates and stderrs in
    both systems and CSI modes, with numpy warnings raised as errors."""
    P_u, P_d, P_tr, sigma2 = (10.0 ** x for x in log_powers)
    cfg = SystemConfig(L=L, M=M, K_f=K_f, K_h_u=K_h_u, K_h_d=K_h_d, P_u=P_u,
                       P_d=P_d, P_tr=P_tr, kappa=kappa, sigma2=sigma2, T=196)
    assume(validate(cfg).ok)
    prof = random_profile(np.random.default_rng(seed), L=L, K_f=K_f,
                          K_h_u=K_h_u, K_h_d=K_h_d)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for csi in ("perfect", "imperfect"):
            for rep in (fd_rates_mc(prof, cfg, 16, seed, csi=csi),
                        tdd_rates_mc(prof, cfg, csi, 16, seed)):
                for a in (rep.ul_rates, rep.dl_rates, rep.ul_stderr, rep.dl_stderr):
                    assert np.isfinite(a).all()


@pytest.mark.parametrize("system", ["fd", "tdd"])
@pytest.mark.parametrize("csi", ["perfect", "imperfect"])
def test_estimation_stats_once_per_call(monkeypatch, small_profile, small_config,
                                        system, csi):
    """One Monte Carlo call and one closed-form report each compute the MMSE
    statistics once with estimated CSI and never with perfect CSI.  They used
    to be recomputed by every helper: 7 times per fd/imperfect Monte Carlo
    call, 5 per tdd/imperfect one and 3 per prop2_rates."""
    calls = []

    def counting(*args):
        calls.append(1)
        return estimation_stats(*args)

    for module in (rates, bounds):
        monkeypatch.setattr(module, "estimation_stats", counting)
    want = int(csi == "imperfect")
    _mc_rates(small_profile, small_config, system, csi, 64, [5])
    assert len(calls) == want
    closed_form_report(small_profile, small_config, csi, system=system)
    assert len(calls) == 2 * want
