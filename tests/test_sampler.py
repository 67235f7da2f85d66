"""The pilot-group sampler against the M-vector oracle in ``reference.py``."""

import math

import numpy as np
import pytest

from fdmimo import (PowerScalingSchedule, ScenarioParams, SystemConfig,
                    asymptotic_rates, expand_homogeneous, fd_rates_mc)
from fdmimo import rates
from fdmimo.channel import draw_cn, trial_rng
from fdmimo.estimation import estimation_stats
from fdmimo.rates import _mc_rates, _TrialSampler
from fdmimo.scenario import drop_topology, profile_from_topology

from conftest import random_profile, uniform_mixed_profile
from reference import kernel_rates, vector_draw_trials

MODES = [(system, csi) for system in ("fd", "tdd") for csi in ("perfect", "imperfect")]


def profile_case(case, small_profile, small_config):
    """The mixed FD/HD test profile and config, or an all-HD pair (K_f = 0)
    with unequal K_u = 4 and K_d = 5, both at M = 16."""
    if case == "mixed":
        return small_profile, small_config
    prof = random_profile(np.random.default_rng(8), L=3, K_f=0, K_h_u=4, K_h_d=5)
    cfg = SystemConfig(L=3, M=16, K_f=0, K_h_u=4, K_h_d=5, P_u=10.0, P_d=100.0,
                       P_tr=10.0, kappa=1e-5, sigma2=1.0, T=196)
    return prof, cfg


@pytest.mark.parametrize("case,M", [pytest.param("mixed", 1, id="1"),
                                    pytest.param("mixed", 3, id="3"),
                                    pytest.param("mixed", 16, id="16"),
                                    pytest.param("hd", 3, id="hd-3"),
                                    pytest.param("hd", 16, id="hd-16")])
@pytest.mark.parametrize("system,csi", MODES)
def test_gram_sampler_matches_vector_sampler(small_profile, small_config, case,
                                             system, csi, M):
    """Both samplers through the same kernels give every per-user rate within
    4 combined stderr.  M = 1 lies below the span of an FD user's pilot group
    with TDD pilots (D = 2), and M = 1 and 3 below the number of each BS's
    precoders (K_d = 4, or 5 all-HD); M = 16 lies above them all.
    fd_rates_mc's fd/imperfect sampler, which draws no downlink and, with FD
    training, no HD downlink users' groups, is checked on the uplink too."""
    prof, cfg = profile_case(case, small_profile, small_config)
    cfg = cfg.replace(M=M)
    need_est, tdd = csi == "imperfect", system == "tdd"
    sampler = _TrialSampler(prof, cfg, need_est, tdd)

    def vector(rng, B):
        return vector_draw_trials(prof, cfg, rng, B, need_est, tdd)

    trials = 20_000
    gram = kernel_rates(sampler.draw, prof, cfg, system, csi, trials, 11)
    ref = kernel_rates(vector, prof, cfg, system, csi, trials, 12)
    checks = [("ul", gram[:2], ref[:2]), ("dl", gram[2:], ref[2:])]
    if (system, csi) == ("fd", "imperfect"):
        rep = fd_rates_mc(prof, cfg, trials, 13, csi="imperfect")
        checks.append(("fd_rates_mc ul", (rep.ul_rates, rep.ul_stderr), ref[:2]))
    for link, (a, a_se), (b, b_se) in checks:
        z = (a - b) / np.hypot(a_se, b_se)
        assert np.abs(z).max() < 4, f"{link}: max |z| {np.abs(z).max():.2f}"


def test_gram_sampler_shapes(small_profile, small_config):
    """The keys and shapes of vector_batch's: W2 (B, j, n), Pu (B, j, n, l, k)
    zero at each user's own channel, Pe (B, j, n); Pd (B, l, k, j, i) zero at
    each user's own beam and own (B, l, k); F (B, l, k, j, n), real UE-UE
    powers zero exactly at each FD user's own pair and positive elsewhere,
    and the BS-BS powers Pb (B, l, m, n).  An FD user's downlink channel is
    its uplink one at every BS, and with FD training its precoder is its
    combiner, so its own gain is its combiner's inner product with its
    channel: with perfect CSI |w|^2, with estimation |w|^2 plus w's error
    term.  Without the downlink kernel the batch has no Pd, own or F."""
    for case in ("mixed", "hd"):
        p, cfg = profile_case(case, small_profile, small_config)
        L, K_u, K_d, K_f = p.L, p.K_u, p.K_d, p.K_f
        for csi in ("perfect", "imperfect"):
            d = _TrialSampler(p, cfg, csi == "imperfect", False).draw(
                np.random.default_rng(0), 4)
            keys = {"W2", "Pu", "Pd", "own", "F", "Pb"} | (
                {"Pe", "Emu"} if csi == "imperfect" else set())
            assert set(d) == keys
            assert d["W2"].shape == (4, L, K_u)
            assert d["Pu"].shape == (4, L, K_u, L, K_u)
            assert d["Pd"].shape == (4, L, K_d, L, K_d)
            assert d["own"].shape == (4, L, K_d)
            assert d["F"].shape == (4, L, K_d, L, K_u)
            assert d["Pb"].shape == (4, L, L - 1, K_u)
            jj = np.arange(L)
            assert (d["Pu"][:, jj, :, jj].diagonal(axis1=2, axis2=3) == 0).all()
            assert (d["Pd"][:, jj, :, jj].diagonal(axis1=2, axis2=3) == 0).all()
            assert (d["Pu"] >= 0).all() and (d["Pd"] >= 0).all() and (d["Pb"] > 0).all()
            assert d["F"].dtype == float and (d["F"] >= 0).all()
            ll, kk = np.ix_(jj, np.arange(K_f))
            assert (d["F"][:, ll, kk, ll, kk] == 0).all()
            assert (d["F"].sum(axis=0) > 0).sum() == p.beta_I.size - L * K_f
            own, w2 = d["own"][..., :K_f], d["W2"][..., :K_f]
            if csi == "perfect":
                np.testing.assert_array_equal(own, w2)
            else:
                np.testing.assert_array_equal(np.abs(own - w2) ** 2, d["Pe"][..., :K_f])
        analytic = _TrialSampler(p, cfg, True, False, dl=False).draw(
            np.random.default_rng(0), 4)
        assert set(analytic) == {"W2", "Pu", "Pe", "Pb"}


@pytest.mark.parametrize("system,csi", MODES)
def test_every_source_feeds_an_output(small_profile, small_config, system, csi):
    """Each unit source of a pilot group, one of its L = 3 channels or its
    pilot noises, feeds one of the group's span vectors, and every span
    vector is a combiner or a precoder.  With FD training every group is one
    slot: 3 uplink users' then 2 HD downlink users' in the mixed network
    (K_f = 2), 4 and 5 all-HD.  With TDD pilots an FD user's two slots form
    one group of 5 sources and span 2; with no FD user there is no such
    group.  Perfect CSI has no groups."""
    shapes = {"fd": {"mixed": [(5, 4, 1)], "hd": [(9, 4, 1)]},
              "tdd": {"mixed": [(2, 5, 2), (3, 4, 1)], "hd": [(9, 4, 1)]}}
    for case in ("mixed", "hd"):
        p, cfg = profile_case(case, small_profile, small_config)
        sampler = _TrialSampler(p, cfg, csi == "imperfect", system == "tdd")
        want = shapes[system][case] if csi == "imperfect" else []
        assert [Q.shape[1:] for _, Q, *_ in sampler.groups] == want
        if not want:
            continue
        for _, Q, *_ in sampler.groups:
            assert (np.abs(Q).sum(axis=3) > 0).all(), f"{case}: a source feeds no span vector"
        spans = np.arange(sum(G * D for G, _, D in want))
        picked = np.concatenate([spans[sampler.iw], spans[sampler.iv]])
        assert len(spans[sampler.iw]) == p.K_u and len(spans[sampler.iv]) == p.K_d
        assert set(picked) == set(spans), f"{case}: a span vector is never read"


@pytest.mark.parametrize("M", [1, 3, 300])
@pytest.mark.parametrize("csi", ["perfect", "imperfect"])
@pytest.mark.parametrize("source", ["sampler", "oracle"])
def test_bsbs_power_moments(source, csi, M):
    """Pb[b, l, m, n] = |V_l^H z|^2 for BS l's precoders V_l and z ~ CN(0, I_M)
    has mean M S1 and second moment M(M + 1)(S1^2 + S2), S1 and S2 the sums
    of sigma_i^2 and sigma_i^4 over the precoders' variances per antenna.
    The sampler's Gamma(M) sum_i sigma_i^2 Exp(1) and the M-vector oracle's
    Z @ V meet both within 4 stderr at every (l, m, n) over 20,000 trials.
    Two cells with an FD user and an HD downlink user each (K_d = 2), so
    M = 1 lies below the number of BS l's precoders and M = 3 and 300 above
    it."""
    prof = random_profile(np.random.default_rng(3), L=2, K_f=1, K_h_u=0, K_h_d=1)
    cfg = SystemConfig(L=2, M=M, K_f=1, K_h_u=0, K_h_d=1, P_u=10.0, P_d=100.0,
                       P_tr=10.0, kappa=1e-5, sigma2=1.0, T=196)
    need_est = csi == "imperfect"
    if source == "sampler":
        draw = _TrialSampler(prof, cfg, need_est, False).draw
    else:
        def draw(rng, B):
            return vector_draw_trials(prof, cfg, rng, B, need_est, False)
    rng, n, B = np.random.default_rng(17), 20_000, 500
    pb = np.concatenate([draw(rng, B)["Pb"] for _ in range(n // B)])
    jj = np.arange(prof.L)
    var = estimation_stats(prof, cfg).est_var_d if need_est else prof.beta_d[jj, jj]
    s1, s2 = var.sum(axis=1), (var ** 2).sum(axis=1)
    for k, want in ((1, M * s1), (2, M * (M + 1) * (s1 ** 2 + s2))):
        x = pb ** k
        z = (x.mean(axis=0) - want[:, None, None]) / (x.std(axis=0, ddof=1) / math.sqrt(n))
        assert np.abs(z).max() < 4, f"moment {k}: max |z| {np.abs(z).max():.2f}"


BUDGETS = [("drop", "fd", "imperfect", 499_200, 49_920, 441_600, 46_080),
           ("drop", "tdd", "imperfect", 537_600, 99_840, 460_800, 99_840),
           ("drop", "fd", "perfect", 710_400, 0, 902_400, 92_160),
           ("paper", "fd", "perfect", 156_800, 0, 302_400, 31_360),
           ("paper", "fd", "imperfect", 168_000, 17_920, 145_600, 15_680)]


@pytest.mark.parametrize("case,system,csi,spans,values,exps,gammas", BUDGETS,
                         ids=["-".join(map(str, b[:4])) for b in BUDGETS])
def test_draw_budget(monkeypatch, paper_homogeneous, case, system, csi, spans,
                     values, exps, gammas):
    """CN, Exp(1) and Gamma values one 64-trial batch draws, on a criterion-8
    drop (12 all-HD cells, 5 + 5 users, M = 100) and the paper config
    (K_f = 5).  Each BS draws one part per pilot group, with L + 1 sources
    and r = 1 here: its Bartlett Gamma and L + 1 CN values.  With estimated
    CSI each downlink channel adds the Gamma of its norm outside the span;
    with perfect CSI every span vector is a channel, drawn as beta Gamma(M).
    Every other inner product is one Exp(1) value: all of Pu and, with the
    downlink, Pd, in-group entries included, then overwritten.  FD runs add
    the BS-BS powers, (L - 1) K_u K_d Exp(1) values and (L - 1) K_u Gamma
    values per BS, and with the downlink F.  When the BS-BS powers were
    weighted by a Gram's eigenvalues, each BS drew a 5 x 5 Bartlett factor
    (10 CN and 5 Gamma values) in place of those Gammas, and (CN, Gamma)
    were (57,600, 7,680) on the drop's fd/imperfect row, (7,680, 53,760) on
    its fd/perfect row, and (4,480, 20,160) and (22,400, 4,480) on the paper
    config's fd/perfect and fd/imperfect rows.  The ids keep each
    case's CN count when every BS drew its whole span in one part
    (``spans``): 499,200, 537,600, 710,400, 156,800 and 168,000, and before
    the all-HD links were drawn apart 1,728,000 (drop fd/imperfect) and
    1,075,200 (drop tdd/imperfect)."""
    counts, exp_counts, gamma_counts = [], [], []

    def counting_draw_cn(rng, shape, out=None):
        x = draw_cn(rng, shape, out=out)
        counts.append(x.size)
        return x

    class CountingRng:
        def __init__(self, rng):
            self.rng = rng

        def __getattr__(self, name):
            return getattr(self.rng, name)

        def standard_exponential(self, size=None, out=None):
            x = self.rng.standard_exponential(size, out=out)
            exp_counts.append(x.size)
            return x

        def standard_gamma(self, shape, size=None, out=None):
            x = self.rng.standard_gamma(shape, size, out=out)
            gamma_counts.append(np.size(x))
            return x

    if case == "drop":
        params = ScenarioParams()
        topo = drop_topology(params, np.random.default_rng(1))
        prof = profile_from_topology(params, topo, np.random.default_rng(2))
        cfg = params.system_config(M=100, kappa_db=-60.0)
    else:
        prof = expand_homogeneous(paper_homogeneous)
        cfg = paper_homogeneous.system_config()
    monkeypatch.setattr(rates, "draw_cn", counting_draw_cn)
    monkeypatch.setattr(rates, "trial_rng", lambda seed, t: CountingRng(trial_rng(seed, t)))
    _mc_rates(prof, cfg, system, csi, 64, 0)
    assert (sum(counts), sum(exp_counts), sum(gamma_counts)) == (values, exps, gammas)


def test_tdd_batch_has_no_ue_ue_matrix(small_profile, small_config):
    """Only the FD kernels read F, so TDD batches do not draw it."""
    for csi in ("perfect", "imperfect"):
        sampler = _TrialSampler(small_profile, small_config, csi == "imperfect", True)
        assert "F" not in sampler.draw(np.random.default_rng(0), 2)


@pytest.mark.parametrize("law,fac,csi", [("perfect_csi_1_over_M", 64.0, "perfect"),
                                         ("imperfect_csi_1_over_sqrtM", 8.0, "imperfect")])
def test_mc_at_million_antennas_meets_limits(law, fac, csi):
    """Criterion 4 by simulation: power-scaled Monte Carlo rates at M = 1e6
    lie within 1% of the large-antenna limits."""
    prof = uniform_mixed_profile()
    base = SystemConfig(L=3, M=64, K_f=2, K_h_u=1, K_h_d=2, P_u=10.0,
                        P_d=100.0, P_tr=10.0, kappa=1e-5, sigma2=1.0, T=196)
    sched = PowerScalingSchedule(E_u=base.P_u * fac, E_d=base.P_d * fac,
                                 E_tr=base.P_tr * fac, exponent=law)
    cfg = sched.apply(base, 10 ** 6)
    rep = fd_rates_mc(prof, cfg, 2000, 5, csi=csi)
    a_ul, a_dl = asymptotic_rates(prof, cfg, sched)
    err = max(np.abs(rep.ul_rates / a_ul - 1).max(),
              np.abs(rep.dl_rates / a_dl - 1).max())
    assert err <= 0.01, f"worst relative error {err:.2e}"


@pytest.mark.parametrize("system", ["fd", "tdd"])
@pytest.mark.parametrize("M", [1, 16])
def test_downlink_channel_norms_are_gamma(small_profile, small_config, system, M):
    """With estimated CSI a downlink channel's squared norm, its part in its
    pilot group's span plus the residual variance times Gamma(M - r), is
    beta_d Gamma(M): mean beta M and variance beta^2 M, within 4.5 stderr
    for every (BS, user) pair over 20,000 trials.  M = 1 lies below an FD
    user's TDD group (r = 1 < D = 2), where the span holds the whole
    channel; M = 16 above it."""
    cfg = small_config.replace(M=M)
    sampler = _TrialSampler(small_profile, cfg, True, system == "tdd")
    rng, n = np.random.default_rng(5), 20_000
    g2 = np.concatenate([sampler._spans(rng, 1000)[3] for _ in range(n // 1000)])
    beta = small_profile.beta_d.transpose(1, 2, 0)              # (l, k, j)
    x = g2 / beta                                               # Gamma(M) each
    z_mean = (x.mean(axis=0) - M) / math.sqrt(M / n)
    z_var = (x.var(axis=0, ddof=1) - M) / (M * math.sqrt((2 + 6 / M) / n))
    assert np.abs(z_mean).max() < 4.5, f"mean: max |z| {np.abs(z_mean).max():.2f}"
    assert np.abs(z_var).max() < 4.5, f"variance: max |z| {np.abs(z_var).max():.2f}"
