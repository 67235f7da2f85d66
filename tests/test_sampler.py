"""The coordinate sampler against the M-vector oracle in ``reference.py``."""

import numpy as np
import pytest

from fdmimo import (PowerScalingSchedule, ScenarioParams, SystemConfig,
                    asymptotic_rates, expand_homogeneous, fd_rates_mc)
from fdmimo import rates
from fdmimo.channel import draw_cn, trial_rng
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


@pytest.mark.parametrize("case,M", [pytest.param("mixed", 3, id="3"),
                                    pytest.param("mixed", 16, id="16"),
                                    pytest.param("hd", 3, id="hd-3"),
                                    pytest.param("hd", 16, id="hd-16")])
@pytest.mark.parametrize("system,csi", MODES)
def test_gram_sampler_matches_vector_sampler(small_profile, small_config, case,
                                             system, csi, M):
    """Both samplers through the same kernels give every per-user rate within
    4 combined stderr.  M = 3 lies below every part's span dimension D (5,
    or 7 with TDD pilots, with FD users; 4 and 5 without), M = 16 above it.
    fd_rates_mc's fd/imperfect sampler, which draws neither Gd nor F and, in
    an all-HD network, no downlink sources, is checked on the uplink too."""
    prof, cfg = profile_case(case, small_profile, small_config)
    cfg = cfg.replace(M=M)
    need_est, tdd = csi == "imperfect", system == "tdd"
    sampler = _TrialSampler(prof, cfg, need_est, tdd)
    D = {"mixed": [7 if need_est and tdd else 5], "hd": [4, 5]}[case]
    assert [r for *_, r in sampler.parts] == [min(M, x) for x in D]

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
    """Same keys and shapes as the M-vector model, with each part's
    r = min(M, D) for M: Gu, W and Eps have the combiners' r rows, Gd, V and
    the BS-BS draws Z the precoders'.  Channels are (B, j, r, l, k) and Z
    (B, l, m, n, r).  F holds real UE-UE powers, zero exactly at each FD
    user's own pair and positive elsewhere.  With FD users there is one
    part of D = 5; in the all-HD network D is 4 for the combiners and 5 for
    the precoders.  An FD user's downlink channel is its uplink one at every BS,
    and with FD training its precoder is its combiner.  Without the
    downlink kernel the batch has no Gd or F; from the same stream it has
    the same Gu, W, Eps and V, up to rounding where the precoders' part
    builds V from its Bartlett factor alone."""
    for case, dims in (("mixed", [5]), ("hd", [4, 5])):
        p, cfg = profile_case(case, small_profile, small_config)
        sampler = _TrialSampler(p, cfg, True, False)
        d = sampler.draw(np.random.default_rng(0), 4)
        assert [r for *_, r in sampler.parts] == dims
        r_u, r_d = dims[0], dims[-1]
        assert d["Gu"].shape == (4, p.L, r_u, p.L, p.K_u)
        assert d["W"].shape == d["Eps"].shape == (4, p.L, r_u, p.K_u)
        assert d["Gd"].shape == (4, p.L, r_d, p.L, p.K_d)
        assert d["V"].shape == (4, p.L, r_d, p.K_d)
        assert d["F"].shape == (4, p.L, p.K_d, p.L, p.K_u)
        assert d["Z"].shape == (4, p.L, p.L - 1, p.K_u, r_d)
        assert d["F"].dtype == float and (d["F"] >= 0).all()
        ll, kk = np.ix_(np.arange(p.L), np.arange(p.K_f))
        assert (d["F"][:, ll, kk, ll, kk] == 0).all()
        assert (d["F"].sum(axis=0) > 0).sum() == p.beta_I.size - p.L * p.K_f
        if p.K_f:
            np.testing.assert_array_equal(d["Gd"][..., :p.K_f], d["Gu"][..., :p.K_f])
            np.testing.assert_array_equal(d["V"][..., :p.K_f], d["W"][..., :p.K_f])
        analytic = _TrialSampler(p, cfg, True, False, dl=False).draw(
            np.random.default_rng(0), 4)
        assert "Gd" not in analytic and "F" not in analytic
        assert analytic["Z"].shape == d["Z"].shape
        for key in ("Gu", "W", "Eps", "V"):     # drawn before F, from one stream
            np.testing.assert_allclose(analytic[key], d[key], rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("system,csi", MODES)
def test_every_source_feeds_an_output(small_profile, small_config, system, csi):
    """Each unit source is one channel or pilot noise that some output reads,
    and each output reads one part's sources only.  Mixed: 15 channels per
    BS (3 cells x 3 uplink and 2 HD downlink users), plus one noise per
    pilot slot with estimated CSI (5 with FD training, 7 with TDD pilots),
    in one part.  All-HD: the uplink part has 12 channels (3 cells x 4
    users) and the downlink part 15, plus with estimated CSI 4 and 5 noises.
    Assembling the identity leaves no source unread at any BS."""
    noises = {"perfect": 0, "imperfect": 7 if system == "tdd" else 5}[csi]
    hd = [12, 15] if csi == "perfect" else [16, 20]
    for case, sizes in (("mixed", [15 + noises]), ("hd", hd)):
        p, cfg = profile_case(case, small_profile, small_config)
        sampler = _TrialSampler(p, cfg, csi == "imperfect", system == "tdd")
        assert [Q.shape[1] for Q, *_ in sampler.parts] == sizes
        L, S = p.L, sum(sizes)
        eye = np.tile(np.eye(S), (1, L, 1, 1))      # _assemble scales it in place
        out = sampler._assemble(eye[..., :sampler.S_u], eye[..., sampler.S_u:])
        part = np.repeat(np.arange(len(sizes)), sizes)      # each source's part
        used = np.zeros((L, S), bool)
        for key, x in out.items():   # the source index runs along axis 2
            reads = (x[0] != 0).reshape(L, S, -1).any(axis=2)
            assert len(set(part[reads.any(axis=0)])) == 1, f"{key} reads two parts"
            used |= reads
        assert used.all(), f"{case}: unread (BS, source): {np.argwhere(~used).tolist()}"


BUDGETS = [("drop", "fd", "imperfect", 499_200, 0), ("drop", "tdd", "imperfect", 537_600, 0),
           ("drop", "fd", "perfect", 710_400, 230_400),
           ("paper", "fd", "perfect", 156_800, 78_400), ("paper", "fd", "imperfect", 168_000, 0)]


@pytest.mark.parametrize("case,system,csi,values,exps", BUDGETS,
                         ids=["-".join(map(str, b[:4])) for b in BUDGETS])
def test_draw_budget(monkeypatch, paper_homogeneous, case, system, csi, values, exps):
    """CN values and Exp(1) values one 64-trial batch draws.  A criterion-8
    drop (12 all-HD cells, 5 + 5 users, M = 100) draws each link's part in
    its own span, and fd/imperfect, whose downlink is analytic, draws no F
    and no downlink sources: with one span for both links the imperfect runs
    drew 1,728,000 (fd) and 1,075,200 (tdd) CN values.  The paper config
    (K_f = 5) keeps one span; fd/imperfect draws no F.  F is drawn as
    powers, one Exp(1) value per entry where it was one CN value: fd/perfect
    drew 940,800 (drop) and 235,200 (paper) CN values with complex F."""
    counts, exp_counts = [], []

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
    assert (sum(counts), sum(exp_counts)) == (values, exps)


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
