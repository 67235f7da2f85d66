"""The coordinate sampler against the M-vector oracle in ``reference.py``."""

import numpy as np
import pytest

from fdmimo import PowerScalingSchedule, SystemConfig, asymptotic_rates, fd_rates_mc
from fdmimo.rates import _TrialSampler

from conftest import uniform_mixed_profile
from reference import kernel_rates, vector_draw_trials

MODES = [(system, csi) for system in ("fd", "tdd") for csi in ("perfect", "imperfect")]


@pytest.mark.parametrize("M", [3, 16])
@pytest.mark.parametrize("system,csi", MODES)
def test_gram_sampler_matches_vector_sampler(small_profile, small_config, system,
                                             csi, M):
    """Both samplers through the same kernels give every per-user rate within
    4 combined stderr.  M = 3 lies below the span dimension D (5, or 7 with
    TDD pilots), M = 16 above it."""
    cfg = small_config.replace(M=M)
    need_est, tdd = csi == "imperfect", system == "tdd"
    sampler = _TrialSampler(small_profile, cfg, need_est, tdd)
    assert sampler.r == min(M, 7 if need_est and tdd else 5)

    def vector(rng, B):
        return vector_draw_trials(small_profile, cfg, rng, B, need_est, tdd)

    trials = 20_000
    gram = kernel_rates(sampler.draw, small_profile, cfg, system, csi, trials, 11)
    ref = kernel_rates(vector, small_profile, cfg, system, csi, trials, 12)
    for link, k in (("ul", 0), ("dl", 2)):
        z = (gram[k] - ref[k]) / np.hypot(gram[k + 1], ref[k + 1])
        assert np.abs(z).max() < 4, f"{link}: max |z| {np.abs(z).max():.2f}"


def test_gram_sampler_shapes(small_profile, small_config):
    """Same keys and shapes as the M-vector model, with r = min(M, D) for M.
    An FD user's downlink channel is its uplink one at every BS, and with FD
    training its precoder is its combiner."""
    p = small_profile
    sampler = _TrialSampler(p, small_config, True, False)
    d = sampler.draw(np.random.default_rng(0), 4)
    r = sampler.r
    assert r == 5
    assert d["Gu"].shape == (4, p.L, p.L, r, p.K_u)
    assert d["Gd"].shape == (4, p.L, p.L, r, p.K_d)
    assert d["F"].shape == (4, p.L, p.K_d, p.L, p.K_u)
    assert d["W"].shape == d["Eps"].shape == (4, p.L, r, p.K_u)
    assert d["V"].shape == (4, p.L, r, p.K_d)
    np.testing.assert_array_equal(d["Gd"][..., :p.K_f], d["Gu"][..., :p.K_f])
    np.testing.assert_array_equal(d["V"][..., :p.K_f], d["W"][..., :p.K_f])


@pytest.mark.parametrize("system,csi", MODES)
def test_every_source_feeds_an_output(small_profile, small_config, system, csi):
    """Each unit source is one channel or pilot noise that some output reads:
    15 channels per BS (3 cells x 3 uplink and 2 HD downlink users), plus one
    noise per pilot slot with estimated CSI (5 with FD training, 7 with TDD
    pilots).  Assembling the identity leaves no source unread at any BS."""
    sampler = _TrialSampler(small_profile, small_config, csi == "imperfect",
                            system == "tdd")
    L, S = small_profile.L, sampler.basis.shape[1]
    out = sampler._assemble(np.broadcast_to(np.eye(S), (1, L, S, S)))
    used = np.zeros((L, S), bool)
    for x in out.values():       # the source index runs along axis -2
        used |= np.moveaxis(x[0] != 0, -2, 1).reshape(L, S, -1).any(axis=2)
    assert used.all(), f"unread (BS, source): {np.argwhere(~used).tolist()}"
    assert S == 15 + {"perfect": 0, "imperfect": 7 if system == "tdd" else 5}[csi]


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
