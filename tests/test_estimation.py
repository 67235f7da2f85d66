import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdmimo import SystemConfig, estimation_stats

from conftest import random_profile
from reference import (estimate_all, mmse_estimate, pilot_slot_dl, pilot_slot_ul,
                       realize_channels, training_observation)


def cfg_for(prof, M=8, P_tr=10.0):
    return SystemConfig(L=prof.L, M=M, K_f=prof.K_f,
                        K_h_u=prof.K_u - prof.K_f, K_h_d=prof.K_d - prof.K_f,
                        P_u=1.0, P_d=1.0, P_tr=P_tr, kappa=0.0, sigma2=1.0,
                        T=196)


def test_pilot_slots():
    # K_f = 2, K_u = 3: uplink users take slots 0..2, HD downlink users 3..4
    assert [pilot_slot_ul(n) for n in range(3)] == [0, 1, 2]
    assert pilot_slot_dl(0, 2, 3) == 0 and pilot_slot_dl(1, 2, 3) == 1
    assert pilot_slot_dl(2, 2, 3) == 3 and pilot_slot_dl(3, 2, 3) == 4


def test_mmse_hand_values_single_cell():
    cfg = cfg_for(random_profile(np.random.default_rng(0), L=1, K_f=1,
                                 K_h_u=0, K_h_d=0))
    y = np.ones(4, dtype=complex)
    g_hat, lam, est, err = mmse_estimate(y, cfg, np.array([1.0]), 0)
    assert lam == pytest.approx(11.0)            # 1 + 10 * 1
    assert est == pytest.approx(10.0 / 11.0)
    assert err == pytest.approx(1.0 / 11.0)
    np.testing.assert_allclose(g_hat, (10.0 / 11.0) * y)


def test_mmse_hand_values_two_cell_contamination():
    cfg = cfg_for(random_profile(np.random.default_rng(0), L=1, K_f=1,
                                 K_h_u=0, K_h_d=0))
    _, lam, est, err = mmse_estimate(np.zeros(2), cfg, np.array([1.0, 1.0]), 0)
    assert lam == pytest.approx(21.0)            # 1 + 10 * 2
    assert est == pytest.approx(10.0 / 21.0)
    assert err == pytest.approx(11.0 / 21.0)     # 1 * (1 + 10 * 1) / 21


@given(st.lists(st.floats(min_value=1e-3, max_value=10.0), min_size=1,
                max_size=6),
       st.floats(min_value=1e-2, max_value=1e3))
@settings(max_examples=100, deadline=None)
def test_variance_decomposition_exact(betas, P_tr):
    """est_var + err_var equals the serving-link gain, exactly."""
    prof = random_profile(np.random.default_rng(0), L=1, K_f=1, K_h_u=0,
                          K_h_d=0)
    cfg = cfg_for(prof, P_tr=P_tr)
    betas = np.asarray(betas)
    for serving in range(len(betas)):
        _, _, est, err = mmse_estimate(np.zeros(2), cfg, betas, serving)
        assert est + err == pytest.approx(betas[serving], rel=1e-12)


def test_estimation_stats_decomposition_exact(small_profile, small_config):
    st_ = estimation_stats(small_profile, small_config)
    jj = np.arange(small_profile.L)
    np.testing.assert_allclose(st_.est_var_u + st_.err_var_u,
                               small_profile.beta_u[jj, jj], rtol=1e-14)
    np.testing.assert_allclose(st_.est_var_d + st_.err_var_d,
                               small_profile.beta_d[jj, jj], rtol=1e-14)


def test_training_observation_composition(small_profile, small_config):
    real = realize_channels(small_profile, 3, small_config.M)
    big = small_config.replace(P_tr=1e12)        # noise contribution vanishes
    y = training_observation(real, big, 0, 1, np.random.default_rng(0))
    np.testing.assert_allclose(y, real.G_u[0, :, :, 1].sum(axis=0), atol=1e-4)
    with pytest.raises(IndexError):
        training_observation(real, big, 0, 99, np.random.default_rng(0))


def test_estimate_all_fd_sharing(small_profile, small_config):
    real = realize_channels(small_profile, 5, small_config.M)
    est = estimate_all(real, small_profile, small_config, 6)
    K_f = small_profile.K_f
    np.testing.assert_array_equal(est.g_hat_d[:, :, :K_f],
                                  est.g_hat_u[:, :, :K_f])


def test_estimate_statistics_and_uncorrelatedness():
    """Empirical estimate variance, error variance and cross-moment.

    With n i.i.d. samples the cross-moment estimate has standard deviation
    about sqrt(est_var * err_var / n); the empirical value must sit within
    three such deviations of zero.
    """
    prof = random_profile(np.random.default_rng(8), L=2, K_f=1, K_h_u=1,
                          K_h_d=0)
    cfg = cfg_for(prof, M=50)
    st_ = estimation_stats(prof, cfg)
    n = 100_000
    rng = np.random.default_rng(17)
    reps = n // cfg.M
    acc_est = acc_err = acc_cross = 0.0
    for t in range(reps):
        real = realize_channels(prof, rng, cfg.M)
        est = estimate_all(real, prof, cfg, rng)
        gh = est.g_hat_u[0, :, 0]
        eps = real.G_u[0, 0, :, 0] - gh
        acc_est += np.mean(np.abs(gh) ** 2)
        acc_err += np.mean(np.abs(eps) ** 2)
        acc_cross += np.mean(gh * eps.conj()).real
    assert acc_est / reps == pytest.approx(st_.est_var_u[0, 0], rel=0.05)
    assert acc_err / reps == pytest.approx(st_.err_var_u[0, 0], rel=0.05)
    tol = 3 * np.sqrt(st_.est_var_u[0, 0] * st_.err_var_u[0, 0] / n)
    assert abs(acc_cross / reps) < tol


def test_mmse_estimate_rejects_bad_betas():
    prof = random_profile(np.random.default_rng(0), L=1, K_f=1, K_h_u=0,
                          K_h_d=0)
    with pytest.raises(ValueError):
        mmse_estimate(np.zeros(2), cfg_for(prof), np.array([1.0, 0.0]), 0)
