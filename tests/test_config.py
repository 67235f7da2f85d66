import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdmimo import (HomogeneousConfig, LargeScaleProfile, PowerScalingSchedule,
                    SystemConfig, config_digest, db_to_linear, dbm_to_watt,
                    expand_homogeneous, validate)


def base_cfg(**kw):
    d = dict(L=3, M=16, K_f=2, K_h_u=1, K_h_d=2, P_u=1.0, P_d=1.0, P_tr=1.0,
             kappa=1e-4, sigma2=1.0, T=196)
    d.update(kw)
    return SystemConfig(**d)


def test_unit_conversions():
    assert db_to_linear(10.0) == pytest.approx(10.0)
    assert db_to_linear(0.0) == pytest.approx(1.0)
    assert dbm_to_watt(30.0) == pytest.approx(1.0)
    assert dbm_to_watt(0.0) == pytest.approx(1e-3)


def test_user_counts():
    cfg = base_cfg()
    assert cfg.K_u == 3 and cfg.K_d == 4 and cfg.K_tot == 5


def test_defaults_fill_in():
    cfg = base_cfg()
    assert cfg.tau == cfg.K_tot
    assert cfg.tau_u == cfg.K_u and cfg.tau_d == cfg.K_d
    assert cfg.sigma2_dl == cfg.sigma2


def test_validate_ok():
    res = validate(base_cfg())
    assert res.ok and not res.violations


@pytest.mark.parametrize("kw,frag", [
    (dict(L=0), "L"),
    (dict(M=0), "M"),
    (dict(K_f=-1), "K_f"),
    (dict(P_u=0.0), "P_u"),
    (dict(kappa=1.5), "kappa"),
    (dict(kappa=-0.1), "kappa"),
    (dict(tau=2), "tau"),
    (dict(tau_u=1), "tau_u"),
    (dict(tau_d=1), "tau_d"),
    (dict(T=4, tau=4, tau_u=4, tau_d=4), "T"),
])
def test_validate_catches(kw, frag):
    res = validate(base_cfg(**kw))
    assert not res.ok
    assert any(frag in v for v in res.violations)


def test_validate_accepts_large_kappa():
    assert validate(base_cfg(kappa=0.5)).ok


def test_validate_closed_form_needs_m3():
    assert validate(base_cfg(M=2)).ok
    assert not validate(base_cfg(M=2), closed_forms=True).ok


def test_profile_shape_checks():
    ok = expand_homogeneous(HomogeneousConfig(L=2, K=2, beta=0.5, M=4, P_u=1,
                                              P_d=1, P_tr=1, kappa=0.0, T=10))
    assert ok.L == 2 and ok.K_u == 2 and ok.K_d == 2
    with pytest.raises(ValueError):
        LargeScaleProfile(beta_u=np.ones((2, 2, 2)), beta_d=np.ones((2, 2, 2)),
                          beta_b=np.ones((3, 3)), beta_I=np.ones((2, 2, 2, 2)))
    with pytest.raises(ValueError):
        LargeScaleProfile(beta_u=np.ones((2, 2, 2)), beta_d=np.ones((2, 2, 2)),
                          beta_b=np.zeros((2, 2)), beta_I=np.ones((2, 2, 2, 2)))


def test_profile_reciprocity_enforced():
    """An FD user has one channel to each BS, its own and every other."""
    for idx in ((0, 0, 0), (0, 1, 0)):
        bu = np.ones((2, 2, 2))
        bd = np.ones((2, 2, 2))
        bd[idx] = 2.0
        with pytest.raises(ValueError, match="reciprocity"):
            LargeScaleProfile(beta_u=bu, beta_d=bd, beta_b=np.ones((2, 2)),
                              beta_I=np.ones((2, 2, 2, 2)), K_f=1)


def test_expand_homogeneous_values():
    h = HomogeneousConfig(L=3, K=2, beta=0.25, M=8, P_u=1, P_d=1, P_tr=1,
                          kappa=0.0, T=50)
    p = expand_homogeneous(h)
    assert p.beta_u[0, 0, 0] == 1.0 and p.beta_u[0, 1, 1] == 0.25
    assert p.beta_b[1, 1] == 1.0 and p.beta_b[2, 0] == 0.25
    assert p.beta_I[0, 1, 0, 0] == 1.0 and p.beta_I[0, 1, 2, 0] == 0.25
    assert p.K_f == 2


def test_homogeneous_beta_range():
    with pytest.raises(ValueError):
        HomogeneousConfig(L=2, K=2, beta=1.5, M=4, P_u=1, P_d=1, P_tr=1,
                          kappa=0.0, T=10)


@given(st.floats(min_value=1e-3, max_value=1e3),
       st.integers(min_value=1, max_value=10 ** 6))
@settings(max_examples=50, deadline=None)
def test_power_schedule_laws(E, M):
    s1 = PowerScalingSchedule(E_u=E, E_d=E, E_tr=E, exponent="perfect_csi_1_over_M")
    s2 = PowerScalingSchedule(E_u=E, E_d=E, E_tr=E,
                              exponent="imperfect_csi_1_over_sqrtM")
    assert s1.powers_at(M)[0] == pytest.approx(E / M)
    assert s2.powers_at(M)[0] == pytest.approx(E / np.sqrt(M))
    s0 = PowerScalingSchedule(E_u=E, E_d=E, E_tr=E, exponent="none")
    assert s0.powers_at(M) == (E, E, E)


def test_power_schedule_apply():
    cfg = base_cfg()
    sched = PowerScalingSchedule(E_u=8.0, E_d=4.0, E_tr=2.0,
                                 exponent="perfect_csi_1_over_M")
    out = sched.apply(cfg, 4)
    assert out.M == 4 and out.P_u == 2.0 and out.P_d == 1.0 and out.P_tr == 0.5


def test_power_schedule_unknown_law():
    with pytest.raises(ValueError):
        PowerScalingSchedule(E_u=1, E_d=1, E_tr=1, exponent="cubic")


def test_config_digest_stable_and_sensitive():
    cfg = base_cfg()
    assert config_digest(cfg) == config_digest(base_cfg())
    assert config_digest(cfg) != config_digest(base_cfg(M=17))
    assert len(config_digest(cfg)) == 16


@pytest.mark.parametrize("name", ["P_u", "P_d", "P_tr", "sigma2", "sigma2_dl",
                                  "kappa"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_validate_rejects_non_finite(name, value):
    res = validate(base_cfg(**{name: value}))
    assert not res.ok
    assert any(v.startswith(name) for v in res.violations)


def test_validate_rejects_no_downlink_users():
    res = validate(base_cfg(K_f=0, K_h_d=0))
    assert not res.ok
    assert any(v.startswith("K_d") for v in res.violations)


@pytest.mark.parametrize("name", ["L", "M", "T", "K_f", "K_h_u", "K_h_d",
                                  "tau", "tau_u", "tau_d"])
@pytest.mark.parametrize("value", [20.5, 7.0, True])
def test_validate_rejects_non_integer_sizes(name, value):
    """A size that is a float, even an integral one, or a bool is named, not
    accepted or left to fail as a raw TypeError further in.  A user count
    also makes the default pilot lengths, its sums, non-integers."""
    res = validate(base_cfg(**{name: value}))
    assert not res.ok
    assert res.violations[0] == f"{name}: integer required, got {value!r}"
    assert all("integer required" in v for v in res.violations)


def test_validate_accepts_numpy_integers():
    kw = {name: np.int64(getattr(base_cfg(), name))
          for name in ("L", "M", "T", "K_f", "K_h_u", "K_h_d", "tau", "tau_u", "tau_d")}
    assert validate(base_cfg(**kw)).ok
