import json

import numpy as np
import pytest

from fdmimo import PathlossModel, ScenarioParams, run_drop, scenario_params_from_dict
from fdmimo import scenario
from fdmimo.scenario import (DEFAULT_PATHLOSS, drop_topology, load_scenario,
                             profile_from_topology)

from reference import link_gains_loop


def test_default_noise_figures():
    p = ScenarioParams()
    # -174 dBm/Hz + 10 log10(20 MHz) + 9 dB = -91.99 dBm at the BS
    assert 10 * np.log10(p.noise_watt(9.0) * 1e3) == pytest.approx(-91.99, abs=0.01)
    assert p.noise_watt(5.0) < p.noise_watt(9.0)


def test_system_config_from_table():
    cfg = ScenarioParams().system_config(M=100, kappa_db=-60.0)
    assert cfg.L == 12 and cfg.M == 100
    assert cfg.K_f == 0 and cfg.K_h_u == 5 and cfg.K_h_d == 5
    assert cfg.P_d == pytest.approx(10 ** ((24 - 30) / 10))
    assert cfg.P_u == pytest.approx(10 ** ((23 - 30) / 10))
    assert cfg.kappa == pytest.approx(1e-6)
    assert cfg.sigma2 > cfg.sigma2_dl            # 9 dB vs 5 dB noise figure
    assert cfg.T == 196 and cfg.tau == 10


def test_default_pathloss_constants():
    assert DEFAULT_PATHLOSS["bs_ue"].A == pytest.approx(30.6)
    assert DEFAULT_PATHLOSS["bs_ue"].B == pytest.approx(36.7)
    assert DEFAULT_PATHLOSS["ue_ue"].shadowing_std == 6.0
    assert DEFAULT_PATHLOSS["bs_bs"].shadowing_std == 12.0
    assert sorted(DEFAULT_PATHLOSS) == ["bs_bs", "bs_ue", "ue_ue"]
    assert ScenarioParams().si_loss_db == 40.0


def test_profile_from_topology_structure():
    p = ScenarioParams()
    topo = drop_topology(p, np.random.default_rng(1))
    prof = profile_from_topology(p, topo, np.random.default_rng(2))
    assert prof.L == 12 and prof.K_u == 5 and prof.K_d == 5 and prof.K_f == 0
    # self-interference diagonal is the 40 dB isolation figure
    np.testing.assert_allclose(np.diag(prof.beta_b), 1e-4)
    assert (prof.beta_u > 0).all() and (prof.beta_I > 0).all()
    # serving-cell links are on average much stronger than cross-cell ones
    jj = np.arange(12)
    own = prof.beta_u[jj, jj].mean()
    cross = (prof.beta_u.sum() - prof.beta_u[jj, jj].sum()) / (12 * 11 * 5)
    assert own > 10 * cross


def test_si_loss_sets_self_interference_gain():
    """The BS self-interference gain on beta_b's diagonal is si_loss_db."""
    p = ScenarioParams(n_bs=3, n_ul_hd=2, n_dl_hd=2, si_loss_db=65.0)
    topo = drop_topology(p, np.random.default_rng(1))
    prof = profile_from_topology(p, topo, np.random.default_rng(2))
    np.testing.assert_array_equal(np.diag(prof.beta_b), 10.0 ** -6.5)


def test_profile_matches_link_loop(monkeypatch):
    """The array gains equal the one-link-at-a-time loop on the same shadowing
    draws, bit for bit."""
    p = ScenarioParams()
    for d in range(4):
        topo = drop_topology(p, np.random.default_rng([5, d]))
        got = profile_from_topology(p, topo, np.random.default_rng([6, d]))
        with monkeypatch.context() as m:
            m.setattr(scenario, "_link_gains", link_gains_loop)
            want = profile_from_topology(p, topo, np.random.default_rng([6, d]))
        for name in ("beta_u", "beta_d", "beta_b", "beta_I"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


def test_scenario_roundtrip(tmp_path):
    p = ScenarioParams(n_bs=3, n_ul_hd=2, n_dl_hd=2, hex_radius=150.0)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(p.as_dict()))
    q = load_scenario(path)
    assert q == p


def test_scenario_from_dict_partial():
    q = scenario_params_from_dict({"n_bs": 4, "M_list": [10, 20]})
    assert q.n_bs == 4 and q.M_list == (10, 20)
    assert q.hex_radius == 300.0                 # untouched default


def test_scenario_partial_pathloss_keeps_other_classes():
    q = scenario_params_from_dict({"pathloss": {"bs_ue": {"A": 35.0, "B": 30.0}}})
    assert q.pathloss["bs_ue"] == PathlossModel(A=35.0, B=30.0)
    assert q.pathloss["bs_bs"] == DEFAULT_PATHLOSS["bs_bs"]
    assert q.pathloss["ue_ue"] == DEFAULT_PATHLOSS["ue_ue"]


@pytest.mark.parametrize("raw,match", [
    ({"n_bs": 3, "hex_radious": 1.0, "zz": 0}, "unknown scenario keys: hex_radious, zz"),
    ({"pathloss": {"self": {"A": 0.0, "B": 1.0}}}, "unknown pathloss keys: self"),
    ({"pathloss": {"bs_ue": {"A": 1.0, "B": 1.0, "link_class": "BS_UE"}}},
     "pathloss 'bs_ue'.*link_class"),
    ({"pathloss": {"bs_ue": {"A": 1.0}}}, "pathloss 'bs_ue'.*'B'"),
    ({"pathloss": []}, "pathloss must be a JSON object"),
    ([1, 2], "scenario must be a JSON object"),
])
def test_scenario_from_dict_rejects_bad_keys(raw, match):
    with pytest.raises(ValueError, match=match):
        scenario_params_from_dict(raw)


def test_run_drop_deterministic_and_sane():
    p = ScenarioParams(n_bs=3, n_ul_hd=2, n_dl_hd=2)
    fd1, tdd1 = run_drop(p, 16, -60.0, [9, 0], trials=32)
    fd2, tdd2 = run_drop(p, 16, -60.0, [9, 0], trials=32)
    np.testing.assert_array_equal(fd1.ul_rates, fd2.ul_rates)
    np.testing.assert_array_equal(tdd1.dl_rates, tdd2.dl_rates)
    assert fd1.csi == "imperfect" and tdd1.system == "tdd"
    assert np.isfinite(fd1.ul_rates).all() and (fd1.ul_rates >= 0).all()
    fd3, _ = run_drop(p, 16, -60.0, [9, 1], trials=32)
    assert not np.array_equal(fd1.ul_rates, fd3.ul_rates)
