import json
import re

import numpy as np
import pytest

from fdmimo import (ExperimentResult, HomogeneousConfig, ScenarioParams, emit,
                    experiment_gain_vs_M, experiment_power_scaling,
                    experiment_rates, experiment_tightness,
                    experiment_tradeoff)
from fdmimo.cli import build_parser, main
from fdmimo.experiments import reference_schedule, run_drop


@pytest.fixture
def tiny_h():
    return HomogeneousConfig(L=2, K=2, beta=0.3, M=16, P_u=10.0, P_d=100.0,
                             P_tr=10.0, kappa=1e-5, T=196)


def test_emit_csv_deterministic(tmp_path, tiny_h):
    res = experiment_tightness(tiny_h, [8, 16], 64, 3)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit(res, "csv", p1)
    emit(experiment_tightness(tiny_h, [8, 16], 64, 3), "csv", p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_emit_json_roundtrip(tmp_path, tiny_h):
    res = experiment_tightness(tiny_h, [8], 32, 1)
    path = tmp_path / "r.json"
    emit(res, "json", path)
    data = json.loads(path.read_text())
    assert data["experiment"] == "tightness"
    assert len(data["rows"]) == len(res.rows)
    emit(res, "json", tmp_path / "r2.json")
    assert path.read_bytes() == (tmp_path / "r2.json").read_bytes()


def test_emit_unknown_format(tmp_path, tiny_h):
    res = ExperimentResult("x", "d", 0, [])
    with pytest.raises(ValueError):
        emit(res, "yaml", tmp_path / "r.yaml")


def test_tightness_rows_and_gaps(tiny_h):
    res = experiment_tightness(tiny_h, [32], 256, 0)
    assert len(res.rows) == 4                    # 2 csi x 2 links
    for r in res.rows:
        # Monte Carlo must not fall below the lower bound
        assert r["mc_se"] + 4 * r["mc_stderr"] + 1e-9 >= r["bound_se"]
        assert r["rel_gap"] < 0.5


def test_power_scaling_rows(tiny_h):
    res = experiment_power_scaling(tiny_h, [16, 64], "perfect", 128, 0)
    assert [r["M"] for r in res.rows] == [16, 64]
    for r in res.rows:
        assert r["gain_ul"] > 0 and r["gain_dl"] > 0
        assert r["scaled"] is True


def test_tradeoff_rows(tiny_h):
    res = experiment_tradeoff(tiny_h, [50], "imperfect", gains=[1.0, 1.3])
    assert len(res.rows) == 2
    assert res.rows[0]["M_fd"] <= res.rows[1]["M_fd"]


def test_tradeoff_digest_names_the_gains(tiny_h):
    """Two gain lists, and the default grid, give three digests; one list
    given twice gives one."""
    digests = [experiment_tradeoff(tiny_h, [50], "imperfect", gains=g).config_digest
               for g in ([1.1], [1.3], None, [1.1])]
    assert len(set(digests[:3])) == 3 and digests[3] == digests[0]


def test_rates_experiment_has_gain_aggregates(tiny_h):
    res = experiment_rates(tiny_h, "perfect", 64, 0)
    classes = {a["class"] for a in res.aggregates}
    assert classes == {"ul", "dl"}
    assert all(a["rate"] > 0 for a in res.aggregates)


def test_gain_vs_m_aggregates():
    p = ScenarioParams(n_bs=3, n_ul_hd=2, n_dl_hd=2)
    res = experiment_gain_vs_M(p, drops=2, seed=0, M_list=[16], trials=24)
    assert len(res.rows) == 2 and len(res.aggregates) == 1
    agg = res.aggregates[0]
    assert agg["gain_ul"] > 0 and agg["ci_ul"] >= 0


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_tightness_csv(tmp_path):
    out = tmp_path / "t.csv"
    rc = main(["tightness", "--cells", "2", "--users", "2", "--m-list", "8",
               "--trials", "32", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("experiment,config_digest,seed")
    assert len(lines) == 5


def test_cli_stdout(capsys):
    rc = main(["tightness", "--cells", "2", "--users", "2", "--m-list", "8",
               "--trials", "16"])
    assert rc == 0
    outp = capsys.readouterr().out
    assert outp.startswith("experiment,config_digest,seed")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_cli_stdout_matches_file(tmp_path, capsysbinary, fmt):
    """--out - and --out FILE give the same bytes (CSV rows end in CRLF)."""
    args = ["rates", "--cells", "2", "--users", "2", "--antennas", "8",
            "--trials", "16", "--format", fmt]
    out = tmp_path / f"r.{fmt}"
    assert main(args + ["--out", str(out)]) == 0
    capsysbinary.readouterr()
    assert main(args) == 0
    assert capsysbinary.readouterr().out == out.read_bytes()


def test_cli_json_format(tmp_path):
    out = tmp_path / "t.json"
    rc = main(["rates", "--cells", "2", "--users", "2", "--antennas", "8",
               "--trials", "16", "--format", "json", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["experiment"] == "rates"


def test_cli_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["power-scaling", "--cells", "2", "--users", "2", "--m-list",
            "16,32", "--trials", "32", "--seed", "7"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_tradeoff(tmp_path):
    out = tmp_path / "t.csv"
    rc = main(["tradeoff", "--cells", "2", "--users", "2", "--m-tdd-list",
               "50", "--gains", "1.0,1.2", "--out", str(out)])
    assert rc == 0
    assert "antenna_reduction" in out.read_text().splitlines()[0]


def test_cli_tradeoff_rejects_nan_gain(tmp_path, capsys):
    """A NaN gain used to write a reachable row at M_fd = 10^7 and exit 0."""
    out = tmp_path / "t.csv"
    rc = main(["tradeoff", "--m-tdd-list", "100", "--gains", "nan,1.2",
               "--out", str(out)])
    assert rc == 1 and not out.exists()
    assert capsys.readouterr().err.startswith("error: gains")


def test_cli_rejects_invalid_config(tmp_path, capsys):
    rc = main(["rates", "--cells", "2", "--users", "2", "--antennas", "8",
               "--trials", "8", "--kappa-db", "3.0", "--out",
               str(tmp_path / "x.csv")])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_cli_scenario_config_file(tmp_path):
    scen = ScenarioParams(n_bs=3, n_ul_hd=2, n_dl_hd=2)
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(scen.as_dict()))
    out = tmp_path / "g.csv"
    rc = main(["gain-vs-m", "--config", str(cfg_path), "--drops", "1",
               "--trials", "16", "--m-list", "8", "--out", str(out)])
    assert rc == 0
    assert "gain_dl" in out.read_text().splitlines()[0]


def test_cli_negative_kappa_list():
    """Every kappa in dB is negative, so a list such as -50,-70 must parse as
    a value, not as an option."""
    args = build_parser().parse_args(["gain-vs-kappa", "--kappa-db-list", "-50,-70"])
    assert args.kappa_db_list == [-50.0, -70.0]


@pytest.mark.parametrize("content,match", [
    (None, "No such file"),
    ('{"n_bs": 3, "n_ul": 2}', "unknown scenario keys: n_ul"),
    ('{"pathloss": {"bs_ue": {"A": 30.6}}}', "pathloss 'bs_ue'"),
    ('{"n_bs": 3,', "error: Expecting"),
])
def test_cli_scenario_file_errors(tmp_path, capsys, content, match):
    """A missing, malformed or misspelt scenario file exits 1 with one
    'error:' line, not a traceback."""
    path = tmp_path / "scenario.json"
    if content is not None:
        path.write_text(content)
    rc = main(["gain-vs-m", "--config", str(path), "--drops", "1", "--trials",
               "8", "--m-list", "8", "--out", str(tmp_path / "g.csv")])
    err = capsys.readouterr().err
    assert rc == 1 and err.startswith("error: ") and re.search(match, err)


def test_cli_scenario_partial_pathloss(tmp_path):
    """A scenario file that overrides one pathloss class keeps the others."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"n_bs": 3, "n_ul_hd": 2, "n_dl_hd": 2,
                                "pathloss": {"bs_ue": {"A": 30.6, "B": 36.7}}}))
    out = tmp_path / "g.csv"
    rc = main(["gain-vs-m", "--config", str(path), "--drops", "1",
               "--trials", "16", "--m-list", "8", "--out", str(out)])
    assert rc == 0
    assert "gain_dl" in out.read_text().splitlines()[0]


def test_cli_unwritable_out_is_an_error(tmp_path, capsys):
    """An --out path whose directory does not exist exits 1 with one
    'error:' line once the run is done, not a traceback."""
    out = tmp_path / "missing" / "x.csv"
    rc = main(["rates", "--cells", "2", "--users", "2", "--antennas", "8",
               "--trials", "8", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1 and err.startswith("error: ") and "No such file" in err
    assert not out.exists()


@pytest.mark.parametrize("drops", [0, -1, 2.5, True])
def test_cli_rejects_fewer_than_one_drop(tmp_path, capsys, drops):
    """A sweep over no drops has no mean: exit 1 with an error that names
    drops, not a ZeroDivisionError or a math domain error.  A count that is
    not an integer (2.5, or True, which would run one drop) is named in the
    library; the command line parses only integers."""
    with pytest.raises(ValueError, match="^drops "):
        experiment_gain_vs_M(ScenarioParams(), drops, 0, M_list=[8], trials=8)
    if type(drops) is not int:
        return
    rc = main(["gain-vs-m", "--drops", str(drops), "--trials", "8",
               "--m-list", "8", "--out", str(tmp_path / "g.csv")])
    err = capsys.readouterr().err
    assert rc == 1 and err.startswith("error: drops ")


@pytest.mark.parametrize("csi", ["perfect", "imperfect"])
@pytest.mark.parametrize("m_ref", [0, -4, 2.5, float("nan")])
def test_m_ref_below_one_rejected(tmp_path, capsys, tiny_h, csi, m_ref):
    """A reference antenna count below 1 is named, in the library and on the
    command line, instead of blaming the powers or a square root; so is one
    that is not an integer (nan < 1 is false), in the library."""
    with pytest.raises(ValueError, match="m_ref"):
        reference_schedule(tiny_h, csi, m_ref)
    if type(m_ref) is not int:
        return
    rc = main(["power-scaling", "--cells", "2", "--users", "2", "--m-list", "16",
               "--trials", "8", "--csi", csi, "--m-ref", str(m_ref),
               "--out", str(tmp_path / "p.csv")])
    err = capsys.readouterr().err
    assert rc == 1 and err.startswith("error: m_ref ")


def test_cli_scenario_fractional_antenna_count(tmp_path, capsys):
    """A scenario file whose M_list holds 20.5 exits 1 with an error that
    names M, not a TypeError from an array shape."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"n_bs": 3, "n_ul_hd": 2, "n_dl_hd": 2,
                                "M_list": [20.5]}))
    rc = main(["gain-vs-m", "--config", str(path), "--drops", "1", "--trials",
               "8", "--out", str(tmp_path / "g.csv")])
    err = capsys.readouterr().err
    assert rc == 1 and err.startswith("error: invalid config: M: integer required")


def test_cli_power_scaling_below_three_antennas(tmp_path, capsys):
    """M = 2 in power-scaling exits 1 naming M instead of writing a downlink
    gain of 0.0 from the closed forms."""
    rc = main(["power-scaling", "--cells", "2", "--users", "2", "--m-list",
               "2,16", "--trials", "8", "--out", str(tmp_path / "p.csv")])
    err = capsys.readouterr().err
    assert rc == 1 and err.startswith("error: M: integer M >= 3")


def test_cli_scenario_sweep_checks_every_point_first(tmp_path, capsys, monkeypatch):
    """A bad M late in a sweep exits 1 naming M before any drop runs, instead
    of after the drops of every point before it."""
    calls = []
    monkeypatch.setattr("fdmimo.experiments.run_drop",
                        lambda *a, **kw: calls.append(a) or run_drop(*a, **kw))
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"M_list": [20, 50, 20.5]}))
    rc = main(["gain-vs-m", "--config", str(path), "--drops", "3",
               "--out", str(tmp_path / "g.csv")])
    err = capsys.readouterr().err
    assert rc == 1 and err.startswith("error: invalid config: M: integer required")
    assert len(calls) == 0


@pytest.mark.parametrize("command,m_list", [("tightness", "300,2"),
                                            ("power-scaling", "16,2")])
def test_cli_homogeneous_sweeps_check_every_point_first(tmp_path, capsys,
                                                        monkeypatch, command, m_list):
    """A bad last M in tightness or power-scaling exits 1 naming M before
    any Monte Carlo runs, instead of after every point before it."""
    calls = []
    for name in ("fd_rates_mc", "tdd_rates_mc"):
        monkeypatch.setattr(f"fdmimo.experiments.{name}",
                            lambda *a, **kw: calls.append(a))
    rc = main([command, "--m-list", m_list, "--trials", "64",
               "--out", str(tmp_path / "x.csv")])
    err = capsys.readouterr().err
    assert rc == 1 and err.startswith("error: M: integer M >= 3")
    assert len(calls) == 0
