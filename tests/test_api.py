import importlib
import importlib.util
import json
import pathlib
import re
import sys
import types

import fdmimo

PUBLIC = [
    "EstimationStats", "ExperimentResult", "HomogeneousConfig",
    "LargeScaleProfile", "PathlossModel", "PowerScalingSchedule", "RateReport",
    "ScenarioParams", "SystemConfig", "Topology", "TopologyError",
    "TradeoffPoint", "ValidationResult", "antenna_reduction_curve",
    "asymptotic_gain_limits", "asymptotic_rates", "build_topology",
    "closed_form_report", "compose_large_scale", "config_digest",
    "db_to_linear", "dbm_to_watt", "dl_rates_fd_imperfect", "emit",
    "estimation_stats", "expand_homogeneous", "experiment_gain_vs_M",
    "experiment_gain_vs_kappa", "experiment_power_scaling", "experiment_rates",
    "experiment_tightness", "experiment_tradeoff", "fd_gain", "fd_rates_mc",
    "homogeneous_rates", "load_scenario", "overheads",
    "profile_from_topology", "prop1_rates", "prop2_rates", "reference_schedule",
    "run_drop", "sample_hexagon", "scenario_params_from_dict",
    "tdd_rates_mc", "trial_rng", "validate",
]

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_public_names_pinned():
    """The package's public surface; a change to it must update this list."""
    names = sorted(n for n, v in vars(fdmimo).items()
                   if not n.startswith("_") and not isinstance(v, types.ModuleType))
    assert names == sorted(PUBLIC)


def test_benchmark_names_exist():
    """Every ``fd.<name>`` the benchmark reads is still on the package, and
    ``validate`` still takes ``closed_forms``, so a deletion cannot break
    the benchmark unnoticed."""
    used = set()
    for path in PERFBENCH.glob("*.py"):
        used |= set(re.findall(r"\bfd\.([A-Za-z_]\w*)", path.read_text()))
    assert "fd_rates_mc" in used and "validate" in used
    assert sorted(n for n in used if not hasattr(fdmimo, n)) == []
    cfg = fdmimo.HomogeneousConfig(L=2, K=1, beta=0.3, M=2, P_u=1.0, P_d=1.0,
                                   P_tr=1.0, kappa=0.0, T=10).system_config()
    assert fdmimo.validate(cfg).ok
    assert not fdmimo.validate(cfg, closed_forms=True).ok


def test_benchmark_trace_hooks_resolve():
    """Every (module, function) the benchmark's tracer wraps exists, so no
    per-layer metric turns 'absent' unnoticed when a function moves."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [(mod, fn) for _, mod, fn, *_ in tracing.HOOKS
               if not callable(getattr(importlib.import_module(mod), fn, None))]
    assert len(tracing.HOOKS) >= 19 and missing == []


def test_closed_forms_match_benchmark_reference():
    """Every closed-forms benchmark entry still has its recorded input digest
    and outputs (rtol 1e-9): a changed config field, drop-profile bit or
    closed form shows here before a benchmark run reports it."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads      # dataclasses look their module up
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    ref = json.loads((PERFBENCH / "reference.json").read_text())["closed-forms"]["entries"]
    entries = [workloads.cf_entry(fdmimo, kind, L, csi, i)
               for kind, L, csi in workloads.CF_STRATA for i in range(workloads.CF_POOL)]
    fails = []
    for e in entries:
        r = ref[e["key"]]
        if e["digest"] != r["digest"]:
            fails.append(f"{e['key']}: input differs from the recorded one")
        else:
            fails += workloads.cf_compare(workloads.cf_evaluate(fdmimo, e), r)
    assert len(entries) == 21 and fails == []
