import types

import fdmimo

PUBLIC = [
    "EstimationStats", "ExperimentResult", "GainReport", "HomogeneousConfig",
    "LargeScaleProfile", "PathlossModel", "PowerScalingSchedule", "RateReport",
    "ScenarioParams", "SystemConfig", "Topology", "TopologyError",
    "TradeoffPoint", "ValidationResult", "antenna_reduction_curve",
    "asymptotic_gain_limits", "asymptotic_rates", "build_topology",
    "closed_form_report", "compose_large_scale", "config_digest",
    "db_to_linear", "dbm_to_watt", "dl_rates_fd_imperfect", "emit",
    "estimation_stats", "expand_homogeneous", "experiment_gain_vs_M",
    "experiment_gain_vs_kappa", "experiment_power_scaling", "experiment_rates",
    "experiment_tightness", "experiment_tradeoff", "fd_gain", "fd_rates_mc",
    "homogeneous_rates", "load_scenario", "load_system_config", "overheads",
    "profile_from_topology", "prop1_rates", "prop2_rates", "reference_schedule",
    "run_drop", "sample_hexagon", "scenario_params_from_dict",
    "system_config_from_dict", "tdd_rates_mc", "trial_rng", "validate",
    "wishart_inverse_moments",
]


def test_public_names_pinned():
    """The package's public surface; a change to it must update this list."""
    names = sorted(n for n, v in vars(fdmimo).items()
                   if not n.startswith("_") and not isinstance(v, types.ModuleType))
    assert names == sorted(PUBLIC)
