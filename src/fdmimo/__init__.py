"""Achievable-rate analysis of multi-cell multi-user full-duplex MIMO networks.

Simulation plus closed-form lower bounds for uplink/downlink ergodic rates
under perfect and MMSE-estimated CSI, with full-duplex vs half-duplex (TDD)
comparisons, large-antenna power-scaling asymptotics, and a 3GPP-style
small-cell evaluation scenario.
"""

from .bounds import (TradeoffPoint, antenna_reduction_curve,
                     asymptotic_gain_limits, asymptotic_rates,
                     closed_form_report, fd_gain, homogeneous_rates,
                     prop1_rates, prop2_rates)
from .channel import (PathlossModel, Topology, TopologyError, build_topology,
                      compose_large_scale, sample_hexagon, trial_rng)
from .config import (HomogeneousConfig, LargeScaleProfile,
                     PowerScalingSchedule, SystemConfig, ValidationResult,
                     config_digest, db_to_linear, dbm_to_watt,
                     expand_homogeneous, validate)
from .estimation import EstimationStats, estimation_stats
from .experiments import (ExperimentResult, emit, experiment_gain_vs_M,
                          experiment_gain_vs_kappa, experiment_power_scaling,
                          experiment_rates, experiment_tightness,
                          experiment_tradeoff, reference_schedule)
from .rates import (RateReport, dl_rates_fd_imperfect, fd_rates_mc, overheads,
                    tdd_rates_mc)
from .scenario import (ScenarioParams, load_scenario, profile_from_topology,
                       run_drop, scenario_params_from_dict)

__version__ = "0.1.0"
