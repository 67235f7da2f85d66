"""Command-line experiment runner.

Subcommands: tightness, power-scaling, tradeoff, gain-vs-m, gain-vs-kappa,
rates.  Results are written as CSV (default) or JSON; exit code is nonzero
with a diagnostic on any validation, scenario-file or infeasibility error.
"""

from __future__ import annotations

import argparse
import re
import sys

from .channel import TopologyError
from .config import HomogeneousConfig, db_to_linear
from .experiments import (emit, experiment_gain_vs_M, experiment_gain_vs_kappa,
                          experiment_power_scaling, experiment_rates,
                          experiment_tightness, experiment_tradeoff)
from .scenario import ScenarioParams, load_scenario


def _int_list(text):
    return [int(x) for x in text.split(",")]


def _float_list(text):
    return [float(x) for x in text.split(",")]


def _add_common(p):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_homogeneous(p):
    p.add_argument("--cells", type=int, default=7)
    p.add_argument("--users", type=int, default=5)
    p.add_argument("--beta", type=float, default=0.3)
    p.add_argument("--pu-db", type=float, default=10.0)
    p.add_argument("--pd-db", type=float, default=20.0)
    p.add_argument("--ptr-db", type=float, default=10.0)
    p.add_argument("--kappa-db", type=float, default=-50.0)
    p.add_argument("--coherence", type=int, default=196)


def _homogeneous(args, M):
    return HomogeneousConfig(
        L=args.cells, K=args.users, beta=args.beta, M=M,
        P_u=float(db_to_linear(args.pu_db)), P_d=float(db_to_linear(args.pd_db)),
        P_tr=float(db_to_linear(args.ptr_db)),
        kappa=float(db_to_linear(args.kappa_db)), T=args.coherence)


def build_parser():
    ap = argparse.ArgumentParser(prog="fdmimo", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tightness", help="Monte Carlo rates vs closed-form bounds")
    _add_common(p); _add_homogeneous(p)
    p.add_argument("--m-list", type=_int_list, default=[50, 100, 200, 300])
    p.add_argument("--trials", type=int, default=2000)

    p = sub.add_parser("power-scaling", help="FD-vs-TDD gains across M with power scaling")
    _add_common(p); _add_homogeneous(p)
    p.add_argument("--m-list", type=_int_list, default=[16, 32, 64, 128, 256])
    p.add_argument("--trials", type=int, default=3000)
    p.add_argument("--csi", choices=("perfect", "imperfect"), default="perfect")
    p.add_argument("--m-ref", type=int, default=64,
                   help="antenna count at which the scaled powers equal the nominal ones")
    p.add_argument("--no-scale", action="store_true")

    p = sub.add_parser("tradeoff", help="spectral-efficiency gain vs antenna reduction")
    _add_common(p); _add_homogeneous(p)
    p.add_argument("--m-tdd-list", type=_int_list, default=[100, 200, 400, 800])
    p.add_argument("--csi", choices=("perfect", "imperfect"), default="imperfect")
    p.add_argument("--gains", type=_float_list, default=None)

    p = sub.add_parser("gain-vs-m", help="small-cell scenario gain sweep over M")
    _add_common(p)
    p.add_argument("--config", default=None, help="scenario JSON file")
    p.add_argument("--drops", type=int, default=20)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--m-list", type=_int_list, default=None)
    p.add_argument("--kappa-db", type=float, default=-60.0)

    p = sub.add_parser("gain-vs-kappa", help="small-cell scenario gain sweep over kappa")
    _add_common(p)
    p.add_argument("--config", default=None)
    p.add_argument("--drops", type=int, default=20)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--kappa-db-list", type=_float_list, default=None)
    # Let "-50,-70" be a value: argparse takes it for an option, since only
    # plain negative numbers count as values before Python 3.13.
    p._negative_number_matcher = re.compile(r"^-\.?\d")
    p.add_argument("--antennas", type=int, default=100)

    p = sub.add_parser("rates", help="one-off homogeneous rate report (FD and TDD)")
    _add_common(p); _add_homogeneous(p)
    p.add_argument("--antennas", type=int, default=100)
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--csi", choices=("perfect", "imperfect"), default="perfect")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "tightness":
            res = experiment_tightness(_homogeneous(args, max(args.m_list)),
                                       args.m_list, args.trials, args.seed)
        elif args.command == "power-scaling":
            res = experiment_power_scaling(_homogeneous(args, args.m_ref),
                                           args.m_list, args.csi, args.trials,
                                           args.seed, m_ref=args.m_ref,
                                           scale=not args.no_scale)
        elif args.command == "tradeoff":
            res = experiment_tradeoff(_homogeneous(args, max(args.m_tdd_list)),
                                      args.m_tdd_list, args.csi,
                                      gains=args.gains, seed=args.seed)
        elif args.command in ("gain-vs-m", "gain-vs-kappa"):
            params = load_scenario(args.config) if args.config else ScenarioParams()
            if args.command == "gain-vs-m":
                res = experiment_gain_vs_M(params, args.drops, args.seed,
                                           M_list=args.m_list,
                                           kappa_db=args.kappa_db,
                                           trials=args.trials)
            else:
                res = experiment_gain_vs_kappa(params, args.drops, args.seed,
                                               kappa_db_list=args.kappa_db_list,
                                               M=args.antennas, trials=args.trials)
        elif args.command == "rates":
            res = experiment_rates(_homogeneous(args, args.antennas),
                                   args.csi, args.trials, args.seed)
        else:  # pragma: no cover
            raise SystemExit(2)
        emit(res, args.format, sys.stdout if args.out == "-" else args.out)
    except (ValueError, TopologyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
