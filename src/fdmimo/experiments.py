"""End-to-end experiment drivers and machine-readable result emission.

Every experiment is a pure function of (parameters, seed): re-running with the
same inputs reproduces the result rows exactly, and re-emitting a result is
byte-identical.  Output CSVs are the plotting interface; nothing is plotted
here.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .bounds import antenna_reduction_curve, fd_gain, homogeneous_rates
from .config import (HomogeneousConfig, PowerScalingSchedule, _is_integer,
                     config_digest, expand_homogeneous)
from .rates import (_CSI_MODES, RateReport, _check_config, fd_rates_mc,
                    overheads, tdd_rates_mc)
from .scenario import ScenarioParams, run_drop


@dataclass(frozen=True)
class ExperimentResult:
    experiment: str
    config_digest: str
    seed: int
    rows: list
    aggregates: list = field(default_factory=list)


def emit(result: ExperimentResult, fmt: str, path) -> None:
    """Write result rows (plus aggregates) as CSV or JSON, deterministically.

    ``path`` is a file path or an open text stream; both get the same
    characters (CSV rows end in CRLF).
    """
    rows = [dict(r, experiment=result.experiment,
                 config_digest=result.config_digest, seed=result.seed)
            for r in result.rows + result.aggregates]
    buf = io.StringIO(newline="")
    if fmt == "csv":
        lead = ["experiment", "config_digest", "seed"]
        keys = lead + sorted({k for r in rows for k in r} - set(lead))
        w = csv.DictWriter(buf, fieldnames=keys, restval="")
        w.writeheader()
        for r in rows:
            w.writerow({k: (repr(float(v)) if isinstance(v, float) else v)
                        for k, v in r.items()})
    elif fmt == "json":
        json.dump({"experiment": result.experiment,
                   "config_digest": result.config_digest,
                   "seed": result.seed,
                   "rows": result.rows,
                   "aggregates": result.aggregates},
                  buf, indent=1, sort_keys=True)
        buf.write("\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if hasattr(path, "write"):
        path.write(buf.getvalue())
        return
    with open(path, "w", newline="") as fh:
        fh.write(buf.getvalue())


def _sum_se(rep: RateReport):
    return float(rep.ul_se_per_cell.sum()), float(rep.dl_se_per_cell.sum())


# ---------------------------------------------------------------------------
# Homogeneous-network experiments
# ---------------------------------------------------------------------------

def experiment_tightness(h: HomogeneousConfig, M_list, trials, seed) -> ExperimentResult:
    """Monte Carlo ergodic rates against the closed-form lower bounds."""
    profile = expand_homogeneous(h)
    cfgs = [h.system_config(M=M) for M in M_list]
    # every point checked, by its bounds, before any runs
    bounds = [[homogeneous_rates(h, csi, M=M) for csi in _CSI_MODES] for M in M_list]
    rows = []
    for idx, (M, cfg, bound) in enumerate(zip(M_list, cfgs, bounds)):
        for csi, b_csi in zip(_CSI_MODES, bound):
            rep = fd_rates_mc(profile, cfg, trials, [seed, idx], csi=csi)
            sims = ((rep.ul_se_per_cell, rep.ul_stderr), (rep.dl_se_per_cell, rep.dl_stderr))
            # homogeneous_rates already carries the imperfect-CSI overhead
            # prefactor, and the perfect-CSI prefactor is 1.
            for link, b, o, (se_cell, se) in zip(("ul", "dl"), b_csi,
                                                 overheads(cfg, "fd", csi), sims):
                mc = float(se_cell.mean())
                rows.append({"M": M, "csi": csi, "link": link, "mc_se": mc, "bound_se": b,
                             "mc_stderr": o * float(np.sqrt((se ** 2).sum(axis=1)).mean()),
                             "rel_gap": (mc - b) / mc})
    digest = config_digest({"h": h, "M_list": list(M_list), "trials": trials})
    return ExperimentResult("tightness", digest, seed, rows)


def reference_schedule(h: HomogeneousConfig, csi: str, m_ref: int = 64) -> PowerScalingSchedule:
    """Scaling schedule whose powers equal the nominal config at M = m_ref."""
    if not (_is_integer(m_ref) and m_ref >= 1):
        raise ValueError(f"m_ref must be an integer of at least 1, got {m_ref!r}")
    if csi == "perfect":
        f = float(m_ref)
        law = "perfect_csi_1_over_M"
    else:
        f = math.sqrt(m_ref)
        law = "imperfect_csi_1_over_sqrtM"
    return PowerScalingSchedule(E_u=h.P_u * f, E_d=h.P_d * f, E_tr=h.P_tr * f,
                                exponent=law)


def experiment_power_scaling(h: HomogeneousConfig, M_list, csi, trials, seed,
                             m_ref: int = 64, scale: bool = True) -> ExperimentResult:
    """FD-vs-TDD gains across M, with transmit powers scaled down per the
    matching law (or held fixed when scale=False).

    The FD side uses the closed-form bounds; the TDD side is evaluated by
    Monte Carlo with no lower-bounding.
    """
    profile = expand_homogeneous(h)
    sched = reference_schedule(h, csi, m_ref)
    points = []
    for M in M_list:            # every point checked, by its bounds, before any runs
        P_u, P_d, P_tr = sched.powers_at(M) if scale else (h.P_u, h.P_d, h.P_tr)
        hM = replace(h, M=M, P_u=P_u, P_d=P_d, P_tr=P_tr)
        points.append((M, homogeneous_rates(hM, csi), hM.system_config()))
    rows = []
    for idx, (M, (b_ul, b_dl), cfg) in enumerate(points):
        t_ul, t_dl = _sum_se(tdd_rates_mc(profile, cfg, csi, trials, [seed, idx]))
        rows.append({"M": M, "csi": csi, "scaled": scale,
                     "gain_ul": h.L * b_ul / t_ul, "gain_dl": h.L * b_dl / t_dl,
                     "fd_se_ul": b_ul, "fd_se_dl": b_dl,
                     "tdd_se_ul": t_ul / h.L, "tdd_se_dl": t_dl / h.L})
    digest = config_digest({"h": h, "M_list": list(M_list), "csi": csi,
                            "trials": trials, "m_ref": m_ref, "scale": scale})
    return ExperimentResult("power-scaling", digest, seed, rows)


def experiment_tradeoff(h: HomogeneousConfig, M_tdd_list, csi,
                        gains=None, seed: int = 0) -> ExperimentResult:
    pts = antenna_reduction_curve(h, M_tdd_list, csi, gains=gains)
    rows = [{"M_tdd": p.M_tdd, "M_fd": p.M_fd, "se_gain": p.se_gain,
             "antenna_reduction": p.antenna_reduction, "reachable": p.reachable}
            for p in pts]
    digest = config_digest({"h": h, "M_tdd_list": list(M_tdd_list), "csi": csi,
                            "gains": None if gains is None else list(gains)})
    return ExperimentResult("tradeoff", digest, seed, rows)


# ---------------------------------------------------------------------------
# Small-cell scenario experiments
# ---------------------------------------------------------------------------

def _scenario_sweep(name, params: ScenarioParams, sweep, drops, seed, trials):
    """Run `drops` random drops for each (M, kappa_db) sweep point.

    Gains are reported both as the ratio of drop-averaged sum spectral
    efficiencies and as per-drop ratios (mean and confidence interval), so
    either averaging convention is inspectable.
    """
    if not (_is_integer(drops) and drops >= 1):
        raise ValueError(f"drops must be an integer of at least 1, got {drops!r}")
    for M, kdb in sweep:        # every point before any drop runs
        _check_config(params.system_config(M, kdb))
    rows, aggregates = [], []
    for M, kdb in sweep:
        fd_ul = fd_dl = tdd_ul = tdd_dl = 0.0
        per_ul, per_dl = [], []
        for d in range(drops):
            fd, tdd = run_drop(params, M, kdb, [seed, d], trials=trials)
            f_ul, f_dl = _sum_se(fd)
            t_ul, t_dl = _sum_se(tdd)
            fd_ul += f_ul; fd_dl += f_dl; tdd_ul += t_ul; tdd_dl += t_dl
            per_ul.append(f_ul / t_ul)
            per_dl.append(f_dl / t_dl)
            rows.append({"M": M, "kappa_db": kdb, "drop": d,
                         "gain_ul": f_ul / t_ul, "gain_dl": f_dl / t_dl,
                         "fd_se_ul": f_ul, "fd_se_dl": f_dl,
                         "tdd_se_ul": t_ul, "tdd_se_dl": t_dl})
        per_ul = np.asarray(per_ul); per_dl = np.asarray(per_dl)
        z = 1.96 / math.sqrt(drops)
        aggregates.append({
            "M": M, "kappa_db": kdb, "drop": "mean",
            "gain_ul": fd_ul / tdd_ul, "gain_dl": fd_dl / tdd_dl,
            "mean_drop_gain_ul": float(per_ul.mean()),
            "mean_drop_gain_dl": float(per_dl.mean()),
            "ci_ul": z * float(per_ul.std(ddof=1)) if drops > 1 else 0.0,
            "ci_dl": z * float(per_dl.std(ddof=1)) if drops > 1 else 0.0,
        })
    digest = config_digest({"params": params.as_dict(), "sweep": [list(s) for s in sweep],
                            "drops": drops, "trials": trials})
    return ExperimentResult(name, digest, seed, rows, aggregates)


def experiment_gain_vs_M(params: ScenarioParams, drops, seed,
                         M_list=None, kappa_db: float = -60.0,
                         trials: int = 200) -> ExperimentResult:
    M_list = params.M_list if M_list is None else M_list
    return _scenario_sweep("gain-vs-m", params, [(M, kappa_db) for M in M_list],
                           drops, seed, trials)


def experiment_gain_vs_kappa(params: ScenarioParams, drops, seed,
                             kappa_db_list=None, M: int = 100,
                             trials: int = 200) -> ExperimentResult:
    kappa_db_list = params.kappa_db_list if kappa_db_list is None else kappa_db_list
    return _scenario_sweep("gain-vs-kappa", params,
                           [(M, kdb) for kdb in kappa_db_list],
                           drops, seed, trials)


def experiment_rates(h: HomogeneousConfig, csi, trials, seed) -> ExperimentResult:
    """One-off rate report for a homogeneous config, FD and TDD."""
    profile = expand_homogeneous(h)
    cfg = h.system_config()
    rows = []
    fd = fd_rates_mc(profile, cfg, trials, [seed, 0], csi=csi)
    tdd = tdd_rates_mc(profile, cfg, csi, trials, [seed, 1])
    for rep in (fd, tdd):
        rows.extend(rep.rows())
    # No gain stderr is computed yet: the 0.0 does not mean the gain is exact.
    aggregates = [{"system": "gain", "csi": csi, "cell": "", "user": "",
                   "class": link, "rate": g, "stderr": 0.0}
                  for link, g in zip(("ul", "dl"), fd_gain(fd, tdd))]
    digest = config_digest({"h": h, "csi": csi, "trials": trials})
    return ExperimentResult("rates", digest, seed, rows, aggregates)
