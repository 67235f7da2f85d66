"""Record the reference values the benchmark checks every op against.

    python3 perfbench/record_reference.py [--only homog-m300,smallcell-sweep,closed-forms]

Writes ``perfbench/reference.json`` (merging into it with ``--only``).  The
Monte Carlo references use seeds that the benchmark never uses, so the
benchmark's check is a statistical comparison on every seed:

- homog-m300: the mean of independent op-sized runs per CSI mode, with the
  standard error of that mean;
- smallcell-sweep: for each pool drop and sweep point, a run_drop with more
  trials than an op;
- both: a correlation factor, the largest ratio of the empirical standard
  deviation of an op-sized total to the total's stderr computed as if users
  were independent, times a 1.25 margin for the estimate's own noise;
- closed-forms: every pool entry's bounds, asymptotes and curve.

Takes about fifteen minutes on one core.
"""

import argparse
import json
import os
import sys
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import fdmimo as fd  # noqa: E402
import workloads as W  # noqa: E402
from harness import git_commit  # noqa: E402

REF_ENTROPY = 9_000_001
HOMOG_REPLICATES = 48
SWEEP_REPLICATES = 24
SWEEP_REF_TRIALS = 128
CORR_MARGIN = 1.25


def replicate_totals(run, n):
    """Totals and independent-user stderrs of n replicate runs, per
    (system, link); ``run(r)`` returns a list of (system, RateReport)."""
    acc = {}
    for r in range(n):
        for system, rep in run(r):
            s = W.report_summary(rep)
            for link in ("ul", "dl"):
                acc.setdefault((system, link), []).append(
                    (s[link]["total"], s[link]["total_se"]))
    return {k: np.asarray(v) for k, v in acc.items()}


def corr_ratios(totals):
    """Empirical sd of the totals over their mean stderr, for MC links."""
    out = []
    for v in totals.values():
        if v[:, 1].mean() > 0:
            out.append(float(v[:, 0].std(ddof=1) / v[:, 1].mean()))
    return out


def record_homog():
    wl = W.HomogM300()
    st = wl.setup(fd, 0)
    d = st.data
    out, ratios = {}, []
    for c, csi in enumerate(("perfect", "imperfect")):
        tot = replicate_totals(lambda r: [("fd", fd.fd_rates_mc(
            d["profile"], d["cfg"], W.OP_TRIALS, [REF_ENTROPY, c, r], csi=csi))],
            HOMOG_REPLICATES)
        ratios += corr_ratios(tot)
        out[csi] = {link: [float(v[:, 0].mean()),
                           float(v[:, 0].std(ddof=1) / np.sqrt(len(v)))]
                    for (_, link), v in tot.items()}
        print(csi, out[csi], flush=True)
    out["corr_factor"] = CORR_MARGIN * max([1.0] + ratios)
    out["ratios"] = ratios
    return out


def record_smallcell():
    params = fd.ScenarioParams()
    ratios = []
    for k in range(2):
        rng = np.random.default_rng([REF_ENTROPY, 7, k])
        topo = fd.build_topology(rng, n_bs=params.n_bs, hex_radius=params.hex_radius,
                                 n_ul_per_bs=params.n_ul_hd, n_dl_per_bs=params.n_dl_hd)
        profile = fd.profile_from_topology(params, topo, rng)
        for M, kdb in W.SWEEP:
            cfg = params.system_config(M=M, kappa_db=kdb)
            tot = replicate_totals(lambda r: [
                ("fd", fd.fd_rates_mc(profile, cfg, W.OP_TRIALS,
                                      [REF_ENTROPY, 8, k, r], csi="imperfect")),
                ("tdd", fd.tdd_rates_mc(profile, cfg, "imperfect", W.OP_TRIALS,
                                        [REF_ENTROPY, 9, k, r]))],
                SWEEP_REPLICATES)
            ratios += corr_ratios(tot)
            print("corr", k, M, kdb, [round(x, 3) for x in corr_ratios(tot)], flush=True)
    corr = CORR_MARGIN * max([1.0] + ratios)
    drops = {}
    for d in range(W.DROP_POOL):
        drops[str(d)] = {}
        for M, kdb in W.SWEEP:
            fd_rep, tdd_rep = fd.run_drop(params, M, kdb, W.drop_seed(d),
                                          trials=SWEEP_REF_TRIALS)
            entry = {}
            for system, rep in (("fd", fd_rep), ("tdd", tdd_rep)):
                s = W.report_summary(rep)
                for link in ("ul", "dl"):
                    entry[f"{system}_{link}"] = [s[link]["total"],
                                                 corr * s[link]["total_se"]]
            drops[str(d)][W.point_key(M, kdb)] = entry
        print("drop", d, flush=True)
    return {"corr_factor": corr, "ratios": ratios, "ref_trials": SWEEP_REF_TRIALS,
            "drops": drops}


def record_closed_forms():
    entries = {}
    for kind, L, csi in W.CF_STRATA:
        for i in range(W.CF_POOL):
            e = W.cf_entry(fd, kind, L, csi, i)
            out = W.cf_evaluate(fd, e)
            entries[e["key"]] = {name: (v if name == "curve" else
                                        [float(x) for x in v])
                                 for name, v in out.items() if name != "key"}
            entries[e["key"]]["digest"] = e["digest"]
    return {"entries": entries}


RECORDERS = {"homog-m300": record_homog, "smallcell-sweep": record_smallcell,
             "closed-forms": record_closed_forms}


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--only", default=",".join(RECORDERS))
    args = ap.parse_args()
    path = HERE / "reference.json"
    data = json.loads(path.read_text()) if path.exists() else {}
    for name in args.only.split(","):
        data[name] = RECORDERS[name]()
    data["recorded_at"] = git_commit()
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
