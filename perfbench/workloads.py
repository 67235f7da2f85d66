"""The three benchmark workloads: inputs made from the seed, the timed ops,
and the checks on every op's output.

A workload's ``setup(fd, seed)`` receives the freshly imported ``fdmimo``
package and returns a ``State``; ``ops(state, p)`` lists the ops of pass
``p``; each op returns a summary dict that ``check`` compares with the
recorded reference in ``reference.json``.  The library is only ever called
through attribute lookups on ``fd`` at call time, so tracing wrappers
installed on the package see every call.

Each pass draws fresh inputs from ``(seed, pass)``, but every pass has the
same composition, so pass wall times are comparable and exact per-pass
counters repeat.  A workload's ``cycle`` is the number of passes in which it
runs every input it can draw; a run ends on a whole number of cycles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Criterion-2 configuration: 7 cells, 5 FD users, 10/20/10 dB, kappa -50 dB.
PAPER = dict(L=7, K=5, beta=0.3, M=300, P_u=10.0, P_d=100.0, P_tr=10.0,
             kappa=1e-5, T=196)
# One op is one full batch of the library's default batch size (64), the
# batch shape in which criteria 2 (5000 trials) and 8 (150 trials) do their
# work, so per-batch costs and array sizes weigh as they do there.
OP_TRIALS = 64
# An odd pass keeps the median op inside one CSI mode's latency cluster
# instead of in the gap between the two.
HOMOG_PASS = ("perfect", "imperfect", "perfect")

# Criterion-8 sweep points (M, kappa_db) on the default ScenarioParams.
SWEEP = ((20, -60.0), (50, -60.0), (100, -60.0), (100, -50.0), (100, -80.0))
DROP_ENTROPY = 8_000_001
# Drops differ up to threefold in the relative stderr of their worst cell,
# which time_to_1pct_s squares; a run of one-batch ops fits only a few
# passes, so every run walks the same small pool in full (see ``cycle``).
DROP_POOL = 3

# Closed-form strata (profile kind, L, csi of the antenna-reduction curve).
# Three strata of different cost keep the median op inside the middle one.
CF_STRATA = (("mixed", 7, "imperfect"), ("drop", 12, "perfect"),
             ("mixed", 12, "imperfect"))
CF_ENTROPY = 8_000_002
# Passes walk each stratum's pool in one order drawn from the seed, and a
# run ends on a whole walk, so every run evaluates the same entries the
# same number of times.  An odd pool keeps the median pass and the median
# op inside one entry's block of latencies instead of between two.
CF_POOL = 7
CF_M_TDD = (100, 200, 400)
# Explicit target gains: the default grid ends exactly at the equal-antenna
# gain, where the bisection result can flip with the last bit of rounding.
CF_GAINS = (1.1, 1.25, 1.4, 1.6)
CF_M_ASYMPTOTIC = 10 ** 6
ASYMPTOTIC_LAWS = (("perfect_csi_1_over_M", 64.0),
                   ("imperfect_csi_1_over_sqrtM", 8.0))

CF_RTOL = 1e-9
GAP_LIMIT = 0.05            # criterion 2: |rel_gap| <= 5%
FALSE_ALARM_PER_RUN = 1e-4  # reference check, Bonferroni over compared values


@dataclass
class State:
    fd: object
    seed: int
    digest: str
    data: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def report_summary(rep) -> dict:
    """Per-cell spectral efficiencies of a RateReport with three stderrs:

    ``se`` assumes independent users (used for the reference check, with a
    recorded correlation factor), ``se_bound`` sums the users' stderrs (an
    upper bound on the per-cell standard deviation, used for the lower-bound
    check), ``total_se`` is ``se`` for the sum over all cells.
    """
    out = {"trials": int(rep.n_trials)}
    for link, rates, err, o in (("ul", rep.ul_rates, rep.ul_stderr, rep.overhead_ul),
                                ("dl", rep.dl_rates, rep.dl_stderr, rep.overhead_dl)):
        out[link] = {
            "cell": o * rates.sum(axis=1),
            "se": o * np.sqrt((err ** 2).sum(axis=1)),
            "se_bound": o * err.sum(axis=1),
            "total": float(o * rates.sum()),
            "total_se": float(o * math.sqrt((err ** 2).sum())),
        }
    return out


def max_rel_stderr(summaries) -> float:
    """Largest relative stderr of any Monte Carlo per-cell SE (0 if exact)."""
    worst = 0.0
    for s in summaries:
        for link in ("ul", "dl"):
            cell, se = s[link]["cell"], s[link]["se"]
            if np.any(se > 0):
                worst = max(worst, float(np.max(se / np.abs(cell))))
    return worst


def z_threshold(n: int) -> float:
    """Two-sided normal quantile so that n comparisons raise a false alarm
    in fewer than FALSE_ALARM_PER_RUN runs."""
    from statistics import NormalDist

    return NormalDist().inv_cdf(1.0 - FALSE_ALARM_PER_RUN / (2 * max(n, 1)))


def finite_positive(x) -> bool:
    x = np.asarray(x, dtype=float)
    return bool(np.all(np.isfinite(x)) and np.all(x > 0))


# ---------------------------------------------------------------------------
# homog-m300: criterion 2
# ---------------------------------------------------------------------------

class HomogM300:
    name = "homog-m300"
    mc = True
    calibrated = False
    cycle = 1

    def setup(self, fd, seed):
        h = fd.HomogeneousConfig(**PAPER)
        profile = fd.expand_homogeneous(h)
        cfg = h.system_config()
        res = fd.validate(cfg)
        if not res.ok:
            raise ValueError("invalid paper config: " + "; ".join(res.violations))
        bounds = {csi: fd.homogeneous_rates(h, csi) for csi in ("perfect", "imperfect")}
        digest = fd.config_digest({"h": h, "trials": OP_TRIALS,
                                   "pass": list(HOMOG_PASS)})
        return State(fd, seed, digest, {"h": h, "profile": profile, "cfg": cfg,
                                        "bounds": bounds})

    def ops(self, st, p):
        d = st.data
        ops = []
        for i, csi in enumerate(HOMOG_PASS):
            def op(csi=csi, i=i):
                rep = st.fd.fd_rates_mc(d["profile"], d["cfg"], OP_TRIALS,
                                        [st.seed, p, i], csi=csi)
                return dict(report_summary(rep), csi=csi)
            ops.append((csi, op))
        return ops

    def check(self, st, out, ref):
        fails, comps = [], []
        csi = out["csi"]
        bounds = st.data["bounds"][csi]
        for link, bound in zip(("ul", "dl"), bounds):
            s = out[link]
            if not finite_positive(s["cell"]):
                fails.append(f"{csi}/{link}: non-finite or non-positive SE")
                continue
            slack = 3 * s["se_bound"] + 1e-9 * abs(bound)
            if np.any(s["cell"] < bound - slack):
                fails.append(f"{csi}/{link}: MC per-cell SE below closed-form "
                             f"bound - 3 stderr")
            mean = float(s["cell"].mean())
            gap = (mean - bound) / mean
            if abs(gap) > GAP_LIMIT:
                fails.append(f"{csi}/{link}: |rel_gap| {abs(gap):.4f} > {GAP_LIMIT}")
            r_mean, r_se = ref[csi][link]
            comps.append((f"{csi}/{link}", s["total"], s["total_se"], r_mean, r_se))
        return fails, comps

    def rows(self, st, p, i, out):
        return [{"pass": p, "op": i, "csi": out["csi"], "link": link,
                 "mc_se": out[link]["total"], "mc_stderr": out[link]["total_se"]}
                for link in ("ul", "dl")]

    @staticmethod
    def summaries(out):
        return [out]


# ---------------------------------------------------------------------------
# smallcell-sweep: criterion 8
# ---------------------------------------------------------------------------

def drop_seed(d: int) -> list:
    return [DROP_ENTROPY, d]


def point_key(M, kappa_db) -> str:
    return f"{M}/{kappa_db:g}"


class SmallcellSweep:
    name = "smallcell-sweep"
    mc = True
    calibrated = False
    cycle = DROP_POOL

    def setup(self, fd, seed):
        params = fd.ScenarioParams()
        digest = fd.config_digest({"params": params.as_dict(),
                                   "sweep": [list(s) for s in SWEEP],
                                   "trials": OP_TRIALS, "pool": DROP_POOL})
        return State(fd, seed, digest, {"params": params})

    def pass_drop(self, st, p) -> int:
        """Passes walk the whole pool in an order drawn from the seed."""
        order = np.random.default_rng([st.seed, DROP_POOL]).permutation(DROP_POOL)
        return int(order[p % DROP_POOL])

    def ops(self, st, p):
        d = self.pass_drop(st, p)
        params = st.data["params"]
        ops = []
        for M, kdb in SWEEP:
            def op(M=M, kdb=kdb):
                fd_rep, tdd_rep = st.fd.run_drop(params, M, kdb, drop_seed(d),
                                                 trials=OP_TRIALS)
                return {"drop": d, "point": point_key(M, kdb),
                        "fd": report_summary(fd_rep), "tdd": report_summary(tdd_rep),
                        "trials": int(fd_rep.n_trials + tdd_rep.n_trials)}
            ops.append((f"drop{d}@{point_key(M, kdb)}", op))
        return ops

    def check(self, st, out, ref):
        fails, comps = [], []
        r = ref["drops"][str(out["drop"])][out["point"]]
        for system in ("fd", "tdd"):
            for link in ("ul", "dl"):
                s = out[system][link]
                key = f"{system}_{link}"
                if not finite_positive(s["cell"]):
                    fails.append(f"{key}: non-finite or non-positive SE")
                    continue
                comps.append((key, s["total"], s["total_se"], *r[key]))
        return fails, comps

    def rows(self, st, p, i, out):
        return [{"pass": p, "op": i, "drop": out["drop"], "point": out["point"],
                 "system": system, "link": link, "se": out[system][link]["total"],
                 "stderr": out[system][link]["total_se"]}
                for system in ("fd", "tdd") for link in ("ul", "dl")]

    @staticmethod
    def summaries(out):
        return [out["fd"], out["tdd"]]


# ---------------------------------------------------------------------------
# closed-forms: bounds only, no Monte Carlo
# ---------------------------------------------------------------------------

def _mixed_profile(fd, rng, L):
    """Random positive profile with K_f in 1..4 FD users and 5 - K_f HD users
    in each direction, FD cross-cell ties applied."""
    K_f = int(rng.integers(1, 5))
    K = 5
    bu = rng.uniform(0.05, 2.0, (L, L, K))
    bd = rng.uniform(0.05, 2.0, (L, L, K))
    bd[:, :, :K_f] = bu[:, :, :K_f]
    bb = rng.uniform(0.02, 0.8, (L, L))
    bI = rng.uniform(0.005, 0.3, (L, K, L, K))
    profile = fd.LargeScaleProfile(beta_u=bu, beta_d=bd, beta_b=bb, beta_I=bI, K_f=K_f)
    cfg = fd.SystemConfig(
        L=L, M=int(rng.integers(3, 401)), K_f=K_f, K_h_u=K - K_f, K_h_d=K - K_f,
        P_u=float(10 ** rng.uniform(-1, 1)), P_d=float(10 ** rng.uniform(-1, 1.5)),
        P_tr=float(10 ** rng.uniform(-1, 1)), kappa=float(10 ** rng.uniform(-6, -2)),
        sigma2=1.0, T=196)
    return profile, cfg


def _drop_profile(fd, rng, L):
    params = fd.ScenarioParams(n_bs=L)
    topo = fd.build_topology(
        rng, n_bs=L, hex_radius=params.hex_radius, n_ul_per_bs=params.n_ul_hd,
        n_dl_per_bs=params.n_dl_hd, ue_drop_radius=params.ue_drop_radius,
        min_bs_bs=params.min_bs_bs, min_bs_ue=params.min_bs_ue,
        min_ue_ue=params.min_ue_ue)
    profile = fd.profile_from_topology(params, topo, rng)
    kdb = float(rng.choice([-50.0, -60.0, -70.0, -80.0]))
    cfg = params.system_config(M=int(rng.integers(3, 401)), kappa_db=kdb)
    return profile, cfg


def cf_entry(fd, kind, L, csi, i):
    """Pool entry i of one stratum: profile, config and the homogeneous
    network of its antenna-reduction curve, all from a fixed seed."""
    rng = np.random.default_rng([CF_ENTROPY, L, 0 if kind == "mixed" else 1, i])
    make = _mixed_profile if kind == "mixed" else _drop_profile
    profile, cfg = make(fd, rng, L)
    res = fd.validate(cfg, closed_forms=True)
    if not res.ok:
        raise ValueError(f"invalid {kind} config: " + "; ".join(res.violations))
    h = fd.HomogeneousConfig(
        L=L, K=5, beta=float(rng.uniform(0.05, 0.5)), M=64,
        P_u=float(10 ** rng.uniform(0, 1.5)), P_d=float(10 ** rng.uniform(1, 2)),
        P_tr=float(10 ** rng.uniform(0, 1.5)), kappa=float(10 ** rng.uniform(-6, -3)),
        T=196)
    key = f"{kind}-{L}-{i}"
    digest = fd.config_digest({"beta_u": profile.beta_u, "beta_d": profile.beta_d,
                               "beta_b": profile.beta_b, "beta_I": profile.beta_I,
                               "K_f": profile.K_f, "cfg": cfg, "h": h, "csi": csi})
    return {"key": key, "profile": profile, "cfg": cfg, "h": h, "csi": csi,
            "digest": digest}


def cf_evaluate(fd, e) -> dict:
    """One closed-forms op: per-cell sums of every bound, plus the curve."""
    profile, cfg = e["profile"], e["cfg"]
    out = {"key": e["key"]}
    for name, fn in (("prop1", fd.prop1_rates), ("prop2", fd.prop2_rates)):
        for system in ("fd", "tdd"):
            ul, dl = fn(profile, cfg, system=system)
            out[f"{name}_{system}_ul"] = ul.sum(axis=1)
            out[f"{name}_{system}_dl"] = dl.sum(axis=1)
    for law, fac in ASYMPTOTIC_LAWS:
        sched = fd.PowerScalingSchedule(E_u=cfg.P_u * fac, E_d=cfg.P_d * fac,
                                        E_tr=cfg.P_tr * fac, exponent=law)
        ul, dl = fd.asymptotic_rates(profile, sched.apply(cfg, CF_M_ASYMPTOTIC), sched)
        out[f"asym_{law}_ul"] = ul.sum(axis=1)
        out[f"asym_{law}_dl"] = dl.sum(axis=1)
    out["curve"] = [[int(pt.M_tdd), int(pt.M_fd), float(pt.se_gain), bool(pt.reachable)]
                    for pt in fd.antenna_reduction_curve(e["h"], list(CF_M_TDD), e["csi"],
                                                     gains=list(CF_GAINS))]
    return out


def cf_compare(out, ref, rtol=CF_RTOL) -> list:
    """Mismatches between one closed-forms output and its reference."""
    fails = []
    for name, want in ref.items():
        if name in ("digest", "curve"):
            continue
        got = np.asarray(out[name], dtype=float)
        if got.shape != np.shape(want) or not np.allclose(got, want, rtol=rtol, atol=0):
            fails.append(f"{out['key']}/{name}: differs from reference (rtol {rtol})")
    curve, want = out["curve"], ref["curve"]
    if len(curve) != len(want) or any(
            a[:2] != b[:2] or a[3] != b[3] or not math.isclose(a[2], b[2], rel_tol=rtol)
            for a, b in zip(curve, want)):
        fails.append(f"{out['key']}/curve: differs from reference")
    return fails


class ClosedForms:
    name = "closed-forms"
    mc = False
    # Interpreter-bound: its times are scaled by the calibration kernel
    # (harness.calibration_s) measured before each op.
    calibrated = True
    cycle = CF_POOL

    def setup(self, fd, seed):
        pool = [[cf_entry(fd, kind, L, csi, i) for i in range(CF_POOL)]
                for kind, L, csi in CF_STRATA]
        digest = fd.config_digest({"entries": [e["digest"] for s in pool for e in s],
                                   "m_tdd": list(CF_M_TDD), "gains": list(CF_GAINS)})
        return State(fd, seed, digest, {"pool": pool})

    def pass_entry(self, st, p) -> int:
        """Pool index of pass p's entries: one order for all strata, so the
        passes of a walk are the same seven triples for every seed."""
        order = np.random.default_rng([st.seed, CF_POOL]).permutation(CF_POOL)
        return int(order[p % CF_POOL])

    def ops(self, st, p):
        i = self.pass_entry(st, p)
        ops = []
        for stratum in st.data["pool"]:
            e = stratum[i]
            ops.append((e["key"], lambda e=e: dict(cf_evaluate(st.fd, e),
                                                   digest=e["digest"])))
        return ops

    def check(self, st, out, ref):
        r = ref["entries"][out["key"]]
        if out["digest"] != r["digest"]:
            return [f"{out['key']}: input differs from the recorded one"], []
        fails = cf_compare(out, r)
        for name, v in out.items():
            if name not in ("key", "digest", "curve") and not np.all(np.isfinite(v)):
                fails.append(f"{out['key']}/{name}: non-finite")
        return fails, []

    def rows(self, st, p, i, out):
        return [{"pass": p, "op": i, "entry": out["key"], "quantity": name,
                 "cell_sum": float(np.sum(v))}
                for name, v in out.items() if name not in ("key", "digest", "curve")]

    @staticmethod
    def summaries(out):
        return []


WORKLOADS = {w.name: w for w in (HomogM300(), SmallcellSweep(), ClosedForms())}
