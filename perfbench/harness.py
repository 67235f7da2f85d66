"""Benchmark harness: set-up, the timed passes, checks and the result line.

Run through ``run.py``; see ``README.md`` for the metrics and workloads.
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from tracing import EXTRA, LAYERS, SELF_TIME, Tracer
from workloads import WORKLOADS, max_rel_stderr, z_threshold

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
SETUP_REPEATS = 7            # cold set-ups per run, each in a fresh process
SETUP_TIMEOUT_S = 120
TAIL_BEYOND = 10             # ops wanted beyond the tail percentile
TAIL_FLOOR = 75              # lowest percentile reported as the tail
TARGET_REL_STDERR = 0.01
# Calibration of interpreter-bound workloads.  On a shared host the speed of
# Python-level code drifts by up to half over minutes, far beyond the noise
# inside one run.  A fixed kernel of the same kind, timed right before each
# op, moves with it; a calibrated workload reports op time x CALIBRATION_REF_S
# / kernel time, the seconds the op takes when the kernel takes
# CALIBRATION_REF_S (a round value near its median of 2.6 to 2.8 ms on a
# 2-vCPU x86-64 VM, Python 3.11, numpy 2.4).
CALIBRATION_REF_S = 2.5e-3
CALIBRATION_REPEATS = 20
CALIBRATION_WINDOW = 5       # kernel times in the median that scales an op
_CAL = np.linspace(0.05, 2.0, 7 * 7 * 5).reshape(7, 7, 5)

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_s", "s"),
              ("op_tail_s", "s"), ("time_to_1pct_s", "s"), ("peak_rss_mb", "MB"))


def per_layer_names(layers=LAYERS):
    """(name, unit) of every per-layer metric, in a fixed order."""
    out = []
    for layer in layers:
        out += [(f"{layer}.calls", "count"), (f"{layer}.s", "s")]
        if layer in SELF_TIME:
            out.append((f"{layer}.self_s", "s"))
        if EXTRA.get(layer) == "values":
            out += [(f"{layer}.values", "count"), (f"{layer}.bytes_computed", "bytes")]
        elif EXTRA.get(layer) == "trials":
            out.append((f"{layer}.trials", "count"))
        elif EXTRA.get(layer) == "bytes":
            out.append((f"{layer}.bytes", "bytes"))
    out.append(("trace.overhead_s", "s"))
    return out


def tail(latencies):
    """Latency at the highest whole percentile with at least TAIL_BEYOND ops
    beyond it, but never below p75, and that percentile (nearest rank).  A
    run of one-batch ops holds only 15 to 30 ops, where the first rule
    alone would put the tail below the median."""
    xs = sorted(latencies)
    n = len(xs)
    pct = next((q for q in range(99, TAIL_FLOOR, -1)
                if n - math.ceil(q * n / 100) >= TAIL_BEYOND), TAIL_FLOOR)
    return xs[max(math.ceil(pct * n / 100), 1) - 1], pct


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(workload, seed, digest):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"workload": workload, "seed": seed, "config_digest": digest,
            "nproc": os.cpu_count(), "concurrent_processes": 1,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "git_commit": git_commit()}


def run(workload_name, seed, seconds, trace):
    wl = WORKLOADS[workload_name]
    reference = json.loads(REFERENCE.read_text())[workload_name]
    work = ROOT / ".perfbench"
    work.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=work))
    try:
        return _run(wl, seed, seconds, trace, reference, work, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def cold_setups(workload, seed):
    """Seconds of SETUP_REPEATS cold set-ups, each in a fresh process,
    started one after the other (see cold_setup.py)."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, str(HERE / "cold_setup.py"), workload,
                               str(seed)], capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"cold set-up failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]))
    return times


def calibration_s():
    """Seconds of one run of a fixed kernel shaped like the closed-form
    bounds: Python loops over scalar indexing and small numpy sums.  It
    calls nothing in fdmimo, so no change to the library moves it."""
    x = _CAL
    t0 = perf_counter()
    acc = 0.0
    for _ in range(CALIBRATION_REPEATS):
        for j in range(7):
            for n in range(5):
                acc += np.log2(1.0 + x[j, j, n] / (x[j].sum() - x[j, j, n] + 1.0))
    return perf_counter() - t0


def emit_rows(fd, wl, st, p, outs, path):
    rows = [r for i, (_, out, _) in enumerate(outs) if out is not None
            for r in wl.rows(st, p, i, out)]
    fd.emit(fd.ExperimentResult(wl.name, st.digest, st.seed, rows), "csv", path)


def run_op(op):
    """(output, None), or (None, traceback) if the op raised: the op
    boundary must keep running, so a failure is recorded and counted."""
    try:
        return op(), None
    except Exception:           # noqa: BLE001
        return None, traceback.format_exc(limit=3)


def timed_pass(fd, wl, st, p, csv, calibrate=False):
    """Run pass p's ops and emit their rows to csv.  Returns the outputs
    (label, output or None, error), the op latencies, the emit time and,
    with calibrate, the calibration kernel's time measured right before each
    op (outside the op times).  The pass wall time is ops plus emit."""
    outs, op_s, cal_s = [], [], []
    for label, op in wl.ops(st, p):
        if calibrate:
            cal_s.append(calibration_s())
        a = perf_counter()
        out, err = run_op(op)
        op_s.append(perf_counter() - a)
        outs.append((label, out, err))
    a = perf_counter()
    emit_rows(fd, wl, st, p, outs, csv)
    return outs, op_s, perf_counter() - a, cal_s


def _run(wl, seed, seconds, trace, reference, work, tmp):
    setup_times = [] if trace else cold_setups(wl.name, seed)
    import fdmimo as fd

    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
        tracer.mark("setup")
    st = wl.setup(fd, seed)
    gc.collect()

    passes = []              # dicts: p, wall, op_s, traced, projected
    raw_walls, cals = [], []  # untraced pass walls as measured; kernel times
    attempted = trials = 0
    emitted = None
    fails = []               # (op number, message)
    comps = []               # (op number, label, key, value, se, ref, ref se)

    def account(outs, op_s):
        """Check one pass's outputs (untimed) and add them to the totals."""
        nonlocal attempted, trials
        projected = 0.0
        for t, (label, out, err) in zip(op_s, outs):
            k = attempted
            attempted += 1
            if err is not None:
                fails.append((k, f"{label}: raised\n{err}"))
                continue
            trials += out.get("trials", 0)
            r = max_rel_stderr(wl.summaries(out))
            projected += t * (r / TARGET_REL_STDERR) ** 2 if r > 0 else t
            try:
                f, c = wl.check(st, out, reference)
            except KeyError as exc:
                f, c = [f"no reference for {exc}"], []
            fails.extend((k, f"{label}: {m}") for m in f)
            comps.extend((k, label, *x) for x in c)
        return projected

    t_start = perf_counter()
    p = 0
    while True:
        if tracer:
            # The pass runs twice on the same inputs, traced and untraced, in
            # alternating order, so the tracing overhead is a paired
            # difference.  The two CSVs must be byte-identical (criterion 9).
            csvs = []
            for traced in ((True, False) if p % 2 == 0 else (False, True)):
                tracer.enable(traced)
                if traced:
                    tracer.mark(f"pass{p}")
                csvs.append(tmp / f"pass-{int(traced)}.csv")
                outs, op_s, emit_s, _ = timed_pass(fd, wl, st, p, csvs[-1])
                wall = sum(op_s) + emit_s
                tracer.enable(False)
                first = attempted      # first op number of the later run
                projected = emit_s + account(outs, op_s)
                passes.append({"p": p, "wall": wall, "op_s": op_s, "traced": traced,
                               "projected": projected})
            if csvs[0].read_bytes() != csvs[1].read_bytes():
                fails.extend((first + i, "traced and untraced runs of the pass emit "
                                         "different CSVs") for i in range(len(outs)))
            csv = csvs[0]
        else:
            csv = tmp / "pass.csv"
            outs, op_s, emit_s, cal_s = timed_pass(fd, wl, st, p, csv, wl.calibrated)
            raw_walls.append(sum(op_s) + emit_s)
            if cal_s:
                # Each op in reference seconds by the median of the last
                # CALIBRATION_WINDOW kernel times up to its own, which keeps
                # one outlying kernel time out; the emit by the last op's.
                scales = []
                for c in cal_s:
                    cals.append(c)
                    scales.append(CALIBRATION_REF_S
                                  / statistics.median(cals[-CALIBRATION_WINDOW:]))
                op_s = [t * k for t, k in zip(op_s, scales)]
                emit_s *= scales[-1]
            wall = sum(op_s) + emit_s
            # Untimed from here on.  Criterion 9: re-run one op of the pass on
            # the same inputs and emit the pass again with its output; the
            # CSV must not change.  Outputs are checked and then dropped, so
            # a long run does not grow the heap the timed ops run in.
            j = p % len(outs)
            label, op = wl.ops(st, p)[j]
            again = list(outs)
            again[j] = (label, *run_op(op))
            emit_rows(fd, wl, st, p, again, tmp / "again.csv")
            if csv.read_bytes() != (tmp / "again.csv").read_bytes():
                fails.append((attempted + j, f"{label}: re-run on the same seed emits "
                                             "a different CSV"))
            projected = emit_s + account(outs, op_s)
            passes.append({"p": p, "wall": wall, "op_s": op_s, "traced": False,
                           "projected": projected})
        emitted = csv.stat().st_size
        p += 1
        # Stop before more passes would run past --seconds: a traced run after
        # at least two pass pairs, an untraced one on a whole number of the
        # workload's cycles, so that every run sees the same inputs.
        elapsed = perf_counter() - t_start
        if tracer:
            if p >= 2 and elapsed + elapsed / p > seconds:
                break
        elif p % wl.cycle == 0 and elapsed + wl.cycle * elapsed / p > seconds:
            break

    # Reference comparisons, with a threshold set from the number of values.
    z = z_threshold(len(comps))
    corr = reference.get("corr_factor", 1.0)
    for k, label, key, value, se, ref, ref_se in comps:
        tol = z * math.hypot(corr * se, ref_se) + 1e-9 * abs(ref)
        if not abs(value - ref) <= tol:
            fails.append((k, f"{label}: {key} {value:.6g} vs reference {ref:.6g} "
                             f"(|diff| {abs(value - ref):.3g} > {tol:.3g}, z {z:.2f})"))

    failed = len({k for k, _ in fails})
    all_op_s = [t for ps in passes for t in ps["op_s"]]
    lines = [f"perfbench workload={wl.name} seed={seed} seconds={seconds} "
             f"trace={int(bool(tracer))}",
             "provenance " + json.dumps(provenance(wl.name, seed, st.digest),
                                        sort_keys=True),
             f"passes {len(passes)} ops {attempted} emitted_csv_bytes {emitted}",
             f"fail_frac {failed / attempted:.4g} ({failed} failed / {attempted} attempted)",
             f"reference check: {len(comps)} compared values, z {z:.3f}, "
             f"correlation factor {corr:g}"]
    lines += [f"FAIL {msg}" for _, msg in fails[:20]]

    if tracer:
        metrics = layer_metrics(tracer, passes)
        tracer.write(work / f"trace-{wl.name}-seed{seed}.jsonl")
        tracer.uninstall()
        if tracer.absent:
            lines.append("absent layers: " + ", ".join(tracer.absent))
    else:
        tail_s, pct = tail(all_op_s)
        walls = [ps["wall"] for ps in passes]
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(walls),
            "op_p50_s": statistics.median(all_op_s),
            "op_tail_s": tail_s,
            "time_to_1pct_s": statistics.median(ps["projected"] for ps in passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
        lines.append(f"setup_s is the median of {len(setup_times)} cold set-ups: "
                     + " ".join(f"{t:.4f}" for t in setup_times))
        lines.append(f"op_tail_s is p{pct} of {len(all_op_s)} ops")
        if cals:
            lines.append(
                f"times are calibrated: calibration kernel median "
                f"{statistics.median(cals):.6g} s over {len(cals)} ops, reference "
                f"{CALIBRATION_REF_S:g} s; uncalibrated wall_s "
                f"{statistics.median(raw_walls):.6g} s")
        if wl.mc:
            lines.append(f"trials_per_s {trials / sum(walls):.6g} 1/s "
                         f"({trials} coherence blocks in {sum(walls):.3f} s)")
    for name, m in metrics.items():
        lines.append(f"{name} {m['value']:.6g} {m['unit']}"
                     + (" absent" if m.get("absent") else ""))
    print("\n".join(lines))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


def layer_metrics(tracer, passes):
    """Per-layer values for set-up plus one pass.  Counts come from set-up
    and the first pass, which depend only on the seed and so repeat exactly;
    seconds are set-up plus the mean over the traced runs of the passes."""
    traced = [f"pass{ps['p']}" for ps in passes if ps["traced"]]
    counts = tracer.totals(["setup", "pass0"])
    setup = tracer.totals(["setup"])
    timed = tracer.totals(traced)
    n = len(traced)
    values = {}
    for layer in tracer.layers:
        c, s, t = counts[layer], setup[layer], timed[layer]
        values[f"{layer}.calls"] = c["calls"]
        values[f"{layer}.s"] = s["s"] + t["s"] / n
        if layer in SELF_TIME:
            values[f"{layer}.self_s"] = s["self_s"] + t["self_s"] / n
        extra = EXTRA.get(layer)
        if extra == "values":
            values[f"{layer}.values"] = c["extra"]
            values[f"{layer}.bytes_computed"] = 16 * c["extra"]
        elif extra:
            values[f"{layer}.{extra}"] = c["extra"]
    # Each pass ran traced and untraced on the same inputs: pair them.
    pairs = {}
    for ps in passes:
        pairs.setdefault(ps["p"], {})[ps["traced"]] = ps["wall"]
    values["trace.overhead_s"] = statistics.median(
        w[True] - w[False] for w in pairs.values() if len(w) == 2)
    out = {}
    for name, unit in per_layer_names(tracer.layers):
        m = {"value": values[name], "unit": unit}
        if name.rsplit(".", 1)[0] in tracer.absent:
            m["absent"] = True
        out[name] = m
    return out
