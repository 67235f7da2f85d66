"""The Monte Carlo engine's per-thread scratch pool: results do not depend
on its state, a buffer is never handed out while an array views it, and
its size stays bounded."""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from fdmimo import ScenarioParams, expand_homogeneous, fd_rates_mc, tdd_rates_mc
from fdmimo.rates import _mc_rates, _TrialSampler
from fdmimo.scenario import drop_topology, profile_from_topology, run_drop

from conftest import in_fresh_thread, pool_bytes

FIELDS = ("ul_rates", "dl_rates", "ul_stderr", "dl_stderr")
MODES = [(case, system, csi) for case in ("paper", "drop") for system in ("fd", "tdd")
         for csi in ("perfect", "imperfect")]


def paper_case(h, csi, system, M=300):
    """One MC run on the paper config with 150 trials: two full batches and
    a partial one."""
    prof, cfg = expand_homogeneous(h), h.system_config(M=M)
    if system == "fd":
        return fd_rates_mc(prof, cfg, 150, 3, csi=csi)
    return tdd_rates_mc(prof, cfg, csi, 150, 3)


def assert_same_reports(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        for f in FIELDS:
            np.testing.assert_array_equal(getattr(x, f), getattr(y, f))


@pytest.mark.parametrize("system,csi", [(s, c) for s in ("fd", "tdd")
                                        for c in ("perfect", "imperfect")])
def test_cold_and_warm_pool_give_same_bits(paper_homogeneous, system, csi):
    """A run from an empty pool and one from a pool warmed by runs of other
    shapes give bit-identical rates and stderrs."""
    def run():
        return (paper_case(paper_homogeneous, csi, system),
                *run_drop(ScenarioParams(), 20, -60.0, [4242, 0], trials=150))
    cold = in_fresh_thread(run)
    paper_case(paper_homogeneous, "perfect", "fd", M=64)
    run_drop(ScenarioParams(), 100, -60.0, [4242, 1], trials=64)
    warm = run()
    assert_same_reports(cold, warm)


def test_held_batches_share_no_memory(small_profile, small_config):
    """A caller holding a batch never sees it overwritten: a second batch
    drawn while the first is alive shares no memory with it, and the first
    keeps its values."""
    for csi in ("perfect", "imperfect"):
        sampler = _TrialSampler(small_profile, small_config, csi == "imperfect", False)
        first = sampler.draw(np.random.default_rng(0), 64)
        saved = {k: np.array(v) for k, v in first.items()}
        second = sampler.draw(np.random.default_rng(1), 64)
        for k, x in first.items():
            if k == "Emu":     # the sampler's constant, not a draw
                continue
            for y in second.values():
                assert not np.shares_memory(x, y), k
            np.testing.assert_array_equal(x, saved[k])


def test_concurrent_threads_reproduce_serial_results(paper_homogeneous):
    """fd_rates_mc and run_drop running in four threads at once, more than
    the cores here, with thread switches forced often, give the same arrays
    bit for bit as the same calls one after the other."""
    calls = [lambda csi=csi: [paper_case(paper_homogeneous, csi, "fd")]
             for csi in ("perfect", "imperfect")]
    calls += [lambda M=M: list(run_drop(ScenarioParams(), M, -60.0, [4242, 2], trials=150))
              for M in (20, 100)]
    serial = [r for call in calls for r in call()]
    start = threading.Barrier(len(calls), timeout=60)

    def together(call):
        start.wait()
        return call()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=len(calls)) as ex:
            futures = [ex.submit(together, call) for call in calls]
            concurrent = [r for f in futures for r in f.result(timeout=120)]
    finally:
        sys.setswitchinterval(interval)
    assert_same_reports(serial, concurrent)


def test_pool_stays_bounded(paper_homogeneous):
    """Repeated calls of one shape add no pool bytes, also when they run
    several batches (one batch is alive at a time), and alternating the
    paper config's CSI modes with drops at M = 20 and M = 100 stops growing
    after the first round, below the drop guard's 16 MB."""
    prof = expand_homogeneous(paper_homogeneous)
    cfg = paper_homogeneous.system_config(M=300)

    def rounds():
        fd_rates_mc(prof, cfg, 64, 0, csi="perfect")
        one = pool_bytes()
        for seed, trials in ((1, 64), (2, 150), (3, 64)):
            fd_rates_mc(prof, cfg, trials, seed, csi="perfect")
            assert pool_bytes() == one
        sizes = []
        for _ in range(3):
            for csi in ("perfect", "imperfect"):
                fd_rates_mc(prof, cfg, 64, 0, csi=csi)
            for M in (20, 100):
                run_drop(ScenarioParams(), M, -60.0, [4242, 0], trials=64)
            sizes.append(pool_bytes())
        return sizes
    sizes = in_fresh_thread(rounds)
    assert sizes[0] == sizes[1] == sizes[2] <= 16e6, sizes


@pytest.mark.parametrize("case,system,csi", MODES, ids=["-".join(m) for m in MODES])
def test_warm_repeat_adds_no_pool_bytes(paper_homogeneous, case, system, csi):
    """In every mode, on the paper config at M = 300 and on a criterion-8
    drop at M = 100, a second 64-trial op on a new seed, in a thread whose
    pool the first op filled, adds no pool bytes: the pool settles after one
    call (at 2-3 buffers, measured), whatever order the batch asks in."""
    if case == "paper":
        prof, cfg = expand_homogeneous(paper_homogeneous), paper_homogeneous.system_config(M=300)
    else:
        params = ScenarioParams()
        topo = drop_topology(params, np.random.default_rng(1))
        prof = profile_from_topology(params, topo, np.random.default_rng(2))
        cfg = params.system_config(M=100, kappa_db=-60.0)

    def repeat():
        _mc_rates(prof, cfg, system, csi, 64, 0)
        before = pool_bytes()
        _mc_rates(prof, cfg, system, csi, 64, 1)
        return pool_bytes() - before
    assert in_fresh_thread(repeat) == 0
