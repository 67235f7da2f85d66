"""Closed-form lower bounds, homogeneous specializations, asymptotic limits
and full-duplex gain ratios.

Every finite-M bound is one SINR builder, rational in M
(:func:`fdmimo.rates._sinr_terms`); a homogeneous network's costs O(1) per M.

All evaluators also accept ``system="tdd"``, which removes the BS-BS, UE-UE
and transmitter-noise terms and is used for the closed-form TDD reference in
the asymptotic gain checks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .config import (HomogeneousConfig, LargeScaleProfile, PowerScalingSchedule,
                     SystemConfig, _is_integer, expand_homogeneous)
from .estimation import estimation_stats
from .rates import (RateReport, _check_inputs, _check_mode, _rates_at,
                    _sinr_terms, overheads)


def prop1_rates(profile: LargeScaleProfile, cfg: SystemConfig,
                system: str = "fd"):
    """Jensen lower bounds on the ergodic rates under perfect CSI.

    Returns (ul, dl) arrays of shape (L, K_u) and (L, K_d); the SINRs are
    :func:`fdmimo.rates._sinr_terms` at cfg.M.
    """
    _check_mode(system=system)
    _check_inputs(profile, cfg, closed_forms=True)
    return _rates_at(_sinr_terms(profile, cfg, system, None), cfg.M)


def prop2_rates(profile: LargeScaleProfile, cfg: SystemConfig,
                system: str = "fd"):
    """Lower bounds on the ergodic rates under MMSE-estimated CSI, as
    :func:`prop1_rates` on the estimator's statistics; the downlink is
    :func:`fdmimo.rates.dl_rates_fd_imperfect`, which the MC driver reports."""
    _check_mode(system=system)
    _check_inputs(profile, cfg, closed_forms=True)
    return _rates_at(_sinr_terms(profile, cfg, system, estimation_stats(profile, cfg)), cfg.M)


def closed_form_report(profile, cfg, csi, system="fd") -> RateReport:
    """Wrap the Proposition bounds into a RateReport (stderr zero)."""
    ul, dl = (prop1_rates if csi == "perfect" else prop2_rates)(profile, cfg, system=system)
    o_ul, o_dl = overheads(cfg, system, csi)
    return RateReport(system=system, csi=csi, ul_rates=ul, dl_rates=dl,
                      ul_stderr=np.zeros_like(ul), dl_stderr=np.zeros_like(dl),
                      overhead_ul=o_ul, overhead_dl=o_dl, n_trials=0)


def homogeneous_rates(h: HomogeneousConfig, csi: str, M: int | None = None):
    """Per-cell (uplink SE, downlink SE) of the homogeneous all-FD network:
    the Proposition bounds on ``expand_homogeneous(h)``, overheads applied.
    Like them it needs an integer M >= 3 (an O(1) check) and a valid ``h``."""
    _check_mode(csi=csi)
    return _homogeneous_se(h, csi)(h.M if M is None else M, "fd")


@functools.lru_cache(maxsize=4)
def _homogeneous_se(h, csi):
    """Per-cell (uplink SE, downlink SE) of a valid ``h`` as a function of an
    integer M >= 3 and the system: K times user (0, 0)'s
    :func:`fdmimo.rates._sinr_terms`, as floats.  The last few are kept, so a
    curve or a sweep builds them once."""
    profile, cfg = expand_homogeneous(h), h.system_config(M=3)     # any valid M
    _check_inputs(profile, cfg, closed_forms=True)
    st = None if csi == "perfect" else estimation_stats(profile, cfg)
    links = {system: [([float(np.ravel(x)[0]) for x in s], [float(np.ravel(x)[0]) for x in i], n)
                      for s, i, n in _sinr_terms(profile, cfg, system, st)]
             for system in ("fd", "tdd")}
    weights = {system: [h.K * o for o in overheads(cfg, system, csi)] for system in links}

    def se(M, system):
        if not (_is_integer(M) and M >= 3):
            raise ValueError(f"M: integer M >= 3 required, got {M!r}")
        (w_ul, w_dl), (ul, dl) = weights[system], _rates_at(links[system], M, math.log2)
        return w_ul * ul, w_dl * dl
    return se


def asymptotic_rates(profile: LargeScaleProfile, cfg: SystemConfig,
                     schedule: PowerScalingSchedule):
    """Large-antenna limit rates under the matching power-scaling law."""
    jj = np.arange(profile.L)
    E_u, E_d, E_tr = schedule.E_u, schedule.E_d, schedule.E_tr
    s2, s2_dl = cfg.sigma2, cfg.sigma2_dl
    bu_own = profile.beta_u[jj, jj]           # (L, K_u)
    bd_own = profile.beta_d[jj, jj]           # (L, K_d)
    if schedule.exponent == "perfect_csi_1_over_M":
        ul = np.log2(1.0 + bu_own * E_u / s2)
        dl = np.log2(1.0 + bd_own ** 2 * E_d
                     / (bd_own.sum(axis=1, keepdims=True) * s2_dl))
        return ul, dl
    if schedule.exponent != "imperfect_csi_1_over_sqrtM":
        raise ValueError("schedule must use the 1/M or 1/sqrt(M) law")
    contam_u = (profile.beta_u ** 2).sum(axis=1) - bu_own ** 2    # sum_{l!=j}
    ul = np.log2(1.0 + E_tr * E_u * bu_own ** 2
                 / (E_tr * E_u * contam_u + s2 ** 2))
    Z = (bd_own ** 2).sum(axis=1) / s2                            # (L,)
    contam = E_tr * E_d * (bd_own ** 2 / Z[:, None])[:, None, :] * profile.beta_d ** 2
    contam[jj, jj] = 0.0                                          # sum_{j!=l}
    dl = np.log2(1.0 + E_tr * E_d * bd_own ** 4
                 / (Z[:, None] * (contam.sum(axis=0) + s2 ** 3)))
    return ul, dl


def asymptotic_gain_limits(cfg: SystemConfig, csi: str) -> tuple[float, float]:
    _check_mode(csi=csi)
    if csi == "perfect":
        return 2.0, 2.0
    return (2.0 * (1.0 - cfg.K_h_d / (cfg.T - cfg.K_u)),
            2.0 * (1.0 - cfg.K_h_u / (cfg.T - cfg.K_d)))


def fd_gain(fd_report: RateReport, tdd_report: RateReport) -> tuple[float, float]:
    """(uplink, downlink) ratio of FD to TDD sum spectral efficiency,
    overheads included."""
    if fd_report.ul_rates.shape != tdd_report.ul_rates.shape:
        raise ValueError("mismatched user populations")
    tdd_ul = tdd_report.ul_se_per_cell.sum()
    tdd_dl = tdd_report.dl_se_per_cell.sum()
    if tdd_ul <= 0 or tdd_dl <= 0:
        raise ZeroDivisionError("TDD spectral efficiency is zero")
    return (fd_report.ul_se_per_cell.sum() / tdd_ul,
            fd_report.dl_se_per_cell.sum() / tdd_dl)


@dataclass(frozen=True)
class TradeoffPoint:
    M_tdd: int
    M_fd: int
    se_gain: float
    antenna_reduction: float
    reachable: bool = True


def _least_reaching(gain, g, lo, hi, start):
    """The smallest integer M in [lo, hi] with gain(M) >= g, for gain
    nondecreasing in M and gain(hi) >= g; the first probe is ``start``.

    Regula falsi in log M with the Illinois step (Dowell & Jarratt, BIT 11,
    1971) on a bracket a < b with gain(a) < g <= gain(b): the next probe is
    where the chord through the ends crosses g, and an end kept twice in a
    row has its distance to g halved.  Every probe is clamped strictly
    inside (a, b), and the search ends when b = a + 1.  A probe only
    narrows the bracket, so for a monotone gain the result is bisection's,
    whatever the probe order.
    """
    if gain(lo) >= g:
        return lo
    a, b, m, kept = lo, hi, start, None
    fa, fb = gain(a) - g, gain(b) - g
    while b - a > 1:
        m = min(max(m, a + 1), b - 1)
        r = gain(m)
        if r >= g:
            b, fb = m, r - g
            if kept == "a":
                fa /= 2
            kept = "a"
        else:
            a, fa = m, r - g
            if kept == "b":
                fb /= 2
            kept = "b"
        xa, xb = math.log(a), math.log(b)
        m = math.ceil(math.exp(xb - fb * (xb - xa) / (fb - fa)))
    return b


def antenna_reduction_curve(h: HomogeneousConfig, M_tdd_list, csi: str,
                            gains=None, M_max: int = 10_000_000):
    """For each TDD antenna count and target gain, the smallest FD antenna
    count in [3, M_max] whose spectral efficiency reaches gain x TDD.

    The FD rates grow with M, so the count is searched for from M_tdd by
    :func:`_least_reaching`, which returns what bisection returns in a few
    evaluations.  The FD and TDD terms are built once per curve
    (:func:`_homogeneous_se`), and each M's FD rates are evaluated once.  A
    gain the FD network misses even at M_max gives M_fd = M_max,
    unreachable.  Without ``gains`` each M_tdd gets 8 gains from 1 to the
    equal-antenna gain.  Gains must be finite and positive, M_max an integer
    >= 3, and ``h`` valid.
    """
    _check_mode(csi=csi)
    if not (_is_integer(M_max) and M_max >= 3):
        raise ValueError(f"M_max: integer M_max >= 3 required, got {M_max!r}")
    if gains is not None:
        gains = list(gains)
        bad = [g for g in gains if not (g > 0 and math.isfinite(g))]
        if bad:
            raise ValueError(f"gains: finite positive target gains required, got {bad!r}")
    se = _homogeneous_se(h, csi)
    # One homogeneous_rates call, O(1) on the terms built above, per FD probe.
    fd_sum_se = functools.cache(lambda m: sum(homogeneous_rates(h, csi, M=m)))
    points = []
    for M_tdd in M_tdd_list:
        tdd = sum(se(M_tdd, "tdd"))

        def gain(m):
            return fd_sum_se(m) / tdd

        target_gains = gains
        if target_gains is None:
            target_gains = np.linspace(1.0, gain(M_tdd), 8)
        for g in map(float, target_gains):
            # Gains, not SEs, are compared: at g = g_eq the gain at M_tdd is
            # the same float, so M_fd = M_tdd whatever the rounding.
            reachable = gain(M_max) >= g
            M_fd = _least_reaching(gain, g, 3, M_max, M_tdd) if reachable else M_max
            points.append(TradeoffPoint(M_tdd=M_tdd, M_fd=M_fd, se_gain=g,
                                        antenna_reduction=M_tdd / M_fd,
                                        reachable=reachable))
    return points
