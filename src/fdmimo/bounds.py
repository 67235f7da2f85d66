"""Closed-form lower bounds, homogeneous specializations, asymptotic limits
and full-duplex gain ratios.

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
from .rates import (RateReport, _bsbs_mean, _check_inputs, _check_mode,
                    _dl_power, _si_bs, _uatf_rates, _ul_gains, overheads,
                    per_cell_factors)


def prop1_rates(profile: LargeScaleProfile, cfg: SystemConfig,
                system: str = "fd"):
    """Jensen lower bounds on the ergodic rates under perfect CSI.

    Returns (ul, dl) arrays of shape (L, K_u) and (L, K_d).
    """
    _check_mode(system=system)
    _check_inputs(profile, cfg, closed_forms=True)
    M, jj = cfg.M, np.arange(profile.L)
    own_u, own_d = profile.beta_u[jj, jj], profile.beta_d[jj, jj]   # (L, K)
    ul = _ul_bound(profile, cfg, system, own_u, _ul_gains(profile)[0])
    coef = per_cell_factors(profile, cfg, "perfect")[:, None]
    I_down = coef * (M - 2) * own_d * (own_d @ (1 - np.eye(profile.K_d)))
    I_down += _dl_power(profile, cfg, system, own=False)
    num = coef * (M - 1) * (M - 2) * own_d ** 2
    dl = np.log2(1.0 + num / (I_down + cfg.sigma2_dl))
    return ul, dl


def prop2_rates(profile: LargeScaleProfile, cfg: SystemConfig,
                system: str = "fd"):
    """Lower bounds on the ergodic rates under MMSE-estimated CSI.

    Uplink SINR: P_u (M - 1) a / (P_u (I + e + M P_tr C / lam_u) + B + sigma2),
    a and e the estimate's and error's variances, I and C from
    :func:`fdmimo.rates._ul_gains`, B the BS-BS and self-interference.  The downlink is
    :func:`fdmimo.rates.dl_rates_fd_imperfect`, which the MC driver reports.
    """
    _check_mode(system=system)
    _check_inputs(profile, cfg, closed_forms=True)
    st = estimation_stats(profile, cfg)
    inter, contam = _ul_gains(profile)
    ul = _ul_bound(profile, cfg, system, st.est_var_u,
                   inter + st.err_var_u + cfg.M * cfg.P_tr * contam / st.lam_u)
    return ul, _uatf_rates(profile, cfg, system, st)


def _ul_bound(profile, cfg, system, a, inter):
    """log2(1 + P_u (M - 1) a / (P_u inter + B + sigma2)), B an FD BS's BS-BS + SI power."""
    bs = (_bsbs_mean(profile, cfg) + _si_bs(profile, cfg))[:, None] if system == "fd" else 0.0
    return np.log2(1.0 + cfg.P_u * (cfg.M - 1) * a / (cfg.P_u * inter + bs + cfg.sigma2))


def closed_form_report(profile, cfg, csi, system="fd") -> RateReport:
    """Wrap the Proposition bounds into a RateReport (stderr zero)."""
    if csi == "perfect":
        ul, dl = prop1_rates(profile, cfg, system=system)
    else:
        ul, dl = prop2_rates(profile, cfg, system=system)
    o_ul, o_dl = overheads(cfg, system, csi)
    return RateReport(system=system, csi=csi, ul_rates=ul, dl_rates=dl,
                      ul_stderr=np.zeros_like(ul), dl_stderr=np.zeros_like(dl),
                      overhead_ul=o_ul, overhead_dl=o_dl, n_trials=0)


def homogeneous_rates(h: HomogeneousConfig, csi: str, M: int | None = None):
    """Per-cell (uplink SE, downlink SE) of the homogeneous all-FD network.

    These are the algebraically reduced forms of the Proposition bounds; the
    reduction identity is checked against prop1/prop2 in the test suite.
    Like them it needs an integer M >= 3 (an O(1) check: curves bisect on M).
    """
    _check_mode(csi=csi)
    M = h.M if M is None else M
    if not (_is_integer(M) and M >= 3):
        raise ValueError(f"M: integer M >= 3 required, got {M!r}")
    L, K, beta = h.L, h.K, h.beta
    P_u, P_d, P_tr, kap, T, tau = h.P_u, h.P_d, h.P_tr, h.kappa, h.T, h.tau
    if csi == "perfect":
        ul = K * math.log2(1 + P_u * (M - 1) / (
            P_u * (K - 1) + (L - 1) * beta * (P_u * K + P_d) + kap * P_d + 1))
        V = M * K * (K - 1 + (L - 1) * K * beta) * P_u
        dl = K * math.log2(1 + P_d * (M - 1) * (M - 2) / (
            P_d * (K - 1) * (M - 2) + M * K * (L - 1) * beta * P_d + V
            + M * K * (kap * P_u + 1)))
        return ul, dl
    Lbar = 1 + (L - 1) * beta
    pref = K * (T - tau) / T
    J = (P_d * (1 + P_tr * Lbar) * (Lbar - 1) + P_u * K * Lbar
         + P_tr * (1 + kap * P_d) * Lbar + kap * P_d + 1)
    ul = pref * math.log2(1 + P_tr * P_u * (M - 1) / (
        P_tr * P_u * (K * Lbar ** 2 - 1 + beta * (Lbar - 1) * M) + J))
    U1 = (P_d * (1 + (K - 1) * Lbar)
          + K * (P_u * (K - 1) + P_u * (Lbar - 1) * K + 1 + kap * P_u))
    U2 = P_tr * P_d * (M * beta + Lbar) + P_d
    dl = pref * math.log2(1 + P_tr * P_d * M / (
        (1 + P_tr * Lbar) * U1 + (Lbar - 1) * U2))
    return ul, dl


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
    evaluations.  Each M's FD rates are evaluated once per curve.  A gain
    the FD network misses even at M_max gives M_fd = M_max, unreachable.
    Without ``gains`` each M_tdd gets 8 gains from 1 to the equal-antenna
    gain.  Gains must be finite and positive, M_max an integer >= 3.
    """
    _check_mode(csi=csi)
    if not (_is_integer(M_max) and M_max >= 3):
        raise ValueError(f"M_max: integer M_max >= 3 required, got {M_max!r}")
    if gains is not None:
        gains = list(gains)
        bad = [g for g in gains if not (g > 0 and math.isfinite(g))]
        if bad:
            raise ValueError(f"gains: finite positive target gains required, got {bad!r}")
    profile = expand_homogeneous(h)
    fd_sum_se = functools.cache(lambda m: sum(homogeneous_rates(h, csi, M=m)))
    points = []
    for M_tdd in M_tdd_list:
        rep = closed_form_report(profile, h.system_config(M=M_tdd), csi, system="tdd")
        se_tdd = float(rep.ul_se_per_cell.sum() + rep.dl_se_per_cell.sum()) / h.L

        def gain(m):
            return fd_sum_se(m) / se_tdd

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
