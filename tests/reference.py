"""Test oracles: the model written out the long way, one M-vector or one
scalar at a time.  The library computes the same quantities in batched,
reduced or closed array form; the tests check the two against each other.

* ``realize_channels`` and the estimation helpers draw every channel, pilot
  observation and MMSE estimate of one coherence block as full M-vectors.
* ``ul_sinr_fd_perfect`` / ``dl_sinr_fd_perfect`` / ``ul_sinr_fd_imperfect``
  evaluate one user's SINR from such a realization with explicit loops.
* ``prop1_rates_loop`` / ``prop2_rates_loop`` / ``asymptotic_rates_loop``
  are the closed-form bounds and limits as per-user scalar loops, and
  ``wishart_inverse_moments`` the inverse-moment identities behind them.
  The library writes every finite-M bound once, as rational functions of M
  (``fdmimo.rates._sinr_terms``); ``homogeneous_rates_reduced`` is the
  homogeneous network's per-cell SEs reduced by hand, criterion 5's oracle
  for ``homogeneous_rates``.
* ``link_gains_loop`` is a drop's pathloss-and-shadowing gain matrix, one
  link at a time.
* ``vector_draw_trials`` is the M-vector batch sampler, ``vector_batch``
  the batch keys it computes exactly from its M-vectors, and
  ``kernel_rates`` a Monte Carlo loop that runs any sampler through the
  library's SINR kernels; ``kernel_trials`` returns the kernels' per-trial
  values for plain averages, without control variates.  The library's
  sampler draws the same keys pilot group by pilot group, and every other
  inner product as a power; the two must give the same per-user rates in
  distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from fdmimo.channel import PathlossModel, draw_cn, trial_rng
from fdmimo.config import (HomogeneousConfig, LargeScaleProfile, PowerScalingSchedule,
                           SystemConfig)
from fdmimo.estimation import EstimationStats, estimation_stats
from fdmimo.rates import (_batch_dl_logrates, _batch_ul_logrates, _check_inputs,
                          _simulate, per_cell_factors)


# ---------------------------------------------------------------------------
# One coherence block as M-vectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChannelRealization:
    """One coherence-block draw of every small-scale channel.

    G_u[j, l]  M x K_u  uplink users of cell l seen at BS j.
    G_d[j, l]  M x K_d  downlink users of cell l seen at BS j.
    V[j, l]    M x M    BS l seen at BS j (diagonal block: SI channel).
    F[l, :, j, :]  K_d x K_u  uplink users of cell j at downlink users of cell l.
    """

    G_u: np.ndarray     # (L, L, M, K_u)
    G_d: np.ndarray     # (L, L, M, K_d)
    V: np.ndarray       # (L, L, M, M)
    F: np.ndarray       # (L, K_d, L, K_u)
    K_f: int


def realize_channels(profile: LargeScaleProfile, rng, M: int) -> ChannelRealization:
    """Draw all channel matrices for one coherence block.

    Deterministic for a given rng seed.  A full-duplex user has one channel
    to each BS: its downlink columns are copies of its uplink ones at every
    BS (reciprocity), not redrawn.
    """
    rng = np.random.default_rng(rng)
    L, K_u, K_d, K_f = profile.L, profile.K_u, profile.K_d, profile.K_f
    G_u = draw_cn(rng, (L, L, M, K_u)) * np.sqrt(profile.beta_u[:, :, None, :])
    G_d = draw_cn(rng, (L, L, M, K_d)) * np.sqrt(profile.beta_d[:, :, None, :])
    G_d[..., :K_f] = G_u[..., :K_f]
    V = draw_cn(rng, (L, L, M, M)) * np.sqrt(profile.beta_b[:, :, None, None])
    F = draw_cn(rng, (L, K_d, L, K_u)) * np.sqrt(profile.beta_I)
    return ChannelRealization(G_u=G_u, G_d=G_d, V=V, F=F, K_f=K_f)


# ---------------------------------------------------------------------------
# Pilot training and MMSE estimation
# ---------------------------------------------------------------------------

def pilot_slot_ul(n: int) -> int:
    return n


def pilot_slot_dl(k: int, K_f: int, K_u: int) -> int:
    return k if k < K_f else K_u + (k - K_f)


def training_observation(real: ChannelRealization, cfg: SystemConfig,
                         j: int, slot: int, rng) -> np.ndarray:
    """Post-correlation training observation at BS j for one pilot slot.

    Returns g_jj + sum_{l != j} g_jl + n / sqrt(P_tr) with n ~ CN(0, s2 I);
    the contaminating sum runs over the same slot in every other cell.
    """
    K_u, K_f = real.G_u.shape[3], real.K_f
    K_d = real.G_d.shape[3]
    if slot < K_u:
        cols = real.G_u[j, :, :, slot]
    elif slot < K_u + (K_d - K_f):
        cols = real.G_d[j, :, :, K_f + (slot - K_u)]
    else:
        raise IndexError(f"pilot slot {slot} out of range")
    rng = np.random.default_rng(rng)
    noise = draw_cn(rng, cols.shape[1]) * np.sqrt(cfg.sigma2)
    return cols.sum(axis=0) + noise / np.sqrt(cfg.P_tr)


def mmse_estimate(y_tr: np.ndarray, cfg: SystemConfig,
                  betas: np.ndarray, serving: int):
    """MMSE estimate of the serving-cell channel from a training observation.

    betas holds the large-scale gains of every cell sharing the pilot, seen at
    the estimating BS; ``serving`` indexes the served user's entry.
    Returns (g_hat, lam, est_var, err_var).
    """
    betas = np.asarray(betas, dtype=float)
    if np.any(betas <= 0):
        raise ValueError("large-scale gains must be strictly positive")
    lam = cfg.sigma2 + cfg.P_tr * betas.sum()
    b = betas[serving]
    g_hat = (cfg.P_tr * b / lam) * y_tr
    est_var = cfg.P_tr * b ** 2 / lam
    err_var = b * (cfg.sigma2 + cfg.P_tr * (betas.sum() - b)) / lam
    return g_hat, lam, est_var, err_var


@dataclass(frozen=True)
class ChannelEstimateSet:
    """MMSE estimates for all serving-cell channels of one realization.

    g_hat_u[j, :, n] estimates G_u[j, j, :, n]; g_hat_d likewise.  For
    full-duplex users the uplink and downlink estimates are the same vector
    (single shared pilot plus reciprocity).
    """

    g_hat_u: np.ndarray       # (L, M, K_u)
    g_hat_d: np.ndarray       # (L, M, K_d)
    stats: EstimationStats


def estimate_all(real: ChannelRealization, profile: LargeScaleProfile,
                 cfg: SystemConfig, rng) -> ChannelEstimateSet:
    """Run training and MMSE estimation for every cell and user."""
    rng = np.random.default_rng(rng)
    L, K_u, K_f = profile.L, profile.K_u, real.K_f
    K_d, M = profile.K_d, real.G_u.shape[2]
    st = estimation_stats(profile, cfg)
    g_hat_u = np.empty((L, M, K_u), dtype=complex)
    g_hat_d = np.empty((L, M, K_d), dtype=complex)
    for j in range(L):
        for n in range(K_u):
            y = training_observation(real, cfg, j, pilot_slot_ul(n), rng)
            g_hat_u[j, :, n] = (cfg.P_tr * profile.beta_u[j, j, n] / st.lam_u[j, n]) * y
        g_hat_d[j, :, :K_f] = g_hat_u[j, :, :K_f]
        for k in range(K_f, K_d):
            y = training_observation(real, cfg, j, pilot_slot_dl(k, K_f, K_u), rng)
            g_hat_d[j, :, k] = (cfg.P_tr * profile.beta_d[j, j, k] / st.lam_d[j, k]) * y
    return ChannelEstimateSet(g_hat_u=g_hat_u, g_hat_d=g_hat_d, stats=st)


# ---------------------------------------------------------------------------
# Single-realization SINRs
# ---------------------------------------------------------------------------

def ul_sinr_fd_perfect(real: ChannelRealization, cfg: SystemConfig,
                       coef: np.ndarray, profile: LargeScaleProfile,
                       j: int, n: int) -> float:
    """Uplink SINR of user n at BS j with perfect CSI and MRC; ``coef`` is
    each cell's precoder power coefficient P_d / (K_d gamma)."""
    g = real.G_u[j, j, :, n]
    nrm2 = float(np.vdot(g, g).real)
    if nrm2 == 0.0:
        raise ZeroDivisionError("zero-norm channel vector")
    num = cfg.P_u * nrm2 ** 2
    cross = 0.0
    L, K_u, K_d = profile.L, profile.K_u, profile.K_d
    for l in range(L):
        for m in range(K_u):
            if (l, m) == (j, n):
                continue
            cross += abs(np.vdot(g, real.G_u[j, l, :, m])) ** 2
    bsbs = 0.0
    for l in range(L):
        if l == j:
            continue
        for k in range(K_d):
            bsbs += coef[l] * abs(g.conj() @ real.V[j, l] @ real.G_d[l, l, :, k].conj()) ** 2
    noise = nrm2 * (cfg.sigma2 + cfg.kappa * cfg.P_d * profile.beta_b[j, j])
    return num / (cfg.P_u * cross + bsbs + noise)


def dl_sinr_fd_perfect(real: ChannelRealization, cfg: SystemConfig,
                       coef: np.ndarray, profile: LargeScaleProfile,
                       l: int, k: int, user_class: str) -> float:
    """Downlink SINR of user k in cell l; user_class is "FD" or "HD"."""
    K_f, K_d, K_u, L = real.K_f, profile.K_d, profile.K_u, profile.L
    if user_class == "FD" and not k < K_f:
        raise IndexError("FD class requires k < K_f")
    if user_class == "HD" and not K_f <= k < K_d:
        raise IndexError("HD class requires K_f <= k < K_d")
    g = real.G_d[l, l, :, k]
    nrm2 = float(np.vdot(g, g).real)
    if nrm2 == 0.0:
        raise ZeroDivisionError("zero-norm channel vector")
    num = coef[l] * nrm2 ** 2
    cross = 0.0
    for j in range(L):
        for i in range(K_d):
            if (j, i) == (l, k):
                continue
            cross += coef[j] * abs(real.G_d[j, l, :, k] @ real.G_d[j, j, :, i].conj()) ** 2
    ue = 0.0
    for j in range(L):
        for n in range(K_u):
            if user_class == "FD" and (j, n) == (l, k):
                continue        # own term cancelled by UE self-interference removal
            ue += cfg.P_u * abs(real.F[l, k, j, n]) ** 2
    if user_class == "FD":
        noise = cfg.sigma2_dl + cfg.kappa * cfg.P_u * profile.beta_I[l, k, l, k]
    else:
        noise = cfg.sigma2_dl
    return num / (cross + ue + noise)


def ul_sinr_fd_imperfect(real: ChannelRealization, est: ChannelEstimateSet,
                         cfg: SystemConfig, coef: np.ndarray,
                         profile: LargeScaleProfile, j: int, n: int) -> float:
    """Uplink SINR with MMSE estimates treated as the true channel."""
    gh = est.g_hat_u[j, :, n]
    eps = real.G_u[j, j, :, n] - gh
    nrm2 = float(np.vdot(gh, gh).real)
    num = cfg.P_u * nrm2 ** 2
    L, K_u, K_d = profile.L, profile.K_u, profile.K_d
    err = cfg.P_u * abs(np.vdot(gh, eps)) ** 2
    cross = 0.0
    for l in range(L):
        for m in range(K_u):
            if (l, m) == (j, n):
                continue
            cross += abs(np.vdot(gh, real.G_u[j, l, :, m])) ** 2
    bsbs = 0.0
    for l in range(L):
        if l == j:
            continue
        for k in range(K_d):
            bsbs += coef[l] * abs(gh.conj() @ real.V[j, l] @ est.g_hat_d[l, :, k].conj()) ** 2
    noise = nrm2 * (cfg.sigma2 + cfg.kappa * cfg.P_d * profile.beta_b[j, j])
    return num / (err + cfg.P_u * cross + bsbs + noise)


# ---------------------------------------------------------------------------
# Closed forms as scalar loops
# ---------------------------------------------------------------------------

def prop1_rates_loop(profile: LargeScaleProfile, cfg: SystemConfig,
                     system: str = "fd"):
    """Jensen lower bounds on the ergodic rates under perfect CSI.

    Returns (ul, dl) arrays of shape (L, K_u) and (L, K_d).
    """
    _check_inputs(profile, cfg, closed_forms=True)
    L, K_u, K_d, K_f, M = profile.L, profile.K_u, profile.K_d, profile.K_f, cfg.M
    fd = system == "fd"
    jj = np.arange(L)
    bu, bd, bb, bI = profile.beta_u, profile.beta_d, profile.beta_b, profile.beta_I

    ul = np.empty((L, K_u))
    for j in range(L):
        for n in range(K_u):
            I_up = cfg.P_u * (bu[j].sum() - bu[j, j, n])
            if fd:
                I_up += cfg.P_d * (bb[j].sum() - bb[j, j])
            kap = cfg.kappa * cfg.P_d * bb[j, j] if fd else 0.0
            num = cfg.P_u * (M - 1) * bu[j, j, n]
            ul[j, n] = np.log2(1.0 + num / (I_up + cfg.sigma2 + kap))

    dl = np.empty((L, K_d))
    for l in range(L):
        eta = 1.0 / (M * bd[l, l].sum())
        for k in range(K_d):
            I_down = eta * cfg.P_d * (M - 2) * bd[l, l, k] * (bd[l, l].sum() - bd[l, l, k])
            I_down += cfg.P_d * (bd[:, l, k].sum() - bd[l, l, k])
            if fd:
                I_down += cfg.P_u * bI[l, k].sum()
                if k < K_f:
                    # own UE-UE term removed by SI cancellation, residual noise stays
                    I_down -= cfg.P_u * bI[l, k, l, k]
                    I_down += cfg.kappa * cfg.P_u * bI[l, k, l, k]
            num = eta * cfg.P_d * (M - 1) * (M - 2) * bd[l, l, k] ** 2
            dl[l, k] = np.log2(1.0 + num / (I_down + cfg.sigma2_dl))
    return ul, dl


def prop2_rates_loop(profile: LargeScaleProfile, cfg: SystemConfig,
                     system: str = "fd"):
    """Lower bounds on the ergodic rates under MMSE-estimated CSI."""
    _check_inputs(profile, cfg, closed_forms=True)
    st = estimation_stats(profile, cfg)
    L, K_u, K_d, K_f, M = profile.L, profile.K_u, profile.K_d, profile.K_f, cfg.M
    fd = system == "fd"
    P_u, P_d, P_tr, s2 = cfg.P_u, cfg.P_d, cfg.P_tr, cfg.sigma2
    bu, bd, bb, bI = profile.beta_u, profile.beta_d, profile.beta_b, profile.beta_I
    lam_u, lam_d = st.lam_u, st.lam_d
    eta_t = [1.0 / sum(bd[l, l, k] ** 2 / lam_d[l, k] for k in range(K_d))
             for l in range(L)]

    ul = np.empty((L, K_u))
    for j in range(L):
        for n in range(K_u):
            b_own = bu[j, j, n]
            contam = bu[j, :, n].sum() - b_own
            est_err = P_u * b_own * (s2 + P_tr * contam)
            I_up = 0.0
            for l in range(L):
                if l == j:
                    continue
                b = bu[j, l, n]
                I_up += P_tr * P_u * ((M + 1) * b ** 2
                                      + (bu[j, :, n].sum() - b) * b
                                      + b * s2 / P_tr)
            other = P_u * (bu[j].sum() - bu[j, :, n].sum())
            if fd:
                other += P_d * (bb[j].sum() - bb[j, j])
                other += cfg.kappa * P_d * bb[j, j]
            N_t = lam_u[j, n] * (other + s2)
            num = P_tr * P_u * (M - 1) * b_own ** 2
            ul[j, n] = np.log2(1.0 + num / (est_err + I_up + N_t))

    dl = np.empty((L, K_d))
    for l in range(L):
        for k in range(K_d):
            b_own = bd[l, l, k]
            I_dn = eta_t[l] * P_d * b_own ** 3 / lam_d[l, k]
            for j in range(L):
                if j == l:
                    continue
                b = bd[j, l, k]
                I_dn += eta_t[j] * P_tr * P_d * (M + 1) * b ** 2 * bd[j, j, k] ** 2 \
                    / lam_d[j, k] ** 2
                I_dn += eta_t[j] * P_d * bd[j, j, k] ** 2 \
                    * (s2 + P_tr * (bd[j, :, k].sum() - b)) * b / lam_d[j, k] ** 2
            for j in range(L):
                for i in range(K_d):
                    if i == k:
                        continue
                    I_dn += eta_t[j] * P_d * bd[j, j, i] ** 2 * bd[j, l, k] / lam_d[j, i]
            if fd:
                I_dn += P_u * bI[l, k].sum()
                if k < K_f:
                    I_dn -= P_u * bI[l, k, l, k]
                    I_dn += cfg.kappa * P_u * bI[l, k, l, k]
            num = eta_t[l] * P_tr * P_d * M * b_own ** 4 / lam_d[l, k] ** 2
            dl[l, k] = np.log2(1.0 + num / (I_dn + cfg.sigma2_dl))
    return ul, dl


def asymptotic_rates_loop(profile: LargeScaleProfile, cfg: SystemConfig,
                     schedule: PowerScalingSchedule):
    """Large-antenna limit rates under the matching power-scaling law."""
    L = profile.L
    jj = np.arange(L)
    E_u, E_d, E_tr = schedule.E_u, schedule.E_d, schedule.E_tr
    s2 = cfg.sigma2
    s2_dl = cfg.sigma2_dl
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
    K_d = profile.K_d
    dl = np.empty((L, K_d))
    for l in range(L):
        for k in range(K_d):
            contam = sum(E_tr * E_d * profile.beta_d[j, j, k] ** 2
                         * profile.beta_d[j, l, k] ** 2 / Z[j]
                         for j in range(L) if j != l)
            dl[l, k] = np.log2(1.0 + E_tr * E_d * profile.beta_d[l, l, k] ** 4
                               / (Z[l] * (contam + s2 ** 3)))
    return ul, dl


def homogeneous_rates_reduced(h: HomogeneousConfig, csi: str, M: int | None = None):
    """Per-cell (uplink SE, downlink SE) of the homogeneous all-FD network,
    overheads applied: Propositions 1 and 2 reduced by hand for unit
    same-cell and beta cross-cell gains and unit noise."""
    M = h.M if M is None else M
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


# ---------------------------------------------------------------------------
# Batched M-vector sampler
# ---------------------------------------------------------------------------

def vector_batch(Gu, W, Gd=None, V=None, Eps=None, F=None, Z=None, Emu=None):
    """The library sampler's batch keys, computed exactly from M-vectors:
    channels Gu, Gd (B, j, M, l, k) seen at BS j, combiners W and precoders
    V (B, j, M, k), W's estimation error Eps, the UE-UE powers F, the unit
    BS-BS M-vectors Z (B, l, m, n, M) and the mean own gains Emu.  The keys
    of the terms that are absent are left out."""
    W2 = (np.abs(W) ** 2).sum(axis=2)
    Pu = np.abs(np.einsum("bjmn,bjmlk->bjnlk", W.conj(), Gu)) ** 2
    np.einsum("bjnjn->bjn", Pu)[...] = 0.0
    out = {"W2": W2, "Pu": Pu}
    if Eps is not None:
        out["Pe"] = np.abs(np.einsum("bjmn,bjmn->bjn", W.conj(), Eps)) ** 2
    if Gd is not None:
        A = np.einsum("bjmi,bjmlk->blkji", V.conj(), Gd)
        Pd = np.abs(A) ** 2
        np.einsum("blklk->blk", Pd)[...] = 0.0
        out.update(Pd=Pd, own=np.einsum("blklk->blk", A).copy())
    if F is not None:
        out["F"] = F
    if Z is not None:
        B, L, _, K_u, M = Z.shape
        out["Pb"] = (np.abs(Z.reshape(B, L, -1, M) @ V) ** 2).sum(axis=3).reshape(
            B, L, L - 1, K_u)
    if Emu is not None:
        out["Emu"] = Emu
    return out


def vector_draw_trials(profile, cfg, rng, B, need_est, tdd):
    """Draw a batch of B coherence blocks (and estimates when requested) as
    M-vectors, and return :func:`vector_batch`'s keys of them: those of the
    library sampler's batches, with the downlink and, in FD runs, the UE-UE
    powers |F|^2 of complex channels F (each FD user's own pair zeroed) and
    the BS-BS terms."""
    L, K_u, K_d, K_f, M = profile.L, profile.K_u, profile.K_d, profile.K_f, cfg.M
    Gu = draw_cn(rng, (B, L, M, L, K_u)) * np.sqrt(profile.beta_u[:, None])
    Gd = draw_cn(rng, (B, L, M, L, K_d)) * np.sqrt(profile.beta_d[:, None])
    Gd[..., :K_f] = Gu[..., :K_f]          # one channel per FD user and BS
    jj = np.arange(L)
    F = np.abs(draw_cn(rng, (B, L, K_d, L, K_u))) ** 2 * profile.beta_I
    ll, kk = np.ix_(jj, np.arange(K_f))
    F[:, ll, kk, ll, kk] = 0.0             # cancelled by the FD user itself
    own_u, own_d = (np.stack([G[:, j, :, j] for j in range(L)], axis=1) for G in (Gu, Gd))
    W, V, Eps, Emu = own_u, own_d, None, None
    if need_est:
        st = estimation_stats(profile, cfg)
        cu = (cfg.P_tr * profile.beta_u[jj, jj] / st.lam_u)[None, :, None, :]  # (1, L, 1, K_u)
        cd = (cfg.P_tr * profile.beta_d[jj, jj] / st.lam_d)[None, :, None, :]
        scale = math.sqrt(cfg.sigma2 / cfg.P_tr)
        Yu = Gu.sum(axis=3) + scale * draw_cn(rng, (B, L, M, K_u))
        W = cu * Yu
        Yd = Gd.sum(axis=3) + scale * draw_cn(rng, (B, L, M, K_d))
        V = cd * Yd
        if not tdd:
            # Full-duplex training: one shared pilot per FD user.
            V[..., :K_f] = W[..., :K_f]
        Eps, Emu = own_u - W, M * cfg.P_tr * profile.beta_d[jj, jj] ** 2 / st.lam_d
    if tdd:
        return vector_batch(Gu, W, Gd, V, Eps, Emu=Emu)
    return vector_batch(Gu, W, Gd, V, Eps, F, draw_cn(rng, (B, L, L - 1, K_u, M)), Emu)


def kernel_rates(draw, profile, cfg, system, csi, trials, seed):
    """Per-user mean log2(1 + SINR) and stderr of both links.

    ``draw(rng, B)`` returns a batch dict of ``system`` and ``csi``.  Unlike
    :func:`fdmimo.fd_rates_mc`, this runs the downlink kernel in every mode,
    the full-duplex imperfect-CSI one included, so a sampler is checked on
    every vector the kernels read.  Returns (ul, ul_stderr, dl, dl_stderr).
    """
    st = estimation_stats(profile, cfg) if csi == "imperfect" else None
    (ul, ul_se), (dl, dl_se) = _simulate(draw, profile, cfg, system, st, trials, seed)
    return ul, ul_se, dl, dl_se


def kernel_trials(draw, profile, cfg, csi, trials, seed):
    """Every trial's log-rates and controls from both kernels, without
    control variates: [(y_ul, x_ul), (y_dl, x_dl)], y shaped (trials, L, K)
    and x (trials, L, K, p), for plain Monte Carlo averages."""
    coef = per_cell_factors(profile, cfg, csi)
    out = [([], []), ([], [])]
    for t, done in enumerate(range(0, trials, 64)):
        d = draw(trial_rng(seed, t), min(64, trials - done))
        for (ys, xs), kernel in zip(out, (_batch_ul_logrates, _batch_dl_logrates)):
            y, x = kernel(d, profile, cfg, coef)
            ys.append(y)
            xs.append(x)
    return [(np.concatenate(ys), np.concatenate(xs)) for ys, xs in out]


# ---------------------------------------------------------------------------
# Wishart inverse moments
# ---------------------------------------------------------------------------

def wishart_inverse_moments(m: int, n: int) -> tuple[float, float]:
    """E[tr W^-1] and E[tr W^-2] of a central complex Wishart W_m(n, I)."""
    if n <= m:
        raise ValueError("first inverse moment requires n > m")
    if n <= m + 1:
        raise ValueError("second inverse moment requires n > m + 1")
    d = n - m
    return m / d, m * n / (d ** 3 - d)


# ---------------------------------------------------------------------------
# Drop gains one link at a time
# ---------------------------------------------------------------------------

def link_gains_loop(pl: PathlossModel, a: np.ndarray, b: np.ndarray, rng,
                    gain_dbi: float) -> np.ndarray:
    """Gains for all pairs of points in a (..., 2) x (..., 2); independent
    log-normal shadowing per link."""
    d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    shadow = rng.normal(0.0, pl.shadowing_std, size=d.shape)
    out = np.empty_like(d)
    for idx, dist in np.ndenumerate(d):
        # zero distance marks a self link; its gain is overwritten by the caller
        if dist == 0.0:
            out[idx] = 0.0
            continue
        loss_db = pl.A + pl.B * math.log10(dist)
        total_db = -loss_db + gain_dbi - pl.extra_loss + shadow[idx]
        out[idx] = 10.0 ** (total_db / 10.0)
    return out
