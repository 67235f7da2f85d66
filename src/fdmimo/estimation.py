"""Second-order statistics of MMSE channel estimation from uplink pilots
with cross-cell pilot reuse.

Pilot assignment: slot n (n < K_u) carries uplink user n, with full-duplex
users in the first K_f slots so the same pilot also yields the downlink
precoding channel.  Half-duplex downlink user k (k >= K_f) uses slot
K_u + (k - K_f): K_tot slots in all.  TDD pilots train the two directions
apart, so downlink user k uses slot K_u + k: K_u + K_d slots.  Every cell
reuses the same slots, and reception is synchronized across cells
(worst-case pilot contamination).

The Monte Carlo sampler (:mod:`fdmimo.rates`) draws one post-correlation
observation per slot, statistically identical to transmitting symbol-level
pilot matrices; the closed forms use only the statistics below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import LargeScaleProfile, SystemConfig


@dataclass(frozen=True)
class EstimationStats:
    """Deterministic second-order statistics of the MMSE estimator.

    All arrays are indexed [cell, user].  lam is the pilot-observation
    variance scale sigma^2 + P_tr * sum_l beta; est_var the per-entry variance
    of the estimate; err_var that of the estimation error.  est_var + err_var
    equals the serving-link beta exactly.
    """

    lam_u: np.ndarray
    est_var_u: np.ndarray
    err_var_u: np.ndarray
    lam_d: np.ndarray
    est_var_d: np.ndarray
    err_var_d: np.ndarray


def estimation_stats(profile: LargeScaleProfile, cfg: SystemConfig) -> EstimationStats:
    s2, P = cfg.sigma2, cfg.P_tr
    jj = np.arange(profile.L)

    def stats(beta):  # beta: (L, L, K)
        pilot = beta.sum(axis=1)
        lam = s2 + P * pilot
        serving = beta[jj, jj]
        est = P * serving ** 2 / lam
        err = serving * (s2 + P * (pilot - serving)) / lam
        return lam, est, err

    lam_u, est_u, err_u = stats(profile.beta_u)
    lam_d, est_d, err_d = stats(profile.beta_d)
    return EstimationStats(lam_u, est_u, err_u, lam_d, est_d, err_d)
