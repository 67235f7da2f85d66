"""Test oracle: the M-vector channel sampler and a Monte Carlo loop that runs
any sampler through the library's SINR kernels.

``vector_draw_trials`` draws every channel, pilot observation and estimate as
a full M-vector, exactly as the model states them.  The library's sampler
draws the same quantities in each BS's own r-dimensional coordinates; the two
must give the same rates in distribution.
"""

import math

import numpy as np

from fdmimo.channel import draw_cn, trial_rng
from fdmimo.estimation import estimation_stats
from fdmimo.rates import _batch_dl_logrates, _batch_ul_logrates, per_cell_factors


def vector_draw_trials(profile, cfg, rng, B, need_est, tdd_pilots):
    """Draw a batch of B coherence blocks (and estimates when requested)."""
    L, K_u, K_d, K_f, M = profile.L, profile.K_u, profile.K_d, profile.K_f, cfg.M
    Gu = draw_cn(rng, (B, L, L, M, K_u)) * np.sqrt(profile.beta_u[:, :, None, :])
    Gd = draw_cn(rng, (B, L, L, M, K_d)) * np.sqrt(profile.beta_d[:, :, None, :])
    jj = np.arange(L)
    Gd[:, jj, jj, :, :K_f] = Gu[:, jj, jj, :, :K_f]
    F = draw_cn(rng, (B, L, K_d, L, K_u)) * np.sqrt(profile.beta_I)
    out = {"Gu": Gu, "Gd": Gd, "F": F}
    if not need_est:
        return out
    st = estimation_stats(profile, cfg)
    own_u = profile.beta_u[jj, jj]                       # (L, K_u)
    own_d = profile.beta_d[jj, jj]
    cu = (cfg.P_tr * own_u / st.lam_u)[None, :, None, :]  # (1, L, 1, K_u)
    cd = (cfg.P_tr * own_d / st.lam_d)[None, :, None, :]
    scale = math.sqrt(cfg.sigma2 / cfg.P_tr)
    Yu = Gu.sum(axis=2) + scale * draw_cn(rng, (B, L, M, K_u))
    Ghu = cu * Yu
    Yd = Gd.sum(axis=2) + scale * draw_cn(rng, (B, L, M, K_d))
    Ghd = cd * Yd
    if not tdd_pilots:
        # Full-duplex training: one shared pilot per FD user.
        Ghd[..., :K_f] = Ghu[..., :K_f]
    out["Ghu"] = Ghu
    out["Ghd"] = Ghd
    out["Eps"] = Gu[:, jj, jj] - Ghu
    return out


def kernel_rates(draw, profile, cfg, system, csi, trials, seed, batch=64):
    """Per-user mean log2(1 + SINR) and stderr of both links.

    ``draw(rng, B)`` returns a batch dict.  Unlike the library's driver, the
    downlink kernel runs in every mode, the full-duplex imperfect-CSI one
    included, so a sampler is checked on every vector the kernels read.
    Returns (ul, ul_stderr, dl, dl_stderr).
    """
    factors = per_cell_factors(profile, cfg)
    acc = {"ul": [0.0, 0.0], "dl": [0.0, 0.0]}
    done = t = 0
    while done < trials:
        B = min(batch, trials - done)
        rng = trial_rng(seed, t)
        t += 1
        d = draw(rng, B)
        lu = _batch_ul_logrates(d, profile, cfg, factors, system, csi, rng)
        ld = _batch_dl_logrates(d, profile, cfg, factors, system, csi)
        for key, x in (("ul", lu), ("dl", ld)):
            acc[key][0] = acc[key][0] + x.sum(axis=0)
            acc[key][1] = acc[key][1] + (x ** 2).sum(axis=0)
        done += B
    out = []
    for key in ("ul", "dl"):
        mean = acc[key][0] / trials
        var = np.maximum(acc[key][1] / trials - mean ** 2, 0.0)
        out += [mean, np.sqrt(var / trials)]
    return tuple(out)
