"""Cross-fitted control-variate means (Lavenberg & Welch 1981; Glasserman
2003, section 4.1).

For a quantity y with controls x of known means mu, Ybar - b (Xbar - mu) is
unbiased for E[y] with any fixed b, and has the least variance at the
least-squares b.  Fitting b on the same trials biases the estimate by
O(1/n); here the trials form two folds and each fold's b is fitted on the
other fold, so it is fixed given the fold's own trials and each fold's
estimate is unbiased.  A fold is kept as its moment sums only, so nothing is
stored per trial.
"""

from __future__ import annotations

import numpy as np


def accumulate(folds, z):
    """Add a batch of rows z = [x - mu, y], (B, ..., p + 1), to the two
    folds' sums (``folds`` None starts them): each fold's trial count and
    its sums over trials of z and z z^T.  Rows of even index go to fold 0
    and odd ones to fold 1, so a batch that starts at an even trial splits
    the whole run by trial parity."""
    new = []
    for f in (0, 1):
        zt = np.moveaxis(z[f::2], 0, -1)                         # (..., p + 1, n)
        new.append([zt.shape[-1], zt.sum(axis=-1), zt @ zt.swapaxes(-1, -2)])
    if folds is None:
        return new
    return [[a + b for a, b in zip(old, add)] for old, add in zip(folds, new)]


def _weights(n, m, C):
    """[-b, 1], (..., p + 1), with b the least-squares coefficients of y on
    the controls in one fold of n trials with means m and covariance C of
    [x - mu, y]; b = 0 (plain means) with fewer than two trials per fitted
    parameter.

    The controls are standardised first, since gains of 1e-10 would fall
    below any pivot tolerance.  Gauss-Jordan elimination then gives b = 0 to
    a control whose variance is under 1e-9 of its mean square (a constant up
    to rounding), or that keeps under 1e-9 of its variance after the
    controls before it.
    """
    p = m.shape[-1] - 1
    w = np.zeros_like(m)
    w[..., p] = 1.0
    if n < 2 * (p + 1):
        return w
    var = np.diagonal(C, axis1=-2, axis2=-1)[..., :p]
    live = var > 1e-9 * (var + m[..., :p] ** 2)
    s = np.sqrt(np.where(live, var, np.inf))                     # 1/s = 0 if not live
    scale = np.concatenate([s, np.ones_like(s[..., :1])], axis=-1)
    a = C[..., :p, :] / (s[..., :, None] * scale[..., None, :])  # (..., p, p + 1)
    for k in range(p):
        piv = a[..., k, k, None]
        row = np.divide(a[..., k, :], piv, out=np.zeros_like(a[..., k, :]),
                        where=piv > 1e-9)
        a = a - a[..., :, k, None] * row[..., None, :]
        a[..., k, :] = row
    w[..., :p] = -a[..., p] / s
    return w


def crossfit(folds):
    """Per-user control-variate mean and stderr from two folds' sums.

    Each fold's mean is w . mean(z) = Ybar - b (Xbar - mu), with b fitted on
    the other fold, so it is unbiased whatever b is; its variance is the
    fold's residual variance w^T Cov(z) w over its trial count.  At 64 trials
    the stderr reads 4-8% below the estimates' spread, mostly because a
    standard deviation from few trials is biased low (E s < sigma).
    """
    n = folds[0][0] + folds[1][0]
    stats = []
    for nf, sz, szz in folds:
        m = sz / max(nf, 1)
        stats.append((nf, m, szz / max(nf, 1) - m[..., :, None] * m[..., None, :]))
    w = [_weights(*st) for st in stats]
    mean = var = 0.0
    for (nf, m, C), wf in zip(stats, w[::-1]):
        mean = mean + nf * (wf * m).sum(axis=-1)
        resid = (wf * (C @ wf[..., None])[..., 0]).sum(axis=-1)
        var = var + nf ** 2 / max(nf - 1, 1) * np.maximum(resid, 0.0)
    return mean / n, np.sqrt(var) / n
