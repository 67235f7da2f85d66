"""Monte Carlo ergodic rates and the analytic estimated-CSI downlink.

Uplink uses maximum ratio combining; downlink uses conjugate beamforming.
All interference is treated as noise.  The full-duplex downlink rate under
imperfect CSI is the use-and-then-forget bound, a closed form in the
large-scale gains (:func:`dl_rates_fd_imperfect`); it is also the downlink
of :func:`fdmimo.bounds.prop2_rates`.  Everything else is averaged over
channel realizations by batched SINR kernels.  The per-user loop forms of
the SINRs and the M-vector channel model they start from are test oracles
in ``tests/reference.py``.

The Monte Carlo engine never draws an M-vector.  Every inner product the SINR
kernels form pairs a vector at some BS j with one of BS j's span vectors: its
combiners and the precoders not among them.  There are D = K_u + K_d - K_f of
them, or K_u + K_d with TDD pilots, whose two slots give an FD user two
observations.  They fall into parts that share no source: with no FD users
the combiners, built from the uplink channels and pilot noises, are one part
and the precoders another, and no kernel pairs an uplink vector with a
downlink one; FD users make the span one part.  Inner products do not change
when each vector of a part is replaced by its coordinates in an orthonormal
basis of the part's span, a space of r = min(M, D) dimensions for the part's
D, so the engine draws those coordinates with their exact joint law, part by
part (:class:`_TrialSampler`):

* Every vector of a part at BS j is a fixed real combination of the part's S
  independent unit sources, one per channel and pilot noise: the span is
  Xi C for an M x S i.i.d. CN(0, 1) matrix Xi and an S x D coefficient matrix
  C.  With C = Q R_C (QR), Xi Q is again i.i.d., and its QR factor R0 is the
  complex Bartlett factor: r x D upper-trapezoidal, |R0[i, i]|^2 ~
  Gamma(M - i, 1), CN(0, 1) above the diagonal (Odell & Feiveson, 1966).
  The span's coordinates are R0 R_C, a Bartlett factor times the Cholesky
  factor of the span's column covariance C^H C.
* The sources' coordinates are R0 Q^T + Xi' (I - Q Q^T) with a fresh r x S
  i.i.d. Xi': their conditional mean given the span plus a fresh draw minus
  its own conditional mean given its own span (pathwise conditioning,
  "Matheron's rule").  Every other vector follows from them.  A part of
  which only the span is read draws only R0.

Different BSs see independent channels and noises, so each BS is drawn on its
own, and a trial costs O(L^2 K^2) draws whatever M is.

The M x M BS-BS matrices are never formed either: for a combining vector w
fixed by the realization, such a matrix H gives H^H w with i.i.d.
CN(0, beta_b |w|^2) entries independent of everything else, so the sampler
draws an equivalent unit r-vector Z in the precoders' coordinates per BS
pair and user, and the uplink kernel scales it.  UE-UE channels are read
only as powers, |f|^2 ~ beta_I Exp(1), so those are drawn (0 for an FD
user's own pair, which it cancels).  Per-user rate distributions are
exactly those of the M-vector model.  The sampler makes every draw; the
kernels are pure functions of a batch, whose keys say which terms exist,
with one matmul per trial and BS for each set of inner products.

The batch's large arrays (the sources' coordinates and their projection,
the UE-UE powers, the BS-BS draws, and the kernels' inner products and their
powers) are written with ``out=`` into a scratch pool of byte buffers
(:func:`_scratch`), one per thread, kept across batches and calls, so they
land in pages already mapped instead of freshly faulted ones.  A buffer is
handed out again only when no live array views it, so a caller holding a
batch never sees it overwritten.  The pool holds at most one buffer per
array of the largest set a batch keeps alive at once, and every result is
bit-identical to one computed in fresh arrays.

Each simulated rate is a control-variate estimate.  Besides its log-rate,
a kernel returns per-trial controls, powers it forms anyway, whose means
are exact closed forms (:func:`_control_means`); :mod:`fdmimo.crossfit`
regresses the log-rates on them with two-fold cross-fitting.  The estimate
stays unbiased and a pure function of the seed, and its stderr is that of
the regression residuals, far below that of the log-rates themselves.
"""

from __future__ import annotations

import math
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .channel import draw_cn, trial_rng
from .crossfit import accumulate, crossfit
from .config import LargeScaleProfile, SystemConfig, _is_integer, validate
from .estimation import estimation_stats


def per_cell_factors(profile: LargeScaleProfile, cfg: SystemConfig,
                     csi: str) -> np.ndarray:
    """Conjugate-beamforming power coefficient P_d / (K_d gamma) of each
    cell, (L,), so BS l radiates P_d on average (Ngo, Larsson & Marzetta 2013).

    gamma = M sum_k beta_d[l,l,k] / K_d with perfect CSI; with estimated CSI
    it is gamma_tilde = (M/K_d) sum_k P_tr beta_d[l,l,k]^2 / lam_d[l,k].
    """
    _check_mode(csi=csi)
    own = profile.beta_d[np.arange(profile.L), np.arange(profile.L)]   # (L, K_d)
    if csi == "perfect":
        gamma = cfg.M * own.sum(axis=1) / profile.K_d
    else:
        lam_d = estimation_stats(profile, cfg).lam_d
        gamma = cfg.M * cfg.P_tr * (own ** 2 / lam_d).sum(axis=1) / profile.K_d
    return cfg.P_d / (profile.K_d * gamma)


# ---------------------------------------------------------------------------
# Rate reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateReport:
    """Per-user ergodic rates plus per-cell spectral efficiencies.

    ul_rates / dl_rates hold E[log2(1+SINR)] without any prefactor; the
    training-overhead and half-duplex time-sharing prefactors live in
    overhead_ul / overhead_dl and are already applied to the per-cell SEs.
    """

    system: str
    csi: str
    ul_rates: np.ndarray        # (L, K_u)
    dl_rates: np.ndarray        # (L, K_d)
    ul_stderr: np.ndarray
    dl_stderr: np.ndarray
    overhead_ul: float
    overhead_dl: float
    n_trials: int

    @property
    def ul_se_per_cell(self) -> np.ndarray:
        return self.overhead_ul * self.ul_rates.sum(axis=1)

    @property
    def dl_se_per_cell(self) -> np.ndarray:
        return self.overhead_dl * self.dl_rates.sum(axis=1)

    def rows(self):
        return [{"system": self.system, "csi": self.csi, "cell": c, "user": u,
                 "class": link, "rate": r, "stderr": se[c, u]}
                for link, rates, se in (("ul", self.ul_rates, self.ul_stderr),
                                        ("dl", self.dl_rates, self.dl_stderr))
                for (c, u), r in np.ndenumerate(rates)]


_SYSTEMS = ("fd", "tdd")
_CSI_MODES = ("perfect", "imperfect")


def _check_mode(system: str | None = None, csi: str | None = None) -> None:
    """Reject a system or CSI string that no code path handles; None is not
    checked."""
    if system is not None and system not in _SYSTEMS:
        raise ValueError(f"system must be one of {_SYSTEMS}, got {system!r}")
    if csi is not None and csi not in _CSI_MODES:
        raise ValueError(f"csi must be one of {_CSI_MODES}, got {csi!r}")


def overheads(cfg: SystemConfig, system: str, csi: str) -> tuple[float, float]:
    _check_mode(system, csi)
    if system == "fd":
        if csi == "perfect":
            return 1.0, 1.0
        f = (cfg.T - cfg.tau) / cfg.T
        return f, f
    if csi == "perfect":
        return 0.5, 0.5
    return 0.5 * (cfg.T - cfg.tau_u) / cfg.T, 0.5 * (cfg.T - cfg.tau_d) / cfg.T


# ---------------------------------------------------------------------------
# Batched Monte Carlo engine
# ---------------------------------------------------------------------------

_BATCH = 64    # trials per batch; batch t draws from trial_rng(seed, t)


class _Pool(threading.local):
    """This thread's scratch byte buffers, kept across batches and calls."""

    def __init__(self):
        self.bufs = []


_pool = _Pool()


def _scratch(shape, dtype=np.float64):
    """An uninitialised C-contiguous array from this thread's scratch pool.

    The batch's large arrays are written into it, so they land in pages
    already mapped instead of freshly faulted ones.  A buffer is handed out
    again only when no live array views it: every view's base is the buffer,
    so its refcount is then the pool's own.  The smallest free buffer that
    fits is taken; a free one too small for the request is replaced, not
    kept, so the pool never holds more buffers than a batch has pooled arrays
    alive at once.
    """
    n = math.prod(shape) * np.dtype(dtype).itemsize
    bufs = _pool.bufs
    # The list's reference and getrefcount's argument: no view is alive.
    free = [i for i in range(len(bufs)) if sys.getrefcount(bufs[i]) == 2]
    fits = [i for i in free if bufs[i].size >= n]
    if fits:
        buf = bufs[min(fits, key=lambda i: bufs[i].size)]
    else:
        buf = np.empty(n, np.uint8)
        if free:
            bufs[max(free, key=lambda i: bufs[i].size)] = buf
        else:
            bufs.append(buf)
    return buf[:n].view(dtype).reshape(shape)


class _TrialSampler:
    """Batches of coherence blocks in each BS's own coordinates; the only
    code here that draws random numbers.

    ``draw`` returns what the M-vector model would give, with every M-vector
    replaced by its r = min(M, D) coordinates in an orthonormal basis of its
    part of its BS's span, plus the combiners W and precoders V the CSI mode
    calls for.  Each source seen at BS j is a physical random quantity some
    output reads: the uplink channels (L * K_u, cell-major) and pilot noises,
    then the HD downlink channels (L * (K_d - K_f)) and pilot noises (none
    with perfect CSI).  An FD user's downlink channel is its uplink one at
    every BS; with no FD users the uplink sources form one part and the
    downlink ones another.  FD runs then draw the UE-UE powers F if ``dl``
    (the downlink kernel runs), without the FD-pair reciprocity
    F[l, k, j, n] = F[j, n, l, k] (no per-user rate depends on it), and last
    the unit BS-BS draws Z.  Without ``dl`` a downlink part draws only V.
    """

    def __init__(self, profile, cfg, need_est, tdd, dl=True):
        self.profile, self.cfg, self.tdd, self.dl = profile, cfg, tdd, dl
        L, K_u, K_d, K_f = profile.L, profile.K_u, profile.K_d, profile.K_f
        self.ue_gain = profile.beta_I.copy()    # each FD user cancels its own
        np.einsum("lklk->lk", self.ue_gain[:, :K_f, :, :K_f])[...] = 0.0
        # FD users whose precoder is their combiner: all, unless TDD pilots
        # estimate their two directions in separate slots.
        self.shared = 0 if need_est and tdd else K_f
        self.mmse = None
        self.S_u, S = L * K_u, L * (K_u + K_d - K_f)
        if need_est:
            st = estimation_stats(profile, cfg)
            jj = np.arange(L)
            self.mmse = (cfg.P_tr * profile.beta_u[jj, jj] / st.lam_u,   # (L, K_u)
                         cfg.P_tr * profile.beta_d[jj, jj] / st.lam_d,   # (L, K_d)
                         math.sqrt(cfg.sigma2 / cfg.P_tr))
            # Mean own gain of each downlink user, E[v^H g] = M c beta.
            self.Emu = cfg.M * cfg.P_tr * profile.beta_d[jj, jj] ** 2 / st.lam_d
            self.S_u += K_u
            S += K_u + K_d - self.shared
        # Assembling the identity gives each span vector's source coefficients.
        eye = np.tile(np.eye(S), (1, L, 1, 1))
        d = self._assemble(eye[..., :self.S_u], eye[..., self.S_u:])
        # Each BS's combiners and the precoders not among them, (L, S, D).
        coef = np.concatenate([d["W"], d["V"][..., self.shared:]], axis=-1)[0]
        # Each part's first source and span vector, then the ends.
        cuts = [(0, 0)] + [(self.S_u, K_u)] * (K_f == 0) + [coef.shape[1:]]
        self.parts = []                    # (Q, Q^T C, r): (L, S_p, D_p), (L, D_p, D_p)
        for (s0, c0), (s1, c1) in zip(cuts, cuts[1:]):
            C = coef[:, s0:s1, c0:c1]
            # Unit columns span the same space and keep QR accurate when gains
            # differ by orders of magnitude.
            nrm = np.linalg.norm(C, axis=1, keepdims=True)
            Q, R = np.linalg.qr(C / nrm)
            self.parts.append((Q, R * nrm, min(cfg.M, Q.shape[2])))

    def _assemble(self, Tu, Td=None):
        """The batch dict from the unit sources' coordinates, (B, L, r, S):
        Tu the uplink ones', Td the downlink ones' (the same r when FD users
        tie them).  The channels are the channel sources' coordinates scaled
        in place.  Without Td only Gu, W and Eps; without ``dl`` no Gd.  With
        estimation V views W for the users on shared pilot slots (all of V if
        all are), and only the others' pilot sums are formed."""
        p = self.profile
        B, L, r = Tu.shape[:3]
        K_u, K_f, K_h = p.K_u, p.K_f, p.K_d - p.K_f
        a, b = L * K_u, L * K_h
        Gu = Tu[..., :a].reshape(B, L, r, L, K_u)
        Gu *= np.sqrt(p.beta_u)[:, None]
        out = {"Gu": Gu, "W": np.einsum("bjrjk->bjrk", Gu)}     # Gu[:, j, :, j]
        if self.mmse is not None:
            # Pilot observations: slot n < K_u carries uplink user n; each
            # downlink user without a shared slot has one of the later slots.
            cu, cd, scale = self.mmse
            out["W"] = cu[:, None, :] * (Gu.sum(axis=3) + scale * Tu[..., a:])
            out["Eps"] = np.einsum("bjrjk->bjrk", Gu) - out["W"]
        if Td is None:
            return out
        Gd = Td[..., :b].reshape(B, L, Td.shape[2], L, K_h)
        Gd *= np.sqrt(p.beta_d[..., K_f:])[:, None]
        if K_f:     # an FD user's downlink channel is its uplink one
            Gd = Gu[..., :K_f] if not K_h else np.concatenate(
                [Gu[..., :K_f], Gd], axis=-1, out=_scratch((*Gd.shape[:-1], p.K_d), Gd.dtype))
        out["V"] = np.einsum("bjrjk->bjrk", Gd)
        if self.dl:
            out["Gd"] = Gd
        if self.mmse is not None:
            s = self.shared
            out["V"] = V = out["W"][..., :s]
            if s < p.K_d:       # downlink users with pilot slots of their own
                Vh = cd[:, None, s:] * (Gd[..., s:].sum(axis=3) + scale * Td[..., b:])
                out["V"] = np.concatenate([V, Vh], axis=-1) if s else Vh
        return out

    def draw(self, rng, B):
        """A batch of B coherence blocks, each in its part's r: Gu, Gd
        (B, j, r, l, k), BS j's view of cell l's user k, and W, V (B, j, r, k);
        with estimation Eps (W's error) and Emu (mean own downlink gain,
        (L, K_d)); in FD runs the UE-UE powers F (B, l, k, j, n), user n of
        cell j at user k of cell l, and the unit BS-BS r-vectors Z
        (B, l, m, n, r) in V's coordinates, from BS l to its m-th other BS,
        for user n's combiner there.  Without ``dl`` no Gd or F.  The large
        arrays live in the thread's scratch pool, which leaves them alone
        while the caller holds them."""
        p, M = self.profile, self.cfg.M
        T = []
        for i, (Q, RC, r) in enumerate(self.parts):
            L, S, D = Q.shape
            R0, idx = np.triu(draw_cn(rng, (B, L, r, D)), 1), np.arange(r)
            R0[..., idx, idx] = np.sqrt(rng.gamma(M - idx, size=(B, L, r)))
            if i and not self.dl:       # the precoders' own part: only V is read
                T.append(R0 @ RC)                        # the span, R0 Q^T C
                continue
            X = draw_cn(rng, (B, L, r, S), out=_scratch((B, L, r, S, 2)))    # Xi'
            # R0 Q^T + Xi' (I - Q Q^T), in Xi''s place
            X += np.matmul(R0 - X @ Q, Q.swapaxes(1, 2), out=_scratch(X.shape, complex))
            T.append(X)
        if len(T) == 1:
            out = self._assemble(*np.split(T[0], [self.S_u], axis=-1))
        else:
            out = self._assemble(*T) if self.dl else dict(self._assemble(T[0]), V=T[1])
        del T, R0, X     # before the FD draws, which would raise the peak memory
        if self.mmse is not None:
            out["Emu"] = self.Emu
        if not self.tdd:
            if self.dl:
                F = rng.standard_exponential(out=_scratch((B, *self.ue_gain.shape)))
                F *= self.ue_gain
                out["F"] = F
            shape = (B, L, L - 1, p.K_u, out["V"].shape[2])
            out["Z"] = draw_cn(rng, shape, out=_scratch((*shape, 2)))
        return out


def _power(A):
    """|A|^2 of a pooled complex array, in a pooled real one; A's buffer is
    free again once the caller drops its own references."""
    P = np.abs(A, out=_scratch(A.shape))
    P *= P
    return P


def _batch_ul_logrates(d, profile, cfg, coef):
    """log2(1+SINR) for every uplink user in a batch, (B, L, K_u), and the
    user's controls, (B, L, K_u, p), whose means :func:`_control_means` gives.

    MRC with the combiners W against every uplink user's channel, one
    matmul per trial and BS.  Eps adds the estimation error, and Z the
    full-duplex terms: the other BSs' downlink through the BS-BS channels,
    again one matmul per trial and BS, and the residual self-interference.
    The controls are log|w|^2 and the other users' power over |w|^2, then
    with Eps the error power over |w|^2, and with Z the BS-BS power.
    ``coef`` is :func:`per_cell_factors` for the batch's CSI mode.
    """
    W = d["W"]                                                  # (B, j, r, n)
    B, L, r, K_u = W.shape
    nrm2 = (np.abs(W) ** 2).sum(axis=2)                         # (B, j, n)
    Wc = W.conj()
    P = _power(np.matmul(Wc.swapaxes(2, 3), d["Gu"].reshape(B, L, r, L * K_u),
                         out=_scratch((B, L, K_u, L * K_u), complex)))
    own = np.einsum("bjnjn->bjn", P.reshape(B, L, K_u, L, K_u))   # P: (B, j, n, (l, k))
    inter = P.sum(axis=3) - own
    del P, own
    denom = cfg.P_u * inter
    noise = cfg.sigma2
    ctrl = [np.log(nrm2), inter / nrm2]
    if "Eps" in d:
        Wc *= d["Eps"]
        err = np.abs(Wc.sum(axis=2)) ** 2
        denom = denom + cfg.P_u * err
        ctrl.append(err / nrm2)
    del Wc
    if "Z" in d:
        # Z[:, l, m, n] is H^H w / |w| for the BS-BS channel H from BS l to
        # its m-th other BS j and user n's combiner w there, in BS l's
        # coordinates; a BS has no BS-BS term with itself.
        V = d["V"]
        ZV = np.matmul(d["Z"].reshape(B, L, (L - 1) * K_u, V.shape[2]), V,
                       out=_scratch((B, L, (L - 1) * K_u, V.shape[3]), complex))
        S = _power(ZV).sum(axis=3).reshape(B, L * (L - 1), K_u)     # ZV: (B, l, (m, n), i)
        del ZV
        l, j = np.nonzero(1 - np.eye(L))                 # (l, m) pairs, l-major
        to_rx = np.eye(L)[:, j] * (coef[l] * profile.beta_b[j, l])     # (j, (l, m))
        bsbs = to_rx @ S                                                # (B, j, n)
        denom = denom + nrm2 * bsbs
        noise = noise + cfg.kappa * cfg.P_d * profile.beta_b.diagonal()[:, None]
        ctrl.append(bsbs)
    sinr = cfg.P_u * nrm2 ** 2 / (denom + nrm2 * noise)
    return np.log2(1.0 + sinr), np.stack(ctrl, axis=-1)


def _batch_dl_logrates(d, profile, cfg, coef):
    """log2(1+SINR) for every downlink user in a batch, (B, L, K_d), and the
    user's controls, (B, L, K_d, p), whose means :func:`_control_means` gives.

    Conjugate beamforming with the precoders V, one matmul per trial and BS;
    the UE-UE powers F add the full-duplex UE-UE interference, and each FD
    user keeps the residual kappa P_u beta_I of its own.  With Emu
    (estimated CSI) the user decodes against the mean of its own gain; the
    SINR denominator then has the mean of :func:`dl_rates_fd_imperfect`, so
    by Jensen this simulates a rate above that bound, which
    :func:`fd_rates_mc` reports for fd/imperfect.  The controls are
    log|own gain|^2 without Emu, then D, the SINR denominator less noise.
    ``coef`` is :func:`per_cell_factors` for the batch's CSI mode.
    """
    V = d["V"]                                                  # (B, j, r, i)
    B, L, r, K_d = V.shape
    A = np.matmul(V.conj().swapaxes(2, 3), d["Gd"].reshape(B, L, r, L * K_d),
                  out=_scratch((B, L, K_d, L * K_d), complex))      # (B, j, i, (l, k))
    own = np.einsum("blklk->blk", A.reshape(B, L, K_d, L, K_d))
    own2 = np.abs(own) ** 2
    c = coef[:, None]
    D = (c * _power(A).sum(axis=2)).sum(axis=1).reshape(B, L, K_d) - c * own2
    if "F" in d:
        K_f = profile.K_f
        D = D + cfg.P_u * d["F"].sum(axis=(3, 4))
        D[..., :K_f] += cfg.kappa * cfg.P_u * np.einsum(
            "lklk->lk", profile.beta_I[:, :K_f, :, :K_f])
    if "Emu" in d:
        D = D + c * np.abs(own - d["Emu"]) ** 2
        sinr = c * d["Emu"] ** 2 / (D + cfg.sigma2_dl)
        ctrl = [D]
    else:
        sinr = c * own2 / (D + cfg.sigma2_dl)
        ctrl = [np.log(own2), D]
    return np.log2(1.0 + sinr), np.stack(ctrl, axis=-1)


def _digamma(n: int) -> float:
    """psi(n) = -gamma + sum_{i<n} 1/i for an integer n >= 1; from n = 64 on
    by its asymptotic series, whose first omitted term is below 1e-16."""
    if n < 64:
        return -np.euler_gamma + sum(1.0 / i for i in range(1, n))
    return (math.log(n) - 1 / (2 * n) - 1 / (12 * n ** 2) + 1 / (120 * n ** 4)
            - 1 / (252 * n ** 6))


def _control_means(profile, cfg, system, csi):
    """Exact means of the kernels' controls: uplink (L, K_u, p_ul) and
    downlink (L, K_d, p_dl), in the kernels' order.

    A combiner w is CN(0, v I_M), v its serving gain or, with estimated CSI,
    its estimate's variance, so E log|w|^2 = ln v + psi(M).  A channel
    independent of w adds its gain to E[I/|w|^2]; with estimated CSI a
    channel on w's pilot slot, beta_u[j, l, n] for l != j, adds
    (M - 1) P_tr beta^2 / lam_u more, since w holds its MMSE part.  The
    estimation error is independent of w, so E[|w^H eps|^2/|w|^2] is its
    variance.  Every BS radiates P_d on average, so the BS-BS power has mean
    P_d sum_{l != j} beta_b[j, l].  Downlink with perfect CSI: the own gain
    is |g|^2, so E log|own|^2 = 2(ln beta_d[l, l, k] + psi(M)), and
    E|g|^4 = M(M + 1) beta^2 leaves E[D] = P_d sum_j beta_d[j, l, k]
    - coef M beta_d[l, l, k]^2 + the UE-UE interference.  With estimated
    CSI, E[D] is the interference of :func:`dl_rates_fd_imperfect`.
    """
    L, M = profile.L, cfg.M
    jj, off = np.arange(L), 1 - np.eye(L)
    bu, bd = profile.beta_u, profile.beta_d
    psi = _digamma(M)
    inter = bu.sum(axis=(1, 2))[:, None] - bu[jj, jj]
    if csi == "perfect":
        ul = [np.log(bu[jj, jj]) + psi, inter]
    else:
        st = estimation_stats(profile, cfg)
        contam = (off[:, :, None] * bu ** 2).sum(axis=1)
        ul = [np.log(st.est_var_u) + psi,
              inter + (M - 1) * cfg.P_tr * contam / st.lam_u, st.err_var_u]
    if system == "fd":
        bsbs = cfg.P_d * (off * profile.beta_b).sum(axis=1)
        ul.append(np.broadcast_to(bsbs[:, None], inter.shape))
    if csi == "perfect":
        own = bd[jj, jj]
        coef = per_cell_factors(profile, cfg, csi)[:, None]
        dl = [2 * (np.log(own) + psi),
              cfg.P_d * bd.sum(axis=0) - coef * M * own ** 2
              + ue_interference(profile, cfg, system)]
    else:
        dl = [_uatf_terms(profile, cfg, system)[1]]
    return np.stack(ul, axis=-1), np.stack(dl, axis=-1)


def _check_config(cfg, closed_forms=False):
    """Reject a config that fails validate, naming every violation."""
    res = validate(cfg, closed_forms=closed_forms)
    if not res.ok:
        raise ValueError("invalid config: " + "; ".join(res.violations))


def _check_inputs(profile, cfg, closed_forms=False):
    """Reject a config that fails validate or disagrees with the profile."""
    _check_config(cfg, closed_forms)
    for name in ("L", "K_f", "K_u", "K_d"):
        if getattr(cfg, name) != getattr(profile, name):
            raise ValueError(f"config and profile disagree on {name}: "
                             f"{getattr(cfg, name)} != {getattr(profile, name)}")


def _simulate(draw, profile, cfg, system, csi, trials, seed):
    """Per-user mean log2(1+SINR) and its stderr over ``trials`` blocks from
    ``draw(rng, B)``, each link reduced on its own with its own controls:
    [(ul, ul_se)], (L, K_u), then (dl, dl_se), (L, K_d), if the blocks hold Gd.

    Each mean is a control-variate estimate Ybar - b (Xbar - mu): X are the
    kernels' per-trial controls and mu their exact means
    (:func:`_control_means`).  The trials split by parity into two folds, and
    each fold's b is fitted on the other fold (cross-fitting), so the
    estimate is unbiased and a pure function of the seed.  Only the folds'
    moment sums are kept, and the stderr is that of the residuals y - b x.
    """
    coef = per_cell_factors(profile, cfg, csi)
    mu = _control_means(profile, cfg, system, csi)
    folds = [None, None]                    # per link
    for t, done in enumerate(range(0, trials, _BATCH)):
        d = draw(trial_rng(seed, t), min(_BATCH, trials - done))
        kernels = (_batch_ul_logrates, _batch_dl_logrates)[:1 + ("Gd" in d)]
        for i, (kernel, m) in enumerate(zip(kernels, mu)):
            y, x = kernel(d, profile, cfg, coef)
            # Every batch starts at an even trial, since _BATCH is even.
            folds[i] = accumulate(folds[i], np.concatenate([x - m, y[..., None]], axis=-1))
        del d      # its buffers go back to the pool before the next batch draws
    return [crossfit(f) for f in folds if f is not None]


def _mc_rates(profile, cfg, system, csi, trials, seed):
    """Each link reduced on its own by :func:`_simulate`, except the
    fd/imperfect downlink, :func:`dl_rates_fd_imperfect` (stderr 0)."""
    _check_mode(system, csi)
    _check_inputs(profile, cfg)
    if not _is_integer(trials):
        raise ValueError(f"trials must be an integer, got {trials!r}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    analytic_dl = system == "fd" and csi == "imperfect"
    sampler = _TrialSampler(profile, cfg, csi == "imperfect", system == "tdd",
                            dl=not analytic_dl)
    links = _simulate(sampler.draw, profile, cfg, system, csi, trials, seed)
    if analytic_dl:
        dl = dl_rates_fd_imperfect(profile, cfg)
        links.append((dl, np.zeros_like(dl)))
    (ul, ul_se), (dl, dl_se) = links
    o_ul, o_dl = overheads(cfg, system, csi)
    return RateReport(system=system, csi=csi, ul_rates=ul, dl_rates=dl,
                      ul_stderr=ul_se, dl_stderr=dl_se,
                      overhead_ul=o_ul, overhead_dl=o_dl, n_trials=trials)


def fd_rates_mc(profile, cfg, trials, seed, csi="perfect") -> RateReport:
    """Full-duplex ergodic rates; downlink under imperfect CSI is analytic."""
    return _mc_rates(profile, cfg, "fd", csi, trials, seed)


def tdd_rates_mc(profile, cfg, csi, trials, seed) -> RateReport:
    """TDD baseline rates, Monte Carlo with no lower-bounding."""
    return _mc_rates(profile, cfg, "tdd", csi, trials, seed)


# ---------------------------------------------------------------------------
# Analytic downlink rate under imperfect CSI
# ---------------------------------------------------------------------------

def ue_interference(profile: LargeScaleProfile, cfg: SystemConfig,
                    system: str):
    """Mean UE-UE interference at each downlink user, (L, K_d).

    Every uplink user's signal reaches the user, except that an FD user
    cancels its own and keeps the residual kappa P_u beta_I.  TDD has none.
    """
    if system == "tdd":
        return 0.0
    L, K_f = profile.L, profile.K_f
    ue = cfg.P_u * profile.beta_I.sum(axis=(2, 3))
    ll, kk = np.ix_(np.arange(L), np.arange(K_f))
    ue[:, :K_f] -= (1.0 - cfg.kappa) * cfg.P_u * profile.beta_I[ll, kk, ll, kk]
    return ue


def dl_rates_fd_imperfect(profile, cfg, system="fd") -> np.ndarray:
    """Downlink rates under MMSE-estimated CSI, shape (L, K_d).

    The use-and-then-forget bound: user k of cell l decodes against the mean
    of its effective channel, and all else it receives is interference.  BS
    j's beam to its own user k arrives with mean power
    coef[j] (M c[j, k] beta_d[j, l, k])^2, c the MMSE gain
    P_tr beta_d[j, j, k] / lam_d[j, k]; the other cells' means are pilot
    contamination.  Each BS radiates P_d in all, so every beam's spread
    about its mean sums to P_d sum_j beta_d[j, l, k].  Holds for every
    M >= 1.  With system="tdd" the UE-UE interference and the full-duplex
    transmitter noise terms are absent.
    """
    _check_mode(system=system)
    signal, interference = _uatf_terms(profile, cfg, system)
    return np.log2(1.0 + signal / (interference + cfg.sigma2_dl))


def _uatf_terms(profile, cfg, system):
    """Signal and interference, (L, K_d), of :func:`dl_rates_fd_imperfect`."""
    jj = np.arange(profile.L)
    bd = profile.beta_d                                         # (j, l, k)
    c = cfg.P_tr * bd[jj, jj] / estimation_stats(profile, cfg).lam_d
    coef = per_cell_factors(profile, cfg, "imperfect")
    mean2 = coef[:, None, None] * (cfg.M * c[:, None, :] * bd) ** 2
    signal = mean2[jj, jj]                                      # (l, k)
    mean2[jj, jj] = 0.0
    return signal, (cfg.P_d * bd.sum(axis=0) + mean2.sum(axis=0)
                    + ue_interference(profile, cfg, system))
