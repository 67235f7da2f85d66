"""Monte Carlo ergodic rates and the analytic estimated-CSI downlink.

Uplink uses maximum ratio combining; downlink uses conjugate beamforming.
All interference is treated as noise.  The closed forms, the FD estimated-CSI
downlink's use-and-then-forget bound (:func:`dl_rates_fd_imperfect`) among
them, are one SINR builder, rational in M (:func:`_sinr_terms`); the rest is
averaged over channel realizations by batched SINR kernels.  The per-user
SINR loops and the M-vector channel model are oracles in ``tests/reference.py``.

The Monte Carlo engine never draws an M-vector.  Each BS draws the inner
products an SINR reads pilot group by pilot group (:class:`_TrialSampler`):

* A pilot group is one pilot slot's sources: its L channels and its pilot
  noise; with TDD pilots an FD user's two slots, which observe one set of
  channels, form one group.  Its D <= 2 span vectors, the combiners and
  precoders estimated from it, are Xi C for M x S i.i.d. CN(0, 1) sources
  Xi and a real C = Q R_C (QR).  In an orthonormal basis of their
  r = min(M, D) dimensions they are R0 R_C, R0 the complex Bartlett factor
  (|R0[i, i]|^2 ~ Gamma(M - i), CN(0, 1) above the diagonal; Odell &
  Feiveson, 1966), and the sources are R0 Q^T + Xi' (I - Q Q^T) for a fresh
  r x S i.i.d. Xi' (pathwise conditioning).  So the span vectors' norms and
  their inner products with the group's channels are exact; a channel's
  squared norm adds its residual variance times Gamma(M - r).  With perfect
  CSI a group is a user's own channel, its span vector: beta Gamma(M).
* Every other inner product pairs a vector with a channel independent of
  it, so it is a power: given w, |w^H g|^2 = |w|^2 beta Exp(1),
  independently over channels (Hamdi, IEEE Trans. Commun. 58(2), 2010).
  The uplink conditions on the combiner.  The downlink conditions on the
  user's channel g, which its terms at one BS share: precoder i gives
  |g|^2 sigma_i^2 Exp(1), sigma_i^2 its variance per antenna.
* For a combiner w at its receiving end, a BS-BS channel H gives the
  direction z = H^H w / (|w| sqrt(beta_b)) ~ CN(0, I_M), independent of the
  rest.  BS l's precoders V_l lie on different slots, so their columns are
  independent CN(0, sigma_i^2 I), and conditioning on z gives |V_l^H z|^2 =
  |z|^2 sum_i sigma_i^2 Exp(1), |z|^2 ~ Gamma(M), exact for every M.  UE-UE
  channels are powers, beta_I Exp(1) (0 at an FD user's own pair, cancelled).

Each SINR term has one helper, read by the sampler, the kernels, the control
means and the closed forms: :func:`_si_bs`, :func:`_si_ue`, :func:`_ue_gains`,
:func:`_bsbs_mean`, :func:`_ul_gains`, :func:`_dl_power`, :func:`_precoder_var`,
:func:`_mmse_gain`.

What one SINR reads at one BS is jointly exact or independent given the
vector it conditions on, and BSs see independent channels, so every
per-user rate has the law of the M-vector model.  The joint law across
users is not kept: two users' powers against one channel or one precoder
are independent, BS-BS powers included, each drawn given its own z.  No
reported mean reads it; the spread of a per-cell sum over seeds does.
A trial costs O(L^2 K^2) draws whatever M is, and the kernels are
arithmetic on a batch, whose keys say which terms exist.

The batch's large arrays (the sources' coordinates, the powers and the
BS-BS Exp(1) draws) are written with ``out=`` into a scratch pool of byte
buffers (:func:`_scratch`), one per thread, kept across batches and calls,
so they land in pages already mapped instead of freshly faulted ones.  A
buffer is handed out again only when no live array views it, so a caller
holding a batch never sees it overwritten.  The pool holds at most one
buffer per array of the largest set a batch keeps alive at once, and every
result is bit-identical to one computed in fresh arrays.

Each simulated rate is a control-variate estimate.  Besides its log-rate,
a kernel returns per-trial controls, powers it forms anyway, whose means
are exact closed forms (:func:`_control_means`).  The simulated
estimated-CSI downlink's own-gain spread log|own - Emu|^2 is one of them:
its mean is a closed form plus one expectation over X ~ Gamma(M), a
trapezoid rule in the log of its argument (:func:`_ein_gamma_mean`), run
once per call that simulates that downlink.  :mod:`fdmimo.crossfit`
regresses the log-rates on them with two-fold cross-fitting.  The estimate
stays unbiased and a pure function of the seed, and its stderr is that of
the regression residuals, far below that of the log-rates themselves.
"""

from __future__ import annotations

import functools
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
    """Conjugate-beamforming power coefficient P_d / (M sum_k var_v) of
    each cell, (L,), so BS l radiates P_d on average (Ngo, Larsson & Marzetta
    2013); var_v is each precoder's variance per antenna (:func:`_precoder_var`).
    """
    _check_mode(csi=csi)
    return _cell_factors(profile, cfg,
                         None if csi == "perfect" else estimation_stats(profile, cfg))


def _cell_factors(profile, cfg, st):
    """:func:`per_cell_factors` given the MMSE statistics ``st`` of the
    profile with estimated CSI, or None with perfect CSI."""
    return cfg.P_d / (cfg.M * _precoder_var(profile, st).sum(axis=1))


def _precoder_var(profile, st):
    """Each precoder's variance per antenna, (L, K_d): beta_d[l, l, k], or est_var_d."""
    jj = np.arange(profile.L)
    return profile.beta_d[jj, jj] if st is None else st.est_var_d


def _si_bs(profile, cfg):
    """Residual self-interference at each FD BS, kappa P_d beta_b[j, j], (L,)."""
    return cfg.kappa * cfg.P_d * profile.beta_b.diagonal()


def _si_ue(profile, cfg):
    """Residual self-interference at each downlink user, (L, K_d):
    kappa P_u beta_I[l, k, l, k] at an FD user (k < K_f), 0 at an HD one."""
    K_f, si = profile.K_f, np.zeros(profile.beta_d.shape[1:])
    si[:, :K_f] = cfg.kappa * cfg.P_u * np.einsum("lklk->lk", profile.beta_I[:, :K_f, :, :K_f])
    return si


def _ue_gains(profile):
    """UE-UE gains beta_I (l, k, j, n), 0 at an FD user's own pair (see :func:`_si_ue`)."""
    gains = profile.beta_I.copy()
    np.einsum("lklk->lk", gains[:, :profile.K_f, :, :profile.K_f])[...] = 0.0
    return gains


def _bsbs_mean(profile, cfg):
    """Mean BS-BS power at each BS, P_d sum_{l != j} beta_b[j, l], (L,), by a
    masked sum: the diagonal can exceed the rest of its row a millionfold."""
    return cfg.P_d * ((1 - np.eye(profile.L)) * profile.beta_b).sum(axis=1)


def _ul_gains(profile):
    """Masked sums at BS j for uplink user n of cell j, (L, K_u): every other
    user's gain, and its pilot-sharers' squared gains (pilot contamination)."""
    bu = profile.beta_u
    other = bu * (1 - np.eye(profile.L))[:, :, None]    # the other cells' users
    return (other.sum(axis=(1, 2))[:, None] + bu.diagonal().T @ (1 - np.eye(profile.K_u)),
            (other ** 2).sum(axis=1))


def _dl_power(profile, cfg, system, own=True):
    """Mean power at each downlink user, (L, K_d): P_d sum_j beta_d[j, l, k]
    (masked to j != l if not ``own``), and in FD P_u times :func:`_ue_gains`
    plus :func:`_si_ue`."""
    bd = profile.beta_d if own else profile.beta_d * (1 - np.eye(profile.L))[:, :, None]
    power = cfg.P_d * bd.sum(axis=0)
    if system == "fd":
        power += cfg.P_u * _ue_gains(profile).sum(axis=(2, 3)) + _si_ue(profile, cfg)
    return power


def _mmse_gain(profile, cfg, st):
    """MMSE gains c = P_tr beta[j, j, n] / lam of the uplink and downlink users'
    pilot slots, (L, K_u) and (L, K_d): an estimate is c times its observation."""
    return tuple(cfg.P_tr * (beta.diagonal().T / lam)
                 for beta, lam in ((profile.beta_u, st.lam_u), (profile.beta_d, st.lam_d)))


def _sinr_terms(profile, cfg, system, st):
    """Every closed-form SINR, for all M at once: per link (signal,
    interference, noise), the first two the coefficients of 1/M, 1 and M,
    each 0 or an (L, K) array (:func:`_at`); Proposition 1 with ``st`` None,
    else 2.

    Uplink: P_u (M - 1) a / (P_u (I + e + M C) + B), a and e the combiner's
    and error's variances, I the other users' gains, C the contamination
    P_tr sum_{l != j} beta_u^2 / lam_u (:func:`_ul_gains`), B an FD BS's
    BS-BS and SI power.  Downlink, coef = c0 / M (:func:`per_cell_factors`):
    coef (M - 1)(M - 2) b^2 / (coef (M - 2) b S + P), b the own gain, S the
    cell's other users' and P the other BSs' and UEs' power
    (:func:`_dl_power`); with ``st``, :func:`dl_rates_fd_imperfect`.
    """
    jj, P_u = np.arange(profile.L), cfg.P_u
    inter, contam = _ul_gains(profile)
    bs = (_bsbs_mean(profile, cfg) + _si_bs(profile, cfg))[:, None] if system == "fd" else 0.0
    a, e, C = ((profile.beta_u[jj, jj], 0.0, 0.0) if st is None
               else (st.est_var_u, st.err_var_u, cfg.P_tr * contam / st.lam_u))
    ul = ([0.0, -P_u * a, P_u * a], [0.0, P_u * (inter + e) + bs, P_u * C])
    c0 = (cfg.P_d / _precoder_var(profile, st).sum(axis=1))[:, None]
    if st is None:
        own = profile.beta_d[jj, jj]
        x, y = c0 * own ** 2, c0 * own * (own @ (1 - np.eye(profile.K_d)))
        dl = ([2 * x, -3 * x, x], [-2 * y, y + _dl_power(profile, cfg, system, own=False), 0.0])
    else:   # BS j's beam k at user k of cell l: mean M c[j, k] beta_d[j, l, k]
        mean2 = c0[..., None] * (_mmse_gain(profile, cfg, st)[1][:, None] * profile.beta_d) ** 2
        signal = mean2[jj, jj]                                  # (l, k)
        mean2[jj, jj] = 0.0
        dl = ([0.0, 0.0, signal], [0.0, _dl_power(profile, cfg, system), mean2.sum(axis=0)])
    return [(*link, noise) for link, noise in ((ul, cfg.sigma2), (dl, cfg.sigma2_dl))]


def _at(c, M):
    """Coefficients c of 1/M, 1 and M (:func:`_sinr_terms`) at M."""
    return c[0] / M + c[1] + c[2] * M


def _rates_at(links, M, log2=np.log2):
    """log2(1 + SINR) at M of each link of :func:`_sinr_terms`."""
    return tuple(log2(1.0 + _at(s, M) / (_at(i, M) + noise)) for s, i, noise in links)


def dl_rates_fd_imperfect(profile, cfg, system="fd") -> np.ndarray:
    """Downlink rates under MMSE-estimated CSI, shape (L, K_d).

    The use-and-then-forget bound: user k of cell l decodes against the mean
    of its effective channel, and all else it receives is interference.  BS
    j's beam to its own user k arrives with mean power
    coef[j] (M c[j, k] beta_d[j, l, k])^2, c the MMSE gain
    P_tr beta_d[j, j, k] / lam_d[j, k] (:func:`_mmse_gain`); the other
    cells' means are pilot contamination.  Each BS radiates P_d in all, so
    every beam's spread about its mean sums to P_d sum_j beta_d[j, l, k].
    The interference is E[D] of the simulated downlink (:func:`_control_means`).
    Holds for every M >= 1.  With system="tdd" the UE-UE interference and
    the full-duplex transmitter noise terms are absent.
    """
    _check_mode(system=system)
    st = estimation_stats(profile, cfg)
    return _rates_at(_sinr_terms(profile, cfg, system, st), cfg.M)[1]


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


def _bartlett(rng, M, shape, D):
    """A stack (*shape, r, D), r = min(M, D), of complex Bartlett factors:
    the R of the QR of M x D i.i.d. CN(0, 1) matrices."""
    r = min(M, D)
    R, i = np.zeros((*shape, r, D), complex), np.arange(r)
    R[..., i, i] = np.sqrt(rng.standard_gamma(M - i, size=(*shape, r)))
    iu, ju = np.triu_indices(r, 1, D)
    R[..., iu, ju] = draw_cn(rng, (*shape, iu.size))
    return R


def _cat(parts):
    """The groups' arrays joined along their span-vector axis, 2."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=2)


class _TrialSampler:
    """Batches of coherence blocks as the norms, inner products and powers
    the SINR kernels read; the only code here that draws random numbers.

    With estimated CSI, ``st`` holds the profile's MMSE statistics (None
    with perfect CSI), and ``groups`` stacks the pilot groups of each shape:
    (channel scales (L, G, L), Q (L, G, S, D), R_C (L, G, D, D), channel
    variances outside the span (L, G, L)).  ``iw`` and ``iv`` pick the
    combiners and precoders from the groups' span vectors, group-major.  FD
    runs draw the UE-UE powers F without the FD-pair reciprocity
    F[l, k, j, n] = F[j, n, l, k] (no per-user rate reads it).
    """

    def __init__(self, profile, cfg, need_est, tdd, dl=True):
        self.profile, self.cfg, self.tdd, self.dl = profile, cfg, tdd, dl
        L, K_u, K_d, K_f = profile.L, profile.K_u, profile.K_d, profile.K_f
        self.ue_gain, self.groups = _ue_gains(profile), []
        self.st = st = estimation_stats(profile, cfg) if need_est else None
        self.var_v = _precoder_var(profile, st)
        if not need_est:
            return
        self.Emu = cfg.M * self.var_v       # each downlink user's mean own gain
        # Each slot's channel gains (j, l, slot) and MMSE gain (j, slot): the
        # uplink users', then the HD downlink users' (FD training: if dl).
        h = slice(K_f, K_d if dl or tdd else K_f)
        beta = np.concatenate([profile.beta_u, profile.beta_d[..., h]], axis=2)
        cu, cd = _mmse_gain(profile, cfg, st)
        c = np.concatenate([cu, cd[:, h]], axis=1)
        kinds = [(beta, [c])]
        self.iw, self.iv = slice(K_u), np.r_[:K_f, K_u:K_u + K_d - K_f]
        if tdd:     # an FD user's two slots observe one set of channels: one group
            kinds = [(beta[..., :K_f], [c[:, :K_f], cd[:, :K_f]])] if K_f else []
            kinds.append((beta[..., K_f:], [c[:, K_f:]]))
            self.iw = np.r_[:2 * K_f:2, 2 * K_f:K_f + K_u]
            self.iv = np.r_[1:2 * K_f:2, K_f + K_u:K_u + K_d]
        for beta, cs in kinds:
            sb = np.sqrt(beta).swapaxes(1, 2)               # (j, group, l)
            # Each span vector, c times its slot's observation, on the unit
            # sources: the group's L channels, then its pilot noises.
            C = np.zeros((*sb.shape[:2], L + len(cs), len(cs)))
            for d, c in enumerate(cs):
                C[:, :, :L, d] = c[..., None] * sb
                C[:, :, L + d, d] = c * math.sqrt(cfg.sigma2 / cfg.P_tr)
            # Unit columns span the same space and keep QR accurate when gains
            # differ by orders of magnitude.
            nrm = np.linalg.norm(C, axis=2, keepdims=True)
            Q, R = np.linalg.qr(C / nrm)
            res = sb ** 2 * (1 - (Q[:, :, :L] ** 2).sum(axis=3))
            self.groups.append((sb, Q, R * nrm, res))

    def _spans(self, rng, B):
        """Combiner norms W2 (B, j, n) and inner products Wg (B, j, n, l) with
        the slot's channels; with ``dl`` precoder k's Vg and the norms G2 of
        its slot's channels, (B, l, k, j).  With perfect CSI Wg, Vg are None."""
        p, M, jj = self.profile, self.cfg.M, np.arange(self.profile.L)
        L, K_u, K_d, K_f = p.L, p.K_u, p.K_d, p.K_f
        Wg = Vg = G2 = None
        if self.st is None:
            W2 = rng.standard_gamma(M, size=(B, L, K_u)) * p.beta_u[jj, jj]
            if self.dl:
                G2 = rng.standard_gamma(M, size=(B, L, L, K_d))      # (B, j, l, k)
                G2 *= p.beta_d
                G2[:, jj, jj, :K_f] = W2[..., :K_f]     # an FD user's is its uplink one
                G2 = G2.transpose(0, 2, 3, 1)
            return W2, Wg, Vg, G2
        nrm2, prod, norms = [], [], []
        for sb, Q, RC, res in self.groups:
            G, S, D = Q.shape[1:]
            R0 = _bartlett(rng, M, (B, L, G), D)
            r = R0.shape[3]
            X = draw_cn(rng, (B, L, G, r, S), out=_scratch((B, L, G, r, S, 2)))  # Xi'
            # The sources' coordinates R0 Q^T + Xi' (I - Q Q^T), in Xi''s
            # place, then the channels' scaled in place.
            X += np.matmul(R0 - X @ Q, Q.swapaxes(2, 3), out=_scratch(X.shape, complex))
            chan = X[..., :L]
            chan *= sb[:, :, None]
            Y = R0 @ RC                                 # the span vectors'
            nrm2.append((np.abs(Y) ** 2).sum(axis=3).reshape(B, L, G * D))
            prod.append((Y.conj().swapaxes(3, 4) @ chan).reshape(B, L, G * D, L))
            if self.dl:         # |g|^2: the span's part, then the rest
                g2 = rng.standard_gamma(M - r, size=(B, L, G, L))
                g2 *= res
                g2 += (np.abs(chan) ** 2).sum(axis=3)
                # With D = 1 np.repeat would only copy g2, 0.7 MB a batch on
                # a drop, enough to make glibc trim and refault the heap.
                norms.append(g2 if D == 1 else np.repeat(g2, D, axis=2))
            del X, chan
        prod = _cat(prod)
        W2, Wg = _cat(nrm2)[..., self.iw], prod[:, :, self.iw]
        if self.dl:
            Vg = prod[:, :, self.iv].transpose(0, 3, 2, 1)
            G2 = _cat(norms)[:, :, self.iv].transpose(0, 3, 2, 1)
        return W2, Wg, Vg, G2

    def draw(self, rng, B):
        """A batch of B blocks: W2 = |w|^2 (B, j, n) of user n's combiner at
        BS j, Pu = |w^H g|^2 (B, j, n, l, k) for user k of cell l, 0 at the
        own one, and with estimation Pe = |w^H eps|^2 of w's error.  With
        ``dl``, Pd = |v^H g|^2 (B, l, k, j, i) of BS j's precoder i at user k
        of cell l, 0 at the own beam, own = its v^H g (B, l, k), and with
        estimation Emu (its mean, (L, K_d)).  FD runs add the UE-UE powers F
        (B, l, k, j, n) if ``dl``, and Pb = |V_l^H z|^2 (B, l, m, n) of BS
        l's precoders and the BS-BS direction z ~ CN(0, I_M) of user n of
        its m-th other BS.
        The large arrays live in the thread's scratch pool, which leaves them
        alone while the caller holds them."""
        p, M = self.profile, self.cfg.M
        L, K_u, K_d = p.L, p.K_u, p.K_d
        est, out = self.st is not None, {}
        if not self.tdd:    # given z, precoder i gives |z|^2 sigma_i^2 Exp(1)
            out["Pb"] = Pb = (rng.standard_exponential(out=_scratch((B, L, (L - 1) * K_u, K_d)))
                              @ self.var_v[..., None]).reshape(B, L, L - 1, K_u)
            Pb *= rng.standard_gamma(M, size=Pb.shape)
        W2, Wg, Vg, G2 = self._spans(rng, B)
        out["W2"] = W2
        if est:
            out["Pe"] = np.abs(np.einsum("bjnj->bjn", Wg) - W2) ** 2
        if self.dl:
            out["own"] = np.einsum("blkl->blk", Vg if est else G2)
            if est:
                out["Emu"] = self.Emu
        # Given w, each channel outside its group gives |w|^2 beta Exp(1).
        out["Pu"] = Pu = rng.standard_exponential(out=_scratch((B, L, K_u, L, K_u)))
        Pu *= W2[..., None, None]
        Pu *= p.beta_u[:, None]
        if est:
            np.einsum("bjnln->bjnl", Pu)[...] = np.abs(Wg) ** 2
        np.einsum("bjnjn->bjn", Pu)[...] = 0.0
        if self.dl:     # given g, each precoder outside its group gives |g|^2 var Exp(1)
            out["Pd"] = Pd = rng.standard_exponential(out=_scratch((B, L, K_d, L, K_d)))
            Pd *= G2[..., None]
            Pd *= self.var_v
            if est:
                np.einsum("blkjk->blkj", Pd)[...] = np.abs(Vg) ** 2
            np.einsum("blklk->blk", Pd)[...] = 0.0
            if not self.tdd:
                out["F"] = F = rng.standard_exponential(out=_scratch((B, *self.ue_gain.shape)))
                F *= self.ue_gain
        return out


def _batch_ul_logrates(d, profile, cfg, coef):
    """log2(1+SINR) for every uplink user in a batch, (B, L, K_u), and the
    user's controls, (B, L, K_u, p), whose means :func:`_control_means` gives.

    MRC: the combiner norm W2 against the other users' powers Pu, Pe's
    estimation error, and with Pb the other BSs' downlink through the BS-BS
    channels and the residual self-interference.  The controls are log|w|^2,
    the other users' power and the error power over |w|^2, and the BS-BS
    power.  ``coef`` is :func:`per_cell_factors` for the batch's CSI mode.
    """
    nrm2 = d["W2"]                                              # (B, j, n)
    B, L, K_u = nrm2.shape
    inter = d["Pu"].sum(axis=(3, 4))
    denom = cfg.P_u * inter
    noise = cfg.sigma2
    ctrl = [np.log(nrm2), inter / nrm2]
    if "Pe" in d:
        denom = denom + cfg.P_u * d["Pe"]
        ctrl.append(d["Pe"] / nrm2)
    if "Pb" in d:
        # Pb[:, l, m, n] is |V_l^H H^H w|^2 / |w|^2 over beta_b for the BS-BS
        # channel H from BS l to its m-th other BS j and user n's combiner w
        # there; a BS has no BS-BS term with itself.
        l, j = np.nonzero(1 - np.eye(L))                 # (l, m) pairs, l-major
        to_rx = np.eye(L)[:, j] * (coef[l] * profile.beta_b[j, l])     # (j, (l, m))
        bsbs = to_rx @ d["Pb"].reshape(B, L * (L - 1), K_u)            # (B, j, n)
        denom = denom + nrm2 * bsbs
        noise = noise + _si_bs(profile, cfg)[:, None]
        ctrl.append(bsbs)
    sinr = cfg.P_u * nrm2 ** 2 / (denom + nrm2 * noise)
    return np.log2(1.0 + sinr), np.stack(ctrl, axis=-1)


def _batch_dl_logrates(d, profile, cfg, coef):
    """log2(1+SINR) for every downlink user in a batch, (B, L, K_d), and the
    user's controls, (B, L, K_d, p), whose means :func:`_control_means` gives.

    Conjugate beamforming: the own gain against every other beam's power
    Pd, weighted by its BS's ``coef`` (:func:`per_cell_factors`), the UE-UE
    powers F and each FD user's residual kappa P_u beta_I.  With Emu
    (estimated CSI) the user decodes against the mean of its own gain; the
    SINR denominator then has the mean of :func:`dl_rates_fd_imperfect`, so
    by Jensen this simulates a rate above that bound, which
    :func:`fd_rates_mc` reports for fd/imperfect.  The controls are
    log|own gain|^2 without Emu, then D, the SINR denominator less noise;
    with Emu, D and then the log own-gain spread log|own - Emu|^2, on which
    the log-rate bends most.
    """
    own = d["own"]                                              # (B, l, k)
    B, L, K_d = own.shape
    c = coef[:, None]
    D = d["Pd"].reshape(B, L, K_d, L * K_d) @ np.repeat(coef, K_d)    # Pd: (B, l, k, j, i)
    if "F" in d:
        D = D + cfg.P_u * d["F"].sum(axis=(3, 4)) + _si_ue(profile, cfg)
    if "Emu" in d:
        spread = np.abs(own - d["Emu"]) ** 2
        D = D + c * spread
        sinr = c * d["Emu"] ** 2 / (D + cfg.sigma2_dl)
        ctrl = [D, np.log(spread)]
    else:
        own2 = np.abs(own) ** 2
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


_EIN_STEP = 0.3             # the rule's step h in s = ln x
_EIN_TABLE = (-150, 13)     # k of its tabulated nodes x = e^{k h}: 3e-20 to 49


@functools.cache
def _ein_table():
    """Ein(x) = int_0^1 -expm1(-x t) dt / t at the tabulated nodes, by
    64-point Gauss-Legendre, exact to rounding for x < 50.  Below them
    Ein(x) = x, above them gamma + ln x, both to rounding."""
    t, w = np.polynomial.legendre.leggauss(64)
    t, w = (t + 1) / 2, w / 2
    x = np.exp(np.arange(_EIN_TABLE[0], _EIN_TABLE[1] + 1) * _EIN_STEP)
    return -np.expm1(-np.outer(x, t)) / t @ w


def _ein_gamma_mean(M, kappa):
    """E Ein(kappa (X - M)^2 / X) over X ~ Gamma(M), for each entry of
    ``kappa`` > 0, to about 1e-12; Ein(x) = gamma + ln x + E1(x) is entire.

    In v = ln(X/M), x = 4 kappa M sinh^2(v/2) dips to 0 at v = 0, over a
    width 1/sqrt(kappa) of the density's, so the rule is the trapezoid
    rule in s = ln x (Trefethen & Weideman, SIAM Rev. 56(3), 2014), whose
    nodes cluster at v = 0 geometrically.  With w = sinh(|v|/2) and
    rho = e^{|v|/2} = w + sqrt(1 + w^2), the two points X = M rho^{+-2}
    have v-densities exp(c - 2M(w rho - ln rho)) and
    exp(c + 2M(w / rho - ln rho)), c = M ln M - M - ln Gamma(M), and
    d|v|/ds = tanh(|v|/2).  Every user shares the nodes s = k h and their
    Ein values (:func:`_ein_table`), which span the users' integrands down
    to about e^-32: their left tails fall as x^{3/2}, their right ones as
    the density.
    """
    h, (k0, k1), T = _EIN_STEP, _EIN_TABLE, 32.0
    kappa = np.asarray(kappa, float)
    kM = (kappa * M).reshape(-1, 1)
    c = M * math.log(M) - M - math.lgamma(M)
    t = (T + 0.5 * math.log(M)) / M
    v_hi = t + math.sqrt(2 * t)         # e^-v - 1 + v >= t there: density below e^-T
    s_lo = (0.5 * math.log(kM.min()) - c - T) / 1.5
    s_hi = math.log(kM.max()) + 2 * math.log(2 * math.sinh(v_hi / 2))
    k = np.arange(math.floor(s_lo / h), math.ceil(s_hi / h) + 1)
    s = k * h
    ein = np.where(k < k0, np.exp(s), np.where(
        k > k1, np.euler_gamma + s, _ein_table()[np.clip(k - k0, 0, k1 - k0)]))
    w = np.exp(s / 2) / (2 * np.sqrt(kM))
    r = np.sqrt(1 + w * w)
    rho = w + r
    ln_rho = np.log(rho)
    dens = (np.exp(c - 2 * M * (w * rho - ln_rho))
            + np.exp(c + 2 * M * (w / rho - ln_rho)))
    return (h * (dens * (w / r)) @ ein).reshape(kappa.shape)


def _control_means(profile, cfg, system, st, dl=True):
    """Exact means of the kernels' controls: uplink (L, K_u, p_ul) and, if
    ``dl``, downlink (L, K_d, p_dl), in the kernels' order; ``st`` is the
    profile's MMSE statistics with estimated CSI, None with perfect CSI.

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
    CSI, E[D] is the interference of :func:`dl_rates_fd_imperfect`.  The
    precoder is the estimate of g, CN(0, a I_M), and the rest of g is its
    error, CN(0, e I_M), a = est_var_d and e = err_var_d.  So with
    X ~ Gamma(M) and eta ~ CN(0, 1), own - Emu = a (X - M) + sqrt(a e X) eta,
    and since E ln|mu + eta|^2 = Ein(|mu|^2) - gamma,
    E log|own - Emu|^2 = ln(a e) + psi(M) - gamma
    + E Ein(kappa (X - M)^2 / X), kappa = a / e (:func:`_ein_gamma_mean`).
    """
    M, psi, jj = cfg.M, _digamma(cfg.M), np.arange(profile.L)
    inter, contam = _ul_gains(profile)
    if st is None:
        ul = [np.log(profile.beta_u[jj, jj]) + psi, inter]
    else:
        ul = [np.log(st.est_var_u) + psi,
              inter + (M - 1) * cfg.P_tr * contam / st.lam_u, st.err_var_u]
    if system == "fd":
        ul.append(np.broadcast_to(_bsbs_mean(profile, cfg)[:, None], inter.shape))
    if not dl:
        return [np.stack(ul, axis=-1)]
    if st is None:
        own = profile.beta_d[jj, jj]
        coef = _cell_factors(profile, cfg, None)[:, None]
        dl = [2 * (np.log(own) + psi), _dl_power(profile, cfg, system) - coef * M * own ** 2]
    else:
        a, e = st.est_var_d, st.err_var_d
        dl = [_at(_sinr_terms(profile, cfg, system, st)[1][1], M),
              np.log(a * e) + psi - np.euler_gamma + _ein_gamma_mean(M, a / e)]
    return [np.stack(ul, axis=-1), np.stack(dl, axis=-1)]


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


def _simulate(draw, profile, cfg, system, st, trials, seed):
    """Per-user mean log2(1+SINR) and its stderr over ``trials`` blocks from
    ``draw(rng, B)``, each link reduced on its own with its own controls:
    [(ul, ul_se)], (L, K_u), then (dl, dl_se), (L, K_d), if the blocks hold Pd.
    ``st`` is the profile's MMSE statistics with estimated CSI, else None.

    Each mean is a control-variate estimate Ybar - b (Xbar - mu): X are the
    kernels' per-trial controls and mu their exact means
    (:func:`_control_means`).  The trials split by parity into two folds, and
    each fold's b is fitted on the other fold (cross-fitting), so the
    estimate is unbiased and a pure function of the seed.  Only the folds'
    moment sums are kept, and the stderr is that of the residuals y - b x.
    """
    coef, mu = _cell_factors(profile, cfg, st), None
    folds = [None, None]                    # per link
    for t, done in enumerate(range(0, trials, _BATCH)):
        d = draw(trial_rng(seed, t), min(_BATCH, trials - done))
        if mu is None:      # the downlink's only if the blocks hold it
            mu = _control_means(profile, cfg, system, st, dl="Pd" in d)
        for i, (kernel, m) in enumerate(zip((_batch_ul_logrates, _batch_dl_logrates), mu)):
            y, x = kernel(d, profile, cfg, coef)
            # Every batch starts at an even trial, since _BATCH is even.
            folds[i] = accumulate(folds[i], np.concatenate([x - m, y[..., None]], axis=-1))
        del d      # its buffers go back to the pool before the next batch draws
    return [crossfit(f) for f in folds if f is not None]


def _mc_rates(profile, cfg, system, csi, trials, seed):
    """Each link reduced on its own by :func:`_simulate`, except the
    fd/imperfect downlink, :func:`dl_rates_fd_imperfect` (stderr 0).  The
    sampler's MMSE statistics serve every closed-form part."""
    _check_mode(system, csi)
    _check_inputs(profile, cfg)
    if not _is_integer(trials):
        raise ValueError(f"trials must be an integer, got {trials!r}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    analytic_dl = system == "fd" and csi == "imperfect"
    sampler = _TrialSampler(profile, cfg, csi == "imperfect", system == "tdd",
                            dl=not analytic_dl)
    links = _simulate(sampler.draw, profile, cfg, system, sampler.st, trials, seed)
    if analytic_dl:
        dl = _rates_at(_sinr_terms(profile, cfg, system, sampler.st), cfg.M)[1]
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
