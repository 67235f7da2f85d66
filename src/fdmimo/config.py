"""System parameters, large-scale fading profiles and canonical configurations.

All powers are stored in linear watts.  dB / dBm values appear only at the
boundary (CLI flags, scenario parameters) and are converted there with
:func:`db_to_linear` / :func:`dbm_to_watt`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass

import numpy as np

_SCALING_LAWS = ("perfect_csi_1_over_M", "imperfect_csi_1_over_sqrtM", "none")


def db_to_linear(x_db):
    return 10.0 ** (np.asarray(x_db, dtype=float) / 10.0)


def dbm_to_watt(x_dbm):
    return 10.0 ** ((np.asarray(x_dbm, dtype=float) - 30.0) / 10.0)


@dataclass(frozen=True)
class SystemConfig:
    """Scalar parameters of the multi-cell network.

    sigma2 is the receiver noise variance at the BS side (uplink data and
    uplink training).  sigma2_dl is the noise variance at the UE side; it
    defaults to sigma2 when not given.
    """

    L: int
    M: int
    K_f: int
    K_h_u: int
    K_h_d: int
    P_u: float
    P_d: float
    P_tr: float
    kappa: float
    sigma2: float
    T: int
    tau: int | None = None
    tau_u: int | None = None
    tau_d: int | None = None
    sigma2_dl: float | None = None

    def __post_init__(self):
        # Minimal pilot lengths are the defaults used by the asymptotic results.
        if self.tau is None:
            object.__setattr__(self, "tau", self.K_tot)
        if self.tau_u is None:
            object.__setattr__(self, "tau_u", self.K_u)
        if self.tau_d is None:
            object.__setattr__(self, "tau_d", self.K_d)
        if self.sigma2_dl is None:
            object.__setattr__(self, "sigma2_dl", self.sigma2)

    @property
    def K_u(self) -> int:
        return self.K_f + self.K_h_u

    @property
    def K_d(self) -> int:
        return self.K_f + self.K_h_d

    @property
    def K_tot(self) -> int:
        return self.K_u + self.K_d - self.K_f

    def replace(self, **kwargs) -> "SystemConfig":
        return dataclasses.replace(self, **kwargs)


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    violations: tuple = ()


def _is_integer(x) -> bool:
    """A Python or numpy integer; not a bool, nor a float of integral value."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def validate(cfg: SystemConfig, closed_forms: bool = False) -> ValidationResult:
    """Check every SystemConfig invariant.

    Set ``closed_forms=True`` when the Proposition-style lower bounds will be
    evaluated; their derivation needs M >= 3.
    """
    bad = [f"{name}: integer required, got {getattr(cfg, name)!r}"
           for name in ("L", "M", "T", "K_f", "K_h_u", "K_h_d", "tau", "tau_u", "tau_d")
           if not _is_integer(getattr(cfg, name))]
    if bad:     # the checks below compare sizes as integers
        return ValidationResult(ok=False, violations=tuple(bad))
    for name in ("L", "M", "T"):
        if getattr(cfg, name) < 1:
            bad.append(f"{name}: positive integer required")
    for name in ("K_f", "K_h_u", "K_h_d"):
        if getattr(cfg, name) < 0:
            bad.append(f"{name}: nonnegative integer required")
    if cfg.K_d < 1:
        bad.append("K_d: at least one downlink user required")
    for name in ("P_u", "P_d", "P_tr", "sigma2", "sigma2_dl"):
        if not 0 < getattr(cfg, name) < np.inf:
            bad.append(f"{name}: strictly positive finite power required")
    if not 0.0 <= cfg.kappa < 1.0:
        bad.append("kappa: value in [0, 1) required")
    if cfg.tau < cfg.K_tot:
        bad.append("tau: tau >= K_tot required")
    if cfg.tau_u < cfg.K_u:
        bad.append("tau_u: tau_u >= K_u required")
    if cfg.tau_d < cfg.K_d:
        bad.append("tau_d: tau_d >= K_d required")
    for name in ("tau", "tau_u", "tau_d"):
        if getattr(cfg, name) >= cfg.T:
            bad.append(f"{name}: {name} < T required")
    if closed_forms and cfg.M < 3:
        bad.append("M: M >= 3 required for closed-form lower bounds")
    return ValidationResult(ok=not bad, violations=tuple(bad))


@dataclass(frozen=True)
class LargeScaleProfile:
    """The four families of large-scale gains for an L-cell network.

    beta_u[j, l, n]  gain between uplink user n of cell l and BS j.
    beta_d[j, l, k]  gain between downlink user k of cell l and BS j.
    beta_b[j, l]     BS-BS gain; the diagonal is the BS self-interference gain.
    beta_I[l, k, j, n]  gain between uplink user n of cell j and downlink
                        user k of cell l; [l, k, l, k] with k < K_f is the UE
                        self-interference gain.
    An FD user (index < K_f) has one channel to each BS for both directions,
    so beta_u[..., :K_f] must equal beta_d[..., :K_f].
    """

    beta_u: np.ndarray
    beta_d: np.ndarray
    beta_b: np.ndarray
    beta_I: np.ndarray
    K_f: int = 0

    def __post_init__(self):
        for name in ("beta_u", "beta_d", "beta_b", "beta_I"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        L, _, K_u = self.beta_u.shape
        K_d = self.beta_d.shape[2]
        if self.beta_d.shape != (L, L, K_d) or self.beta_b.shape != (L, L):
            raise ValueError("inconsistent profile array shapes")
        if self.beta_I.shape != (L, K_d, L, K_u):
            raise ValueError("beta_I must have shape (L, K_d, L, K_u)")
        for name in ("beta_u", "beta_d", "beta_b", "beta_I"):
            arr = getattr(self, name)
            if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
                raise ValueError(f"{name}: entries must be strictly positive and finite")
        if not np.array_equal(self.beta_u[..., :self.K_f], self.beta_d[..., :self.K_f]):
            raise ValueError("reciprocity: beta_u[j,l,i] must equal "
                             "beta_d[j,l,i] for full-duplex users")

    @property
    def L(self) -> int:
        return self.beta_b.shape[0]

    @property
    def K_u(self) -> int:
        return self.beta_u.shape[2]

    @property
    def K_d(self) -> int:
        return self.beta_d.shape[2]


@dataclass(frozen=True)
class HomogeneousConfig:
    """All-full-duplex network where every same-cell gain is 1 and every
    cross-cell gain is beta; noise variance is fixed to 1."""

    L: int
    K: int
    beta: float
    M: int
    P_u: float
    P_d: float
    P_tr: float
    kappa: float
    T: int
    tau: int | None = None

    def __post_init__(self):
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must lie in [0, 1]")
        if self.tau is None:
            object.__setattr__(self, "tau", self.K)

    def system_config(self, M: int | None = None) -> SystemConfig:
        return SystemConfig(
            L=self.L, M=self.M if M is None else M,
            K_f=self.K, K_h_u=0, K_h_d=0,
            P_u=self.P_u, P_d=self.P_d, P_tr=self.P_tr,
            kappa=self.kappa, sigma2=1.0, T=self.T, tau=self.tau,
        )


def expand_homogeneous(h: HomogeneousConfig) -> LargeScaleProfile:
    """Expand the two-parameter homogeneous statistics into a full profile."""
    L, K = h.L, h.K
    off = np.full((L, L), h.beta)
    np.fill_diagonal(off, 1.0)
    beta_u = np.repeat(off[:, :, None], K, axis=2)
    beta_b = off.copy()
    beta_I = np.repeat(np.repeat(off[:, None, :, None], K, axis=1), K, axis=3)
    return LargeScaleProfile(beta_u=beta_u, beta_d=beta_u.copy(),
                             beta_b=beta_b, beta_I=beta_I, K_f=K)


@dataclass(frozen=True)
class PowerScalingSchedule:
    """Map the antenna count to transmit powers under a scaling law."""

    E_u: float
    E_d: float
    E_tr: float
    exponent: str = "none"

    def __post_init__(self):
        if self.exponent not in _SCALING_LAWS:
            raise ValueError(f"unknown scaling law {self.exponent!r}")

    def powers_at(self, M: int) -> tuple[float, float, float]:
        if self.exponent == "perfect_csi_1_over_M":
            s = 1.0 / M
        elif self.exponent == "imperfect_csi_1_over_sqrtM":
            s = 1.0 / np.sqrt(M)
        else:
            s = 1.0
        return self.E_u * s, self.E_d * s, self.E_tr * s

    def apply(self, cfg: SystemConfig, M: int) -> SystemConfig:
        P_u, P_d, P_tr = self.powers_at(M)
        return cfg.replace(M=M, P_u=P_u, P_d=P_d, P_tr=P_tr)


def config_digest(obj) -> str:
    """Stable hex digest of any JSON-serializable configuration object."""
    blob = json.dumps(obj, sort_keys=True, default=_json_default).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _json_default(o):
    if dataclasses.is_dataclass(o) and not isinstance(o, type):
        return dataclasses.asdict(o)
    if isinstance(o, np.ndarray):
        return o.tolist()
    if isinstance(o, (np.integer, np.floating)):
        return o.item()
    raise TypeError(f"not JSON serializable: {type(o)!r}")
