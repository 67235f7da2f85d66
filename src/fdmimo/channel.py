"""Geometry, pathloss, and the CN(0, 1) draws and per-trial random streams
of the Monte Carlo engine.

Pathloss constants are configuration data: the defaults in
:mod:`fdmimo.scenario` follow 3GPP TR 36.828-style small-cell models, but any
(A, B) pair can be supplied.  Distances are in meters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

@dataclass(frozen=True)
class PathlossModel:
    """Log-distance pathloss: loss_dB(d) = A + B * log10(d_m)."""

    A: float
    B: float
    shadowing_std: float = 0.0
    extra_loss: float = 0.0

    def __post_init__(self):
        if self.B <= 0:
            raise ValueError("B must be positive")


# libm's log10 and pow applied element by element.  numpy's vectorised ones
# differ from them in the last ulp on a few percent of inputs, and a drop's
# gains must not depend on whether they are computed one link at a time.
_log10 = np.frompyfunc(math.log10, 1, 1)
_pow = np.frompyfunc(pow, 2, 1)


def compose_large_scale(pl: PathlossModel, distance, shadow_draw=0.0,
                        antenna_gain: float = 0.0):
    """Combine pathloss, shadowing and antenna gain into a linear gain.

    ``distance`` and ``shadow_draw`` may be arrays of one shape; the gain
    then has that shape.
    """
    distance = np.asarray(distance, dtype=float)
    if np.any(distance <= 0):
        raise ValueError("distance must be positive for propagation links")
    loss_db = pl.A + pl.B * np.asarray(_log10(distance), dtype=float)
    total_db = -loss_db + antenna_gain - pl.extra_loss + shadow_draw
    return np.asarray(_pow(10.0, total_db / 10.0), dtype=float)[()]


@dataclass(frozen=True)
class Topology:
    """BS and UE positions of one random drop."""

    bs_positions: np.ndarray             # (n_bs, 2)
    ul_ue_positions: np.ndarray          # (n_bs, n_ul, 2)
    dl_ue_positions: np.ndarray          # (n_bs, n_dl, 2)

    @property
    def n_bs(self) -> int:
        return self.bs_positions.shape[0]


class TopologyError(RuntimeError):
    """Raised when the minimum-distance constraints cannot be satisfied."""


def _in_hexagon(pts: np.ndarray, radius: float) -> np.ndarray:
    """Membership test for a pointy-top regular hexagon of circumradius R."""
    x = np.abs(pts[..., 0])
    y = np.abs(pts[..., 1])
    return (x <= radius * math.sqrt(3) / 2) & (y <= radius - x / math.sqrt(3))


def sample_hexagon(rng: np.random.Generator, radius: float, n: int) -> np.ndarray:
    """Uniform points in a hexagon by rejection from the bounding box."""
    out = np.empty((n, 2))
    got = 0
    while got < n:
        cand = rng.uniform([-radius * math.sqrt(3) / 2, -radius],
                           [radius * math.sqrt(3) / 2, radius],
                           size=(2 * (n - got) + 8, 2))
        cand = cand[_in_hexagon(cand, radius)]
        take = min(len(cand), n - got)
        out[got:got + take] = cand[:take]
        got += take
    return out


def _place_with_min_dist(rng, draw_one, others, min_dists, budget=100_000):
    """Rejection-sample one point keeping all minimum distances.

    others / min_dists: list of (points array, required distance) pairs.
    """
    for _ in range(budget):
        p = draw_one()
        if not any(len(pts) and np.hypot(*(pts - p).T).min() < dmin
                   for pts, dmin in zip(others, min_dists)):
            return p
    raise TopologyError("minimum-distance constraints unsatisfiable within retry budget")


def build_topology(rng, n_bs: int, hex_radius: float,
                   n_ul_per_bs: int, n_dl_per_bs: int,
                   ue_drop_radius: float = 40.0,
                   min_bs_bs: float = 40.0, min_bs_ue: float = 10.0,
                   min_ue_ue: float = 3.0) -> Topology:
    """Random drop: BSs uniform in the hexagon, UEs uniform in a disc around
    their serving BS, all Table-style minimum distances enforced."""
    if not min_bs_ue < ue_drop_radius:
        raise TopologyError(f"min_bs_ue ({min_bs_ue}) must be below "
                            f"ue_drop_radius ({ue_drop_radius})")
    rng = np.random.default_rng(rng)
    # Each point is placed against the ones placed before it, read as a
    # prefix of the array being filled.
    bs = np.empty((n_bs, 2))
    for i in range(n_bs):
        bs[i] = _place_with_min_dist(rng, lambda: sample_hexagon(rng, hex_radius, 1)[0],
                                     [bs[:i]], [min_bs_bs])

    def draw_ue(center):
        def one():
            while True:
                q = rng.uniform(-ue_drop_radius, ue_drop_radius, size=2)
                r = math.hypot(*q)
                if min_bs_ue <= r <= ue_drop_radius:
                    return center + q
        return one

    n_ue = n_ul_per_bs + n_dl_per_bs
    ues = np.empty((n_bs, n_ue, 2))
    placed = ues.reshape(-1, 2)                 # cell-major, a view of ues
    for i in range(len(placed)):
        placed[i] = _place_with_min_dist(rng, draw_ue(bs[i // n_ue]), [bs, placed[:i]],
                                         [min_bs_ue, min_ue_ue])
    return Topology(bs_positions=bs,
                    ul_ue_positions=ues[:, :n_ul_per_bs],
                    dl_ue_positions=ues[:, n_ul_per_bs:])


def draw_cn(rng: np.random.Generator, shape, out=None) -> np.ndarray:
    """i.i.d. circularly-symmetric CN(0,1) samples: one call draws the real
    and imaginary parts side by side, viewed in place as complex.  ``out``,
    a C-contiguous float array of shape (*shape, 2), receives the draws
    (the same values as without it)."""
    x = rng.standard_normal((*np.atleast_1d(shape), 2), out=out)
    x *= math.sqrt(0.5)
    return x.view(np.complex128)[..., 0]


def trial_rng(seed, trial: int) -> np.random.Generator:
    """Independent, reproducible stream for one Monte Carlo trial.

    seed may be an integer or a SeedSequence; the stream depends only on
    (seed, trial), never on scheduling.
    """
    if isinstance(seed, np.random.SeedSequence):
        ss = np.random.SeedSequence(entropy=seed.entropy,
                                    spawn_key=seed.spawn_key + (trial,))
    else:
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(trial,))
    return np.random.default_rng(ss)
