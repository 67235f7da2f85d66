import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from fdmimo import (PathlossModel, TopologyError, build_topology,
                    compose_large_scale, sample_hexagon, trial_rng)
from fdmimo.channel import _in_hexagon, draw_cn

from conftest import random_profile
from reference import realize_channels


# ---------------------------------------------------------------------------
# Pathloss
# ---------------------------------------------------------------------------

def test_pathloss_hand_value():
    pl = PathlossModel(A=30.6, B=36.7)
    # at d = 10 m: loss = 30.6 + 36.7 = 67.3 dB
    assert compose_large_scale(pl, 10.0) == pytest.approx(10 ** (-6.73))


def test_pathloss_gain_shadow_extra():
    pl = PathlossModel(A=40.0, B=20.0, extra_loss=3.0)
    g = compose_large_scale(pl, 100.0, shadow_draw=5.0, antenna_gain=10.0)
    # -(40 + 40) + 10 - 3 + 5 = -68 dB
    assert g == pytest.approx(10 ** (-6.8))


def test_pathloss_rejects_bad_inputs():
    with pytest.raises(ValueError):
        PathlossModel(A=1.0, B=0.0)
    with pytest.raises(ValueError):
        compose_large_scale(PathlossModel(A=1.0, B=1.0), 0.0)


@given(st.floats(min_value=1.0, max_value=1e4),
       st.floats(min_value=1.0, max_value=1e4))
@settings(max_examples=50, deadline=None)
def test_pathloss_monotone_in_distance(d1, d2):
    pl = PathlossModel(A=30.6, B=36.7)
    g1, g2 = compose_large_scale(pl, d1), compose_large_scale(pl, d2)
    assert (d1 <= d2) == (g1 >= g2) or math.isclose(g1, g2)


# ---------------------------------------------------------------------------
# Hexagon sampling and topology
# ---------------------------------------------------------------------------

def test_hexagon_membership_vertices():
    R = 10.0
    inside = np.array([[0, 0], [0, 0.99 * R], [0.99 * R * math.sqrt(3) / 2, 0]])
    outside = np.array([[0, 1.01 * R], [R, R], [0.9 * R, 0.9 * R]])
    assert _in_hexagon(inside, R).all()
    assert not _in_hexagon(outside, R).any()


def test_sample_hexagon_inside():
    pts = sample_hexagon(np.random.default_rng(0), 300.0, 5000)
    assert pts.shape == (5000, 2)
    assert _in_hexagon(pts, 300.0).all()


def test_sample_hexagon_uniform_chi2():
    """Sextant x (inner/outer) occupancy of a uniform hexagon draw."""
    R = 1.0
    pts = sample_hexagon(np.random.default_rng(1234), R, 24000)
    sextant = (np.floor(np.arctan2(pts[:, 1], pts[:, 0]) / (np.pi / 3))
               .astype(int) % 6)
    inner = _in_hexagon(pts, R / 2)            # area fraction 1/4
    cat = sextant * 2 + inner
    counts = np.bincount(cat, minlength=12)
    expect = np.tile([len(pts) * 3 / 24, len(pts) / 24], 6)
    p = stats.chisquare(counts, expect).pvalue
    assert p > 1e-3


def test_build_topology_constraints():
    topo = build_topology(np.random.default_rng(3), n_bs=12, hex_radius=300.0,
                          n_ul_per_bs=5, n_dl_per_bs=5, ue_drop_radius=40.0,
                          min_bs_bs=40.0, min_bs_ue=10.0, min_ue_ue=3.0)
    bs = topo.bs_positions
    assert _in_hexagon(bs, 300.0).all()
    d_bs = np.linalg.norm(bs[:, None] - bs[None], axis=2)
    assert (d_bs[~np.eye(12, dtype=bool)] >= 40.0).all()
    ue = np.concatenate([topo.ul_ue_positions.reshape(-1, 2),
                         topo.dl_ue_positions.reshape(-1, 2)])
    d_bu = np.linalg.norm(bs[:, None] - ue[None], axis=2)
    assert (d_bu >= 10.0).all()
    d_uu = np.linalg.norm(ue[:, None] - ue[None], axis=2)
    assert (d_uu[~np.eye(len(ue), dtype=bool)] >= 3.0).all()
    # every UE within the drop radius of its serving BS
    for j in range(12):
        for p in np.concatenate([topo.ul_ue_positions[j], topo.dl_ue_positions[j]]):
            assert np.linalg.norm(p - bs[j]) <= 40.0 + 1e-9


def test_build_topology_infeasible_raises():
    with pytest.raises(TopologyError):
        build_topology(np.random.default_rng(0), n_bs=50, hex_radius=10.0,
                       n_ul_per_bs=0, n_dl_per_bs=0, min_bs_bs=40.0)


# ---------------------------------------------------------------------------
# Small-scale realizations
# ---------------------------------------------------------------------------

def test_draw_cn_moments():
    z = draw_cn(np.random.default_rng(5), 200_000)
    assert abs(z.mean()) < 0.01
    assert np.mean(np.abs(z) ** 2) == pytest.approx(1.0, abs=0.01)
    assert abs(np.mean(z ** 2)) < 0.01          # circular symmetry


def test_realize_channels_shapes_and_reciprocity():
    prof = random_profile(np.random.default_rng(2), L=3, K_f=2, K_h_u=1, K_h_d=2)
    real = realize_channels(prof, 11, M=8)
    assert real.G_u.shape == (3, 3, 8, 3)
    assert real.G_d.shape == (3, 3, 8, 4)
    assert real.V.shape == (3, 3, 8, 8)
    assert real.F.shape == (3, 4, 3, 3)
    # one channel per FD user and BS; the HD columns are independent draws
    np.testing.assert_array_equal(real.G_d[..., :2], real.G_u[..., :2])
    assert not np.array_equal(real.G_d[..., 2], real.G_u[..., 2])


def test_realize_channels_variances():
    prof = random_profile(np.random.default_rng(4), L=2, K_f=1, K_h_u=1, K_h_d=1)
    acc = np.zeros((2, 2, 2))
    trials = 300
    for t in range(trials):
        real = realize_channels(prof, trial_rng(9, t), M=32)
        acc += np.mean(np.abs(real.G_u) ** 2, axis=2)
    emp = acc / trials
    np.testing.assert_allclose(emp, prof.beta_u, rtol=0.05)


def test_trial_rng_deterministic_and_distinct():
    a = trial_rng(42, 0).standard_normal(4)
    b = trial_rng(42, 0).standard_normal(4)
    c = trial_rng(42, 1).standard_normal(4)
    d = trial_rng(43, 0).standard_normal(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_trial_rng_accepts_seedsequence():
    ss = np.random.SeedSequence(entropy=5, spawn_key=(2,))
    a = trial_rng(ss, 3).standard_normal(4)
    b = trial_rng(ss, 3).standard_normal(4)
    np.testing.assert_array_equal(a, b)


class _NoDraws(np.random.Generator):
    """A generator that fails on the first draw, so a sampling loop that
    cannot end fails instead of hanging."""

    def uniform(self, *args, **kwargs):
        raise AssertionError("drew from the generator")


@pytest.mark.parametrize("min_bs_ue", [40.0, 50.0])
def test_empty_ue_annulus_raises_before_drawing(min_bs_ue):
    with pytest.raises(TopologyError, match="min_bs_ue"):
        build_topology(_NoDraws(np.random.PCG64(0)), n_bs=12, hex_radius=300.0,
                       n_ul_per_bs=5, n_dl_per_bs=5, ue_drop_radius=40.0,
                       min_bs_ue=min_bs_ue)
