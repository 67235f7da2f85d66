from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from fdmimo import HomogeneousConfig, LargeScaleProfile, SystemConfig
from fdmimo import rates


def in_fresh_thread(fn):
    """fn() in a new thread, whose Monte Carlo scratch pool starts empty."""
    with ThreadPoolExecutor(max_workers=1) as ex:
        return ex.submit(fn).result(timeout=300)


def pool_bytes():
    """Bytes held by the calling thread's Monte Carlo scratch pool."""
    return sum(b.nbytes for b in rates._pool.bufs)


def random_profile(rng, L=3, K_f=1, K_h_u=1, K_h_d=1):
    """Random positive large-scale profile with the full-duplex ties applied.

    FD users' cross-cell downlink gains are copied from the uplink ones: an FD
    user's two directions share one physical location, so equal large-scale
    gains are the physically consistent choice.
    """
    K_u, K_d = K_f + K_h_u, K_f + K_h_d
    bu = rng.uniform(0.05, 2.0, (L, L, K_u))
    bd = rng.uniform(0.05, 2.0, (L, L, K_d))
    bd[:, :, :K_f] = bu[:, :, :K_f]
    bb = rng.uniform(0.02, 0.8, (L, L))
    bI = rng.uniform(0.005, 0.3, (L, K_d, L, K_u))
    return LargeScaleProfile(beta_u=bu, beta_d=bd, beta_b=bb, beta_I=bI, K_f=K_f)


def random_config(rng, profile, M):
    return SystemConfig(
        L=profile.L, M=M, K_f=profile.K_f,
        K_h_u=profile.K_u - profile.K_f, K_h_d=profile.K_d - profile.K_f,
        P_u=float(10 ** rng.uniform(-1, 1)),
        P_d=float(10 ** rng.uniform(-1, 1.5)),
        P_tr=float(10 ** rng.uniform(-1, 1)),
        kappa=float(10 ** rng.uniform(-6, -2)),
        sigma2=1.0, T=196)


def uniform_mixed_profile(L=3, K_f=2, K_h_u=1, K_h_d=2, beta=0.3):
    """Uniform-gain profile (1 same-cell, beta cross-cell) with a mix of FD
    and HD users, for asymptotic checks with nontrivial gain limits."""
    K_u, K_d = K_f + K_h_u, K_f + K_h_d
    off = np.full((L, L), beta)
    np.fill_diagonal(off, 1.0)
    bu = np.repeat(off[:, :, None], K_u, axis=2)
    bd = np.repeat(off[:, :, None], K_d, axis=2)
    bI = np.repeat(np.repeat(off[:, None, :, None], K_d, axis=1), K_u, axis=3)
    return LargeScaleProfile(beta_u=bu, beta_d=bd, beta_b=off.copy(),
                             beta_I=bI, K_f=K_f)


@pytest.fixture
def paper_homogeneous():
    """The seven-cell benchmark configuration: K = 5 FD users per cell,
    cross-cell gain 0.3, 10/20/10 dB powers, kappa = -50 dB, T = 196."""
    return HomogeneousConfig(L=7, K=5, beta=0.3, M=64, P_u=10.0, P_d=100.0,
                             P_tr=10.0, kappa=1e-5, T=196)


@pytest.fixture
def small_profile():
    rng = np.random.default_rng(7)
    return random_profile(rng, L=3, K_f=2, K_h_u=1, K_h_d=2)


@pytest.fixture
def small_config(small_profile):
    return SystemConfig(L=3, M=16, K_f=2, K_h_u=1, K_h_d=2, P_u=10.0,
                        P_d=100.0, P_tr=10.0, kappa=1e-5, sigma2=1.0, T=196)
