"""The control-variate estimator: exact control means, cross-fitting, and
the calibration of its stderr."""

import math

import numpy as np
import pytest
from scipy import integrate, special

from fdmimo import ScenarioParams, expand_homogeneous, profile_from_topology
from fdmimo.crossfit import accumulate, crossfit
from fdmimo.rates import (_control_means, _digamma, _ein_gamma_mean, _mc_rates,
                          _TrialSampler)
from fdmimo.scenario import drop_topology

from reference import kernel_trials

MODES = [(system, csi) for system in ("fd", "tdd") for csi in ("perfect", "imperfect")]


def drop_profile():
    """A three-cell small-cell drop: gains spread over ten decades, from
    1e-4 self-interference down to 1e-16 BS-BS."""
    params = ScenarioParams(n_bs=3, n_ul_hd=2, n_dl_hd=2)
    topo = drop_topology(params, np.random.default_rng(1))
    profile = profile_from_topology(params, topo, np.random.default_rng(2))
    return profile, params.system_config(M=20, kappa_db=-60.0)


def test_digamma_series_meets_harmonic_sum():
    """Both branches of psi(n): the harmonic sum and, from n = 64 on, the
    asymptotic series, which must agree where they meet."""
    assert _digamma(1) == -np.euler_gamma
    assert _digamma(2) == pytest.approx(1 - np.euler_gamma, rel=1e-15)
    for n in (64, 65, 300):
        harmonic = -np.euler_gamma + math.fsum(1.0 / i for i in range(1, n))
        assert _digamma(n) == pytest.approx(harmonic, rel=1e-14)
    assert _digamma(10 ** 6) == pytest.approx(math.log(10 ** 6) - 5e-7, rel=1e-15)


@pytest.mark.parametrize("system,csi", MODES)
@pytest.mark.parametrize("case", ["paper", "mixed-M3", "drop-M20", "drop-M100"])
def test_control_means_match_plain_averages(case, system, csi, small_profile,
                                            small_config, paper_homogeneous):
    """Every closed-form control mean against a plain Monte Carlo average of
    its control, within 4.5 stderr, for every user: on the paper's
    seven-cell config, on a mixed FD/HD profile at M = 3, below the number
    of each BS's precoders (K_d = 4), and on a small-cell drop at M = 20 and
    M = 100, whose estimation gain ratios kappa span 10 to 2e5.  With
    estimated CSI the downlink's first control mean is the interference of
    dl_rates_fd_imperfect, so this is also a two-sided moment check of
    Proposition 2's downlink; its second, E log|own - Emu|^2, checks the
    law of the own gain that the mean is derived from."""
    if case == "paper":
        prof = expand_homogeneous(paper_homogeneous)
        cfg, trials = paper_homogeneous.system_config(), 3200
    elif case == "mixed-M3":
        prof, cfg, trials = small_profile, small_config.replace(M=3), 9600
    else:
        prof, cfg = drop_profile()
        cfg, trials = cfg.replace(M=int(case[6:])), 6400
    sampler = _TrialSampler(prof, cfg, csi == "imperfect", system == "tdd")
    runs = kernel_trials(sampler.draw, prof, cfg, csi, trials, [41, len(case)])
    for link, (_, x), mu in zip(("ul", "dl"), runs, _control_means(prof, cfg, system, sampler.st)):
        assert x.shape[1:] == mu.shape
        z = (x.mean(axis=0) - mu) / (x.std(axis=0, ddof=1) / math.sqrt(trials))
        assert np.abs(z).max() < 4.5, f"{link}: max |z| {np.abs(z).max():.2f}"


def ein_gamma_mean_oracle(M, kappa):
    """E Ein(kappa (X - M)^2 / X) over X ~ Gamma(M) by adaptive quadrature,
    split at X = M and at the dip's edges M +- sqrt(M / kappa)."""
    def f(x):
        y = kappa * (x - M) ** 2 / x
        ein = y - y * y / 4 if y < 1e-6 else np.euler_gamma + math.log(y) + special.exp1(y)
        return ein * math.exp((M - 1) * math.log(x) - x - math.lgamma(M))
    d = math.sqrt(M / kappa)
    edges = [0.0, max(M - d, M / 2), M, M + d, M + 60 * math.sqrt(M) + 60]
    return math.fsum(integrate.quad(f, a, b, limit=500, epsabs=1e-14, epsrel=1e-13)[0]
                     for a, b in zip(edges, edges[1:]) if b > a)


@pytest.mark.parametrize("M", [1, 3, 20, 100, 300])
def test_ein_gamma_mean_meets_quadrature(M):
    """The downlink spread control's numeric part, a trapezoid rule in
    ln x on shared nodes, against scipy's adaptive quadrature with exp1,
    to 1e-9 for kappa from 1e-6 to 1e6, all in one call as in a drop."""
    kappa = np.logspace(-6, 6, 25)
    want = np.array([ein_gamma_mean_oracle(M, k) for k in kappa])
    got = _ein_gamma_mean(M, kappa)
    assert got.shape == kappa.shape
    assert np.abs(got - want).max() < 1e-9
    assert _ein_gamma_mean(M, kappa[12:13])[0] == pytest.approx(want[12], abs=1e-9)


def test_crossfit_recovers_a_linear_model():
    """On y = 2 + 3 x + noise with E x = 0 known, the estimate has the
    noise's stderr, not y's; a zero and a duplicated control get b = 0, and
    fewer than two trials per parameter fall back to the plain mean."""
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4000, 1))
    y = 2.0 + 3.0 * x[:, 0] + 0.1 * rng.standard_normal(4000)
    z = np.concatenate([x, np.zeros_like(x), x, y[:, None]], axis=1)   # (n, 4)
    mean, se = crossfit(accumulate(None, z))
    assert mean == pytest.approx(2.0, abs=5 * se)
    assert se == pytest.approx(0.1 / math.sqrt(4000), rel=0.1)
    mean, se = crossfit(accumulate(None, z[:7]))
    assert mean == pytest.approx(y[:7].mean(), rel=1e-12)
    assert se == pytest.approx(y[:7].std(ddof=1) / math.sqrt(7), rel=0.1)


CALIBRATION = [("small", "fd", "perfect"), ("small", "tdd", "imperfect"),
               ("drop", "fd", "imperfect"), ("drop", "tdd", "imperfect")]


@pytest.mark.parametrize("case,system,csi", CALIBRATION)
def test_crossfit_is_calibrated_and_unbiased(case, system, csi, small_profile,
                                             small_config):
    """Over 200 seeds of 64-trial runs, the benchmark's op size: the spread
    of each user's estimate matches its mean reported stderr within 15% in
    the median user of each link, and the mean per-cell totals match a
    plain Monte Carlo average within 4 joint stderr."""
    prof, cfg = (small_profile, small_config) if case == "small" else drop_profile()
    seeds, trials = 200, 64
    reps = [_mc_rates(prof, cfg, system, csi, trials, [59, s]) for s in range(seeds)]
    sampler = _TrialSampler(prof, cfg, csi == "imperfect", system == "tdd")
    plain = kernel_trials(sampler.draw, prof, cfg, csi, seeds * trials, [60])
    links = [("ul", "ul_rates", "ul_stderr")]
    if not (system == "fd" and csi == "imperfect"):       # else analytic
        links.append(("dl", "dl_rates", "dl_stderr"))
    for (link, rates, stderr), (y, _) in zip(links, plain):
        est = np.array([getattr(r, rates) for r in reps])             # (seeds, L, K)
        se = np.array([getattr(r, stderr) for r in reps])
        ratio = np.median(est.std(axis=0, ddof=1) / se.mean(axis=0))
        assert abs(ratio - 1) <= 0.15, f"{link}: spread / stderr {ratio:.3f}"
        cv, mc = est.sum(axis=2), y.sum(axis=2)                       # cell totals
        z = (cv.mean(axis=0) - mc.mean(axis=0)) / np.hypot(
            cv.std(axis=0, ddof=1) / math.sqrt(seeds),
            mc.std(axis=0, ddof=1) / math.sqrt(len(mc)))
        assert np.abs(z).max() <= 4, f"{link}: max |z| {np.abs(z).max():.2f}"
