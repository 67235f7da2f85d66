"""3GPP-style small-cell evaluation scenario.

Defaults mirror the simulation-parameter table of the study this package
reproduces: twelve full-duplex small-cell BSs dropped in a 300 m hexagon,
five half-duplex uplink and five half-duplex downlink UEs per BS within 40 m,
24 dBm BS power, 23 dBm UE power, 20 MHz bandwidth, T = 196.

The BS-UE / UE-UE / BS-BS pathloss constants follow 3GPP TR 36.828-style
small-cell models (loss_dB = A + B log10(d_m), constants below are the
per-meter form of the usual per-km numbers).  They are configuration data,
not hard-coded behavior: the source material delegates them to an external
reference, so treat them as calibration inputs.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

import numpy as np

from .channel import PathlossModel, Topology, build_topology, compose_large_scale
from .config import LargeScaleProfile, SystemConfig, dbm_to_watt
from .rates import RateReport, fd_rates_mc, tdd_rates_mc

# TR 36.828-style defaults, distance in meters.
# pico BS -> UE (NLOS):  140.7 + 36.7 log10(d_km)
# UE -> UE:              145.4 + 37.5 log10(d_km)
# pico BS -> pico BS:    169.36 + 40.0 log10(d_km)
DEFAULT_PATHLOSS = {
    "bs_ue": PathlossModel(A=30.6, B=36.7, shadowing_std=10.0),
    "ue_ue": PathlossModel(A=32.9, B=37.5, shadowing_std=6.0),
    "bs_bs": PathlossModel(A=49.36, B=40.0, shadowing_std=12.0),
}


@dataclass(frozen=True)
class ScenarioParams:
    hex_radius: float = 300.0
    n_bs: int = 12
    ue_drop_radius: float = 40.0
    n_ul_hd: int = 5
    n_dl_hd: int = 5
    bs_power_dbm: float = 24.0
    ue_power_dbm: float = 23.0
    bs_antenna_gain_dbi: float = 5.0
    noise_density_dbm_hz: float = -174.0
    noise_figure_bs_db: float = 9.0
    noise_figure_ue_db: float = 5.0
    kappa_db_list: tuple = (-50.0, -60.0, -70.0, -80.0)
    M_list: tuple = (20, 50, 100, 300, 500)
    min_bs_bs: float = 40.0
    min_bs_ue: float = 10.0
    min_ue_ue: float = 3.0
    si_loss_db: float = 40.0          # BS self-interference isolation
    bandwidth_hz: float = 2.0e7
    T: int = 196
    pathloss: dict = field(default_factory=lambda: dict(DEFAULT_PATHLOSS))

    def noise_watt(self, figure_db: float) -> float:
        n_dbm = self.noise_density_dbm_hz + 10 * np.log10(self.bandwidth_hz) + figure_db
        return float(dbm_to_watt(n_dbm))

    def system_config(self, M: int, kappa_db: float) -> SystemConfig:
        return SystemConfig(
            L=self.n_bs, M=M, K_f=0, K_h_u=self.n_ul_hd, K_h_d=self.n_dl_hd,
            P_u=float(dbm_to_watt(self.ue_power_dbm)),
            P_d=float(dbm_to_watt(self.bs_power_dbm)),
            P_tr=float(dbm_to_watt(self.ue_power_dbm)),
            kappa=10.0 ** (kappa_db / 10.0),
            sigma2=self.noise_watt(self.noise_figure_bs_db),
            sigma2_dl=self.noise_watt(self.noise_figure_ue_db),
            T=self.T,
        )

    def as_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["pathloss"] = {k: dataclasses.asdict(v) for k, v in self.pathloss.items()}
        return d


def _object(raw, allowed, what: str) -> dict:
    """A copy of the JSON object ``raw``; a ValueError names any key outside
    ``allowed``."""
    if not isinstance(raw, dict):
        raise ValueError(f"{what} must be a JSON object, got {raw!r}")
    unknown = sorted(set(raw) - set(allowed))
    if unknown:
        raise ValueError(f"unknown {what} keys: {', '.join(unknown)}")
    return dict(raw)


def scenario_params_from_dict(raw: dict) -> ScenarioParams:
    """Scenario parameters from a JSON object.  Absent fields and absent
    pathloss classes keep their defaults; unknown ones raise ValueError."""
    raw = _object(raw, {f.name for f in dataclasses.fields(ScenarioParams)}, "scenario")
    pathloss = dict(DEFAULT_PATHLOSS)
    for k, v in _object(raw.get("pathloss", {}), DEFAULT_PATHLOSS, "pathloss").items():
        try:
            pathloss[k] = PathlossModel(**v)
        except TypeError as exc:                 # a field unknown or missing
            raise ValueError(f"pathloss {k!r}: {exc}") from None
    raw["pathloss"] = pathloss
    for key in ("kappa_db_list", "M_list"):
        if key in raw:
            raw[key] = tuple(raw[key])
    return ScenarioParams(**raw)


def load_scenario(path) -> ScenarioParams:
    with open(path) as fh:
        return scenario_params_from_dict(json.load(fh))


def drop_topology(params: ScenarioParams, rng) -> Topology:
    return build_topology(rng, n_bs=params.n_bs, hex_radius=params.hex_radius,
                          n_ul_per_bs=params.n_ul_hd, n_dl_per_bs=params.n_dl_hd,
                          ue_drop_radius=params.ue_drop_radius,
                          min_bs_bs=params.min_bs_bs, min_bs_ue=params.min_bs_ue,
                          min_ue_ue=params.min_ue_ue)


def _link_gains(pl: PathlossModel, a: np.ndarray, b: np.ndarray, rng,
                gain_dbi: float) -> np.ndarray:
    """Gains for all pairs of points in a (..., 2) x (..., 2); independent
    log-normal shadowing per link."""
    d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    shadow = rng.normal(0.0, pl.shadowing_std, size=d.shape)
    # zero distance marks a self link; its gain is overwritten by the caller
    self_link = d == 0.0
    gain = compose_large_scale(pl, np.where(self_link, 1.0, d), shadow, gain_dbi)
    return np.where(self_link, 0.0, gain)


def profile_from_topology(params: ScenarioParams, topo: Topology, rng) -> LargeScaleProfile:
    """Large-scale profile of one drop (all UEs half-duplex, K_f = 0)."""
    rng = np.random.default_rng(rng)
    L, n_ul, n_dl = topo.n_bs, params.n_ul_hd, params.n_dl_hd
    g_bs = params.bs_antenna_gain_dbi
    ul_flat = topo.ul_ue_positions.reshape(-1, 2)
    dl_flat = topo.dl_ue_positions.reshape(-1, 2)
    bu = _link_gains(params.pathloss["bs_ue"], topo.bs_positions, ul_flat,
                     rng, g_bs).reshape(L, L, n_ul)
    bd = _link_gains(params.pathloss["bs_ue"], topo.bs_positions, dl_flat,
                     rng, g_bs).reshape(L, L, n_dl)
    # BS-BS: one antenna-gain contribution per BS endpoint.
    bb = _link_gains(params.pathloss["bs_bs"], topo.bs_positions,
                     topo.bs_positions, rng, 2 * g_bs)
    np.fill_diagonal(bb, 10.0 ** (-params.si_loss_db / 10.0))
    bI = _link_gains(params.pathloss["ue_ue"], dl_flat, ul_flat, rng, 0.0)
    bI = bI.reshape(L, n_dl, L, n_ul)
    return LargeScaleProfile(beta_u=bu, beta_d=bd, beta_b=bb, beta_I=bI, K_f=0)


def run_drop(params: ScenarioParams, M: int, kappa_db: float, seed,
             trials: int = 200) -> tuple[RateReport, RateReport]:
    """One random drop: topology, large-scale gains, FD and TDD imperfect-CSI
    rates.  Deterministic in (params, M, kappa_db, seed)."""
    ss = np.random.SeedSequence(entropy=seed)
    topo_rng, shadow_rng, fd_seed, tdd_seed = ss.spawn(4)
    topo = drop_topology(params, np.random.default_rng(topo_rng))
    profile = profile_from_topology(params, topo, np.random.default_rng(shadow_rng))
    cfg = params.system_config(M=M, kappa_db=kappa_db)
    fd = fd_rates_mc(profile, cfg, trials, fd_seed, csi="imperfect")
    tdd = tdd_rates_mc(profile, cfg, "imperfect", trials, tdd_seed)
    return fd, tdd
