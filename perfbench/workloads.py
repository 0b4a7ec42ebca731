"""The three benchmark workloads: ``link``, ``roc`` and ``analysis``.

Each workload is one adapter function that turns a parameter set and a seed
into a :class:`Session`.  The adapter does the set-up (configuration, pilot,
first untimed item and its checks) and returns a ``call`` that runs one timed
call, checks its output and returns the raw numbers its quality summary
needs.  The adapters reach ``afdm_isac`` only through module attributes
(``channel.sample_channel(...)``) and only through names in each module's
``__all__``, so that

* the tracer, which rebinds those attributes, sees every call, and
* a later change to the library API needs an edit in one adapter only.

A call that raises ``AfdmError``, returns a non-finite value or fails its
output check counts as failed; the runner catches :class:`CheckFailed` and
``AfdmError``, anything else is a bug and ends the run.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import afdm_isac.analysis as analysis
import afdm_isac.channel as channel
import afdm_isac.estimator as estimator
import afdm_isac.modem as modem
import afdm_isac.pilots as pilots
import afdm_isac.sensing as sensing

# The package binds the name ``daft`` to the transform, so fetch the module.
daft = importlib.import_module("afdm_isac.daft")

# Noise power of every workload; signal powers are set relative to it.
NOISE_POWER = 1.0


class CheckFailed(Exception):
    """An output check of the benchmark failed."""


def require(condition: bool, what: str) -> None:
    if not condition:
        raise CheckFailed(what)


@dataclass
class Session:
    """A set-up workload.

    ``call`` runs one timed call and returns its raw outcome; ``quality``
    turns the outcomes of the first ``quality_calls`` successful calls into
    the workload's quality metrics, so they repeat exactly under a fixed
    seed however many calls a run makes.
    """

    items_per_call: int
    quality_calls: int
    call: Callable[[], dict]
    quality: Callable[[list], dict]


def _config(n_sub: int, n_cpp: int, nu_m: int) -> daft.AfdmConfig:
    c1, _ = pilots.select_c1_q(nu_m, daft.AfdmConfig(n_sub=n_sub))
    return daft.AfdmConfig(n_sub=n_sub, n_cpp=n_cpp, c1=c1)


def _finite(*arrays) -> bool:
    return all(np.all(np.isfinite(a)) for a in arrays)


# ---------------------------------------------------------------------------
# link: superimposed-pilot frame -> channel -> iterative estimate -> bits


@dataclass(frozen=True)
class LinkParams:
    n_sub: int = 512
    n_cpp: int = 16
    tau_m: int = 8
    nu_m: int = 2
    n_paths: int = 4
    data_snr_db: float = 15.0
    n_iter: int = 2
    quality_calls: int = 20


def link(p: LinkParams, seed: int) -> Session:
    """One item is one frame: QPSK data plus the proposed pilot at equal total
    power, ``n_paths`` Rayleigh paths on the (tau_m, nu_m) integer grid,
    ``iterative_estimate`` and a final ``equalize_demod``."""
    rng = np.random.default_rng(seed)
    cfg = _config(p.n_sub, p.n_cpp, p.nu_m)
    grid = channel.basis_grid(p.tau_m, p.nu_m)
    sd2 = 10.0 ** (p.data_snr_db / 10.0) * NOISE_POWER
    spec = modem.FrameSpec(p.n_sub * sd2, sd2, modem.Constellation.QPSK)
    x_p = pilots.proposed_pilot(cfg, spec.pilot_power)

    def true_gains(real) -> np.ndarray:
        alpha = np.zeros(len(grid), dtype=np.complex128)
        for path in real.paths:
            alpha[grid.index_of(path.delay, int(path.doppler))] = path.gain
        return alpha

    def receive(real):
        bits, x_d = modem.random_data_vector(cfg.n_sub, spec, rng)
        s_cpp = daft.add_cpp(daft.idaft(x_p + x_d, cfg), cfg)
        r = channel.apply_channel_time(s_cpp, real, cfg, rng)
        y = daft.daft(daft.remove_cpp(r, cfg), cfg)
        est = estimator.iterative_estimate(
            y, x_p, spec, grid, cfg, NOISE_POWER, n_iter=p.n_iter
        )
        return bits, y, est

    # First untimed item: a noiseless frame through one unit-gain path at a
    # random grid point must decode without bit errors, and the estimator
    # must keep that path.  It is one path because noiseless multipath
    # frames do not always decode: a weak Rayleigh path can fall under the
    # 3-sigma threshold, and ``equalize_demod`` solves the normal equations,
    # which squares the condition number of a near-singular channel.
    pick = int(rng.integers(len(grid)))
    tau, nu = grid.pairs[pick]
    gain = complex(np.exp(2j * np.pi * rng.uniform()))
    clean = channel.ChannelRealization(
        (channel.ChannelPath(gain, tau, float(nu)),), 0.0, p.tau_m, p.nu_m
    )
    bits, y, est = receive(clean)
    _, bits_hat = estimator.equalize_demod(y, est.h_eff_hat, x_p, spec, NOISE_POWER)
    require(np.array_equal(bits_hat, bits), "noiseless frame decodes with bit errors")
    require(est.indicator[pick] == 1, "noiseless frame loses its path")

    def call() -> dict:
        real = channel.sample_channel(p.n_paths, p.tau_m, p.nu_m, rng, NOISE_POWER)
        bits, y, est = receive(real)
        _, bits_hat = estimator.equalize_demod(y, est.h_eff_hat, x_p, spec, NOISE_POWER)
        require(est.alpha_hat.shape == (len(grid),), "alpha_hat has the wrong length")
        require(bits_hat.shape == bits.shape, "decoded bits have the wrong length")
        require(_finite(est.alpha_hat, est.h_eff_hat), "non-finite channel estimate")
        alpha = true_gains(real)
        kept = est.indicator.astype(bool)
        return {
            "bit_errors": int(np.count_nonzero(bits_hat != bits)),
            "bits": int(bits.size),
            "gain_err": float(np.linalg.norm(est.alpha_hat * est.indicator - alpha) ** 2),
            "gain_power": float(np.linalg.norm(alpha) ** 2),
            "true_paths": int(np.count_nonzero(alpha)),
            "kept_paths": int(np.count_nonzero(kept)),
            "hits": int(np.count_nonzero(kept & (alpha != 0))),
        }

    def quality(outcomes: list) -> dict:
        total = {k: sum(o[k] for o in outcomes) for k in outcomes[0]}
        return {
            "ber": total["bit_errors"] / total["bits"],
            "gain_nmse_db": 10.0 * math.log10(total["gain_err"] / total["gain_power"]),
            "support_recall": total["hits"] / total["true_paths"],
            "support_precision": total["hits"] / max(total["kept_paths"], 1),
        }

    return Session(1, p.quality_calls, call, quality)


# ---------------------------------------------------------------------------
# roc: detection Monte Carlo through the sensing chain


@dataclass(frozen=True)
class RocParams:
    n_sub: int = 256
    n_cpp: int = 16
    tau_m: int = 15
    nu_m: int = 3
    receive_snr_db: float = -10.0
    n_thresholds: int = 40
    chunk: int = 100
    quality_calls: int = 5


def roc(p: RocParams, seed: int) -> Session:
    """One item is one detection trial; one call is ``roc_curve`` over a chunk
    of trials against a single fractional-delay, fractional-Doppler target
    at the given receive SNR, with the proposed pilot at equal total power."""
    rng = np.random.default_rng(seed)
    cfg = _config(p.n_sub, p.n_cpp, p.nu_m)
    spec = modem.FrameSpec(float(p.n_sub), 1.0, modem.Constellation.QPSK)
    scenario = sensing.SensingScenario(
        cfg=cfg,
        frame_spec=spec,
        pilot=pilots.PilotScheme("proposed", spec.pilot_power),
        tau_m=p.tau_m,
        nu_m=p.nu_m,
        receive_snr_db=p.receive_snr_db,
        noise_power=NOISE_POWER,
    )
    gammas = np.logspace(0.0, 3.0, p.n_thresholds)

    def call() -> dict:
        curve = sensing.roc_curve(scenario, gammas, p.chunk, rng)
        pfa, pd = curve[:, 1], curve[:, 2]
        require(_finite(curve), "non-finite ROC curve")
        require(np.all(np.diff(pfa) <= 0) and np.all(np.diff(pd) <= 0),
                "Pfa or Pd rises with the threshold")
        require(pfa[0] == 1.0, "Pfa is below 1 at the smallest threshold")
        return {"curve": curve}

    def quality(outcomes: list) -> dict:
        pooled = np.mean([o["curve"] for o in outcomes], axis=0)
        return {
            "pd_at_pfa_0.01": float(sensing.pd_at_pfa(pooled, [0.01])[0]),
            # at gamma = 1 every argmax statistic exceeds the threshold, so
            # Pd there is the share of trials whose argmax lands on the target
            "argmax_hit_ratio": float(pooled[0, 2]),
        }

    session = Session(p.chunk, p.quality_calls, call, quality)
    session.call()  # first untimed item
    return session


# ---------------------------------------------------------------------------
# analysis: theorem checks, bounds and ambiguity statistics


@dataclass(frozen=True)
class AnalysisParams:
    n_sub: int = 1024
    tau_m: int = 8
    nu_m: int = 2
    # Pilot power as a share of the total data power.  Theorem 2's Monte
    # Carlo inequality (QPSK origin variance below 16-QAM's, 500 frames)
    # failed on 14 of 400 seeds at an equal split and on none at 1/4 (N=256).
    pilot_share: float = 0.25
    mc_frames: int = 500
    crb_draws: int = 2000
    target_delay: float = 3.3
    target_doppler: float = 0.7
    quality_calls: int = 4


AMBIGUITY_POINTS = ((0, 0), (1, 0), (0, 1), (3, 2))


def analysis_report(p: AnalysisParams, seed: int) -> Session:
    """One item is one report: Theorem 2 with Monte Carlo, Theorem 4 on the
    integer basis, CRB and sensing weights of the frame's power profile, the
    CRB distribution under random allocations, and ambiguity moments at
    four points."""
    rng = np.random.default_rng(seed)
    cfg = _config(p.n_sub, 0, p.nu_m)
    data_power = float(p.n_sub)
    spec = modem.FrameSpec(p.pilot_share * data_power, 1.0, modem.Constellation.QPSK)
    x_p = pilots.proposed_pilot(cfg, spec.pilot_power)
    pairs = channel.basis_grid(p.tau_m, p.nu_m).pairs
    target = channel.SensingTarget(1.0 + 0.0j, p.target_delay, p.target_doppler, NOISE_POWER)
    power = analysis.frame_power_profile(x_p, spec.data_symbol_power)
    _, closed_var = analysis.af_statistics_closed_form(spec, cfg, at_origin=True)

    def call() -> dict:
        t2 = analysis.verify_theorem_2(
            cfg, spec.pilot_power, data_power, n_frames=p.mc_frames, rng=rng, x_pilot=x_p
        )
        t4 = analysis.verify_theorem_4(x_p, cfg, pairs)
        bounds = analysis.crb(power, target, cfg)
        weights = analysis.sensing_weights(power, target, cfg)
        dist = analysis.crb_distribution(cfg, target, power.total, p.crb_draws, rng)
        mc = analysis.ambiguity_moments_mc(x_p, spec, cfg, AMBIGUITY_POINTS, p.mc_frames, rng)
        require(t2.passed, "Theorem 2 check failed")
        require(t4.passed, "Theorem 4 check failed")
        require(_finite(bounds.crb_tau, bounds.crb_nu, bounds.fim, weights, dist["values"]),
                "non-finite CRB or sensing weights")
        require(_finite(mc["mean"], mc["variance"]), "non-finite ambiguity moments")
        return {"origin_var": float(mc["variance"][0])}

    def quality(outcomes: list) -> dict:
        mc_var = float(np.mean([o["origin_var"] for o in outcomes]))
        return {"amb_var_rel_err": abs(mc_var - closed_var) / closed_var}

    session = Session(1, p.quality_calls, call, quality)
    session.call()  # first untimed item
    return session


WORKLOADS = {
    "link": (link, LinkParams()),
    "roc": (roc, RocParams()),
    "analysis": (analysis_report, AnalysisParams()),
}
