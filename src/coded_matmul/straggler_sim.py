"""Monte Carlo latency under the shifted-exponential straggler model.

A job split K ways runs on N workers; each worker grinds through subtasks
sequentially, one subtask costing T0/K plus an exponential tail of rate
lam*K.  The job finishes when R_th subtasks are done across all workers,
whichever workers they came from.  The estimator returns the mean of that
completion instant over independent trials, with its standard error.

Determinism contract: trial i draws from a PCG64 stream seeded by the pair
(seed, i), so results are bit-stable for a given config, early trials are
unchanged when the trial count grows, and trials could run in any order.
Streams are drawn in fixed blocks, so a trial's r-th pooled completion does
not depend on how many completions are asked of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class StragglerModel:
    """Shifted-exponential subtask time: T0/K + Exp(lam*K)."""

    T0: float
    lam: float
    K: int

    def __post_init__(self) -> None:
        if self.T0 < 0:
            raise ValueError(f"T0 must be >= 0, got {self.T0}")
        if self.lam <= 0:
            raise ValueError(f"lam must be > 0, got {self.lam}")
        if self.K < 1:
            raise ValueError(f"K must be >= 1, got {self.K}")


@dataclass(frozen=True)
class SimConfig:
    N: int
    R_th: int
    model: StragglerModel
    trials: int
    seed: int

    def __post_init__(self) -> None:
        if self.N < 1 or self.R_th < 1 or self.trials < 1:
            raise ValueError(f"N, R_th, trials must all be >= 1, got {self}")


@dataclass(frozen=True)
class LatencyEstimate:
    mean: float
    stderr: float
    trials: int


def sample_subtask_time(model: StragglerModel, rng: np.random.Generator) -> float:
    """One subtask completion time: the T0/K shift plus an Exp(lam*K) tail."""
    return model.T0 / model.K + rng.standard_exponential() / (model.lam * model.K)


def pooled_completions(
    N: int, R: int, T0: float, lam: float, rng: np.random.Generator
) -> np.ndarray:
    """The R earliest completion instants pooled over N workers at K = 1,
    ascending.  At level K a subtask costs (T0 + Exp/lam)/K, so each instant
    is divided by K.

    Each worker's subtask times are drawn in blocks of 4, 8, 16, ... columns
    whatever R is, so entry r - 1 does not depend on R.  Drawing stops once
    every worker's last drawn completion is at or past the R-th smallest one
    drawn, so no later completion can change the R earliest.
    """
    width = 4
    comp = np.cumsum(T0 + rng.standard_exponential((N, width)) / lam, axis=1)
    while True:
        if comp.size >= R:
            pooled = np.partition(comp.ravel(), R - 1)[:R]
            if comp[:, -1].min() >= pooled[-1]:
                return np.sort(pooled)
        width *= 2
        steps = T0 + rng.standard_exponential((N, width)) / lam
        comp = np.concatenate([comp, comp[:, -1:] + np.cumsum(steps, axis=1)], axis=1)


def completion_table(
    N: int, T0: float, lam: float, trials: int, seed: int, ranks: list[int]
) -> np.ndarray:
    """Row i, column j: trial i's ranks[j]-th pooled completion at K = 1.
    Trial i draws from PCG64(SeedSequence((seed, i))), up to the largest rank."""
    R, cols, out = max(ranks), np.asarray(ranks) - 1, np.empty((trials, len(ranks)))
    for i in range(trials):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, i))))
        out[i] = pooled_completions(N, R, T0, lam, rng)[cols]
    return out


def trial_latencies(cfg: SimConfig) -> np.ndarray:
    """All per-trial latency samples, one independent RNG stream per trial."""
    m = cfg.model
    return completion_table(cfg.N, m.T0, m.lam, cfg.trials, cfg.seed, [cfg.R_th])[:, 0] / m.K


def summarize(samples: np.ndarray) -> LatencyEstimate:
    """Mean of per-trial latency samples, with its standard error."""
    if len(samples) == 1:
        return LatencyEstimate(float(samples[0]), 0.0, 1)
    stderr = float(samples.std(ddof=1)) / math.sqrt(len(samples))
    return LatencyEstimate(float(samples.mean()), stderr, len(samples))


def estimate_mean_latency(cfg: SimConfig) -> LatencyEstimate:
    return summarize(trial_latencies(cfg))
