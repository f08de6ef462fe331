"""Monte Carlo latency under the shifted-exponential straggler model.

A job split K ways runs on N workers; each worker grinds through subtasks
sequentially, one subtask costing T0/K plus an exponential tail of rate
lam*K.  The job finishes when R_th subtasks are done across all workers,
whichever workers they came from.  The estimator returns the mean of that
completion instant over independent trials, with its standard error.

`SimTemplate` is the one description of the model: N, and T0 and lam at
K = 1, with the trial count and seed.  K and R_th are applied where the
pooled completion table is read.

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

from .ffield import is_integer

# The most bytes of arrays a simulation or sweep may be estimated to need.
# An estimate counts entries on Python ints, times the bytes per entry that
# tracemalloc measured at the peak, rounded down: a refused job would not
# fit in 8 GiB anyway.
MAX_ARRAY_BYTES = 8 * 2**30


def check_array_bytes(nbytes: int, what: str) -> None:
    """Refuse, before it is allocated, an array estimated above the bound."""
    if nbytes > MAX_ARRAY_BYTES:
        raise ValueError(f"{what} would need about {nbytes} bytes of arrays, "
                         f"above the bound of {MAX_ARRAY_BYTES}")


@dataclass(frozen=True)
class SimTemplate:
    """The straggler model of the unpartitioned task, and its trial settings."""

    N: int
    T0: float
    lam: float
    trials: int
    seed: int

    def __post_init__(self) -> None:
        if not all(map(is_integer, (self.N, self.trials, self.seed))):
            raise ValueError(f"N, trials and seed must be integers, got {self}")
        if self.N < 1 or self.trials < 1:
            raise ValueError(f"N and trials must be >= 1, got {self}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0 <= self.T0 < math.inf:
            raise ValueError(f"T0 must be >= 0 and finite, got {self.T0}")
        if not 0 < self.lam < math.inf:
            raise ValueError(f"lam must be > 0 and finite, got {self.lam}")


@dataclass(frozen=True)
class LatencyEstimate:
    mean: float
    stderr: float


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


def completion_table(sim: SimTemplate, ranks: list[int]) -> np.ndarray:
    """Row i, column j: trial i's ranks[j]-th pooled completion at K = 1.
    Trial i draws from PCG64(SeedSequence((seed, i))), up to the largest rank:
    at least `depth` completions per worker, 16 bytes each at the peak."""
    if min(ranks) < 1:
        raise ValueError(f"ranks must be >= 1, got {min(ranks)}")
    R = max(ranks)
    depth = max(4, -(-R // sim.N))
    check_array_bytes(16 * sim.N * depth + 8 * sim.trials * len(ranks),
                      f"a {sim.trials}-trial table to rank {R} over {sim.N} workers")
    cols, out = np.asarray(ranks) - 1, np.empty((sim.trials, len(ranks)))
    for i in range(sim.trials):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((sim.seed, i))))
        out[i] = pooled_completions(sim.N, R, sim.T0, sim.lam, rng)[cols]
    return out


def trial_latencies(sim: SimTemplate, R_th: int, K: int) -> np.ndarray:
    """Per-trial instants of the R_th-th completed subtask at partition level K."""
    if R_th < 1 or K < 1:
        raise ValueError(f"R_th and K must be >= 1, got R_th={R_th}, K={K}")
    return completion_table(sim, [R_th])[:, 0] / K


def summarize(samples: np.ndarray) -> list[LatencyEstimate]:
    """Mean of per-trial latency samples, with its standard error, for each
    row of a (candidates x trials) array; each row's estimate is
    bit-identical to that of a one-row array holding only that row."""
    samples = np.ascontiguousarray(samples)  # pairwise sums run along rows
    n = samples.shape[-1]
    means = samples.mean(axis=-1)
    errs = samples.std(ddof=1, axis=-1) / math.sqrt(n) if n > 1 else np.zeros_like(means)
    return [LatencyEstimate(float(m), float(e)) for m, e in zip(means, errs)]


def estimate_mean_latency(sim: SimTemplate, R_th: int, K: int) -> LatencyEstimate:
    return summarize([trial_latencies(sim, R_th, K)])[0]
