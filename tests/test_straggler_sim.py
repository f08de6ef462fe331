"""Latency simulator tests against analytic means and a dual implementation.

`heap_merge_once` below is an independent event-merge re-implementation
(priority queue of next completion times); the library's vectorized
estimator must agree with it in mean within Monte Carlo error.  The other
anchors are exact expectations of exponential order statistics.
"""

from __future__ import annotations

import heapq
import math

import numpy as np
import pytest

from coded_matmul.straggler_sim import (
    LatencyEstimate,
    SimConfig,
    StragglerModel,
    completion_table,
    estimate_mean_latency,
    pooled_completions,
    sample_subtask_time,
    trial_latencies,
)


def heap_merge_once(
    N: int, R_th: int, model: StragglerModel, rng: np.random.Generator
) -> float:
    """Event-merge reference: pop the earliest next-completion, refill, repeat."""
    shift = model.T0 / model.K
    scale = 1.0 / (model.lam * model.K)
    heap = [shift + rng.standard_exponential() * scale for _ in range(N)]
    heapq.heapify(heap)
    done = 0
    while True:
        t = heapq.heappop(heap)
        done += 1
        if done == R_th:
            return t
        heapq.heappush(heap, t + shift + rng.standard_exponential() * scale)


def test_model_validation() -> None:
    with pytest.raises(ValueError):
        StragglerModel(T0=-1.0, lam=1.0, K=1)
    with pytest.raises(ValueError):
        StragglerModel(T0=1.0, lam=0.0, K=1)
    with pytest.raises(ValueError):
        StragglerModel(T0=1.0, lam=1.0, K=0)
    with pytest.raises(ValueError):
        SimConfig(N=0, R_th=1, model=StragglerModel(1.0, 1.0, 1), trials=1, seed=0)
    with pytest.raises(ValueError):
        SimConfig(N=1, R_th=0, model=StragglerModel(1.0, 1.0, 1), trials=1, seed=0)


def test_sample_never_below_shift() -> None:
    model = StragglerModel(T0=2.0, lam=0.5, K=4)
    rng = np.random.default_rng(0)
    draws = [sample_subtask_time(model, rng) for _ in range(1000)]
    assert min(draws) >= model.T0 / model.K


def test_sample_mean_matches_analytic() -> None:
    model = StragglerModel(T0=2.0, lam=0.5, K=4)
    rng = np.random.default_rng(1)
    n = 10**5
    draws = np.array([sample_subtask_time(model, rng) for _ in range(n)])
    expected = model.T0 / model.K + 1.0 / (model.lam * model.K)
    se = draws.std(ddof=1) / math.sqrt(n)
    assert abs(draws.mean() - expected) <= 3 * se


def test_sample_cdf_point() -> None:
    # T0=0, lam*K=1: P(T <= 1) = 1 - e^-1
    model = StragglerModel(T0=0.0, lam=0.5, K=2)
    rng = np.random.default_rng(2)
    n = 10**5
    draws = np.array([sample_subtask_time(model, rng) for _ in range(n)])
    p_hat = float((draws <= 1.0).mean())
    p = 1.0 - math.exp(-1.0)
    sigma = math.sqrt(p * (1 - p) / n)
    assert abs(p_hat - p) <= 3 * sigma


def test_single_worker_single_task_mean() -> None:
    model = StragglerModel(T0=1.0, lam=0.1, K=1)
    cfg = SimConfig(N=1, R_th=1, model=model, trials=10**4, seed=3)
    est = estimate_mean_latency(cfg)
    expected = model.T0 + 1.0 / model.lam  # 11.0
    assert abs(est.mean - expected) <= 3 * est.stderr


def test_single_worker_many_tasks_no_shift() -> None:
    # Sum of r Exp(lam*K) draws has mean r / (lam*K).
    model = StragglerModel(T0=0.0, lam=0.5, K=4)
    cfg = SimConfig(N=1, R_th=12, model=model, trials=4000, seed=4)
    est = estimate_mean_latency(cfg)
    assert abs(est.mean - 12 / (0.5 * 4)) <= 3 * est.stderr


def test_many_workers_no_shift_superposition() -> None:
    # N independent completion streams of rate lam*K merge into one of rate
    # N*lam*K, so the R_th-th event lands at R_th / (N lam K) on average.
    model = StragglerModel(T0=0.0, lam=2.0, K=4)
    cfg = SimConfig(N=5, R_th=20, model=model, trials=4000, seed=5)
    est = estimate_mean_latency(cfg)
    assert abs(est.mean - 20 / (5 * 2.0 * 4)) <= 3 * est.stderr


def test_agrees_with_event_merge_reference() -> None:
    # Full-scale config with zero computation overhead (K = R_th).
    model = StragglerModel(T0=1.0, lam=0.1, K=300)
    trials = 10**4
    cfg = SimConfig(N=300, R_th=300, model=model, trials=trials, seed=60)
    est = estimate_mean_latency(cfg)
    rng = np.random.default_rng(11111)
    ref = np.array([heap_merge_once(300, 300, model, rng) for _ in range(trials)])
    ref_se = ref.std(ddof=1) / math.sqrt(trials)
    combined = math.hypot(est.stderr, ref_se)
    assert abs(est.mean - ref.mean()) <= 3 * combined


def test_mean_nonincreasing_in_workers() -> None:
    model = StragglerModel(T0=1.0, lam=0.5, K=8)
    a = estimate_mean_latency(SimConfig(N=10, R_th=40, model=model, trials=3000, seed=7))
    b = estimate_mean_latency(SimConfig(N=20, R_th=40, model=model, trials=3000, seed=8))
    combined = math.hypot(a.stderr, b.stderr)
    assert a.mean >= b.mean - 3 * combined


def test_sample_lower_bound() -> None:
    # Someone must finish ceil(R_th/N) tasks, each costing at least T0/K.
    model = StragglerModel(T0=3.0, lam=5.0, K=4)
    N, R_th = 4, 10
    bound = math.ceil(R_th / N) * model.T0 / model.K
    for i in range(200):
        rng = np.random.default_rng(100 + i)
        pooled = pooled_completions(N, R_th, model.T0, model.lam, rng)
        assert pooled[-1] / model.K >= bound


@pytest.mark.parametrize(
    "N, r, R",
    [
        (7, 3, 200),  # r inside the first block, R several blocks further
        (7, 10, 29),  # R outgrows the first block (7 workers x 4 columns)
        (7, 40, 120),  # r across a block boundary
        (1, 4, 5),  # N = 1: the first block holds exactly 4 completions
        (1, 12, 40),
        (1, 1, 100),
    ],
)
def test_prefix_does_not_depend_on_draw_depth(N: int, r: int, R: int) -> None:
    """A table drawn to R and one drawn to r < R agree on their first r
    entries, bit for bit, although the deeper one drew more blocks."""
    deeper = 0
    for seed in range(20):
        short_rng, long_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        short = pooled_completions(N, r, 1.0, 0.3, short_rng)
        long = pooled_completions(N, R, 1.0, 0.3, long_rng)
        assert len(short) == r and len(long) == R
        assert np.all(np.diff(long) >= 0)
        assert np.array_equal(short, long[:r])
        deeper += short_rng.bit_generator.state != long_rng.bit_generator.state
    assert deeper > 0


def test_table_columns_do_not_depend_on_other_ranks() -> None:
    full = completion_table(5, 0.5, 2.0, 30, 21, [1, 9, 60])
    for j, rank in enumerate([1, 9, 60]):
        alone = completion_table(5, 0.5, 2.0, 30, 21, [rank])
        assert np.array_equal(alone[:, 0], full[:, j])


def test_latencies_are_table_column_over_k() -> None:
    model = StragglerModel(T0=1.0, lam=0.2, K=6)
    cfg = SimConfig(N=7, R_th=30, model=model, trials=40, seed=12)
    table = completion_table(7, 1.0, 0.2, 40, 12, [30, 45])
    assert np.array_equal(trial_latencies(cfg), table[:, 0] / 6)


def test_deterministic_given_seed() -> None:
    model = StragglerModel(T0=1.0, lam=0.2, K=6)
    cfg = SimConfig(N=7, R_th=30, model=model, trials=500, seed=9)
    a = estimate_mean_latency(cfg)
    b = estimate_mean_latency(cfg)
    assert a == b


def test_doubling_trials_keeps_prefix() -> None:
    model = StragglerModel(T0=1.0, lam=0.2, K=6)
    short = SimConfig(N=7, R_th=30, model=model, trials=50, seed=10)
    long = SimConfig(N=7, R_th=30, model=model, trials=100, seed=10)
    a = trial_latencies(short)
    b = trial_latencies(long)
    assert np.array_equal(a, b[:50])


def test_single_trial_stderr_zero() -> None:
    model = StragglerModel(T0=1.0, lam=0.2, K=2)
    est = estimate_mean_latency(SimConfig(N=3, R_th=5, model=model, trials=1, seed=11))
    assert isinstance(est, LatencyEstimate)
    assert est.stderr == 0.0
    assert est.trials == 1
