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

from coded_matmul import straggler_sim
from coded_matmul.straggler_sim import (
    LatencyEstimate,
    SimTemplate,
    completion_table,
    estimate_mean_latency,
    pooled_completions,
    summarize,
    trial_latencies,
)


def heap_merge_once(
    sim: SimTemplate, R_th: int, K: int, rng: np.random.Generator
) -> float:
    """Event-merge reference: pop the earliest next-completion, refill, repeat."""
    shift = sim.T0 / K
    scale = 1.0 / (sim.lam * K)
    heap = [shift + rng.standard_exponential() * scale for _ in range(sim.N)]
    heapq.heapify(heap)
    done = 0
    while True:
        t = heapq.heappop(heap)
        done += 1
        if done == R_th:
            return t
        heapq.heappush(heap, t + shift + rng.standard_exponential() * scale)


def subtask_times(T0: float, lam: float, K: int, n: int, rng) -> np.ndarray:
    """n successive subtask times at level K: one worker's completion
    instants, differenced and divided by K."""
    return np.diff(pooled_completions(1, n, T0, lam, rng), prepend=0.0) / K


def test_model_validation() -> None:
    good = dict(N=5, T0=1.0, lam=0.1, trials=10, seed=0)
    for field, value, message in [
        ("T0", -1.0, "T0 must be >= 0"),
        ("T0", math.nan, "T0 must be >= 0 and finite"),
        ("T0", math.inf, "T0 must be >= 0 and finite"),
        ("lam", 0.0, "lam must be > 0"),
        ("lam", math.nan, "lam must be > 0 and finite"),
        ("lam", math.inf, "lam must be > 0 and finite"),
        ("N", 0, "N and trials must be >= 1"),
        ("trials", 0, "N and trials must be >= 1"),
        ("seed", -1, "seed must be >= 0"),
        ("N", 2.5, "N, trials and seed must be integers"),
        ("N", True, "N, trials and seed must be integers"),
        ("trials", 10.0, "N, trials and seed must be integers"),
        ("seed", 1.5, "N, trials and seed must be integers"),
    ]:
        with pytest.raises(ValueError, match=message):
            SimTemplate(**{**good, field: value})
    assert SimTemplate(**{**good, "N": np.int64(5)}) == SimTemplate(**good)
    sim = SimTemplate(**good)
    with pytest.raises(ValueError, match="R_th and K must be >= 1"):
        trial_latencies(sim, R_th=0, K=1)
    with pytest.raises(ValueError, match="R_th and K must be >= 1"):
        estimate_mean_latency(sim, R_th=1, K=0)


def test_sample_never_below_shift() -> None:
    T0, lam, K = 2.0, 0.5, 4
    rng = np.random.default_rng(0)
    draws = subtask_times(T0, lam, K, 1000, rng)
    assert len(draws) == 1000
    assert min(draws) >= T0 / K


def test_sample_mean_matches_analytic() -> None:
    T0, lam, K = 2.0, 0.5, 4
    rng = np.random.default_rng(1)
    n = 10**5
    draws = subtask_times(T0, lam, K, n, rng)
    expected = T0 / K + 1.0 / (lam * K)
    se = draws.std(ddof=1) / math.sqrt(n)
    assert abs(draws.mean() - expected) <= 3 * se


def test_sample_cdf_point() -> None:
    # T0=0, lam*K=1: P(T <= 1) = 1 - e^-1
    T0, lam, K = 0.0, 0.5, 2
    rng = np.random.default_rng(2)
    n = 10**5
    draws = subtask_times(T0, lam, K, n, rng)
    p_hat = float((draws <= 1.0).mean())
    p = 1.0 - math.exp(-1.0)
    sigma = math.sqrt(p * (1 - p) / n)
    assert abs(p_hat - p) <= 3 * sigma


def test_single_worker_single_task_mean() -> None:
    sim = SimTemplate(N=1, T0=1.0, lam=0.1, trials=10**4, seed=3)
    est = estimate_mean_latency(sim, R_th=1, K=1)
    expected = sim.T0 + 1.0 / sim.lam  # 11.0
    assert abs(est.mean - expected) <= 3 * est.stderr


def test_single_worker_many_tasks_no_shift() -> None:
    # Sum of r Exp(lam*K) draws has mean r / (lam*K).
    sim = SimTemplate(N=1, T0=0.0, lam=0.5, trials=4000, seed=4)
    est = estimate_mean_latency(sim, R_th=12, K=4)
    assert abs(est.mean - 12 / (0.5 * 4)) <= 3 * est.stderr


def test_many_workers_no_shift_superposition() -> None:
    # N independent completion streams of rate lam*K merge into one of rate
    # N*lam*K, so the R_th-th event lands at R_th / (N lam K) on average.
    sim = SimTemplate(N=5, T0=0.0, lam=2.0, trials=4000, seed=5)
    est = estimate_mean_latency(sim, R_th=20, K=4)
    assert abs(est.mean - 20 / (5 * 2.0 * 4)) <= 3 * est.stderr


def test_agrees_with_event_merge_reference() -> None:
    # Full-scale config with zero computation overhead (K = R_th).
    trials = 10**4
    sim = SimTemplate(N=300, T0=1.0, lam=0.1, trials=trials, seed=60)
    est = estimate_mean_latency(sim, R_th=300, K=300)
    rng = np.random.default_rng(11111)
    ref = np.array([heap_merge_once(sim, 300, 300, rng) for _ in range(trials)])
    ref_se = ref.std(ddof=1) / math.sqrt(trials)
    combined = math.hypot(est.stderr, ref_se)
    assert abs(est.mean - ref.mean()) <= 3 * combined


def test_mean_nonincreasing_in_workers() -> None:
    a = estimate_mean_latency(SimTemplate(N=10, T0=1.0, lam=0.5, trials=3000, seed=7), 40, 8)
    b = estimate_mean_latency(SimTemplate(N=20, T0=1.0, lam=0.5, trials=3000, seed=8), 40, 8)
    combined = math.hypot(a.stderr, b.stderr)
    assert a.mean >= b.mean - 3 * combined


def test_sample_lower_bound() -> None:
    # Someone must finish ceil(R_th/N) tasks, each costing at least T0/K.
    T0, lam, K = 3.0, 5.0, 4
    N, R_th = 4, 10
    bound = math.ceil(R_th / N) * T0 / K
    for i in range(200):
        rng = np.random.default_rng(100 + i)
        pooled = pooled_completions(N, R_th, T0, lam, rng)
        assert pooled[-1] / K >= bound


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
    sim = SimTemplate(N=5, T0=0.5, lam=2.0, trials=30, seed=21)
    full = completion_table(sim, [1, 9, 60])
    for j, rank in enumerate([1, 9, 60]):
        alone = completion_table(sim, [rank])
        assert np.array_equal(alone[:, 0], full[:, j])


def test_latencies_are_table_column_over_k() -> None:
    sim = SimTemplate(N=7, T0=1.0, lam=0.2, trials=40, seed=12)
    table = completion_table(sim, [30, 45])
    assert np.array_equal(trial_latencies(sim, R_th=30, K=6), table[:, 0] / 6)


def test_deterministic_given_seed() -> None:
    sim = SimTemplate(N=7, T0=1.0, lam=0.2, trials=500, seed=9)
    a = estimate_mean_latency(sim, R_th=30, K=6)
    b = estimate_mean_latency(sim, R_th=30, K=6)
    assert a == b


def test_doubling_trials_keeps_prefix() -> None:
    short = SimTemplate(N=7, T0=1.0, lam=0.2, trials=50, seed=10)
    long = SimTemplate(N=7, T0=1.0, lam=0.2, trials=100, seed=10)
    a = trial_latencies(short, R_th=30, K=6)
    b = trial_latencies(long, R_th=30, K=6)
    assert np.array_equal(a, b[:50])


def test_single_trial_stderr_zero() -> None:
    sim = SimTemplate(N=3, T0=1.0, lam=0.2, trials=1, seed=11)
    est = estimate_mean_latency(sim, R_th=5, K=2)
    assert isinstance(est, LatencyEstimate)
    assert est.stderr == 0.0


@pytest.mark.parametrize(
    "N, ranks, trials",
    [(10**9, [1], 10), (300, [10**9 + 999], 10), (1, [10**10], 1), (16, [27], 10**12)],
)
def test_oversized_table_refused_before_drawing(monkeypatch, N, ranks, trials) -> None:
    def never(*args, **kwargs):
        raise AssertionError("allocated past the bound")

    monkeypatch.setattr(straggler_sim, "pooled_completions", never)
    monkeypatch.setattr(np, "empty", never)
    sim = SimTemplate(N=N, T0=1.0, lam=0.1, trials=trials, seed=0)
    with pytest.raises(ValueError, match="above the bound"):
        completion_table(sim, ranks)


@pytest.mark.parametrize("ranks", [[0, 5], [0], [5, -1]])
def test_completion_table_refuses_ranks_below_one(monkeypatch, ranks) -> None:
    # Rank 0 would read column -1, the deepest rank asked, or fail on an
    # empty table.
    def never(*args, **kwargs):
        raise AssertionError("drew a table for a rank below 1")

    monkeypatch.setattr(straggler_sim, "pooled_completions", never)
    sim = SimTemplate(N=5, T0=1.0, lam=0.1, trials=3, seed=0)
    with pytest.raises(ValueError, match=f"ranks must be >= 1, got {min(ranks)}"):
        completion_table(sim, ranks)


@pytest.mark.parametrize("trials", [1, 2, 20, 1000])
def test_summarize_rows_equal_summarize_each_row(trials: int) -> None:
    # A sweep scores all its candidates in one call; each row's estimate
    # must be bit for bit the one-row estimate, and the plain mean and
    # sample stderr of that row.  The transposed copy checks that the
    # memory layout of the input does not change the sums.
    rng = np.random.default_rng(trials)
    table = 1.0 + rng.standard_exponential((trials, 7)) / 0.3
    rows = table.T / np.arange(1, 8)[:, None]
    got = summarize(rows)
    assert got == summarize(np.ascontiguousarray(rows))
    assert got == [summarize([row])[0] for row in rows]
    for est, row in zip(got, rows):
        assert est.mean == float(row.mean())
        assert est.stderr == (
            float(row.std(ddof=1)) / math.sqrt(trials) if trials > 1 else 0.0
        )


# -- exact oracle for the mean -------------------------------------------------


def _truncated_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise product of polynomials in z, kept below z^R (R columns)."""
    out = np.zeros_like(a)
    for j in range(a.shape[1]):
        out[:, j:] += a[:, j : j + 1] * b[:, : a.shape[1] - j]
    return out


def _prob_pooled_below(N: int, T0: float, lam: float, R: int, t: np.ndarray) -> np.ndarray:
    """P(S(t) < R) for the pooled completion count S of N workers at K = 1.

    A worker's k-th completion is k T0 plus a Gamma(k, lam) time, so
    P(C(t) >= k) = P(Poisson(lam (t - k T0)) >= k).  S's distribution below
    R is the N-th power of C(t)'s generating function, truncated at z^R."""
    log_fact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, R + 1)))])
    at_least = np.ones((len(t), R + 1))  # column k: P(C(t) >= k)
    for k in range(1, R + 1):
        mu = lam * (t - k * T0)
        live = mu > 0
        m = np.where(live, mu, 1.0)[:, None]
        j = np.arange(k)
        cdf = np.exp(-m + j * np.log(m) - log_fact[j]).sum(axis=1)
        at_least[:, k] = np.where(live, np.maximum(1.0 - cdf, 0.0), 0.0)
    pmf = at_least[:, :-1] - at_least[:, 1:]  # P(C(t) = k), k < R
    power = np.zeros_like(pmf)
    power[:, 0] = 1.0
    base, n = pmf, N
    while n:
        if n & 1:
            power = _truncated_product(power, base)
        base, n = _truncated_product(base, base), n >> 1
    return power.sum(axis=1)


def _oracle_mean(N: int, T0: float, lam: float, R: int, steps_per_t0: int) -> float:
    """E[R-th pooled completion] = integral over t >= 0 of P(S(t) < R), by
    the trapezoid rule on a grid with every k T0 at a node."""
    span = math.ceil(4 * (R / N + 2) * (1 + 1 / (lam * T0)))  # in units of T0
    t = np.linspace(0.0, span * T0, span * steps_per_t0 + 1)
    f = _prob_pooled_below(N, T0, lam, R, t)
    assert f[-1] < 1e-12, "the grid must reach where the integrand vanishes"
    return float(np.sum((f[1:] + f[:-1]) / 2 * np.diff(t)))


Z_MAX = 4.0  # fixed before running: |z| above it fails


@pytest.mark.parametrize("R", [9, 27, 64])
def test_mean_matches_exact_oracle(R: int) -> None:
    N, T0, lam = 16, 1.0, 0.1
    coarse = _oracle_mean(N, T0, lam, R, steps_per_t0=4)
    fine = _oracle_mean(N, T0, lam, R, steps_per_t0=8)
    quadrature_err = abs(fine - coarse)  # trapezoid error is O(h^2): this bounds fine's
    est = estimate_mean_latency(SimTemplate(N=N, T0=T0, lam=lam, trials=1000, seed=0), R, 1)
    assert quadrature_err < 0.05 * est.stderr
    assert abs(est.mean - fine) <= Z_MAX * est.stderr + quadrature_err
