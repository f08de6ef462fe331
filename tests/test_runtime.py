"""Concurrent master/worker engine tests.

Correctness oracle is always the direct `matrix_multiply` product; the
encode-count oracle is `upload_counts` (number of distinct per-input
projections).  Latency assertions only compare configurations
against each other, never wall-clock absolutes.
"""

from __future__ import annotations

import itertools
import math
import random
import statistics
import threading
import tracemalloc

import numpy as np
import pytest

import coded_matmul.runtime as rt
from coded_matmul import schemes
from coded_matmul.blockmat import DimensionError, Matrix, PartitionScheme, matrix_multiply
from coded_matmul.ffield import DEFAULT_MODULUS, PrimeModulus
from coded_matmul.runtime import (
    InjectedDelay,
    JobFailed,
    JobSpec,
    JobTrace,
    render_trace_csv,
    run_job,
)
from coded_matmul.schemes import (
    SchemeKind,
    encode_shares,
    grid_axes,
    recovery_threshold,
    upload_counts,
)

FBIG = PrimeModulus(DEFAULT_MODULUS)
ALL_KINDS = list(SchemeKind)


def random_matrix(rows: int, cols: int, field: PrimeModulus, seed: int) -> Matrix:
    rng = random.Random(seed)
    return Matrix(
        rows, cols, [rng.randrange(field.q) for _ in range(rows * cols)], field
    )


def make_spec(kind: SchemeKind, **kw) -> JobSpec:
    defaults = dict(
        kind=kind,
        p=PartitionScheme(2, 2, 2),
        M0=random_matrix(8, 8, FBIG, seed=1),
        M1=random_matrix(8, 8, FBIG, seed=2),
        workers=8,
        seed=7,
    )
    defaults.update(kw)
    return JobSpec(**defaults)


def test_exact_product_all_kinds_no_delay() -> None:
    want = matrix_multiply(random_matrix(8, 8, FBIG, 1), random_matrix(8, 8, FBIG, 2))
    for kind in ALL_KINDS:
        out, trace = run_job(make_spec(kind))
        assert out == want
        assert isinstance(trace, JobTrace)


def test_single_worker_serial() -> None:
    spec = make_spec(SchemeKind.TRI, workers=1)
    out, trace = run_job(spec)
    assert out == matrix_multiply(spec.M0, spec.M1)
    assert {r.worker for r in trace.records} == {0}


def test_trace_completeness() -> None:
    spec = make_spec(SchemeKind.BI0)
    _, trace = run_job(spec)
    rth = recovery_threshold(SchemeKind.BI0, spec.p)
    assert len(trace.records) == rth
    assert sorted(r.task_id for r in trace.records) == list(range(rth))
    assert len({r.point for r in trace.records}) == rth
    # Task ids run over the grid in lexicographic order.
    points = itertools.product(*grid_axes(SchemeKind.BI0, spec.p, FBIG))
    assert [r.point for r in trace.records] == list(points)
    assert all(0 <= r.worker < spec.workers for r in trace.records)
    for r in trace.records:
        assert r.end_ms >= r.start_ms >= 0.0
    assert trace.total_ms >= max(r.end_ms for r in trace.records) - 1e-6


def test_encode_counts_match_upload_counts() -> None:
    for kind in ALL_KINDS:
        spec = make_spec(kind)
        _, trace = run_job(spec)
        assert trace.encode_counts == upload_counts(kind, spec.p)


@pytest.mark.parametrize("q", [101, 2**31 - 1, 2**61 - 1])
@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_each_input_encoded_by_one_kernel_call(kind: SchemeKind, q: int, monkeypatch) -> None:
    # Counts the F_q products the codec makes: one per encode_shares call,
    # so one per input in a job, plus one per decode axis.
    calls = []
    kernel = schemes.modmatmul

    def counted(a, b, modulus):
        calls.append(a.shape)
        return kernel(a, b, modulus)

    monkeypatch.setattr(schemes, "modmatmul", counted)
    field = PrimeModulus(q)
    p = PartitionScheme(2, 3, 2)
    a, b = random_matrix(4, 6, field, seed=30), random_matrix(6, 4, field, seed=31)
    axes = grid_axes(kind, p, field)
    sizes = tuple(map(len, axes))
    for input_id, m in ((0, a), (1, b)):
        calls.clear()
        batched = encode_shares(kind, p, input_id, m, axes)
        assert len(calls) == 1
        # Broadcast to the grid, it holds at each point the share encoded
        # there alone.
        shares = np.broadcast_to(batched, sizes + batched.shape[-2:])
        for ix in np.ndindex(*sizes):
            alone = encode_shares(kind, p, input_id, m, [(ax[i],) for ax, i in zip(axes, ix)])
            assert np.array_equal(alone.reshape(shares.shape[-2:]), shares[ix])
    calls.clear()
    out, trace = run_job(JobSpec(kind, p, a, b, workers=2))
    assert out == matrix_multiply(a, b)
    assert len(calls) == 2 + len(axes)
    assert trace.encode_counts == upload_counts(kind, p)


@pytest.mark.parametrize("q", [2**61 - 1, 9223372036854775783])
@pytest.mark.parametrize("workers", [2, 4])
@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_concurrent_workers_exact_at_large_q(kind: SchemeKind, workers: int, q: int) -> None:
    # Above 2^31 the worker threads' block products run side by side, on
    # int64 and float64 arrays that release the interpreter lock.  Static
    # mode deals the tasks out, so that every worker runs some.
    field = PrimeModulus(q)
    a, b = random_matrix(48, 48, field, seed=50), random_matrix(48, 48, field, seed=51)
    spec = JobSpec(kind, PartitionScheme(2, 2, 2), a, b, workers=workers, mode="static")
    product, trace = run_job(spec)
    assert product == matrix_multiply(a, b)
    assert {r.worker for r in trace.records} == set(range(workers))


@pytest.mark.parametrize("workers", [8, 20])
def test_static_mode_same_output(workers: int) -> None:
    # tri (2,2,2) has 12 tasks, so at 20 workers task i runs on worker i.
    dyn, _ = run_job(make_spec(SchemeKind.TRI, mode="dynamic"))
    sta, trace = run_job(make_spec(SchemeKind.TRI, mode="static", workers=workers))
    assert dyn == sta
    # round-robin pre-assignment: worker w got tasks w, w+workers, ...
    for r in trace.records:
        assert r.worker == r.task_id % workers


def test_output_exact_under_injected_delay() -> None:
    spec = make_spec(
        SchemeKind.BI2,
        delay=InjectedDelay(t0_ms=4.0, lam_inv_ms=2.0),
        workers=3,
    )
    out, trace = run_job(spec)
    assert out == matrix_multiply(spec.M0, spec.M1)
    assert trace.encode_counts == upload_counts(SchemeKind.BI2, spec.p)


def test_delay_floor_visible_in_trace() -> None:
    # One task, K = 1: the injected floor of 15 ms must show up in its span.
    spec = make_spec(
        SchemeKind.EPC,
        p=PartitionScheme(1, 1, 1),
        M0=random_matrix(2, 2, FBIG, 3),
        M1=random_matrix(2, 2, FBIG, 4),
        workers=2,
        delay=InjectedDelay(t0_ms=15.0, lam_inv_ms=0.0),
    )
    _, trace = run_job(spec)
    assert len(trace.records) == 1
    span = trace.records[0].end_ms - trace.records[0].start_ms
    assert span >= 14.0


def test_worker_failure_raises_job_failed(monkeypatch) -> None:
    real = rt.modmatmul
    calls = {"n": 0}

    def flaky(a, b, q):
        calls["n"] += 1
        if calls["n"] == 3:
            raise RuntimeError("worker blew up")
        return real(a, b, q)

    monkeypatch.setattr(rt, "modmatmul", flaky)
    with pytest.raises(JobFailed) as exc_info:
        run_job(make_spec(SchemeKind.TRI, workers=2))
    trace = exc_info.value.trace
    assert isinstance(trace, JobTrace)
    rth = recovery_threshold(SchemeKind.TRI, PartitionScheme(2, 2, 2))
    assert len(trace.records) < rth


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_block_of_another_shape_fails_the_job(kind: SchemeKind, monkeypatch) -> None:
    # numpy would broadcast a (1, bc) block into its (br, bc) slot without a
    # word, and refuse a (br, 2 bc) one in the coordinator.  Either block,
    # from the first task or the last, fails its task and so the job.
    spec = make_spec(kind, workers=1)
    rth = recovery_threshold(kind, spec.p)
    real = rt.modmatmul
    for reshape in (lambda x: x[:1], lambda x: np.hstack([x, x])):
        for bad_call in (1, rth):
            calls = []

            def faulty(a, b, q):
                calls.append(None)
                out = real(a, b, q)
                return reshape(out) if len(calls) == bad_call else out

            monkeypatch.setattr(rt, "modmatmul", faulty)
            with pytest.raises(JobFailed, match="DimensionError: result block is"):
                run_job(spec)
            assert len(calls) == rth


@pytest.mark.parametrize("mode", ["dynamic", "static"])
def test_threads_capped_at_task_count(monkeypatch, mode: str) -> None:
    started = []

    class CountingThread(threading.Thread):
        def start(self) -> None:
            started.append(self)
            super().start()

    monkeypatch.setattr(rt.threading, "Thread", CountingThread)
    for kind in ALL_KINDS:
        started.clear()
        spec = make_spec(
            kind,
            p=PartitionScheme(1, 1, 1),
            M0=random_matrix(3, 3, FBIG, 3),
            M1=random_matrix(3, 3, FBIG, 4),
            workers=64,
            mode=mode,
        )
        out, trace = run_job(spec)
        assert out == matrix_multiply(spec.M0, spec.M1)
        assert 1 <= len(started) <= len(trace.records), kind
        assert {r.worker for r in trace.records} <= set(range(64))


def test_every_task_failing_with_surplus_workers_raises(monkeypatch) -> None:
    # 64 workers, 12 tasks: the coordinator must stop waiting once the
    # threads it started have exited, not wait for 64 exits.
    def broken(a, b, q):
        raise RuntimeError("worker blew up")

    monkeypatch.setattr(rt, "modmatmul", broken)
    raised = []

    def attempt() -> None:
        with pytest.raises(JobFailed) as exc_info:
            run_job(make_spec(SchemeKind.TRI, workers=64))
        raised.append(exc_info.value)

    waiter = threading.Thread(target=attempt, daemon=True)
    waiter.start()
    waiter.join(timeout=20.0)
    assert not waiter.is_alive()
    assert len(raised) == 1
    assert raised[0].trace.records == []


@pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")
@pytest.mark.parametrize("workers", [1, 2])
def test_worker_killed_by_base_exception_fails_the_job(monkeypatch, workers: int) -> None:
    # SystemExit is not an Exception, so it ends the worker thread instead
    # of failing one task; the coordinator must still see that thread exit.
    real = rt.modmatmul
    lock = threading.Lock()
    calls = {"n": 0}

    def dies_first(a, b, q):
        with lock:
            calls["n"] += 1
            first = calls["n"] == 1
        if first:
            raise SystemExit("worker killed")
        return real(a, b, q)

    monkeypatch.setattr(rt, "modmatmul", dies_first)
    raised = []

    def attempt() -> None:
        with pytest.raises(JobFailed) as exc_info:
            run_job(make_spec(SchemeKind.TRI, workers=workers))
        raised.append(exc_info.value)

    waiter = threading.Thread(target=attempt, daemon=True)
    waiter.start()
    waiter.join(timeout=20.0)
    assert not waiter.is_alive()
    assert len(raised) == 1
    # On one shared queue the surviving worker runs every other task.
    rth = recovery_threshold(SchemeKind.TRI, PartitionScheme(2, 2, 2))
    assert len(raised[0].trace.records) == (rth - 1 if workers > 1 else 0)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_job_builds_one_matrix_the_product(kind: SchemeKind, monkeypatch) -> None:
    # Between its two inputs and its product a job holds arrays: shares and
    # result blocks are never wrapped, so the only Matrix built is the product.
    q, n = 2**31 - 1, 128
    field = PrimeModulus(q)
    rng = np.random.default_rng(5)
    a, b = (Matrix(n, n, rng.integers(0, q, (n, n)), field) for _ in range(2))
    built = []
    post_init = Matrix.__post_init__

    def counted(self) -> None:
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Matrix, "__post_init__", counted)
    out, _ = run_job(JobSpec(kind, PartitionScheme(2, 2, 2), a, b, workers=2))
    assert len(built) == 1 and built[0] is out
    monkeypatch.undo()
    assert out == matrix_multiply(a, b)


def test_dynamic_beats_static_with_skewed_worker() -> None:
    # Quick version of the paired comparison: one worker 10x slower.
    factors = (10.0,) + (1.0,) * 7
    delay = InjectedDelay(t0_ms=8.0, lam_inv_ms=2.0)
    dyn, sta = [], []
    for rep in range(6):
        for mode, sink in (("dynamic", dyn), ("static", sta)):
            spec = make_spec(
                SchemeKind.TRI,
                delay=delay,
                worker_delay_factors=factors,
                seed=100 + rep,
                mode=mode,
            )
            out, trace = run_job(spec)
            sink.append(trace.total_ms)
    assert statistics.mean(dyn) < statistics.mean(sta)


def test_validation() -> None:
    with pytest.raises(ValueError):
        make_spec(SchemeKind.TRI, workers=0)
    with pytest.raises(ValueError):
        make_spec(SchemeKind.TRI, mode="eager")
    with pytest.raises(ValueError, match="seed must be >= 0"):
        make_spec(SchemeKind.TRI, seed=-1)  # before run_job can start a thread
    for bad in [dict(workers=2.5), dict(workers=True), dict(seed=1.5), dict(seed=np.True_)]:
        with pytest.raises(ValueError, match="workers and seed must be integers"):
            make_spec(SchemeKind.TRI, **bad)
    assert make_spec(SchemeKind.TRI, workers=np.int64(2), seed=np.uint8(3)).workers == 2
    with pytest.raises(ValueError):
        make_spec(SchemeKind.TRI, worker_delay_factors=(1.0, 2.0))  # wrong length
    for t0_ms, lam_inv_ms in [(math.nan, 0.0), (math.inf, 0.0), (1.0, math.nan), (-1.0, 0.0)]:
        with pytest.raises(ValueError, match="delay parameters must be >= 0 and finite"):
            InjectedDelay(t0_ms, lam_inv_ms)
    with pytest.raises(ValueError):
        run_job(
            make_spec(
                SchemeKind.TRI,
                M1=random_matrix(8, 8, PrimeModulus(101), seed=5),
            )
        )


@pytest.mark.parametrize("p", [(1000, 2, 1000), (3, 1, 1), (1, 3, 1), (1, 1, 3)])
def test_indivisible_partition_refused_before_the_grid(monkeypatch, p) -> None:
    # At (1000, 2, 1000) tri's grid would hold 3 million tasks for a 4x4 input.
    def never(*args):
        raise AssertionError("built the grid of an indivisible partition")

    monkeypatch.setattr(rt, "grid_axes", never)
    monkeypatch.setattr(rt, "encode_shares", never)
    spec = make_spec(SchemeKind.TRI, p=PartitionScheme(*p), M0=random_matrix(4, 4, FBIG, 1),
                     M1=random_matrix(4, 4, FBIG, 2))
    with pytest.raises(DimensionError, match="not divisible"):
        run_job(spec)


def test_idle_workers_cost_no_memory() -> None:
    # A 12-task job: at most 12 threads start, whatever the worker count.
    spec = make_spec(SchemeKind.TRI, M0=random_matrix(4, 4, FBIG, 1),
                     M1=random_matrix(4, 4, FBIG, 2), workers=10**6)
    tracemalloc.start()
    try:
        out, _ = run_job(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out == matrix_multiply(spec.M0, spec.M1)
    assert peak < 5 * 2**20


@pytest.mark.parametrize("bad", [-5.0, math.nan, math.inf])
def test_worker_delay_factors_must_be_finite_and_nonnegative(bad: float) -> None:
    # Rejected when the spec is built, before run_job can start a thread.
    with pytest.raises(ValueError, match="worker_delay_factors must be >= 0 and finite"):
        make_spec(
            SchemeKind.TRI,
            workers=2,
            delay=InjectedDelay(1.0, 1.0),
            worker_delay_factors=(1.0, bad),
        )


def test_trace_csv_shape() -> None:
    _, trace = run_job(make_spec(SchemeKind.BI2, workers=4))
    text = render_trace_csv(trace)
    lines = text.strip().split("\n")
    assert lines[0] == "task_id,x,y,z,worker,start_ms,end_ms"
    assert len(lines) == 1 + recovery_threshold(SchemeKind.BI2, PartitionScheme(2, 2, 2))
    first = lines[1].split(",")
    assert len(first) == 7
    # bi2 points live on (y, z); the x column stays blank
    assert first[1] == ""
    assert first[2] != "" and first[3] != ""
    float(first[5]), float(first[6])


def test_trace_csv_epc_axes() -> None:
    spec = make_spec(SchemeKind.EPC, workers=2)
    _, trace = run_job(spec)
    row = render_trace_csv(trace).strip().split("\n")[1].split(",")
    assert row[1] != "" and row[2] == "" and row[3] == ""


@pytest.mark.parametrize(
    "rows, message",
    [(4, "cannot multiply 8x8 by 4x8"), (8, "operands use different moduli")],
    ids=["inner-first", "moduli"],
)
def test_operands_checked_as_matrix_multiply_checks_them(rows: int, message: str) -> None:
    # One contract for both products: inner dimensions first, then moduli.
    spec = make_spec(SchemeKind.TRI, M1=random_matrix(rows, 8, PrimeModulus(101), seed=5))
    for product in (lambda: run_job(spec), lambda: matrix_multiply(spec.M0, spec.M1)):
        with pytest.raises(DimensionError, match=f"^{message}$"):
            product()
