"""Local concurrent master/worker engine running one coded multiplication.

`run_job` is the package's one coded pipeline: `coded-matmul multiply` runs
it with a single worker thread, and `coded-matmul run` with several.

One coordinator thread sets the job up: it encodes each input once, in
one `encode_shares` call that returns its distinct shares over the grid's
axes (so a share reused across an axis is encoded once, and the array's
size over the axes IS the upload count), and fills a work queue with one
task per grid index.  Workers are plain threads that take tasks from the
queue, optionally sleep a sampled straggler delay, multiply their two
shares, write the block into the task's own slot of the samples array,
and append the task's record, or its error, to one of two lists.  The
coordinator starts the workers and joins them all; only then does it read
the job's total time, the samples and the two lists, and decode.  A worker
that hangs therefore blocks the job in `Thread.join`.

A `Matrix` appears only at the job's ends: its two inputs and the decoded
product it returns.  In between the job holds arrays indexed by the grid:
each task's shares are read-only views of the encoded arrays broadcast to
the grid, workers multiply them with `modmatmul`, and each result block
fills its task's slot in the samples array that `decode_product` reads.

Scheduling modes: "dynamic" uses a single shared queue (idle workers pull
the next undispatched task, so a slow worker naturally takes fewer tasks);
"static" pre-assigns tasks round-robin (task i to worker i mod W), which
exists to let tests and demos measure what dynamic assignment buys.

The decoded product is bit-identical to the direct one regardless of
worker count, scheduling order, or injected delays; delays only stretch
the trace timestamps.
"""

from __future__ import annotations

import math
import queue
import threading
import time
from dataclasses import dataclass

import numpy as np

from .blockmat import (
    DimensionError,
    Matrix,
    PartitionScheme,
    check_operands,
    modmatmul,
    partition_matrix,
)
from .ffield import is_integer
from .schemes import SchemeKind, axis_names, decode_product, encode_shares, grid_axes, render_csv


class JobFailed(RuntimeError):
    """A worker failed; `.trace` holds the partial trace up to that point."""

    def __init__(self, message: str, trace: JobTrace):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class InjectedDelay:
    """Per-task sleep: (t0_ms + Exp with mean lam_inv_ms) / K milliseconds.

    Same shape as the simulator's subtask model, scaled to wall-clock
    milliseconds so traces and simulated latencies are comparable.
    lam_inv_ms = 0 disables the exponential tail, which is why this stays a
    mean and not the simulator's rate.
    """

    t0_ms: float
    lam_inv_ms: float

    def __post_init__(self) -> None:
        if not (0 <= self.t0_ms < math.inf and 0 <= self.lam_inv_ms < math.inf):
            raise ValueError("delay parameters must be >= 0 and finite")


@dataclass(frozen=True)
class JobSpec:
    kind: SchemeKind
    p: PartitionScheme
    M0: Matrix
    M1: Matrix
    workers: int
    delay: InjectedDelay = InjectedDelay(0.0, 0.0)
    worker_delay_factors: tuple[float, ...] | None = None
    seed: int = 0
    mode: str = "dynamic"

    def __post_init__(self) -> None:
        if not (is_integer(self.workers) and is_integer(self.seed)):
            raise ValueError(f"workers and seed must be integers, got {self.workers}, {self.seed}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.mode not in ("dynamic", "static"):
            raise ValueError(f"mode must be 'dynamic' or 'static', got {self.mode!r}")
        factors = self.worker_delay_factors
        if factors is not None:
            if len(factors) != self.workers:
                raise ValueError("worker_delay_factors length must equal workers")
            if not all(0 <= f < math.inf for f in factors):
                raise ValueError("worker_delay_factors must be >= 0 and finite")


@dataclass(frozen=True)
class TaskRecord:
    task_id: int
    point: tuple[int, ...]
    worker: int
    start_ms: float
    end_ms: float


@dataclass(frozen=True)
class JobTrace:
    kind: SchemeKind
    records: list[TaskRecord]
    total_ms: float
    encode_counts: tuple[int, int]


def run_job(spec: JobSpec) -> tuple[Matrix, JobTrace]:
    """Execute the coded multiplication on worker threads and decode."""
    check_operands(spec.M0, spec.M1)
    kind, p, modulus = spec.kind, spec.p, spec.M0.modulus
    # Refuse an indivisible input before the grid, whose tasks number R_th.
    partition_matrix(spec.M0, p.p0, p.p1)
    partition_matrix(spec.M1, p.p1, p.p2)
    axes = grid_axes(kind, p, modulus)
    enc0 = encode_shares(kind, p, 0, spec.M0, axes)
    enc1 = encode_shares(kind, p, 1, spec.M1, axes)
    sizes = tuple(map(len, axes))
    shares0, shares1 = (np.broadcast_to(e, sizes + e.shape[-2:]) for e in (enc0, enc1))
    block_shape = (enc0.shape[-2], enc1.shape[-1])
    samples = np.empty(sizes + block_shape, dtype=enc0.dtype)
    tasks = list(enumerate(np.ndindex(*sizes)))

    # Start no thread for workers past the task count: none would get a
    # task.  Task i goes to inbox i mod n_threads, which for every task is
    # i mod workers; dynamic mode shares one inbox among all threads.
    n_threads = min(spec.workers, len(tasks))
    if spec.mode == "dynamic":
        inboxes = [queue.SimpleQueue()] * n_threads
    else:
        inboxes = [queue.SimpleQueue() for _ in range(n_threads)]
    for t in tasks:
        inboxes[t[0] % n_threads].put(t)
    for box in inboxes:
        box.put(None)

    # Each task writes only its own slot of `samples`, `list.append` is
    # atomic in CPython, and joining every worker orders all their writes
    # before the coordinator reads them.  A worker killed by a BaseException
    # just ends, and the records it did not write fail the job.
    records: list[TaskRecord] = []
    errors: list[str] = []
    job_start = time.perf_counter()

    def now_ms() -> float:
        return (time.perf_counter() - job_start) * 1000.0

    def worker_loop(wid: int, inbox: queue.SimpleQueue) -> None:
        # A task sleeps (t0 + Exp * tail) / K * factor ms.  Without a tail,
        # `draw` is `float`, which gives 0.0, and numpy.random is never
        # imported, which spares `coded-matmul multiply` its import.
        t0, tail, factors = spec.delay.t0_ms, spec.delay.lam_inv_ms, spec.worker_delay_factors
        draw = float
        if tail > 0:
            seq = np.random.SeedSequence((spec.seed, wid))
            draw = np.random.Generator(np.random.PCG64(seq)).standard_exponential
        scale = (1.0 if factors is None else factors[wid]) / p.K
        for tid, ix in iter(inbox.get, None):
            start = now_ms()
            try:
                sleep_ms = (t0 + draw() * tail) * scale
                if sleep_ms > 0:
                    time.sleep(sleep_ms / 1000.0)
                product = modmatmul(shares0[ix], shares1[ix], modulus.q)
                # Fail a block of another shape here: numpy would broadcast
                # a (1, bc) block into its slot without a word.
                if product.shape != block_shape:
                    raise DimensionError(f"result block is {product.shape}, not {block_shape}")
                samples[ix] = product
            except Exception as exc:
                errors.append(f"task {tid} on worker {wid}: {type(exc).__name__}: {exc}")
                continue
            point = tuple(ax[i] for ax, i in zip(axes, ix))
            records.append(TaskRecord(tid, point, wid, start, now_ms()))

    threads = [
        threading.Thread(target=worker_loop, args=(wid, inboxes[wid]), daemon=True)
        for wid in range(n_threads)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    total_ms = now_ms()

    records.sort(key=lambda r: r.task_id)
    trace = JobTrace(
        kind=kind,
        records=records,
        total_ms=total_ms,
        encode_counts=(math.prod(enc0.shape[:-2]), math.prod(enc1.shape[:-2])),
    )
    # Every worker has exited, so the shares are dead: dropping them lets
    # the decode's arrays reuse their memory instead of growing the heap.
    del enc0, enc1, shares0, shares1
    if len(records) < len(tasks):
        raise JobFailed(errors[0] if errors else "workers exited before finishing", trace)

    return decode_product(kind, p, samples, modulus, axes), trace


def render_trace_csv(trace: JobTrace) -> str:
    """The trace as CSV, one row per task; axes the scheme lacks stay blank."""
    names = axis_names(trace.kind)
    return render_csv("task_id,x,y,z,worker,start_ms,end_ms", [
        {"task_id": r.task_id, **dict(zip(names, r.point)), "worker": r.worker,
         "start_ms": f"{r.start_ms:.3f}", "end_ms": f"{r.end_ms:.3f}"}
        for r in trace.records
    ])
