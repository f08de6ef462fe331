"""Local concurrent master/worker engine running one coded multiplication.

`run_job` is the package's one coded pipeline: `coded-matmul multiply` runs
it with a single worker thread, and `coded-matmul run` with several.

One coordinator thread owns all job state: it encodes each input once, in
one `encode_shares` call at the distinct projections of the grid's task
points onto that input's axes (so a share reused across an axis is encoded
once, and the number of projections IS the upload count), fills a work
queue, and decodes once every grid task has reported.  Workers are plain
threads that receive immutable task messages, optionally sleep a sampled
straggler delay, multiply their two shares, and send the result back.
Nothing mutable is shared; all communication is via queues.

A `Matrix` appears only at the job's ends: its two inputs and the decoded
product it returns.  In between the job holds arrays: each task's shares
are read-only rows of the `encode_shares` arrays, workers multiply them
with `modmatmul`, and result blocks travel to `decode_product` as they
came out of the kernel.

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
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .blockmat import DimensionError, Matrix, PartitionScheme, modmatmul
from .schemes import (
    SchemeKind,
    TaskResult,
    axis_names,
    decode_product,
    encode_shares,
    evaluation_grid,
    project_point,
)


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
    mode: str
    records: list[TaskRecord]
    total_ms: float
    per_worker_counts: dict[int, int]
    encode_counts: tuple[int, int] = field(default=(0, 0))


def _delay_ms(delay: InjectedDelay, K: int, rng: np.random.Generator, factor: float) -> float:
    tail = rng.standard_exponential() * delay.lam_inv_ms if delay.lam_inv_ms > 0 else 0.0
    return (delay.t0_ms + tail) / K * factor


def run_job(spec: JobSpec) -> tuple[Matrix, JobTrace]:
    """Execute the coded multiplication on worker threads and decode."""
    if spec.M0.modulus.q != spec.M1.modulus.q:
        raise DimensionError("M0 and M1 use different moduli")
    if spec.M0.cols != spec.M1.rows:
        raise DimensionError(
            f"cannot multiply {spec.M0.rows}x{spec.M0.cols} by {spec.M1.rows}x{spec.M1.cols}"
        )
    kind, p, modulus = spec.kind, spec.p, spec.M0.modulus
    points = evaluation_grid(kind, p, modulus)

    def task_shares(input_id: int, m: Matrix) -> tuple[list[np.ndarray], int]:
        """The share of m each task uses, and how many distinct shares there are."""
        projs = [project_point(kind, input_id, t) for t in points]
        row = {pt: i for i, pt in enumerate(dict.fromkeys(projs))}
        shares = encode_shares(kind, p, input_id, m, list(row))
        shares.flags.writeable = False
        return [shares[row[pt]] for pt in projs], len(row)

    shares0, encoded0 = task_shares(0, spec.M0)
    shares1, encoded1 = task_shares(1, spec.M1)
    tasks = list(zip(range(len(points)), points, shares0, shares1))

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

    # Workers post (record, result) per task, an error string per failed
    # task, and None when they exit.
    outbox: queue.Queue = queue.Queue()
    job_start = time.perf_counter()

    def now_ms() -> float:
        return (time.perf_counter() - job_start) * 1000.0

    def worker_loop(wid: int, inbox: queue.SimpleQueue) -> None:
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((spec.seed, wid))))
        factor = (
            spec.worker_delay_factors[wid]
            if spec.worker_delay_factors is not None
            else 1.0
        )
        try:
            for tid, point, s0, s1 in iter(inbox.get, None):
                start = now_ms()
                try:
                    sleep_ms = _delay_ms(spec.delay, p.K, rng, factor)
                    if sleep_ms > 0:
                        time.sleep(sleep_ms / 1000.0)
                    product = modmatmul(s0, s1, modulus.q)
                except Exception as exc:
                    outbox.put(f"task {tid} on worker {wid}: {type(exc).__name__}: {exc}")
                    continue
                record = TaskRecord(tid, point, wid, start, now_ms())
                outbox.put((record, TaskResult(point, product)))
        finally:
            # Posted however the thread ends, so that a worker killed by a
            # BaseException still counts as exited and the job fails.
            outbox.put(None)

    threads = [
        threading.Thread(target=worker_loop, args=(wid, inboxes[wid]), daemon=True)
        for wid in range(n_threads)
    ]
    for t in threads:
        t.start()

    records: list[TaskRecord] = []
    results: list[TaskResult] = []
    errors: list[str] = []
    exited = 0
    while len(results) < len(tasks) and exited < n_threads:
        msg = outbox.get()
        if msg is None:
            exited += 1
        elif isinstance(msg, str):
            errors.append(msg)
        else:
            records.append(msg[0])
            results.append(msg[1])
    total_ms = now_ms()
    for t in threads:
        t.join()

    records.sort(key=lambda r: r.task_id)
    done = Counter(r.worker for r in records)
    trace = JobTrace(
        kind=kind,
        mode=spec.mode,
        records=records,
        total_ms=total_ms,
        per_worker_counts={wid: done[wid] for wid in range(spec.workers)},
        encode_counts=(encoded0, encoded1),
    )
    if len(results) < len(tasks):
        raise JobFailed(errors[0] if errors else "workers exited before finishing", trace)

    return decode_product(kind, p, results, modulus), trace


def render_trace_csv(trace: JobTrace) -> str:
    """Trace as `task_id,x,y,z,worker,start_ms,end_ms`; absent axes blank."""
    names = axis_names(trace.kind)
    lines = ["task_id,x,y,z,worker,start_ms,end_ms"]
    for r in trace.records:
        coords = dict(zip(names, r.point))
        lines.append(
            ",".join(
                [
                    str(r.task_id),
                    *(str(coords.get(ax, "")) for ax in ("x", "y", "z")),
                    str(r.worker),
                    f"{r.start_ms:.3f}",
                    f"{r.end_ms:.3f}",
                ]
            )
        )
    return "\n".join(lines) + "\n"
