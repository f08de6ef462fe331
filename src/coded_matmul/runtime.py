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
from dataclasses import dataclass, field

import numpy as np

from .blockmat import DimensionError, Matrix, PartitionScheme, matrix_multiply
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
    delay: InjectedDelay | None = None
    worker_delay_factors: tuple[float, ...] | None = None
    seed: int = 0
    mode: str = "dynamic"

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
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


def _delay_ms(
    delay: InjectedDelay | None, K: int, rng: np.random.Generator, factor: float
) -> float:
    if delay is None:
        return 0.0
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
    kind, p = spec.kind, spec.p
    grid = evaluation_grid(kind, p, spec.M0.modulus)

    def task_shares(input_id: int, m: Matrix) -> tuple[list[Matrix], int]:
        """The share of m each task uses, and how many distinct shares there are."""
        projs = [project_point(kind, input_id, t) for t in grid.tasks]
        distinct = list(dict.fromkeys(projs))
        shares = encode_shares(kind, p, input_id, m, distinct)
        by_proj = {pt: Matrix(*s.shape, s, m.modulus) for pt, s in zip(distinct, shares)}
        return [by_proj[pt] for pt in projs], len(distinct)

    shares0, encoded0 = task_shares(0, spec.M0)
    shares1, encoded1 = task_shares(1, spec.M1)
    tasks = list(zip(range(len(grid.tasks)), grid.tasks, shares0, shares1))

    # Start no thread for workers past the task count: none would get a
    # task.  Static task i goes to worker i mod workers, below n_threads.
    n_threads = min(spec.workers, len(tasks))
    if spec.mode == "dynamic":
        shared: queue.Queue = queue.Queue()
        for t in tasks:
            shared.put(t)
        for _ in range(n_threads):
            shared.put(None)
        inboxes = [shared] * n_threads
    else:
        inboxes = [queue.Queue() for _ in range(n_threads)]
        for t in tasks:
            inboxes[t[0] % spec.workers].put(t)
        for box in inboxes:
            box.put(None)

    outbox: queue.Queue = queue.Queue()
    job_start = time.perf_counter()

    def now_ms() -> float:
        return (time.perf_counter() - job_start) * 1000.0

    def worker_loop(wid: int, inbox: queue.Queue) -> None:
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((spec.seed, wid))))
        factor = (
            spec.worker_delay_factors[wid]
            if spec.worker_delay_factors is not None
            else 1.0
        )
        while True:
            msg = inbox.get()
            if msg is None:
                outbox.put(("exit", wid))
                return
            tid, point, s0, s1 = msg
            start = now_ms()
            try:
                sleep_ms = _delay_ms(spec.delay, p.K, rng, factor)
                if sleep_ms > 0:
                    time.sleep(sleep_ms / 1000.0)
                product = matrix_multiply(s0, s1)
            except Exception as exc:
                outbox.put(("error", wid, tid, f"{type(exc).__name__}: {exc}"))
                continue
            outbox.put(("result", wid, tid, point, product, start, now_ms()))

    threads = [
        threading.Thread(target=worker_loop, args=(wid, inboxes[wid]), daemon=True)
        for wid in range(n_threads)
    ]
    for t in threads:
        t.start()

    need = len(tasks)
    records: list[TaskRecord] = []
    results: list[TaskResult] = []
    per_worker = {wid: 0 for wid in range(spec.workers)}
    first_error: str | None = None
    exited = 0
    while len(results) < need and exited < n_threads:
        msg = outbox.get()
        if msg[0] == "result":
            _, wid, tid, point, product, start, end = msg
            records.append(TaskRecord(tid, point, wid, start, end))
            results.append(TaskResult(point, product))
            per_worker[wid] += 1
        elif msg[0] == "error":
            if first_error is None:
                first_error = f"task {msg[2]} on worker {msg[1]}: {msg[3]}"
        else:
            exited += 1
    total_ms = now_ms()
    for t in threads:
        t.join()

    records.sort(key=lambda r: r.task_id)
    trace = JobTrace(
        kind=kind,
        mode=spec.mode,
        records=records,
        total_ms=total_ms,
        per_worker_counts=per_worker,
        encode_counts=(encoded0, encoded1),
    )
    if len(results) < need:
        raise JobFailed(first_error or "workers exited before finishing", trace)

    product = decode_product(kind, p, grid, results)
    return product, trace


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
