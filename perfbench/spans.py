"""Spans around the program's public functions, and the per-layer metrics.

The traced run replaces each function at the name its caller looks it up
by (for example `coded_matmul.cli.matrix_multiply`) with a wrapper that
records a span: name, start, end, parent span and job id.  Parents are
tracked per thread, so the runtime's worker threads record top-level spans
tagged with the job that started them.  Spans stay in memory; metrics are
computed from them after the run.

A function that the program no longer defines is skipped, and one that it
no longer calls records nothing: its metrics read zero.  This module
imports only the standard library.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    job: int | None
    info: dict | None

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def func(self) -> str:
        return self.name.rsplit(".", 1)[-1]


def _dims(m) -> tuple[int, int] | None:
    if hasattr(m, "rows"):
        return m.rows, m.cols
    shape = getattr(m, "shape", None)
    return (shape[0], shape[1]) if shape is not None and len(shape) == 2 else None


def _matmul_info(args, kwargs, result) -> dict:
    a, b = (args + tuple(kwargs.values()))[:2]
    da, db = _dims(a), _dims(b)
    return {"macs": da[0] * da[1] * db[1]} if da and db else {}


def _decode_info(args, kwargs, result) -> dict:
    results = kwargs.get("results", args[3] if len(args) > 3 else None)
    return {"results": len(results)} if results is not None else {}


def _search_info(args, kwargs, result) -> dict:
    return {"candidates": result.feasible_count}


def _sim_info(args, kwargs, result) -> dict:
    cfg = kwargs.get("cfg", args[0] if args else None)
    return {"trials": cfg.trials}


# (module under coded_matmul, attribute its code calls, extra counts).
WRAPPED = (
    ("cli", "read_matrix", None),
    ("cli", "write_matrix", None),
    ("cli", "partition_matrix", None),
    ("cli", "encode_block", None),
    ("cli", "matrix_multiply", _matmul_info),
    ("cli", "decode_product", _decode_info),
    ("runtime", "partition_matrix", None),
    ("runtime", "encode_block", None),
    ("runtime", "matrix_multiply", _matmul_info),
    ("runtime", "decode_product", _decode_info),
    ("schemes", "assemble_blocks", None),
    ("optimizer", "search_best_partition", _search_info),
    ("optimizer", "feasible_partitions", None),
    ("optimizer", "compute_overheads", None),
    ("optimizer", "estimate_mean_latency", _sim_info),
)


class Tracer:
    """Collects spans from wrapped functions while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.job: int | None = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        """Record one span around the block; yields a dict for its counts."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        job = self.job
        extra: dict = {}
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield extra
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, job, extra or None))

    def _wrap(self, name: str, fn, info_fn):
        def wrapped(*args, **kwargs):
            with self.span(name) as info:
                result = fn(*args, **kwargs)
                if info_fn is not None:
                    try:
                        info.update(info_fn(args, kwargs, result))
                    except (AttributeError, IndexError, TypeError, ValueError):
                        pass
                return result

        return wrapped

    def install(self, package) -> None:
        for mod_name, attr, info_fn in WRAPPED:
            module = getattr(package, mod_name, None)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            self._restore.append((module, attr, fn))
            setattr(module, attr, self._wrap(f"{mod_name}.{attr}", fn, info_fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()


def _covered(spans: list[Span], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the spans' intervals."""
    total, reach = 0.0, lo
    for s in sorted(spans, key=lambda s: s.start):
        start, end = max(s.start, reach), min(s.end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_time(span: Span, children: list[Span]) -> float:
    return span.seconds - _covered(children, span.start, span.end)


# name -> unit, in print order.  BENCHMARK.json lists the same names and
# units; the benchmark's tests keep the two in step.  Times and counts are
# means per traced job.
LAYER_UNITS = {
    "blockmat.matmul_s": "s",
    "blockmat.matmul_calls": "count",
    "blockmat.matmul_macs": "count",
    "blockmat.matmul_macs_per_s": "1/s",
    "blockmat.matmul_share": "ratio",
    "blockmat.partition_s": "s",
    "blockmat.assemble_s": "s",
    "blockmat.io_s": "s",
    "schemes.encode_s": "s",
    "schemes.encode_calls": "count",
    "schemes.uploads": "count",
    "schemes.encode_calls_per_upload": "ratio",
    "schemes.decode_s": "s",
    "schemes.decode_results": "count",
    "schemes.r_th": "count",
    "schemes.codec_share": "ratio",
    "cli.self_s": "s",
    "runtime.pre_post_s": "s",
    "runtime.worker_busy_s": "s",
    "runtime.task_compute_s": "s",
    "runtime.task_noncompute_s": "s",
    "runtime.noncompute_share": "ratio",
    "runtime.parallel_eff": "ratio",
    "runtime.straggler_wait_s": "s",
    "runtime.completions_to_decode": "count",
    "runtime.shares_encoded": "count",
    "straggler_sim.calls": "count",
    "straggler_sim.trials": "count",
    "straggler_sim.busy_s": "s",
    "straggler_sim.trial_us": "us",
    "straggler_sim.share": "ratio",
    "optimizer.searches": "count",
    "optimizer.candidates": "count",
    "optimizer.sims_per_candidate": "ratio",
    "optimizer.enumerate_s": "s",
    "optimizer.self_s": "s",
    "overheads.calls": "count",
    "overheads.busy_s": "s",
    "bench.job_s": "s",
    "bench.traced_jobs": "count",
    "bench.failed_frac": "ratio",
    "bench.trace_overhead": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    spans: list[Span],
    jobs: list[dict],
    failed_frac: float,
    untraced_p50: float,
    traced_p50: float,
) -> dict[str, float]:
    """Per-layer metrics from a traced run.

    Each traced job has one span named `bench.job.<entry point>` and one
    dict in `jobs`, holding where they apply `uploads` (R0 + R1), `r_th`,
    and for runtime jobs `run_s` (run_job wall time), `total_ms`,
    `workers`, `encoded` (shares the runtime encoded) and `records`, one
    (worker, start_ms, end_ms) per task.
    """
    n = len(jobs)
    by_func: dict[str, list[Span]] = defaultdict(list)
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        by_func[s.func].append(s)
        if s.parent is not None:
            children[s.parent].append(s)

    def busy(func: str, prefix: str = "") -> float:
        return sum(s.seconds for s in by_func[func] if s.name.startswith(prefix))

    def count(func: str, key: str | None = None, prefix: str = "") -> int:
        picked = [s for s in by_func[func] if s.name.startswith(prefix)]
        if key is None:
            return len(picked)
        return sum((s.info or {}).get(key, 0) for s in picked)

    job_spans = [s for s in spans if s.name.startswith("bench.job.")]
    job_s = sum(s.seconds for s in job_spans)
    matmul_s = busy("matrix_multiply")
    encode_s = busy("encode_block")
    decode_s = sum(self_time(s, children[s.sid]) for s in by_func["decode_product"])
    sim_s = busy("estimate_mean_latency")
    enum_s = busy("feasible_partitions")
    sims = count("estimate_mean_latency")
    trials = count("estimate_mean_latency", "trials")
    candidates = count("search_best_partition", "candidates")
    encode_calls = count("encode_block")
    uploads = sum(j.get("uploads", 0) for j in jobs)
    macs = count("matrix_multiply", "macs")

    runtime_jobs = [j for j in jobs if "records" in j]
    worker_busy = sum((e - s) / 1000 for j in runtime_jobs for _, s, e in j["records"])
    task_compute = busy("matrix_multiply", "runtime.")
    run_window = sum(j["workers"] * j["total_ms"] / 1000 for j in runtime_jobs)
    wait = 0.0
    for j in runtime_jobs:
        last: dict[int, float] = {}
        for w, _, e in j["records"]:
            last[w] = max(last.get(w, 0.0), e)
        if last:
            wait += (j["total_ms"] - min(last.values())) / 1000

    cli_self = sum(
        self_time(s, children[s.sid]) for s in job_spans if s.name == "bench.job.multiply"
    )
    sweep_s = sum(s.seconds for s in job_spans if s.name == "bench.job.sweep")

    def per_job(total: float) -> float:
        return _ratio(total, n)

    return {
        "blockmat.matmul_s": per_job(matmul_s),
        "blockmat.matmul_calls": per_job(count("matrix_multiply")),
        "blockmat.matmul_macs": per_job(macs),
        "blockmat.matmul_macs_per_s": _ratio(macs, matmul_s),
        "blockmat.matmul_share": _ratio(matmul_s, job_s),
        "blockmat.partition_s": per_job(busy("partition_matrix")),
        "blockmat.assemble_s": per_job(busy("assemble_blocks")),
        "blockmat.io_s": per_job(busy("read_matrix") + busy("write_matrix")),
        "schemes.encode_s": per_job(encode_s),
        "schemes.encode_calls": per_job(encode_calls),
        "schemes.uploads": per_job(uploads),
        "schemes.encode_calls_per_upload": _ratio(encode_calls, uploads),
        "schemes.decode_s": per_job(decode_s),
        "schemes.decode_results": per_job(count("decode_product", "results")),
        "schemes.r_th": per_job(sum(j.get("r_th", 0) for j in jobs)),
        "schemes.codec_share": _ratio(encode_s + decode_s, job_s),
        "cli.self_s": per_job(cli_self),
        "runtime.pre_post_s": per_job(
            sum(j["run_s"] - j["total_ms"] / 1000 for j in runtime_jobs)
        ),
        "runtime.worker_busy_s": per_job(worker_busy),
        "runtime.task_compute_s": per_job(task_compute),
        "runtime.task_noncompute_s": per_job(worker_busy - task_compute),
        "runtime.noncompute_share": _ratio(worker_busy - task_compute, worker_busy),
        "runtime.parallel_eff": _ratio(worker_busy, run_window),
        "runtime.straggler_wait_s": per_job(wait),
        "runtime.completions_to_decode": per_job(
            count("decode_product", "results", "runtime.")
        ),
        "runtime.shares_encoded": per_job(sum(j.get("encoded", 0) for j in runtime_jobs)),
        "straggler_sim.calls": per_job(sims),
        "straggler_sim.trials": per_job(trials),
        "straggler_sim.busy_s": per_job(sim_s),
        "straggler_sim.trial_us": _ratio(sim_s, trials) * 1e6,
        "straggler_sim.share": _ratio(sim_s, job_s),
        "optimizer.searches": per_job(count("search_best_partition")),
        "optimizer.candidates": per_job(candidates),
        "optimizer.sims_per_candidate": _ratio(sims, candidates),
        "optimizer.enumerate_s": per_job(enum_s),
        "optimizer.self_s": per_job(sweep_s - enum_s - sim_s),
        "overheads.calls": per_job(count("compute_overheads")),
        "overheads.busy_s": per_job(busy("compute_overheads")),
        "bench.job_s": per_job(job_s),
        "bench.traced_jobs": n,
        "bench.failed_frac": failed_frac,
        "bench.trace_overhead": _ratio(traced_p50, untraced_p50) - 1.0,
    }
