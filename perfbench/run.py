"""Benchmark for coded-matmul: end-to-end metrics, or a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`.  With `--trace 0` the run sets up, then times whole cycles of jobs
(one job per scheme, or one sweep of all four) for about S seconds, and
prints the end-to-end metrics.  With `--trace 1` it times S/2 seconds
untraced and S/2 seconds with spans around the program's functions, and
prints the per-layer metrics.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; the line before it holds the
run's details: environment, tail percentile, sample counts and bases.

Set-up time is import plus one warm-up job in a fresh interpreter.  The run
measures it once itself and SETUP_PROBES more times in child processes,
and reports the median.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from spans import LAYER_UNITS, Tracer, layer_metrics
from stats import END_TO_END_UNITS, end_to_end, tail

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = SRC / "coded_matmul"
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 120


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true",
                    help="only set up, and print the set-up time")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_program():
    """Import the package from this checkout's src/; returns (package, seconds)."""
    if not (PACKAGE / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {PACKAGE.relative_to(ROOT)}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    package = importlib.import_module("coded_matmul")
    for module in ("cli", "runtime", "optimizer"):
        importlib.import_module(f"coded_matmul.{module}")
    seconds = time.perf_counter() - start
    if Path(package.__file__).resolve().parent != PACKAGE:
        raise SystemExit(f"error: imported coded_matmul from {package.__file__}")
    return package, seconds


def set_up(args, workdir: Path):
    """Import, build the workload, run the warm-up job; returns the
    package, the workload and the set-up time (import plus warm-up)."""
    package, import_s = import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(
            f"error: unknown workload {args.workload!r}; "
            f"expected one of {', '.join(workloads.WORKLOADS)}"
        )
    wl = workloads.make(args.workload, args.seed, workdir)
    start = time.perf_counter()
    wl.warm_up()
    return package, wl, import_s + time.perf_counter() - start


def probe_setup(args) -> float:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "1", "--probe-setup",
    ]
    res = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S
    )
    if res.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {res.stderr.strip()}")
    return json.loads(res.stdout.splitlines()[-1])["setup_s"]


def run_jobs(wl, first: int, seconds: float, errors: list[str], tracer=None):
    """Closed loop of whole cycles of `wl.cycle` for about `seconds`.

    A new cycle starts only while it is expected to end less than half a
    cycle past the deadline, so runs last `seconds` on average.  Returns
    job times, correct-job count, the next job index and, when traced, one
    facts dict per job.
    """
    times: list[float] = []
    facts: list[dict] = []
    ok = 0
    i = first
    begin = time.perf_counter()
    deadline = begin + seconds
    cycles = 0
    while True:
        for _ in wl.cycle:
            out, raised = None, False
            if tracer is not None:
                tracer.job = i
            start = time.perf_counter()
            try:
                if tracer is None:
                    out = wl.run(i)
                else:
                    with tracer.span(wl.span):
                        out = wl.run(i)
            except Exception:
                raised = True
                errors.append(f"job {i}: {traceback.format_exc(limit=3)}")
            elapsed = time.perf_counter() - start
            times.append(elapsed)
            try:
                good = not raised and wl.check(i, out)
            except Exception:
                good = False
                errors.append(f"check {i}: {traceback.format_exc(limit=3)}")
            if not good and not raised:
                errors.append(f"job {i}: wrong output")
            ok += good
            if tracer is not None:
                try:
                    facts.append(wl.facts(i, out, elapsed) if good else {})
                except (AttributeError, TypeError):  # the job's result changed shape
                    facts.append({})
            i += 1
        cycles += 1
        now = time.perf_counter()
        if now + (now - begin) / cycles / 2 >= deadline:
            return times, ok, i, facts


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "source_lines": sum(
            len(p.read_text().splitlines()) for p in sorted(PACKAGE.glob("*.py"))
        ),
    }


def cycle_medians(times: list[float], cycle: tuple[str, ...]) -> dict[str, float]:
    """Median job time per position in the workload's cycle."""
    return {k: statistics.median(times[j :: len(cycle)]) for j, k in enumerate(cycle)}


def benchmark(args, workdir: Path) -> tuple[dict, dict]:
    package, wl, setup_s = set_up(args, workdir)
    if args.probe_setup:
        return {"setup_s": setup_s}, {}
    setup_samples = [setup_s]
    if not args.trace:
        setup_samples += [probe_setup(args) for _ in range(SETUP_PROBES)]
    wl.prepare()
    errors: list[str] = []
    detail: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace}

    if not args.trace:
        times, ok, _, _ = run_jobs(wl, 0, args.seconds, errors)
        all_times = times
        metrics = end_to_end(
            setup_samples,
            times,
            ok,
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
        units = END_TO_END_UNITS
    else:
        plain, ok_plain, nxt, _ = run_jobs(wl, 0, args.seconds / 2, errors)
        tracer = Tracer()
        tracer.install(package)
        try:
            traced, ok_traced, _, facts = run_jobs(wl, nxt, args.seconds / 2, errors, tracer)
        finally:
            tracer.uninstall()
        all_times = plain + traced
        ok = ok_plain + ok_traced
        metrics = layer_metrics(
            tracer.spans,
            facts,
            1 - ok / len(all_times),
            statistics.median(plain),
            statistics.median(traced),
        )
        units = LAYER_UNITS
        times = plain
        detail["spans"] = len(tracer.spans)

    deterministic = wl.deterministic()
    failed = len(all_times) - ok
    tail_value, percentile, beyond = tail(times)
    detail.update(
        jobs=len(all_times),
        failed=failed,
        failed_frac=failed / len(all_times),
        deterministic=deterministic,
        setup_samples_s=setup_samples,
        tail={"value_s": tail_value, "percentile": percentile,
              "samples": len(times), "beyond": beyond},
        cycle_p50_s=cycle_medians(times, wl.cycle),
        environment=environment(),
        errors=errors[:3],
    )
    result = {
        "correct": failed == 0 and deterministic,
        "attempted": len(all_times),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    workroot = ROOT / ".perfbench_work"
    workdir = workroot / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result, detail = benchmark(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workroot.rmdir()
        except OSError:
            pass
    if detail:
        print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
