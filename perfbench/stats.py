"""Order statistics and the end-to-end metric table.

This module imports only the standard library, so the benchmark can time
the program's import before anything heavy is loaded.
"""

from __future__ import annotations

import statistics

# A tail figure is only reported where at least this many samples lie
# beyond it, so one slow job cannot set it on its own.
TAIL_BEYOND = 10

# name -> unit, in print order.  BENCHMARK.json lists the same names and
# units; the benchmark's tests keep the two in step.
END_TO_END_UNITS = {
    "setup_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "jobs_per_s": "1/s",
    "correct_frac": "ratio",
    "peak_rss_mb": "MB",
}


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest order statistic with at least TAIL_BEYOND samples above it.

    Returns (value, percentile, samples beyond it).  The percentile is the
    share of samples at or below the value.  The tail is never taken below
    the median, so with fewer than 2 * TAIL_BEYOND samples it is the upper
    median, with fewer samples beyond.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    rank = max(n - TAIL_BEYOND, (n + 1) // 2)
    return xs[rank - 1], 100.0 * rank / n, n - rank


def end_to_end(
    setup_samples: list[float],
    job_times: list[float],
    ok_jobs: int,
    peak_rss_mb: float,
) -> dict[str, float]:
    """Every end-to-end metric from one untraced run's raw measurements.

    `correct_frac` is 1 - failed_frac: failed jobs are zero on a healthy
    commit, and a metric that reads zero has no median to compare against.
    """
    tail_value, _, _ = tail(job_times)
    return {
        "setup_s": statistics.median(setup_samples),
        "job_p50_s": statistics.median(job_times),
        "job_tail_s": tail_value,
        "jobs_per_s": ok_jobs / sum(job_times),
        "correct_frac": ok_jobs / len(job_times),
        "peak_rss_mb": peak_rss_mb,
    }
