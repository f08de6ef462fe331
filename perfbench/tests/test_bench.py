"""Tests of the benchmark's own logic; run with `python3 -m pytest perfbench/tests`."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402


def _declared(key: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[key]}


# -- tail percentile ---------------------------------------------------------


@pytest.mark.parametrize(
    "samples, expected",
    [
        # at least ten samples beyond the reported one
        ([float(x) for x in range(1, 101)], (90.0, 90.0, 10)),
        ([float(x) for x in range(40, 0, -1)], (30.0, 75.0, 10)),
        ([1.0] * 1000, (1.0, 99.0, 10)),
        # too few samples: the tail is the upper median, never lower
        ([float(x) for x in range(1, 13)], (6.0, 50.0, 6)),
        ([3.0], (3.0, 100.0, 0)),
    ],
)
def test_tail_rule(samples, expected):
    assert stats.tail(samples) == expected


# -- failure counting --------------------------------------------------------


class _FakeWorkload:
    """Stands in for a workload; `wrong` jobs return a corrupted product."""

    span = "bench.job.fake"
    cycle = ("epc", "bi0", "bi2", "tri")

    def __init__(self, wrong=(), raises=()):
        self.wrong, self.raises = set(wrong), set(raises)
        self.expected = [1, 2, 3, 4]

    def run(self, i):
        if i in self.raises:
            raise RuntimeError("worker crashed")
        product = list(self.expected)
        if i in self.wrong:
            product[0] += 1
        return product

    def check(self, i, out):
        return out == self.expected

    def facts(self, i, out, seconds):
        return {}


def test_wrong_products_and_raising_jobs_count_as_failed():
    errors: list[str] = []
    wl = _FakeWorkload(wrong={1, 6}, raises={3})
    times, ok, nxt, _ = run.run_jobs(wl, 0, 1e-9, errors)
    assert len(times) == nxt == 4
    assert ok == 2
    assert len(errors) == 2
    times, ok, nxt, _ = run.run_jobs(wl, 4, 1e-9, errors)
    assert (len(times), ok, nxt) == (4, 3, 8)


def test_loop_runs_whole_four_scheme_cycles():
    times, ok, nxt, _ = run.run_jobs(_FakeWorkload(), 0, 0.01, [])
    assert len(times) % 4 == 0 and ok == len(times) == nxt


def test_multiply_check_rejects_a_corrupted_product_file(tmp_path):
    wl = workloads.MultiplyWorkload(
        "multiply_test", 7, tmp_path, n=4, q=workloads.Q31, p=(2, 2, 2)
    )
    wl.prepare()
    good = wl.refs[0]
    header = f"4 4 {workloads.Q31}\n"
    rows = [" ".join(map(str, good[r * 4 : r * 4 + 4])) for r in range(4)]
    wl.out.write_text(header + "\n".join(rows) + "\n")
    assert wl.check(0, 0)
    bad = list(good)
    bad[5] = (bad[5] + 1) % workloads.Q31
    rows = [" ".join(map(str, bad[r * 4 : r * 4 + 4])) for r in range(4)]
    wl.out.write_text(header + "\n".join(rows) + "\n")
    assert not wl.check(0, 0)
    assert not wl.check(0, 0)  # the output file is consumed by a check
    wl.out.write_text(header + "\n".join(rows) + "\n")
    assert not wl.check(0, 1)  # a non-zero exit fails even with output


def test_reference_product_is_exact_for_both_fields():
    for q in (workloads.Q31, workloads.Q61):
        a = workloads.random_matrix(3, "ref", 0, 6, q)
        b = workloads.random_matrix(3, "ref", 1, 6, q)
        want = [
            sum(int(a[i, k]) * int(b[k, j]) for k in range(6)) % q
            for i in range(6)
            for j in range(6)
        ]
        assert workloads.reference_product(a, b, q) == want


# -- printed names and units -------------------------------------------------


def test_end_to_end_names_and_units_match_benchmark_json():
    metrics = stats.end_to_end([0.5, 0.4, 0.6], [0.1, 0.2, 0.3, 0.4], 4, 50.0)
    assert list(metrics) == list(stats.END_TO_END_UNITS)
    assert stats.END_TO_END_UNITS == _declared("end_to_end")
    assert all(v > 0 for v in metrics.values())


def test_layer_names_and_units_match_benchmark_json():
    metrics = spans.layer_metrics([], [], 0.0, 1.0, 1.0)
    assert list(metrics) == list(spans.LAYER_UNITS)
    assert spans.LAYER_UNITS == _declared("per_layer")


def test_uncalled_functions_report_zero():
    metrics = spans.layer_metrics([], [{}], 0.0, 1.0, 1.0)
    assert metrics["straggler_sim.calls"] == 0
    assert metrics["blockmat.matmul_s"] == 0
    assert metrics["bench.traced_jobs"] == 1


# -- spans --------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    parent = spans.Span(0, "cli.decode_product", 0.0, 10.0, None, 1, None)
    kids = [
        spans.Span(1, "schemes.assemble_blocks", 1.0, 4.0, 0, 1, None),
        spans.Span(2, "schemes.assemble_blocks", 3.0, 5.0, 0, 1, None),
        spans.Span(3, "schemes.assemble_blocks", 9.0, 12.0, 0, 1, None),
    ]
    assert spans.self_time(parent, kids) == pytest.approx(5.0)


def test_tracer_nests_spans_and_skips_missing_functions():
    import types

    package = types.SimpleNamespace(
        cli=types.SimpleNamespace(matrix_multiply=lambda a, b: a),
        optimizer=types.SimpleNamespace(),
    )
    original = package.cli.matrix_multiply
    tracer = spans.Tracer()
    tracer.install(package)
    tracer.job = 7
    with tracer.span("bench.job.multiply"):
        package.cli.matrix_multiply(1, 2)
    tracer.uninstall()
    assert package.cli.matrix_multiply is original
    inner, outer = tracer.spans
    assert inner.name == "cli.matrix_multiply" and inner.parent == outer.sid
    assert inner.job == outer.job == 7
