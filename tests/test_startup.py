"""Start-up contract: what importing the package does to a fresh interpreter.

Each case runs in a new interpreter, since only a process's first import of
numpy shows whether the package chose BLAS threading in time.  Importing
any part of the package leaves `os.environ` as it found it, and leaves
OpenBLAS on one thread, started without a pool when numpy comes in with the
package.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs the statements in argv[1] and prints, as JSON: the environment
# variables they changed, OPENBLAS_NUM_THREADS as the C library now sees it
# (what a child process inherits), the threads OpenBLAS reports (None where
# no getter is found), the process's OS threads (None where /proc/self/task
# is missing) and whether numpy.random was imported.
PROBE = """
import ctypes, json, os, sys
before = dict(os.environ)
exec(sys.argv[1])
after = dict(os.environ)
changed = sorted(k for k in before.keys() | after.keys() if before.get(k) != after.get(k))
c_env = None
if os.name == "posix":
    getenv = ctypes.CDLL(None).getenv
    getenv.argtypes, getenv.restype = [ctypes.c_char_p], ctypes.c_char_p
    c_env = getenv(b"OPENBLAS_NUM_THREADS")
    c_env = c_env and c_env.decode()
core = sys.modules.get("numpy._core._multiarray_umath") or sys.modules.get(
    "numpy.core._multiarray_umath"
)
blas = None
for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
             "openblas_get_num_threads64_", "openblas_get_num_threads"):
    getter = getattr(ctypes.CDLL(core.__file__), name, None)
    if getter is not None:
        getter.argtypes, getter.restype = [], ctypes.c_int
        blas = getter()
        break
task = "/proc/self/task"
threads = len(os.listdir(task)) if os.path.isdir(task) else None
print(json.dumps({"changed": changed, "c_env": c_env, "blas": blas, "threads": threads,
                  "numpy_random": "numpy.random" in sys.modules}))
"""

# A 2 x 2 product through `coded-matmul multiply`, from A_FILE into C_FILE.
MULTIPLY = """
from coded_matmul import cli
argv = ["multiply", "--scheme", "tri", "--p0", "2", "--p1", "1", "--p2", "2",
        "--a", A_FILE, "--b", A_FILE, "--out", C_FILE]
assert cli.main(argv) == 0
"""

# (statements run, OPENBLAS_NUM_THREADS preset or None for unset)
CASES = {
    "runtime": ("import coded_matmul.runtime", None),
    "cli": ("import coded_matmul.cli", None),
    "runtime-preset-3": ("import coded_matmul.runtime", "3"),
    "cli-preset-3": ("import coded_matmul.cli", "3"),
    "numpy-first": ("import numpy, coded_matmul.cli", None),
    "multiply": (MULTIPLY, None),
}
# The imports that bring numpy in.  multiply is left out: a worker thread it
# joined may still be listed while the OS ends it.
PACKAGE_FIRST = ["runtime", "cli", "runtime-preset-3", "cli-preset-3"]


def _env(preset: str | None) -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    return env


@pytest.fixture(scope="module")
def work(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("startup")
    (path / "a.txt").write_text("2 2 7\n1 2\n3 4\n")
    return path


@pytest.fixture(scope="module")
def probes(work) -> dict[str, dict]:
    """Every case's report; the interpreters run side by side."""
    files = f"A_FILE = {str(work / 'a.txt')!r}\nC_FILE = {str(work / 'c.txt')!r}\n"
    procs = {
        case: subprocess.Popen(
            [sys.executable, "-c", PROBE, files + code],
            env=_env(preset), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for case, (code, preset) in CASES.items()
    }
    reports = {}
    for case, proc in procs.items():
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err
        reports[case] = json.loads(out)
    return reports


@pytest.mark.parametrize("case", list(CASES))
def test_import_leaves_environment_unchanged(probes, case: str) -> None:
    preset = CASES[case][1]
    assert probes[case]["changed"] == []
    if os.name == "posix":
        assert probes[case]["c_env"] == preset


@pytest.mark.parametrize("case", list(CASES))
def test_blas_runs_on_one_thread(probes, case: str) -> None:
    if probes[case]["blas"] is None:
        pytest.skip("no OpenBLAS get_num_threads symbol in numpy's core")
    assert probes[case]["blas"] == 1


@pytest.mark.parametrize("case", PACKAGE_FIRST)
def test_import_starts_no_thread(probes, case: str) -> None:
    if probes[case]["threads"] is None:
        pytest.skip("needs /proc/self/task")
    assert probes[case]["threads"] == 1


def test_multiply_never_imports_numpy_random(probes, work) -> None:
    # numpy.random is only needed to draw injected delays, which multiply
    # never injects.
    assert (work / "c.txt").read_text() == "2 2 7\n0 3\n1 1\n"
    assert not probes["multiply"]["numpy_random"]
