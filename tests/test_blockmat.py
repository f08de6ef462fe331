"""Block partition/assembly and exact modular matrix products.

The plain triple-loop product in `naive_product` below is the ground-truth
oracle: it is written independently of the library and used to check both
`matrix_multiply` and the block-product identity.
"""

from __future__ import annotations

import functools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coded_matmul.blockmat import (
    DimensionError,
    Matrix,
    PartitionScheme,
    ShapeError,
    assemble_blocks,
    format_matrix,
    matrix_multiply,
    partition_matrix,
    read_matrix,
    write_matrix,
)
from coded_matmul.ffield import PrimeModulus

import matrix_helpers as mh

F7 = PrimeModulus(7)
F101 = PrimeModulus(101)


def random_matrix(rows: int, cols: int, field: PrimeModulus, seed: int) -> Matrix:
    rng = random.Random(seed)
    return Matrix(
        rows, cols, [rng.randrange(field.q) for _ in range(rows * cols)], field
    )


def block(blocks: np.ndarray, i: int, j: int, field: PrimeModulus) -> Matrix:
    """Block (i, j) of a partition_matrix result, as a Matrix."""
    return Matrix(*blocks.shape[2:], blocks[i, j], field)


def naive_product(a: Matrix, b: Matrix) -> list[int]:
    """Definition of the matrix product, written without library helpers."""
    q = a.modulus.q
    out = []
    for i in range(a.rows):
        for j in range(b.cols):
            s = 0
            for k in range(a.cols):
                s += mh.at(a, i, k) * mh.at(b, k, j)
            out.append(s % q)
    return out


def test_partition_scheme_level() -> None:
    p = PartitionScheme(2, 3, 4)
    assert p.K == 24
    with pytest.raises(ValueError):
        PartitionScheme(0, 1, 1)


def test_partition_identity_into_quadrants() -> None:
    eye = mh.identity(4, F7)
    blocks = partition_matrix(eye, 2, 2)
    assert blocks.shape == (2, 2, 2, 2)
    assert block(blocks, 0, 0, F7) == mh.identity(2, F7)
    assert block(blocks, 1, 1, F7) == mh.identity(2, F7)
    assert block(blocks, 0, 1, F7) == mh.zeros(2, 2, F7)
    assert block(blocks, 1, 0, F7) == mh.zeros(2, 2, F7)


def test_partition_trivial_is_whole_matrix() -> None:
    m = random_matrix(3, 5, F101, seed=1)
    blocks = partition_matrix(m, 1, 1)
    assert blocks.shape == (1, 1, 3, 5)
    assert block(blocks, 0, 0, F101) == m


def test_partition_is_read_only_view() -> None:
    m = random_matrix(4, 6, F101, seed=24)
    blocks = partition_matrix(m, 2, 3)
    assert np.shares_memory(blocks, m.data)
    assert not blocks.flags.writeable


def test_partition_assemble_round_trip() -> None:
    m = random_matrix(6, 9, F101, seed=2)
    assert assemble_blocks(partition_matrix(m, 3, 3), m.modulus) == m
    m2 = random_matrix(4, 6, F101, seed=3)
    assert assemble_blocks(partition_matrix(m2, 2, 3), m2.modulus) == m2


def test_partition_rejects_non_divisible() -> None:
    m = random_matrix(4, 4, F7, seed=4)
    with pytest.raises(DimensionError):
        partition_matrix(m, 3, 2)
    with pytest.raises(DimensionError):
        partition_matrix(m, 2, 3)


def test_assemble_single_block() -> None:
    m = random_matrix(2, 2, F7, seed=5)
    assert assemble_blocks(np.array([[m.data]]), F7) == m


def test_assemble_zero_blocks() -> None:
    z = mh.zeros(1, 1, F7).data
    assert assemble_blocks(np.array([[z, z], [z, z]]), F7) == mh.zeros(2, 2, F7)


def test_multiply_by_identity() -> None:
    b = random_matrix(3, 4, F101, seed=6)
    assert matrix_multiply(mh.identity(3, F101), b) == b


def test_multiply_one_by_one() -> None:
    # 3 * 5 = 15 = 1 (mod 7)
    a = Matrix(1, 1, [3], F7)
    b = Matrix(1, 1, [5], F7)
    assert matrix_multiply(a, b) == Matrix(1, 1, [1], F7)


@pytest.mark.parametrize("q", [101, 2**31 - 1, 2**61 - 1])
def test_multiply_matches_definition(q: int) -> None:
    # One modulus on each path of the kernel: int64 limbs and Python ints.
    field = PrimeModulus(q)
    a = random_matrix(3, 4, field, seed=7)
    b = random_matrix(4, 2, field, seed=8)
    assert matrix_multiply(a, b).data.ravel().tolist() == naive_product(a, b)


@pytest.mark.parametrize("inner", [65536, 65537])
def test_multiply_exact_at_limb_bound(inner: int) -> None:
    # At q = 2^31 - 1 the 16-bit limb product peaks at
    # (q - 1) * (2^16 + inner * (2^16 - 1)), which is below 2^63 for
    # inner = 65536 and above it for 65537, so the two sizes run on the two
    # sides of the kernel's path choice.  Row 0 is all q - 1; row 1 reaches
    # the peak: every low limb is 2^16 - 1 and the high limbs sum to 1, so
    # (hi @ b) mod q = q - 1 against a column of q - 1.
    q = 2**31 - 1
    field = PrimeModulus(q)
    peak = [0x1FFFF] + [0xFFFF] * (inner - 1)
    a = Matrix(2, inner, [q - 1] * inner + peak, field)
    b = Matrix(inner, 1, [q - 1] * inner, field)
    want = [inner * (q - 1) ** 2 % q, sum(peak) * (q - 1) % q]
    assert matrix_multiply(a, b) == Matrix(2, 1, want, field)


def test_multiply_rejects_mismatch() -> None:
    a = random_matrix(3, 4, F7, seed=9)
    b = random_matrix(3, 2, F7, seed=10)
    with pytest.raises(DimensionError):
        matrix_multiply(a, b)


def test_block_product_identity_2_2_2() -> None:
    # Assembling blockwise sums over the middle index reproduces the product.
    a = random_matrix(4, 4, F101, seed=11)
    b = random_matrix(4, 4, F101, seed=12)
    ga = partition_matrix(a, 2, 2)
    gb = partition_matrix(b, 2, 2)
    out_blocks = []
    for n0 in range(2):
        row = []
        for n2 in range(2):
            acc = mh.zeros(2, 2, F101)
            for n1 in range(2):
                acc = mh.add(
                    acc, matrix_multiply(block(ga, n0, n1, F101), block(gb, n1, n2, F101))
                )
            row.append(acc.data)
        out_blocks.append(row)
    assert assemble_blocks(np.array(out_blocks), F101) == matrix_multiply(a, b)


@settings(max_examples=30, deadline=None)
@given(
    p0=st.integers(1, 3),
    p1=st.integers(1, 3),
    p2=st.integers(1, 3),
    seed=st.integers(0, 10**6),
)
def test_block_product_identity_all_schemes(p0: int, p1: int, p2: int, seed: int) -> None:
    r0, r1, r2 = 6, 6, 6
    a = random_matrix(r0, r1, F101, seed=seed)
    b = random_matrix(r1, r2, F101, seed=seed + 1)
    ga = partition_matrix(a, p0, p1)
    gb = partition_matrix(b, p1, p2)
    out = [
        [
            functools.reduce(
                mh.add,
                (
                    matrix_multiply(block(ga, n0, n1, F101), block(gb, n1, n2, F101))
                    for n1 in range(p1)
                ),
                mh.zeros(r0 // p0, r2 // p2, F101),
            ).data
            for n2 in range(p2)
        ]
        for n0 in range(p0)
    ]
    assert assemble_blocks(np.array(out), F101) == matrix_multiply(a, b)


@pytest.mark.parametrize("entry", [2**31 - 1, -1, 2**40, 2**63], ids=["q", "-1", "2^40", "2^63"])
def test_matrix_rejects_entries_outside_field(entry: int) -> None:
    # Held unreduced, 2^40 would square to 0 rather than 2^80 mod q = 262144,
    # since the limb bound assumes residues; 2^63 does not even fit int64.
    with pytest.raises(ValueError, match=r"\[0, 2147483647\)"):
        Matrix(1, 2, [1, entry], PrimeModulus(2**31 - 1))


def test_matrix_file_round_trip(tmp_path) -> None:
    m = random_matrix(3, 5, F101, seed=13)
    path = tmp_path / "m.mat"
    write_matrix(m, path)
    assert read_matrix(path) == m


def test_matrix_file_format(tmp_path) -> None:
    path = tmp_path / "m.mat"
    path.write_text("2 2 7\n0 1\n6 3\n")
    m = read_matrix(path)
    assert (m.rows, m.cols, m.modulus.q) == (2, 2, 7)
    assert m.data.ravel().tolist() == [0, 1, 6, 3]


def test_matrix_file_rejects_out_of_range(tmp_path) -> None:
    path = tmp_path / "bad.mat"
    path.write_text("1 2 7\n0 7\n")
    with pytest.raises(ValueError):
        read_matrix(path)
    path.write_text("1 2 7\n0 -1\n")
    with pytest.raises(ValueError):
        read_matrix(path)


def test_matrix_file_rejects_wrong_shape(tmp_path) -> None:
    path = tmp_path / "bad.mat"
    path.write_text("2 2 7\n0 1\n2\n")
    with pytest.raises(ValueError):
        read_matrix(path)


@pytest.mark.parametrize(
    "data",
    [[2.5, True], np.array([1.9, 3.0]), np.array([True, False]), [1, 2.0], [2**63, 0.5],
     np.array([2.5, 3], dtype=object), np.array([None, 3], dtype=object), ["1", "2"]],
    ids=["float-and-bool", "float-array", "bool-array", "int-and-float", "huge-and-float",
         "object-float", "object-none", "strings"],
)
def test_matrix_rejects_non_integer_entries(data) -> None:
    # An int64 cast would store [[2, 1]] and [[1, 3]] for the first two.
    # The input's dtype decides: a list numpy reads as int64 is integer.
    with pytest.raises(ValueError, match="must be integers"):
        Matrix(1, 2, data, F7)


@pytest.mark.parametrize(
    "data",
    [[3, 4], np.array([3, 4]), np.array([3, 4], dtype=np.int32), [np.int64(3), 4],
     np.array([3, 4], dtype=object)],
    ids=["int-list", "int64-array", "int32-array", "numpy-scalar", "object-array"],
)
def test_matrix_keeps_integer_entries(data) -> None:
    assert Matrix(1, 2, data, F7).data.tolist() == [[3, 4]]


@pytest.mark.parametrize("shape", [(2, 0), (0, 2), (0, 0)])
def test_matrix_rejects_zero_dimensions(shape) -> None:
    with pytest.raises(ShapeError, match="dimensions must be >= 1"):
        Matrix(*shape, [], F7)


def test_matrix_file_rejects_zero_dimensions(tmp_path) -> None:
    # The text a 2 x 0 matrix would have: its two empty rows read as blank.
    path = tmp_path / "m.mat"
    path.write_text("2 0 7\n\n\n")
    with pytest.raises(ValueError, match=r"bad header '2 0 7': dimensions must be >= 1"):
        read_matrix(path)


def old_format(m: Matrix) -> str:
    """The row-by-row formula `format_matrix` replaced."""
    rows = (" ".join(map(str, row)) for row in m.data.tolist())
    return "\n".join([f"{m.rows} {m.cols} {m.modulus.q}", *rows]) + "\n"


@settings(max_examples=60, deadline=None)
@given(
    q=st.sampled_from([7, 101, 2**31 - 1, 2**61 - 1]),
    shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    data=st.data(),
)
def test_matrix_file_round_trip_any_shape(tmp_path_factory, q, shape, data) -> None:
    field = PrimeModulus(q)
    rows, cols = shape
    entries = data.draw(st.lists(st.integers(0, q - 1), min_size=rows * cols, max_size=rows * cols))
    m = Matrix(rows, cols, entries, field)
    assert format_matrix(m) == old_format(m)
    path = tmp_path_factory.mktemp("round") / "m.mat"
    write_matrix(m, path)
    assert read_matrix(path) == m


def test_matrix_file_reads_blank_lines_and_int_tokens(tmp_path) -> None:
    # Tokens that int() takes but numpy's parser does not read as int() does.
    path = tmp_path / "m.mat"
    path.write_text("\n2 2 101\n\n1_0 \u0661\n\n  7\t\u0033 \n\n")
    assert read_matrix(path).data.tolist() == [[10, 1], [7, 3]]


@pytest.mark.parametrize(
    "text, message",
    [
        ("2 2 7\n\n0 1\n\n6 x\n", "5: non-integer entry in '6 x'"),
        ("3 2 7\n0 1\n2\n1 1\n", "3: expected 2 values"),
        ("2 2 7\n0 1\n6 7\n", "3: value 7 outside [0, 7)"),
        ("1 2 7\n\n0 -1\n", "3: value -1 outside [0, 7)"),
        ("1 2 7\n0 9223372036854775808\n", "2: value 9223372036854775808 outside [0, 7)"),
        ("1 2 7\n1_0 1\n", "2: value 10 outside [0, 7)"),
        ("1 2 7\n2.5 1\n", "2: non-integer entry in '2.5 1'"),
        ("1 2 7\n1e3 1\n", "2: non-integer entry in '1e3 1'"),
    ],
    ids=["non-integer", "short-middle-row", "equals-q", "minus-one", "2^63", "underscore",
         "decimal", "exponent"],
)
def test_matrix_file_error_names_physical_line(tmp_path, text, message) -> None:
    path = tmp_path / "bad.mat"
    path.write_text(text)
    with pytest.raises(ValueError) as err:
        read_matrix(path)
    assert str(err.value) == f"{path}:{message}"


@pytest.mark.parametrize("row", ["2.5 1", "1e3 1"])
def test_matrix_file_decimal_never_reaches_bulk_parse(tmp_path, monkeypatch, row) -> None:
    # numpy releases the package allows (>= 1.24) read an int64 token such as
    # 2.5 through a float, truncating it with only a DeprecationWarning.  A
    # stand-in parser that does so must see well-formed files only.
    seen = []

    def truncating_loadtxt(lines, **kwargs):
        seen.append(list(lines))
        return np.array([[int(float(tok)) for tok in ln.split()] for ln in lines])

    monkeypatch.setattr(np, "loadtxt", truncating_loadtxt)
    good, bad = tmp_path / "good.mat", tmp_path / "bad.mat"
    good.write_text("1 2 7\n3 1\n")
    bad.write_text(f"1 2 7\n{row}\n")
    assert read_matrix(good).data.tolist() == [[3, 1]]
    with pytest.raises(ValueError, match=f":2: non-integer entry in '{row}'"):
        read_matrix(bad)
    assert seen == [["3 1"]]
