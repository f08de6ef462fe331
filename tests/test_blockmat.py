"""Block partition/assembly and exact modular matrix products.

The plain triple-loop product in `naive_product` below is the ground-truth
oracle: it is written independently of the library and used to check both
`matrix_multiply` and the block-product identity.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coded_matmul.blockmat import (
    DimensionError,
    Matrix,
    PartitionScheme,
    assemble_blocks,
    matrix_multiply,
    partition_matrix,
    read_matrix,
    write_matrix,
)
from coded_matmul.ffield import PrimeModulus

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
                s += a.at(i, k) * b.at(k, j)
            out.append(s % q)
    return out


def test_partition_scheme_level() -> None:
    p = PartitionScheme(2, 3, 4)
    assert p.K == 24
    with pytest.raises(ValueError):
        PartitionScheme(0, 1, 1)


def test_partition_identity_into_quadrants() -> None:
    eye = Matrix.identity(4, F7)
    blocks = partition_matrix(eye, 2, 2)
    assert blocks.shape == (2, 2, 2, 2)
    assert block(blocks, 0, 0, F7) == Matrix.identity(2, F7)
    assert block(blocks, 1, 1, F7) == Matrix.identity(2, F7)
    assert block(blocks, 0, 1, F7) == Matrix.zeros(2, 2, F7)
    assert block(blocks, 1, 0, F7) == Matrix.zeros(2, 2, F7)


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
    z = Matrix.zeros(1, 1, F7).data
    assert assemble_blocks(np.array([[z, z], [z, z]]), F7) == Matrix.zeros(2, 2, F7)


def test_multiply_by_identity() -> None:
    b = random_matrix(3, 4, F101, seed=6)
    assert matrix_multiply(Matrix.identity(3, F101), b) == b


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
            acc = Matrix.zeros(2, 2, F101)
            for n1 in range(2):
                acc = acc + matrix_multiply(
                    block(ga, n0, n1, F101), block(gb, n1, n2, F101)
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
            sum(
                (
                    matrix_multiply(block(ga, n0, n1, F101), block(gb, n1, n2, F101))
                    for n1 in range(p1)
                ),
                start=Matrix.zeros(r0 // p0, r2 // p2, F101),
            ).data
            for n2 in range(p2)
        ]
        for n0 in range(p0)
    ]
    assert assemble_blocks(np.array(out), F101) == matrix_multiply(a, b)


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
