"""Block partition/assembly and exact modular matrix products.

The plain triple-loop product in `naive_product` below is the ground-truth
oracle: it is written independently of the library and used to check both
`matrix_multiply` and the block-product identity.
"""

from __future__ import annotations

import functools
import math
import random
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coded_matmul.blockmat import (
    _BULK_CHARS,
    _DIGITS,
    _SHORT_INNER,
    DimensionError,
    Matrix,
    PartitionScheme,
    ShapeError,
    assemble_blocks,
    format_matrix,
    matrix_multiply,
    modmatmul,
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
    for counts in [(2.5, 1, 1), (1, True, 1), (1, 1, 2.0)]:
        with pytest.raises(ValueError, match="partition counts must be integers"):
            PartitionScheme(*counts)
    assert PartitionScheme(np.int64(2), np.uint8(3), 4).K == 24


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


@pytest.mark.parametrize("q", [101, 2**31 - 1, 2147483659, 2**61 - 1, 9223372036854775783])
def test_multiply_matches_definition(q: int) -> None:
    # An inner dimension of 4 takes the short path for q < 2^31 and the rest
    # the limb kernel: two limbs up to 2^32 (2147483659 is the first prime
    # above 2^31), four up to the largest prime below 2^63.
    field = PrimeModulus(q)
    a = random_matrix(3, 4, field, seed=7)
    b = random_matrix(4, 2, field, seed=8)
    assert matrix_multiply(a, b).data.ravel().tolist() == naive_product(a, b)


@pytest.mark.parametrize("inner", [65536, 65537])
def test_multiply_exact_at_limb_bound(inner: int) -> None:
    # At q = 2^31 - 1 an int64 product of a's 16-bit limbs and b would peak
    # at (q - 1) * (2^16 + inner * (2^16 - 1)), which is below 2^63 for
    # inner = 65536 and above it for 65537.  Row 0 is all q - 1; row 1
    # reaches that peak: every low limb is 2^16 - 1 and the high limbs sum
    # to 1, so (hi @ b) mod q = q - 1 against a column of q - 1.
    q = 2**31 - 1
    field = PrimeModulus(q)
    peak = [0x1FFFF] + [0xFFFF] * (inner - 1)
    a = Matrix(2, inner, [q - 1] * inner + peak, field)
    b = Matrix(inner, 1, [q - 1] * inner, field)
    want = [inner * (q - 1) ** 2 % q, sum(peak) * (q - 1) % q]
    assert matrix_multiply(a, b) == Matrix(2, 1, want, field)


KERNEL_MODULI = [2**31 - 1, 2147483659, 2**61 - 1, 9223372036854775783]


def limb_count(q: int) -> int:
    return -(-(q - 1).bit_length() // 16)


def limb_peak(q: int) -> int:
    """The largest entry below q whose 16-bit limbs under the top one are all 0xFFFF."""
    top = 16 * (limb_count(q) - 1)
    return ((q >> top) - 1) << top | (1 << top) - 1


@pytest.mark.parametrize("extra", [0, 1], ids=["bound", "bound+1"])
@pytest.mark.parametrize("q", KERNEL_MODULI)
def test_multiply_exact_at_chunk_bound(q: int, extra: int) -> None:
    # With L limbs a diagonal of the float kernel sums at most L * inner limb
    # products below (2^16 - 1)^2, which is at most 2^52 up to this inner
    # dimension; one column more splits the product into two chunks.  Row 0
    # is all q - 1 and row 1 all limb peaks.  Column 2 is q - 1 but for a
    # last entry of `inner`, so row 0 times it is q - 1, a remainder that
    # a quotient estimate one too large would miss.  Every row is constant,
    # so each entry is the row's value times the column's sum.
    inner = 2**52 // (limb_count(q) * 0xFFFF**2) + extra
    peak = limb_peak(q)
    field = PrimeModulus(q)
    a = np.repeat(np.array([[q - 1], [peak]], dtype=np.int64), inner, axis=1)
    b = np.repeat(np.array([[q - 1, peak, q - 1]], dtype=np.int64), inner, axis=0)
    b[-1, 2] = inner
    column_sums = [inner * (q - 1), inner * peak, (inner - 1) * (q - 1) + inner]
    want = [[v * c % q for c in column_sums] for v in (q - 1, peak)]
    assert want[0][2] == q - 1
    product = matrix_multiply(Matrix(2, inner, a, field), Matrix(inner, 3, b, field))
    assert product.data.tolist() == want


@settings(max_examples=200, deadline=None)
@given(
    q=st.sampled_from([3, 65537, *KERNEL_MODULI]),
    shape=st.one_of(
        st.tuples(st.integers(1, 9), st.integers(1, 9), st.integers(1, 9)),
        st.sampled_from([(3, _SHORT_INNER - 1, 300), (3, _SHORT_INNER, 300)]),
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_modmatmul_matches_definition(q: int, shape: tuple[int, int, int], seed: int) -> None:
    # Entries mix 0, 1, q - 1, the limb peak and uniform residues.  The
    # wide shapes' inner dimensions sit on either side of the kernel's short
    # path for q < 2^31.
    m, k, n = shape
    rng = random.Random(seed)
    special = [0, 1, q - 1, limb_peak(q)]

    def draw(rows: int, cols: int) -> Matrix:
        data = [rng.choice(special) if rng.random() < 0.6 else rng.randrange(q)
                for _ in range(rows * cols)]
        return Matrix(rows, cols, data, PrimeModulus(q))

    a, b = draw(m, k), draw(k, n)
    got = modmatmul(a.data, b.data, q)
    assert got.dtype == np.int64
    assert got.ravel().tolist() == naive_product(a, b)


# The short path's moduli: the default, whose float reciprocal rounds up so
# that no quotient falls short, and a prime whose reciprocal rounds down.
SHORT_MODULI = [2**31 - 1, 2147483629]


def quotient_falls_short(q: int, k: int) -> bool:
    """Whether floor(k * q * (1/q)) in float64 is k - 1, as numpy computes it."""
    return math.floor(float(k * q) * (1.0 / q)) < k


def column_summing_to(target: int, inner: int, q: int) -> list[int]:
    """b's column so that [2^16 - 1] * (inner - 1) + [1] times it is `target`."""
    high, low = divmod(target, 0xFFFF)
    column = []
    for _ in range(inner - 1):
        column.append(min(high, q - 1))
        high -= column[-1]
    assert high == 0 and low < q
    return column + [low]


@pytest.mark.parametrize("q", SHORT_MODULI)
def test_short_product_exact_at_largest_entries(q: int) -> None:
    # The widest product the short path takes, with every entry of row 0
    # q - 1 and of row 1 the limb peak, whose low limb is 2^16 - 1.
    inner = _SHORT_INNER - 1
    peak = limb_peak(q)
    a = np.array([[q - 1] * inner, [peak] * inner], dtype=np.int64)
    b = np.full((inner, 2), q - 1, dtype=np.int64)
    b[:, 1] = peak
    want = [[inner * x * y % q for y in (q - 1, peak)] for x in (q - 1, peak)]
    assert modmatmul(a, b, q).tolist() == want


@pytest.mark.parametrize("q", SHORT_MODULI)
def test_short_product_exact_at_multiples_of_q(q: int) -> None:
    # a's row is below 2^16, so the whole product is the second sum the
    # short path reduces.  The columns land it at k * q - 1, k * q and
    # k * q + 1, for the k whose float quotient falls short (none at
    # 2^31 - 1) and for the largest k this row reaches.
    inner = _SHORT_INNER - 1
    top = (inner - 1) * 0xFFFF * (q - 1) // q
    short = [k for k in range(1, 200) if quotient_falls_short(q, k)][:8]
    short += [k for k in range(top - 400, top) if quotient_falls_short(q, k)][-4:]
    assert short != [] or q == 2**31 - 1
    targets = [k * q + d for k in [*short, top] for d in (-1, 0, 1)]
    a = np.array([[0xFFFF] * (inner - 1) + [1]], dtype=np.int64)
    b = np.array([column_summing_to(t, inner, q) for t in targets], dtype=np.int64).T
    assert modmatmul(a, b, q).tolist() == [[t % q for t in targets]]


@pytest.mark.parametrize("q", SHORT_MODULI)
def test_short_product_exact_when_high_limbs_reach_multiples_of_q(q: int) -> None:
    # Row 0 of a is high limbs alone, [2^15 - 1, 1], so the first sum the
    # short path reduces is k * q - 1, k * q or k * q + 1; where the
    # quotient falls short it reduces to q, not 0.  Row 1 adds low limbs.
    k = next((k for k in range(1, 100) if quotient_falls_short(q, k)), 3)
    targets = [k * q + d for d in (-1, 0, 1)]
    b = np.array([[t // 0x7FFF, t % 0x7FFF] for t in targets], dtype=np.int64).T
    a = np.array([[0x7FFF << 16, 1 << 16], [0x7FFF << 16 | 0xABCD, 1 << 16 | 0xFFFF]])
    want = [[sum(int(x) * int(y) for x, y in zip(row, col)) % q for col in b.T] for row in a]
    assert modmatmul(a, b, q).tolist() == want


def test_multiply_rejects_mismatch() -> None:
    a = random_matrix(3, 4, F7, seed=9)
    b = random_matrix(3, 2, F7, seed=10)
    with pytest.raises(DimensionError):
        matrix_multiply(a, b)
    c = random_matrix(4, 2, PrimeModulus(11), seed=11)
    with pytest.raises(DimensionError, match="operands use different moduli"):
        matrix_multiply(a, c)


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
     np.array([2.5, 3], dtype=object), np.array([None, 3], dtype=object), ["1", "2"],
     [2, True], [np.True_, 3], (3, False), np.array([True, 3], dtype=object)],
    ids=["float-and-bool", "float-array", "bool-array", "int-and-float", "huge-and-float",
         "object-float", "object-none", "strings", "int-and-bool", "numpy-bool-and-int",
         "tuple-with-bool", "object-bool"],
)
def test_matrix_rejects_non_integer_entries(data) -> None:
    # An int64 cast would store [[2, 1]] and [[1, 3]] for the first two.
    # numpy reads a list of ints and bools as int64, so list entries are
    # checked one by one.
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


@pytest.mark.parametrize(
    "source",
    [lambda x: x, lambda x: x.reshape(2, 2), memoryview],
    ids=["array", "writable-view", "memoryview"],
)
def test_matrix_owns_its_entries(source) -> None:
    # The caller's buffer stays writable, so a write to it after the
    # matrix is built must not reach the matrix.
    x = np.arange(4)
    m = Matrix(2, 2, source(x), F7)
    x[0] = 99
    assert m.data.tolist() == [[0, 1], [2, 3]]
    assert not m.data.flags.writeable


@pytest.mark.parametrize("shape", [(2, 0), (0, 2), (0, 0)])
def test_matrix_rejects_zero_dimensions(shape) -> None:
    with pytest.raises(ShapeError, match="dimensions must be >= 1"):
        Matrix(*shape, [], F7)


@pytest.mark.parametrize("shape", [(2.5, 2), (2, 2.0), (True, 4), (4, False)])
def test_matrix_rejects_non_integer_dimensions(shape) -> None:
    with pytest.raises(ValueError, match="dimensions must be integers"):
        Matrix(*shape, [1, 2, 3, 4], F7)


def test_matrix_rejects_wrong_entry_count() -> None:
    with pytest.raises(ShapeError, match="^expected 4 entries, got 3$"):
        Matrix(2, 2, [1, 2, 3], F7)


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


# Moduli of 1, 4, 5, 8, 9, 10 (one each side of 2^31) and 19 digits.
FORMAT_MODULI = [7, 9973, 99991, 99999989, 999999937, 2**31 - 1, 9999999967, 2**63 - 25]


@pytest.mark.parametrize("q", FORMAT_MODULI)
def test_matrix_file_writes_every_digit_count(tmp_path, q: int) -> None:
    # Zero, q - 1 and each 10^k - 1 / 10^k pair below q: the entries where
    # format_matrix's chunk rows switch between padded, unpadded and blank.
    entries = sorted({0, q - 1, *(v for k in range(1, 20) for v in (10**k - 1, 10**k) if v < q)})
    for cols in (1, len(entries)):
        m = Matrix(len(entries) // cols, cols, entries, PrimeModulus(q))
        assert format_matrix(m) == old_format(m)
        write_matrix(m, tmp_path / "m.mat")
        assert read_matrix(tmp_path / "m.mat") == m


@pytest.mark.parametrize("shape", [(300, 20), (3, 5000)], ids=["row-blocks", "row-per-block"])
def test_matrix_file_writes_across_blocks(tmp_path, shape) -> None:
    # 6,000 and 15,000 entries: several blocks of whole rows, and rows
    # wider than a block, each written as a block of its own.
    q = 2**31 - 1
    rng = random.Random(11)
    entries = [rng.choice([0, 9, 10**4, q - 1]) if rng.random() < 0.3 else rng.randrange(q)
               for _ in range(shape[0] * shape[1])]
    m = Matrix(*shape, entries, PrimeModulus(q))
    assert format_matrix(m) == old_format(m)
    write_matrix(m, tmp_path / "m.mat")
    assert (tmp_path / "m.mat").read_text() == old_format(m)


def test_digit_table_rows() -> None:
    rows = [bytes(row) for row in _DIGITS.view(np.uint8).reshape(-1, 4)]
    padded, unpadded, blank = rows[: 10**4], rows[10**4 : 2 * 10**4], rows[2 * 10**4 :]
    assert padded == [b"%04d" % c for c in range(10**4)]
    assert unpadded == [(b"%4d" % c).replace(b" ", b"\0") for c in range(10**4)]
    assert [row.lstrip(b"\0") for row in unpadded] == [b"%d" % c for c in range(10**4)]
    assert blank == [b"\0" * 4]


def test_matrix_file_reads_blank_lines_and_int_tokens(tmp_path) -> None:
    # Tokens that int() takes but numpy's parser does not read as int() does.
    path = tmp_path / "m.mat"
    path.write_text("\n2 2 101\n\n1_0 \u0661\n\n  7\t\u0033 \n\n")
    assert read_matrix(path).data.tolist() == [[10, 1], [7, 3]]


@pytest.mark.parametrize("sep", ["\x0c", "\x0b"], ids=["form-feed", "vertical-tab"])
@pytest.mark.parametrize("row, values", [("3{}4", [3, 4]), ("1_0{}4", [10, 4])],
                         ids=["bulk", "per-line"])
def test_matrix_file_splits_tokens_at_any_whitespace(tmp_path, sep, row, values) -> None:
    # Only "\n" ends a line; both parsers read \x0b and \x0c as separators.
    path = tmp_path / "m.mat"
    path.write_text(f"1 2 11\n{row.format(sep)}\n")
    assert read_matrix(path).data.tolist() == [values]


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
        ("2 2 7\n1 2\x0c\n3 x\n", "3: non-integer entry in '3 x'"),
    ],
    ids=["non-integer", "short-middle-row", "equals-q", "minus-one", "2^63", "underscore",
         "decimal", "exponent", "form-feed-ends-no-line"],
)
def test_matrix_file_error_names_physical_line(tmp_path, text, message) -> None:
    path = tmp_path / "bad.mat"
    path.write_text(text)
    with pytest.raises(ValueError) as err:
        read_matrix(path)
    assert str(err.value) == f"{path}:{message}"


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty matrix file"),
        ("\n  \n", "empty matrix file"),
        ("2 x 7\n0 1\n2 3\n", "bad header '2 x 7'"),
        ("3 2 7\n0 1\n\n2 3\n", "expected 3 rows, found 2"),
        ("2 2 4\n0 1\n2 3\n", "bad header '2 2 4': modulus 4 is not prime"),
        ("2 2 2\n0 1\n1 0\n", "bad header '2 2 2': modulus must exceed 2, got 2"),
        ("1 1 9223372036854775808\n0\n",
         "bad header '1 1 9223372036854775808': modulus must be below 2^63,"
         " got 9223372036854775808"),
    ],
    ids=["empty", "blank", "non-integer-header", "missing-row", "composite-q", "q-2",
         "q-2^63"],
)
def test_matrix_file_error_names_the_file(tmp_path, text, message) -> None:
    # Faults of the whole file carry no line number.
    path = tmp_path / "bad.mat"
    path.write_text(text)
    with pytest.raises(ValueError) as err:
        read_matrix(path)
    assert str(err.value) == f"{path}: {message}"


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


def test_bulk_chars_are_ascii_digits_signs_and_whitespace() -> None:
    # Written out as bytes so that blockmat need not import `string`.
    assert sorted(_BULK_CHARS) == sorted((string.digits + "+-" + string.whitespace).encode())
