"""Dense matrices over F_q with block partitioning and one exact product kernel.

A `Matrix` holds a rows x cols ndarray (int64 for q < 2^31, Python ints
above), and `modmatmul` is the one F_q matrix product under encoding,
per-task multiply and decoding.  A matrix is split into an equal-size grid
of blocks, held as one array indexed (block row, block column, row, col):
the left factor into p0 x p1 blocks, the right factor into p1 x p2 blocks.
Block (n0, n2) of the product is the sum over the middle index of
blockwise products, which is the identity every coding scheme in this
package relies on.  Dimensions must be exactly divisible by the partition
counts; padding is never applied silently, so decode-equality checks stay
exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ffield import PrimeModulus

# Moduli below this hold their entries as int64 and multiply in 16-bit limbs.
_WORD_Q = 2**31


class DimensionError(ValueError):
    """Matrix dimensions incompatible with the requested operation."""


class ShapeError(ValueError):
    """Entries or blocks do not match the shape they are declared with."""


@dataclass(frozen=True)
class PartitionScheme:
    """Block counts (p0, p1, p2): left factor p0 x p1, right factor p1 x p2."""

    p0: int
    p1: int
    p2: int

    def __post_init__(self) -> None:
        if min(self.p0, self.p1, self.p2) < 1:
            raise ValueError(f"partition counts must be >= 1, got {self}")

    @property
    def K(self) -> int:
        """Partition level: number of blockwise products in the full job."""
        return self.p0 * self.p1 * self.p2


def field_array(data, q: int) -> np.ndarray:
    """Entries as held over F_q: int64 for q < 2^31, Python ints above."""
    # Every entry must fit int64, as residues do below PrimeModulus's 2^63 cap.
    arr = np.asarray(data, dtype=np.int64)
    return arr if q < _WORD_Q else arr.astype(object)


def modmatmul(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """Exact a @ b mod q for 2-D arrays of residues in [0, q).

    Below 2^31 a splits into 16-bit limbs, a = hi * 2^16 + lo, and the product
    is ((hi @ b) mod q * 2^16 + lo @ b) mod q in int64.  The largest value
    formed is (q - 1) * (2^16 + inner * (2^16 - 1)); where that reaches 2^63,
    and for every q >= 2^31, it runs on Python ints in object arrays instead.
    """
    if q < _WORD_Q and (q - 1) * (2**16 + a.shape[1] * (2**16 - 1)) < 2**63:
        hi, lo = a >> 16, a & 0xFFFF
        return ((hi @ b) % q * 2**16 + lo @ b) % q
    return field_array((a.astype(object) @ b.astype(object)) % q, q)


@dataclass(frozen=True, eq=False)
class Matrix:
    """A rows x cols matrix of canonical residues in [0, q).

    `data` takes rows * cols entries in row-major order, in any array-like
    form, and holds them as a read-only rows x cols `field_array`.
    """

    rows: int
    cols: int
    data: np.ndarray
    modulus: PrimeModulus

    def __post_init__(self) -> None:
        q = self.modulus.q
        try:
            arr = np.asarray(self.data, dtype=np.int64)
        except OverflowError:
            arr = None
        if arr is None or arr.size and (arr.min() < 0 or arr.max() >= q):
            raise ValueError(f"matrix entries must be residues in [0, {q})")
        arr = field_array(arr, q)
        if arr.size != self.rows * self.cols:
            raise ShapeError(f"expected {self.rows * self.cols} entries, got {arr.size}")
        arr = arr.reshape(self.rows, self.cols)
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.modulus == other.modulus and np.array_equal(self.data, other.data)

    def at(self, i: int, j: int) -> int:
        return int(self.data[i, j])

    def __add__(self, other: Matrix) -> Matrix:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("matrix addition requires equal shapes")
        q = self.modulus.q
        return Matrix(self.rows, self.cols, (self.data + other.data) % q, self.modulus)

    def scale(self, c: int) -> Matrix:
        q = self.modulus.q
        return Matrix(self.rows, self.cols, c % q * self.data % q, self.modulus)

    @staticmethod
    def zeros(rows: int, cols: int, modulus: PrimeModulus) -> Matrix:
        return Matrix(rows, cols, np.zeros(rows * cols, dtype=np.int64), modulus)

    @staticmethod
    def identity(n: int, modulus: PrimeModulus) -> Matrix:
        return Matrix(n, n, np.eye(n, dtype=np.int64), modulus)

    @staticmethod
    def random(rows: int, cols: int, modulus: PrimeModulus, rng) -> Matrix:
        data = [rng.randrange(modulus.q) for _ in range(rows * cols)]
        return Matrix(rows, cols, data, modulus)


def partition_matrix(m: Matrix, pr: int, pc: int) -> np.ndarray:
    """Split m into a pr x pc grid of contiguous equally sized blocks.

    The result is a read-only (pr, pc, rows / pr, cols / pc) view of m's
    entries: element [i, j] is block (i, j).
    """
    if m.rows % pr or m.cols % pc:
        raise DimensionError(
            f"{m.rows}x{m.cols} matrix not divisible into {pr}x{pc} blocks"
        )
    return m.data.reshape(pr, m.rows // pr, pc, m.cols // pc).swapaxes(1, 2)


def assemble_blocks(blocks: np.ndarray, modulus: PrimeModulus) -> Matrix:
    """Tile a (pr, pc, br, bc) block array into one matrix; partition_matrix's inverse."""
    pr, pc, br, bc = blocks.shape
    return Matrix(pr * br, pc * bc, blocks.swapaxes(1, 2).reshape(-1), modulus)


def matrix_multiply(a: Matrix, b: Matrix) -> Matrix:
    """Standard product over F_q; the ground truth for every decode test."""
    if a.cols != b.rows:
        raise DimensionError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    if a.modulus.q != b.modulus.q:
        raise DimensionError("operands use different moduli")
    return Matrix(a.rows, b.cols, modmatmul(a.data, b.data, a.modulus.q), a.modulus)


def read_matrix(path: str | Path) -> Matrix:
    """Read the plain-text format: header `rows cols q`, then one row per line."""
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty matrix file")
    try:
        rows, cols, q = (int(tok) for tok in lines[0].split())
    except ValueError as exc:
        raise ValueError(f"{path}: bad header {lines[0]!r}") from exc
    modulus = PrimeModulus(q)
    if len(lines) - 1 != rows:
        raise ValueError(f"{path}: expected {rows} rows, found {len(lines) - 1}")
    data: list[int] = []
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            values = [int(tok) for tok in line.split()]
        except ValueError:
            raise ValueError(f"{path}:{lineno}: non-integer entry in {line.strip()!r}") from None
        if len(values) != cols:
            raise ValueError(f"{path}:{lineno}: expected {cols} values")
        for v in values:
            if not 0 <= v < q:
                raise ValueError(f"{path}:{lineno}: value {v} outside [0, {q})")
        data.extend(values)
    return Matrix(rows, cols, data, modulus)


def format_matrix(m: Matrix) -> str:
    """The plain-text format that `read_matrix` reads."""
    rows = (" ".join(map(str, row)) for row in m.data.tolist())
    return "\n".join([f"{m.rows} {m.cols} {m.modulus.q}", *rows]) + "\n"


def write_matrix(m: Matrix, path: str | Path) -> None:
    Path(path).write_text(format_matrix(m))
