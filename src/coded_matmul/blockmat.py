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

import string
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ffield import PrimeModulus

# Moduli below this hold their entries as int64 and multiply in 16-bit limbs.
_WORD_Q = 2**31

# The characters of a matrix file that `read_matrix` parses in bulk: ASCII
# digits, signs and whitespace.  numpy's integer parser reads some other text
# differently from `int()`: it misreads some non-ASCII characters as digits,
# and numpy releases before the removal of a 1.23 deprecation truncate
# decimals such as `2.5` or `1e3` with only a DeprecationWarning.
_BULK_CHARS = (string.digits + "+-" + string.whitespace).encode()


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

    `data` takes rows * cols integer entries in row-major order, in any
    array-like form, and holds them as a read-only rows x cols
    `field_array`.  Both dimensions are at least 1.
    """

    rows: int
    cols: int
    data: np.ndarray
    modulus: PrimeModulus

    def __post_init__(self) -> None:
        q = self.modulus.q
        if self.rows < 1 or self.cols < 1:
            raise ShapeError(f"matrix dimensions must be >= 1, got {self.rows}x{self.cols}")
        raw = np.asarray(self.data)
        if raw.dtype.kind not in "iuO":
            # Python ints beyond int64 make a list float64, so such input is
            # read again entry by entry; a float or bool entry is refused
            # rather than truncated by the int64 cast.
            raw = np.asarray(self.data, dtype=object)
            if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool)
                       for v in raw.flat):
                raise ValueError("matrix entries must be integers")
        if raw.size != self.rows * self.cols:
            raise ShapeError(f"expected {self.rows * self.cols} entries, got {raw.size}")
        try:
            arr = raw.astype(np.int64, copy=False)
        except OverflowError:
            arr = None
        except (TypeError, ValueError):
            raise ValueError("matrix entries must be integers") from None
        if arr is None or arr.min() < 0 or arr.max() >= q:
            raise ValueError(f"matrix entries must be residues in [0, {q})")
        arr = field_array(arr, q)
        # An object array (Python ints, as held for q >= 2^31) must equal its
        # int64 cast, which would truncate a float entry.
        if raw.dtype.kind == "O" and not (arr == raw).all():
            raise ValueError("matrix entries must be integers")
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
    """Read the plain-text format: header `rows cols q`, then one row per line.

    Blank lines are skipped; error messages give physical line numbers.
    """
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    lines = [(n, ln) for n, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty matrix file")
    header = lines[0][1]
    try:
        rows, cols, q = (int(tok) for tok in header.split())
    except ValueError as exc:
        raise ValueError(f"{path}: bad header {header!r}") from exc
    modulus = PrimeModulus(q)
    if rows < 1 or cols < 1:
        raise ValueError(f"{path}: bad header {header!r}: dimensions must be >= 1")
    body = lines[1:]
    if len(body) != rows:
        raise ValueError(f"{path}: expected {rows} rows, found {len(body)}")
    data = None
    if text.isascii() and not text.encode().translate(None, _BULK_CHARS):
        try:
            data = np.loadtxt([ln for _, ln in body], dtype=np.int64, ndmin=2, comments=None)
        except ValueError:
            pass
    if data is None or data.shape != (rows, cols) or data.min() < 0 or data.max() >= q:
        data = _parse_rows(path, body, cols, q)
    return Matrix(rows, cols, data, modulus)


def _parse_rows(path, body: list[tuple[int, str]], cols: int, q: int) -> list[int]:
    """Entries of numbered rows parsed one token at a time; raises at the first bad line.

    This is `read_matrix`'s reference parser: it runs when the file holds
    characters outside `_BULK_CHARS`, such as `1_0`, or when the bulk parse
    fails or finds an entry out of range.  Its values stand whenever it finds
    no fault.
    """
    data: list[int] = []
    for lineno, line in body:
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
    return data


def format_matrix(m: Matrix) -> str:
    """The plain-text format that `read_matrix` reads."""
    body = "\n".join([" ".join(["%d"] * m.cols)] * m.rows) % tuple(m.data.ravel().tolist())
    return f"{m.rows} {m.cols} {m.modulus.q}\n{body}\n"


def write_matrix(m: Matrix, path: str | Path) -> None:
    Path(path).write_text(format_matrix(m))
