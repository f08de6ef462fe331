"""The prime modulus q of the field F_q, and the primality check behind it.

Every encoding, per-task product, and decode in this package happens over a
prime field, so equality of decoded output with the plain product is exact
rather than approximate.  Elements are canonical residues in [0, q).  The
modulus is a runtime value to let tests run in tiny fields like F_7.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# 2^31 - 1 (Mersenne prime): elements fit two 16-bit limbs, products with a
# short inner dimension take `blockmat.modmatmul`'s two-dgemm short path,
# and the field is far larger than any evaluation grid used here.
DEFAULT_MODULUS = 2147483647

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_integer(value) -> bool:
    """Whether value is an int or a numpy integer; a bool is neither here."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test.

    The first 12 primes as bases are exact for all n < 3.18 * 10^23 (Sorenson
    and Webster 2015; 318665857834031151167461 is the first composite they
    pass), which covers every modulus below 2^63 that this package accepts.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeModulus:
    """A prime 2 < q < 2^63 defining the field F_q.

    Matrices hold elements as int64 for every such q; `blockmat.modmatmul`
    is the one product kernel, exact for all of them, and scalars are
    inverted with `pow(a, q - 2, q)`.
    """

    q: int

    def __post_init__(self) -> None:
        if self.q <= 2:
            raise ValueError(f"modulus must exceed 2, got {self.q}")
        if self.q >= 2**63:
            raise ValueError(f"modulus must be below 2^63, got {self.q}")
        if not is_prime(self.q):
            raise ValueError(f"modulus {self.q} is not prime")
