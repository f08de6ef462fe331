"""Field tests: the primality check, the modulus, and exactness above 2^61."""

from __future__ import annotations

import pytest

from coded_matmul.blockmat import Matrix, PartitionScheme, matrix_multiply
from coded_matmul.ffield import DEFAULT_MODULUS, PrimeModulus, is_prime
from coded_matmul.runtime import JobSpec, run_job
from coded_matmul.schemes import SchemeKind


def test_default_modulus_is_mersenne_prime() -> None:
    assert DEFAULT_MODULUS == 2**31 - 1
    assert is_prime(DEFAULT_MODULUS)


def test_primality_check_small_cases() -> None:
    primes = [3, 5, 7, 11, 101, 2147483647]
    composites = [1, 4, 6, 9, 15, 561, 2147483649]  # 561 is a Carmichael number
    # Composites with no factor among the bases, which only the witness
    # loop rejects: 41 * 43, 641 * 6700417 (2^32 + 1), 151 * 751 * 28351,
    # and 149491 * 747451 * 34233211, a strong pseudoprime to bases 2..23.
    composites += [1763, 2**32 + 1, 3215031751, 3825123056546413051]
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(c) for c in composites)


def test_modulus_rejects_composite_and_tiny() -> None:
    with pytest.raises(ValueError):
        PrimeModulus(91)  # 7 * 13
    with pytest.raises(ValueError):
        PrimeModulus(2)  # too small for distinct nonzero interpolation points
    with pytest.raises(ValueError):
        PrimeModulus(0)


def test_modulus_rejects_strong_pseudoprime_above_2_63() -> None:
    # 399165290221 * 798330580441 passes Miller-Rabin for all 12 bases; the
    # 2^63 cap keeps it, and every such number, out of the field.
    with pytest.raises(ValueError):
        PrimeModulus(318665857834031151167461)


def test_large_modulus_products_exact() -> None:
    # Largest prime below 2^63.  Each entry of the product of two all-(q-1)
    # n x n matrices is n * (q-1)^2 = n (mod q), since (q-1)^2 = 1 (mod q).
    q = PrimeModulus(9223372036854775783)
    n = 4
    m = Matrix(n, n, [q.q - 1] * (n * n), q)
    want = Matrix(n, n, [n] * (n * n), q)
    assert matrix_multiply(m, m) == want
    for kind in SchemeKind:
        product, _ = run_job(JobSpec(kind, PartitionScheme(2, 2, 2), m, m, workers=1))
        assert product == want, kind
