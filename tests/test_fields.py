"""Field construction: the primality test behind every Fp:<p> field."""

import time

import pytest

from binforms.errors import PreconditionError
from binforms.fields import FieldSpec, _is_prime


def _trial_division(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def test_primality_matches_trial_division_below_1e5():
    assert [n for n in range(-3, 10**5) if _is_prime(n)] == [
        n for n in range(-3, 10**5) if _trial_division(n)
    ]


@pytest.mark.parametrize(
    "n",
    [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185, 5394826801],
)
def test_carmichael_numbers_are_composite(n):
    assert not _is_prime(n)


@pytest.mark.parametrize(
    "n",
    [
        3215031751,  # strong pseudoprime to bases 2, 3, 5, 7
        3825123056546413051,  # strong pseudoprime to bases 2 .. 23
        318665857834031151167461,  # strong pseudoprime to bases 2 .. 37
    ],
)
def test_strong_pseudoprimes_are_composite(n):
    assert not _is_prime(n)


@pytest.mark.parametrize("p", [2**31 - 1, 2**61 - 1, 10**18 + 3, 2**64 - 59])
def test_large_primes(p):
    assert _is_prime(p)


def test_huge_prime_field_builds_at_once():
    t0 = time.perf_counter()
    F = FieldSpec(10**18 + 3)
    assert time.perf_counter() - t0 < 1.0
    assert F.name == "Fp:1000000000000000003"
    assert F.mul(F.inv(2), 2) == 1
    with pytest.raises(PreconditionError):
        FieldSpec(10**18 + 1)  # 101 * 9901 * 999999000001


def test_modulus_beyond_exact_bound_is_refused():
    with pytest.raises(PreconditionError):
        FieldSpec(2**89 - 1)  # prime, but above 3.3e24
