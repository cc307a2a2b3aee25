import random

import pytest

from heckeprod import DomainError, Symbol, standard_ancestors, swap_orbit
from helpers import ANCESTOR_COUNTS, S1, SIGMA, random_standard_symbol, random_symbol
from oracle import brute_ancestors, brute_swap_orbit


def test_brute_orbit_golden():
    orbit = brute_swap_orbit(S1)
    assert SIGMA in orbit
    assert len(orbit) == 4


def test_brute_orbit_no_pairs():
    s = Symbol((2, 3, 5), (2, 3, 5))
    assert brute_swap_orbit(s) == (s,)


def test_brute_orbit_rejects_non_standard():
    with pytest.raises(DomainError):
        brute_swap_orbit(Symbol((3, 4), (1, 2)))


def test_brute_ancestors_golden():
    assert dict(brute_ancestors(SIGMA)) == ANCESTOR_COUNTS


def test_brute_ancestors_equal_rows():
    s = Symbol((2, 3, 5), (2, 3, 5))
    assert brute_ancestors(s) == ((s, 0),)


def test_brute_ancestors_respects_bound():
    with pytest.raises(DomainError):
        brute_ancestors(Symbol(tuple(range(1, 9)), tuple(range(1, 8))), bound=12)


def test_random_agreement_with_fast_path():
    # spot checks; the exhaustive sweep lives in the acceptance suite
    rng = random.Random(107)
    for _ in range(200):
        sigma = random_symbol(rng, max_weight=5, max_charge=5)
        assert brute_ancestors(sigma) == standard_ancestors(sigma)
    for _ in range(200):
        s = random_standard_symbol(rng, max_weight=5)
        assert brute_swap_orbit(s) == swap_orbit(s)
