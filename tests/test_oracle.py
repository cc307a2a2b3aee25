import random

import pytest
from hypothesis import given, settings, strategies as st

from heckeprod import DomainError, Symbol, pair_structure, standard_ancestors, swap_orbit
from helpers import ANCESTOR_COUNTS, S1, SIGMA, random_standard_symbol, random_symbol
from oracle import _pairs_of, brute_ancestors, brute_swap_orbit


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


@st.composite
def standard_rows(draw):
    """Any standard pair of rows: each bottom entry is the smallest value
    the row allows (above its left neighbour, at least the top entry above
    it) plus a drawn gap."""
    top = sorted(draw(st.sets(st.integers(1, 60), max_size=10)))
    bottom = []
    for t in top[: draw(st.integers(0, len(top)))]:
        floor = max(t, bottom[-1] + 1) if bottom else t
        bottom.append(floor + draw(st.integers(0, 20)))
    return tuple(top), tuple(bottom)


@settings(derandomize=True, max_examples=500)
@given(standard_rows())
def test_pair_structure_matches_level_rule(rows):
    top, bottom = rows
    ps = pair_structure(Symbol(top, bottom))
    assert list(ps.pairs) == _pairs_of(top, bottom)
    assert ps.fixed == set(top) & set(bottom)
