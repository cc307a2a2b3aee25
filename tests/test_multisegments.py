import random

import pytest

from heckeprod import (
    ChargedPartition,
    DomainError,
    Multisegment,
    Segment,
    Symbol,
    make_partition,
    max_segment_length,
    multisegment_of,
    multisegment_of_symbol,
    shift,
    swap_orbit,
)
from helpers import (
    M2,
    N1,
    N3,
    N4,
    mseg,
    random_charged_partition,
    random_multisegment,
    random_standard_symbol,
)


def test_segment_validation():
    with pytest.raises(DomainError):
        Segment(0, 3)
    with pytest.raises(DomainError):
        Segment(4, 2)
    assert Segment(2, 6).length == 5


def test_canonical_order_is_construction_independent():
    a = Multisegment((Segment(2, 6), Segment(1, 2), Segment(2, 5)))
    b = Multisegment((Segment(1, 2), Segment(2, 5), Segment(2, 6)))
    assert a == b
    assert a.segments == (Segment(1, 2), Segment(2, 5), Segment(2, 6))


def test_sum_golden():
    assert mseg((1, 1), (2, 5)) + M2 == N4


def test_sum_identity_and_multiplicity():
    m = mseg((4, 5))
    assert m + Multisegment() == m
    doubled = m + m
    assert doubled.segments == (Segment(4, 5), Segment(4, 5))
    assert doubled.size == 4


@pytest.mark.parametrize(
    "top,bottom,expected",
    [
        ((1, 2, 5, 6), (3, 7), N1),
        ((1, 3, 5, 6), (2, 7), N3),
        ((1, 2), (1,), Multisegment()),
        ((2, 4), (), mseg((1, 1), (2, 3))),
    ],
)
def test_multisegment_of_symbol_golden(top, bottom, expected):
    assert multisegment_of_symbol(Symbol(top, bottom)) == expected


def test_symbol_multisegment_splits_over_rows():
    rng = random.Random(7)
    for _ in range(200):
        c1 = random_charged_partition(rng)
        c2 = random_charged_partition(rng)
        if c1.charge > c2.charge:
            c1, c2 = c2, c1
        from heckeprod import symbol_of

        total = multisegment_of_symbol(symbol_of(c1, c2))
        assert total == multisegment_of(c1) + multisegment_of(c2)


def test_shift_golden():
    m = mseg((4, 5), (5, 7))
    assert shift(m, -3) == mseg((1, 2), (2, 4))
    # same thing computed from the charged partition dropped to charge 2
    assert shift(m, -3) == multisegment_of(ChargedPartition(make_partition([2, 3]), 2))
    assert shift(m, 0) == m
    assert shift(Multisegment(), 5) == Multisegment()


def test_shift_rejects_underflow():
    with pytest.raises(DomainError):
        shift(mseg((2, 4)), -2)


def test_shift_round_trip():
    rng = random.Random(13)
    for _ in range(200):
        m = random_multisegment(rng)
        c = rng.randint(0, 5)
        assert shift(shift(m, c), -c) == m


@pytest.mark.parametrize(
    "m,expected",
    [
        (N1, 5),
        (M2, 3),
        (Multisegment(), 0),
    ],
)
def test_max_segment_length(m, expected):
    assert max_segment_length(m) == expected


def test_multisegment_of_symbol_empty_bottom():
    # (1,3) decodes to partition (1) at charge 2, giving the segment [2,2]
    assert multisegment_of_symbol(Symbol((1, 3), ())) == mseg((2, 2))


def test_orbit_preserves_total_size():
    rng = random.Random(17)
    for _ in range(100):
        s = random_standard_symbol(rng)
        size = multisegment_of_symbol(s).size
        for member in swap_orbit(s):
            assert multisegment_of_symbol(member).size == size
