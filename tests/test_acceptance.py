"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; the
exhaustive sweep (criterion 6) and the property suite (criterion 7) take a
couple of minutes together.
"""

import contextlib
import io
import random
import time

from heckeprod import (
    ChargedPartition,
    DrinfeldData,
    EvaluationModuleSpec,
    Symbol,
    beta_row,
    composition_factors,
    drinfeld,
    expansion,
    from_beta,
    make_partition,
    max_segment_length,
    multisegment_of_symbol,
    normalize_inputs,
    pair_structure,
    shift,
    standard_ancestors,
    swap_orbit,
    symbol_of,
    tensor_factors,
)
from heckeprod.cli import Request, _charged_partitions, run
from helpers import (
    ANCESTOR_COUNTS,
    E1,
    E2,
    M1,
    M2,
    N1,
    N2,
    N3,
    N4,
    random_charged_partition,
    random_multisegment,
    random_spec_pair,
    random_standard_symbol,
)
from oracle import brute_ancestors, brute_swap_orbit

SWEEP_MAX_WEIGHT = 8
SWEEP_MAX_CHARGE = 6


def best_time(fn, repeats=5):
    """Best-of-N wall time of fn(), in seconds, plus its result."""
    result = fn()  # warm-up (also fills caches, as any real caller would)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return result, best


@contextlib.contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {description}")
        raise
    print(f"PASS criterion {num}: {description}")


def test_criterion_1_symbol_golden():
    with criterion(1, "two-row symbol of ((1,1,2),3) and ((2,3),5), under 1 ms"):
        cp1 = ChargedPartition(make_partition([1, 1, 2]), 3)
        cp2 = ChargedPartition(make_partition([2, 3]), 5)
        s, elapsed = best_time(lambda: symbol_of(cp1, cp2))
        assert s.top.entries == (1, 2, 3, 6, 8)
        assert s.bottom.entries == (2, 3, 5)
        assert elapsed < 0.001


def test_criterion_2_pairing_golden():
    with criterion(2, "pair structure of (1 3 5 8 9 // 3 6 7 10), under 1 ms"):
        s = Symbol((1, 3, 5, 8, 9), (3, 6, 7, 10))
        ps, elapsed = best_time(lambda: pair_structure(s))
        assert ps.as_mapping() == {3: 3, 6: 5, 7: 1, 10: 9}
        assert elapsed < 0.001


def test_criterion_3_factors_golden():
    with criterion(3, "four composition factors and four ancestors, under 10 ms"):
        factors, t_factors = best_time(lambda: composition_factors(E1, E2))
        assert set(factors) == {N1, N2, N3, N4}
        assert len(factors) == 4
        sigma = symbol_of(*normalize_inputs(E1, E2))
        ancestors, t_anc = best_time(lambda: standard_ancestors(sigma))
        assert dict(ancestors) == ANCESTOR_COUNTS
        assert t_factors < 0.010 and t_anc < 0.010


def test_criterion_4_expansion_golden():
    with criterion(4, "expansion offset -1 with exponents 2,1,1,0 on the four labels, under 10 ms"):
        exp, elapsed = best_time(lambda: expansion(E1, E2))
        assert exp.offset == -1
        by_label = {multisegment_of_symbol(s): n for s, n in exp.terms}
        assert by_label == {N1: 2, N2: 1, N3: 1, N4: 0}
        assert elapsed < 0.010


def test_criterion_5_drinfeld_golden():
    with criterion(5, "six Drinfeld polynomial lists and tensor factor counts, under 10 ms"):
        def compute():
            return (
                dict(drinfeld(M1, 5).roots_by_degree),
                dict(drinfeld(M2, 5).roots_by_degree),
                dict(drinfeld(N1, 6).roots_by_degree),
                dict(drinfeld(N2, 6).roots_by_degree),
                dict(drinfeld(N3, 6).roots_by_degree),
                dict(drinfeld(N4, 6).roots_by_degree),
                tensor_factors(E1, E2, 5),
                tensor_factors(E1, E2, 6),
            )

        (rm1, rm2, rn1, rn2, rn3, rn4, at5, at6), elapsed = best_time(compute)
        assert rm1 == {1: (2,), 4: (7,)}
        assert rm2 == {1: (4,), 2: (7,), 3: (10,)}
        assert rn1 == {2: (3, 7, 9), 5: (8,)}
        assert rn2 == {2: (3, 7), 3: (10,), 4: (7,)}
        assert rn3 == {1: (2, 4), 2: (7, 9), 5: (8,)}
        assert rn4 == {1: (2, 4), 2: (7,), 3: (10,), 4: (7,)}
        assert {d.source_multisegment() for d in at5} == {N2, N4}
        assert {d.source_multisegment() for d in at6} == {N1, N2, N3, N4}
        assert all(isinstance(d, DrinfeldData) for d in at5 + at6)
        assert elapsed < 0.010


def _sweep_pairs():
    cps = _charged_partitions(SWEEP_MAX_WEIGHT, SWEEP_MAX_CHARGE)
    for i, cp1 in enumerate(cps):
        for cp2 in cps[i:]:
            if cp1.partition.weight + cp2.partition.weight <= SWEEP_MAX_WEIGHT:
                yield cp1, cp2


def test_criterion_6_oracle_sweep():
    with criterion(6, "exhaustive oracle agreement, weights <= 8 and charges <= 6"):
        t0 = time.perf_counter()
        pairs = 0
        orbit_checks: set = set()
        for cp1, cp2 in _sweep_pairs():
            pairs += 1
            sigma = symbol_of(cp1, cp2)
            fast = standard_ancestors(sigma)
            assert fast == brute_ancestors(sigma), f"ancestor mismatch at {sigma}"
            for sym, _ in fast:
                key = sym.rows()
                if key not in orbit_checks:
                    orbit_checks.add(key)
                    assert swap_orbit(sym) == brute_swap_orbit(sym), (
                        f"orbit mismatch at {sym}"
                    )
        elapsed = time.perf_counter() - t0
        assert pairs > 4000
        assert elapsed < 300
        print(
            f"  ({pairs} pairs, {len(orbit_checks)} distinct orbits, "
            f"{elapsed:.1f}s)"
        )


def _prop_round_trips(rng, cases):
    for _ in range(cases):
        cp = random_charged_partition(rng, max_weight=9, max_charge=7)
        assert from_beta(beta_row(cp)) == cp
    return cases


def _prop_orbit_cardinality(rng, cases):
    for _ in range(cases):
        s = random_standard_symbol(rng)
        orbit = swap_orbit(s)
        assert len(set(orbit)) == len(orbit) == 2 ** len(pair_structure(s).pairs)
    return cases


def _prop_multiplicity_one(rng, cases):
    for _ in range(cases):
        e1, e2 = random_spec_pair(rng)
        labels = [multisegment_of_symbol(s) for s, _ in expansion(e1, e2).terms]
        assert len(set(labels)) == len(labels)
    return cases


def _prop_weight_conservation(rng, cases):
    for _ in range(cases):
        e1, e2 = random_spec_pair(rng)
        weight = e1.partition.weight + e2.partition.weight
        exp = expansion(e1, e2)
        assert all(m.size == weight for m in exp.factors())
        assert len(exp.factors()) == len(exp.terms)
    return cases


def _prop_shift_equivariance(rng, cases):
    for _ in range(cases):
        e1, e2 = random_spec_pair(rng, max_charge=5)
        c = rng.randint(1, 3)
        shifted = composition_factors(
            EvaluationModuleSpec(e1.partition, e1.exponent + c),
            EvaluationModuleSpec(e2.partition, e2.exponent + c),
        )
        assert shifted == tuple(
            sorted(shift(m, c) for m in composition_factors(e1, e2))
        )
    return cases


def _prop_order_independence(rng, cases):
    for _ in range(cases):
        e1, e2 = random_spec_pair(rng)
        assert composition_factors(e1, e2) == composition_factors(e2, e1)
    return cases


def _prop_drinfeld_degree_weight(rng, cases):
    for _ in range(cases):
        m = random_multisegment(rng)
        data = drinfeld(m, max(2, max_segment_length(m) + rng.randint(1, 3)))
        assert sum(k * len(exps) for k, exps in data.roots_by_degree) == m.size
        assert data.source_multisegment() == m
    return cases


def test_criterion_7_property_suite():
    with criterion(7, "randomized property suite, at least 10^4 cases"):
        rng = random.Random(20240)
        total = 0
        total += _prop_round_trips(rng, 3000)
        total += _prop_orbit_cardinality(rng, 1500)
        total += _prop_multiplicity_one(rng, 1400)
        total += _prop_weight_conservation(rng, 1400)
        total += _prop_shift_equivariance(rng, 1100)
        total += _prop_order_independence(rng, 1100)
        total += _prop_drinfeld_degree_weight(rng, 1500)
        assert total >= 10_000
        print(f"  ({total} cases)")


def test_criterion_8_batch_determinism():
    with criterion(8, "batch output byte-identical across two runs"):
        def run_batch():
            out = io.StringIO()
            run(
                Request(
                    command="batch",
                    max_weight=SWEEP_MAX_WEIGHT,
                    max_charge=SWEEP_MAX_CHARGE,
                    fmt="json",
                ),
                out,
            )
            return out.getvalue().encode()

        first = run_batch()
        second = run_batch()
        assert first == second
        assert len(first.splitlines()) > 4000
        print(f"  ({len(first.splitlines())} records, {len(first)} bytes)")
