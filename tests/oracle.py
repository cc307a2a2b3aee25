"""Brute-force reference implementations, for tests only.

Everything here is recomputed from scratch with explicit sets, explicit
bit masks and explicit list surgery, sharing only the value types with the
fast paths in :mod:`heckeprod.symbols`.  The test suite drives both sides
over the same inputs and demands identical answers; keeping this module
naive and separate is what gives that comparison teeth.

Not part of the public package interface.
"""

from __future__ import annotations

from itertools import combinations

from heckeprod.errors import DomainError, IntegrityError
from heckeprod.symbols import Symbol

DEFAULT_BOUND = 12


def _injection(top: tuple[int, ...], bottom: tuple[int, ...]) -> dict[int, int]:
    # Literal level-by-level construction: level 0 fixes the shared values,
    # level l sends j to j - l when that value is still available on top.
    beta = set(top)
    gamma = set(bottom)
    psi = {j: j for j in gamma & beta}
    level = 0
    while len(psi) < len(bottom):
        level += 1
        if level > max(gamma):
            raise IntegrityError(f"no injection exists for rows {top} // {bottom}")
        available = beta - set(psi.values())
        for j in sorted(gamma - set(psi)):
            if j - level in available:
                psi[j] = j - level
    return psi


def _pairs_of(top: tuple[int, ...], bottom: tuple[int, ...]):
    psi = _injection(top, bottom)
    return sorted((j, img) for j, img in psi.items() if img != j)


def _row_ok(row: list[int]) -> bool:
    return all(row[i] < row[i + 1] for i in range(len(row) - 1))


def _swap_subset(
    top: tuple[int, ...],
    bottom: tuple[int, ...],
    pairs,
    mask: int,
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    t = list(top)
    b = list(bottom)
    for bit, (j, img) in enumerate(pairs):
        if mask >> bit & 1:
            b.remove(j)
            t.remove(img)
            t.append(j)
            b.append(img)
    t.sort()
    b.sort()
    if not _row_ok(t) or not _row_ok(b):
        raise IntegrityError(
            f"swap mask {mask:b} on rows {top} // {bottom} repeated an entry"
        )
    return tuple(t), tuple(b)


def brute_swap_orbit(s: Symbol, bound: int = DEFAULT_BOUND) -> tuple[Symbol, ...]:
    """Enumerate every pair subset of a standard symbol by bit pattern and
    swap it; asserts the orbit has exactly ``2**p`` distinct members."""
    top, bottom = s.rows()
    if any(t > b for t, b in zip(top, bottom)):
        raise DomainError(f"symbol {s} is not standard")
    pairs = _pairs_of(top, bottom)
    if len(pairs) > bound:
        raise DomainError(f"{len(pairs)} pairs exceeds the oracle bound {bound}")
    orbit = set()
    for mask in range(2 ** len(pairs)):
        orbit.add(_swap_subset(top, bottom, pairs, mask))
    if len(orbit) != 2 ** len(pairs):
        raise IntegrityError(
            f"orbit of {s} has {len(orbit)} members, expected {2 ** len(pairs)}"
        )
    return tuple(Symbol(t, b) for t, b in sorted(orbit))


def brute_ancestors(
    sigma: Symbol, bound: int = DEFAULT_BOUND
) -> tuple[tuple[Symbol, int], ...]:
    """Try every redistribution of ``sigma``'s entries into two strictly
    increasing rows of the same lengths; keep the standard ones some pair
    subset of which swaps onto ``sigma``."""
    top, bottom = sigma.rows()
    entries = sorted(top + bottom)
    if len(entries) > bound:
        raise DomainError(
            f"{len(entries)} entries exceeds the oracle bound {bound}"
        )
    target = (top, bottom)
    tried = set()
    found = []
    for picked in combinations(range(len(entries)), len(top)):
        picked_set = set(picked)
        cand_top = [entries[i] for i in picked]
        cand_bottom = [entries[i] for i in range(len(entries)) if i not in picked_set]
        if not _row_ok(cand_top) or not _row_ok(cand_bottom):
            continue
        rows = (tuple(cand_top), tuple(cand_bottom))
        if rows in tried:
            continue
        tried.add(rows)
        if any(t > b for t, b in zip(*rows)):
            continue
        pairs = _pairs_of(*rows)
        for mask in range(2 ** len(pairs)):
            if _swap_subset(*rows, pairs, mask) == target:
                found.append((rows, mask.bit_count()))
                break
    found.sort()
    return tuple((Symbol(t, b), n) for (t, b), n in found)
