"""Two-row symbols, their pair structure, and swap combinatorics.

A symbol stacks two strictly increasing rows of positive integers with the
longer row on top.  It is *standard* when each top entry is at most the
bottom entry in the same column, comparing both rows from their first
entries.

Every standard symbol carries a canonical injection of its bottom row into
its top row, built by matching brackets:

* the values shared by both rows are fixed; each maps to itself;
* the remaining values, read in increasing order, are brackets: a top
  value opens one, and a bottom value closes the nearest one still open
  and maps to it.

Standardness guarantees that every bottom value finds an open bracket.
Equivalently, the injection is built level by level: level 0 fixes the
shared values, and at level ``l >= 1`` an unassigned bottom value ``j``
maps to ``j - l`` provided ``j - l`` is a top value not consumed at an
earlier level.  The injection's non-fixed (source, image) pairs can be
exchanged between the rows in any combination.  The ``2**p`` symbols
reachable this way form the *swap orbit* of the symbol, and
:func:`standard_ancestors` inverts the construction: it finds every
standard symbol whose orbit contains a given symbol.

A counting fact used throughout: a pair's source never occurs in the top
row and its image never occurs in the bottom row (shared values are all
fixed, and never open or close a bracket).  Hence swaps can never collide
with existing entries and all ``2**p`` orbit members are distinct valid
symbols; the code still asserts this and raises
:class:`~heckeprod.errors.IntegrityError` on any breach.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .errors import DomainError, IntegrityError
from .partitions import BetaRow, ChargedPartition, beta_row


@dataclass(frozen=True, order=True)
class Symbol:
    """An ordered pair of strictly increasing rows, top at least as long
    as bottom.  Symbols order lexicographically by top row, then bottom."""

    top: BetaRow
    bottom: BetaRow

    def __post_init__(self):
        if not isinstance(self.top, BetaRow):
            object.__setattr__(self, "top", BetaRow(tuple(self.top)))
        if not isinstance(self.bottom, BetaRow):
            object.__setattr__(self, "bottom", BetaRow(tuple(self.bottom)))
        if len(self.top) < len(self.bottom):
            raise DomainError(
                f"top row (length {len(self.top)}) must be at least as long "
                f"as bottom row (length {len(self.bottom)})"
            )

    def rows(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return self.top.entries, self.bottom.entries

    def __str__(self) -> str:
        return f"({self.top} // {self.bottom})"


@dataclass(frozen=True)
class PairStructure:
    """The canonical injection of a standard symbol.

    ``fixed`` holds the values mapped to themselves (exactly the values
    common to both rows); ``pairs`` lists the remaining (source, image)
    assignments with image < source, sorted by source.
    """

    fixed: frozenset[int]
    pairs: tuple[tuple[int, int], ...]

    def as_mapping(self) -> dict[int, int]:
        mapping = {j: j for j in self.fixed}
        mapping.update({j: img for j, img in self.pairs})
        return mapping


def symbol_of(cp1: ChargedPartition, cp2: ChargedPartition) -> Symbol:
    """The symbol of an ordered pair of charged partitions: top row the
    beta numbers of ``cp2``, bottom row those of ``cp1``.

    Requires ``cp1.charge <= cp2.charge``; callers normalize first.
    """
    if cp1.charge > cp2.charge:
        raise DomainError(
            f"first charge {cp1.charge} exceeds second {cp2.charge}; "
            "normalize the pair before building its symbol"
        )
    return Symbol(beta_row(cp2), beta_row(cp1))


def is_standard(s: Symbol) -> bool:
    """True when each top entry is at most the bottom entry below it."""
    return all(t <= b for t, b in zip(s.top, s.bottom))


def _pairing(top: tuple[int, ...], bottom: tuple[int, ...]):
    """(fixed, pairs) of the canonical injection for standard rows.

    The values in one row only are read in ascending order as brackets: a
    top value opens one, and a bottom value closes the nearest one still
    open and is paired with it.
    """
    top_set = frozenset(top)
    fixed = frozenset(j for j in bottom if j in top_set)
    open_tops: list[int] = []
    pairs = []
    for j in sorted(top_set.symmetric_difference(bottom)):
        if j in top_set:
            open_tops.append(j)
        elif open_tops:
            pairs.append((j, open_tops.pop()))
        else:
            raise IntegrityError(
                f"bottom value {j} has no open top value on rows {top} // {bottom}"
            )
    return fixed, tuple(pairs)


def pair_structure(s: Symbol) -> PairStructure:
    """Canonical injection of a standard symbol; rejects non-standard input."""
    if not is_standard(s):
        raise DomainError(f"symbol {s} is not standard; it has no pair structure")
    fixed, pairs = _pairing(*s.rows())
    return PairStructure(fixed, pairs)


def _swapped_rows(
    top: tuple[int, ...],
    bottom: tuple[int, ...],
    chosen: Sequence[tuple[int, int]],
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Exchange the chosen (source, image) pairs between the rows.

    Sources move bottom to top, images top to bottom; both rows are
    re-sorted.  A duplicate inside a row would mean the pair structure
    was inconsistent, so it raises rather than deduplicates.
    """
    sources = frozenset(j for j, _ in chosen)
    images = frozenset(img for _, img in chosen)
    new_top = sorted([x for x in top if x not in images] + [j for j, _ in chosen])
    new_bottom = sorted(
        [x for x in bottom if x not in sources] + [img for _, img in chosen]
    )
    for row in (new_top, new_bottom):
        if any(row[i] == row[i + 1] for i in range(len(row) - 1)):
            raise IntegrityError(
                f"pair swap produced a repeated entry in {row} "
                f"(rows {top} // {bottom}, swapped {tuple(chosen)})"
            )
    return tuple(new_top), tuple(new_bottom)


def swap_orbit(s: Symbol) -> tuple[Symbol, ...]:
    """All ``2**p`` symbols obtained from a standard symbol by moving any
    subset of its pairs across the rows, the symbol itself included.

    Returned in canonical (lexicographic) order; an orbit smaller than
    ``2**p`` is an integrity failure, never silently deduplicated.
    """
    structure = pair_structure(s)
    pairs = structure.pairs
    top, bottom = s.rows()
    seen: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
    for mask in range(1 << len(pairs)):
        chosen = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        rows = _swapped_rows(top, bottom, chosen)
        if rows in seen:
            raise IntegrityError(
                f"two distinct pair subsets of {s} produced the same symbol"
            )
        seen.add(rows)
    return tuple(Symbol(t, b) for t, b in sorted(seen))


def n_swaps(s: Symbol, sigma: Symbol) -> int:
    """Number of pairs of the standard symbol ``s`` that must be moved to
    obtain ``sigma``; rejects ``sigma`` outside the swap orbit of ``s``.

    The subset is forced: a source value occurs exactly once across both
    rows, so it was moved iff it now sits in ``sigma``'s top row.
    """
    structure = pair_structure(s)
    sigma_top = frozenset(sigma.top)
    chosen = [pr for pr in structure.pairs if pr[0] in sigma_top]
    if _swapped_rows(*s.rows(), chosen) != sigma.rows():
        raise DomainError(f"{sigma} is not in the swap orbit of {s}")
    return len(chosen)


def _sorted_row_or_none(values: list[int]) -> tuple[int, ...] | None:
    """Sort a candidate row; None when a value repeats (not a valid row)."""
    values.sort()
    if any(values[i] == values[i + 1] for i in range(len(values) - 1)):
        return None
    return tuple(values)


def standard_ancestors(sigma: Symbol) -> tuple[tuple[Symbol, int], ...]:
    """All standard symbols whose swap orbit contains ``sigma``, each with
    the number of pairs moved to reach ``sigma``.

    Any ancestor is recovered from ``sigma`` by moving some ``k`` values
    down from the top row and ``k`` values up from the bottom row, so the
    search ranges over exactly those exchanges, keeps the standard
    candidates, and verifies each by swapping its forced pair subset back.
    When ``sigma`` is standard the result contains ``(sigma, 0)``.
    """
    top, bottom = sigma.rows()
    top_set = frozenset(top)
    found: list[tuple[tuple[tuple[int, ...], tuple[int, ...]], int]] = []
    seen: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
    for k in range(len(bottom) + 1):
        for down in combinations(top, k):
            down_set = frozenset(down)
            top_rest = [x for x in top if x not in down_set]
            for up in combinations(bottom, k):
                cand_top = _sorted_row_or_none(top_rest + list(up))
                if cand_top is None:
                    continue
                up_set = frozenset(up)
                cand_bottom = _sorted_row_or_none(
                    [x for x in bottom if x not in up_set] + list(down)
                )
                if cand_bottom is None:
                    continue
                rows = (cand_top, cand_bottom)
                if rows in seen:
                    continue
                seen.add(rows)
                if any(t > b for t, b in zip(cand_top, cand_bottom)):
                    continue
                _, pairs = _pairing(cand_top, cand_bottom)
                chosen = [pr for pr in pairs if pr[0] in top_set]
                if _swapped_rows(cand_top, cand_bottom, chosen) == (top, bottom):
                    found.append((rows, len(chosen)))
    found.sort()
    return tuple((Symbol(t, b), n) for (t, b), n in found)
