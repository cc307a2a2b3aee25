"""Multisegments: multisets of closed integer intervals.

A segment ``[a, b]`` is a run of consecutive integers with ``1 <= a <= b``.
A multisegment is a formal sum of segments, stored in a canonical sorted
order (by start, then end) so that any two construction paths of the same
multiset compare equal.  Multisegments are the labels of the simple
affine Hecke algebra modules this package reasons about, but in code they
are plain immutable values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from .errors import DomainError

if TYPE_CHECKING:  # pragma: no cover - type-only import, avoids a cycle
    from .symbols import Symbol


@dataclass(frozen=True, order=True)
class Segment:
    """Closed interval ``[start, end]`` of integers, ``1 <= start <= end``."""

    start: int
    end: int

    def __post_init__(self):
        if self.start < 1:
            raise DomainError(f"segment start must be >= 1, got {self.start}")
        if self.end < self.start:
            raise DomainError(
                f"segment end {self.end} is below its start {self.start}"
            )

    @property
    def length(self) -> int:
        return self.end - self.start + 1

    def contains(self, j: int) -> bool:
        return self.start <= j <= self.end

    def __str__(self) -> str:
        return f"[{self.start},{self.end}]"


@dataclass(frozen=True, order=True)
class Multisegment:
    """A multiset of segments; repetitions are stored as repetitions."""

    segments: tuple[Segment, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(sorted(self.segments)))

    def __iter__(self) -> Iterator[Segment]:
        return iter(self.segments)

    def __len__(self) -> int:
        return len(self.segments)

    def __add__(self, other: "Multisegment") -> "Multisegment":
        """Multiset union; the size is additive."""
        return Multisegment(self.segments + other.segments)

    @property
    def size(self) -> int:
        """Total number of integers covered, counted with multiplicity."""
        return sum(seg.length for seg in self.segments)

    def __str__(self) -> str:
        if not self.segments:
            return "0"
        return "+".join(str(seg) for seg in self.segments)


def shift(m: Multisegment, c: int) -> Multisegment:
    """Translate every segment ``[a, b]`` to ``[a+c, b+c]``.

    The shift must keep every start at 1 or above; the empty multisegment
    shifts to itself for any ``c``.
    """
    if not m.segments:
        return m
    lowest = m.segments[0].start
    if lowest + c < 1:
        raise DomainError(
            f"shift by {c} pushes a segment start below 1 (lowest start {lowest})"
        )
    return Multisegment(tuple(Segment(s.start + c, s.end + c) for s in m))


def max_segment_length(m: Multisegment) -> int:
    """Largest segment length in ``m``; 0 for the empty multisegment."""
    return max((seg.length for seg in m), default=0)


def _row_segments(row: tuple[int, ...]) -> tuple[Segment, ...]:
    """Row multisegment of one beta row, read off its entries: entry ``e``
    at 1-based position ``j`` is the diagram row ``[j, e - 1]`` when
    ``e > j`` and an empty row otherwise."""
    return tuple(Segment(j, e - 1) for j, e in enumerate(row, start=1) if e > j)


def multisegment_of_symbol(s: "Symbol") -> Multisegment:
    """Decode both rows of a symbol and add up their row multisegments."""
    top, bottom = s.rows()
    return Multisegment(_row_segments(top) + _row_segments(bottom))
