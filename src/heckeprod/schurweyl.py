"""Transport to the quantum affine algebra of rank bound N.

The Schur-Weyl functor sends the simple module labelled by a multisegment
to a simple module of the rank-N quantum affine algebra, or to zero
exactly when some segment is longer than ``N - 1``.  Surviving modules are
identified by their Drinfeld polynomials, computed segment by segment; the
variable ``q`` is never evaluated, roots are carried as integer exponents
``e`` meaning the root ``q**(-e)``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, IntegrityError
from .multisegments import Multisegment, Segment, max_segment_length
from .partitions import multisegment_of
from .products import EvaluationModuleSpec, composition_factors, normalize_inputs


@dataclass(frozen=True)
class ZeroModule:
    """Marker: the module is annihilated at this rank bound.

    Deliberately distinct from a :class:`DrinfeldData` with no roots,
    which is the non-zero trivial one-dimensional module.
    """


ZERO_MODULE = ZeroModule()


def _segment_root(seg: Segment) -> tuple[int, int]:
    # The whole root convention lives here: a segment [a, b] contributes
    # the root q**-(a+b) to the polynomial of degree b - a + 1.  Swap this
    # one function to adopt a uniformly shifted convention.
    return seg.length, seg.start + seg.end


@dataclass(frozen=True)
class DrinfeldData:
    """Drinfeld polynomials of a surviving simple module.

    ``roots_by_degree`` holds, for each degree ``k`` with at least one
    root, the sorted exponents ``e`` of its roots ``q**(-e)``; degrees
    absent from the map have polynomial 1.
    """

    rank_bound: int
    roots_by_degree: tuple[tuple[int, tuple[int, ...]], ...]

    def __post_init__(self):
        if self.rank_bound < 2:
            raise DomainError(f"rank bound must be >= 2, got {self.rank_bound}")
        normalized = tuple(
            (k, tuple(sorted(exps))) for k, exps in sorted(self.roots_by_degree)
        )
        object.__setattr__(self, "roots_by_degree", normalized)
        for k, exps in normalized:
            if not 1 <= k <= self.rank_bound - 1:
                raise IntegrityError(
                    f"polynomial degree index {k} outside 1..{self.rank_bound - 1}"
                )
            if not exps:
                raise IntegrityError(f"degree {k} listed with no roots")

    def source_multisegment(self) -> Multisegment:
        """Recover the multisegment this data came from.

        A root exponent ``e`` in degree ``k`` inverts to the segment
        ``[(e - k + 1) / 2, (e + k - 1) / 2]``.
        """
        segments = []
        for k, exps in self.roots_by_degree:
            for e in exps:
                if (e - k + 1) % 2 != 0:
                    raise IntegrityError(
                        f"degree {k} exponent {e} does not invert to a segment"
                    )
                segments.append(Segment((e - k + 1) // 2, (e + k - 1) // 2))
        return Multisegment(tuple(segments))


def drinfeld(m: Multisegment, rank_bound: int) -> DrinfeldData | ZeroModule:
    """Drinfeld data of the image of the module labelled ``m``, or the
    zero marker when some segment is longer than ``rank_bound - 1``."""
    if rank_bound < 2:
        raise DomainError(f"rank bound must be >= 2, got {rank_bound}")
    if max_segment_length(m) > rank_bound - 1:
        return ZERO_MODULE
    acc: dict[int, list[int]] = {}
    for seg in m:
        degree, exponent = _segment_root(seg)
        acc.setdefault(degree, []).append(exponent)
    return DrinfeldData(
        rank_bound, tuple((k, tuple(sorted(v))) for k, v in sorted(acc.items()))
    )


def tensor_factors(
    e1: EvaluationModuleSpec, e2: EvaluationModuleSpec, rank_bound: int
) -> tuple[DrinfeldData, ...]:
    """Drinfeld data of every composition factor of the tensor product of
    the two evaluation modules at the given rank bound.

    Both input modules must themselves survive (otherwise the tensor
    product is not a product of non-zero modules and the call is
    rejected); factors that vanish are dropped, and the survivors each
    occur with multiplicity one.
    """
    if rank_bound < 2:
        raise DomainError(f"rank bound must be >= 2, got {rank_bound}")
    cp1, cp2 = normalize_inputs(e1, e2)
    for cp in (cp1, cp2):
        m = multisegment_of(cp)
        if max_segment_length(m) > rank_bound - 1:
            raise DomainError(
                f"input module {cp} vanishes at rank bound {rank_bound}: "
                f"its multisegment {m} has a segment longer than {rank_bound - 1}"
            )
    survivors = []
    for m in composition_factors(e1, e2):
        data = drinfeld(m, rank_bound)
        if not isinstance(data, ZeroModule):
            survivors.append(data)
    return tuple(survivors)
