"""Products of two evaluation modules: normalization, the graded expansion
of the corresponding product of quantum flag minors, and the composition
factors of the induction product.

An evaluation module is specified by a partition and an integer exponent
``a`` standing for the spectral parameter ``t**a``.  Only exponents with
``a >= len(partition)`` (and ``a >= 1``) are accepted; the general
reduction to that range is a fact about the modules, not something this
package re-derives.  Since the two factors can be exchanged without
changing composition factors, inputs are ordered so the smaller charge
comes first, breaking charge ties by the lexicographically smaller row of
beta numbers.

The product of the two flag minors labelled by the normalized pair expands
on the dual canonical basis with one monomial coefficient per standard
ancestor of the pair's symbol: a global offset ``-N`` where ``N`` counts
the cells of the second diagram containing the first charge, and per term
the number of pairs moved.  Specializing the grading away, the multiset of
term labels is exactly the composition factor list, each factor occurring
once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DomainError, IntegrityError
from .multisegments import Multisegment, multisegment_of_symbol
from .partitions import ChargedPartition, Partition, beta_row, content_count
from .symbols import Symbol, is_standard, standard_ancestors, symbol_of


@dataclass(frozen=True)
class EvaluationModuleSpec:
    """A partition with the integer exponent of its spectral parameter.

    Construction accepts any exponent; :func:`normalize_inputs` is the
    gate that enforces ``exponent >= max(1, len(partition))``.
    """

    partition: Partition
    exponent: int

    def __post_init__(self):
        if not isinstance(self.partition, Partition):
            object.__setattr__(self, "partition", Partition(tuple(self.partition)))
        object.__setattr__(self, "exponent", int(self.exponent))


def normalize_inputs(
    e1: EvaluationModuleSpec, e2: EvaluationModuleSpec
) -> tuple[ChargedPartition, ChargedPartition]:
    """Validate both exponents and order the pair canonically.

    Rejects ``exponent < len(partition)`` (and non-positive exponents):
    the combinatorics below is stated for spectral parameters reduced to
    that range, and this tool does not perform the reduction itself.
    """
    charged = []
    for e in (e1, e2):
        floor = max(1, len(e.partition))
        if e.exponent < floor:
            raise DomainError(
                f"exponent {e.exponent} for partition {e.partition} is below "
                f"{floor}; inputs must satisfy a >= len(partition) and a >= 1"
            )
        charged.append(ChargedPartition(e.partition, e.exponent))
    cp1, cp2 = charged
    if (cp1.charge, beta_row(cp1).entries) > (cp2.charge, beta_row(cp2).entries):
        cp1, cp2 = cp2, cp1
    return cp1, cp2


@dataclass(frozen=True)
class Expansion:
    """Graded expansion of a product of two flag minors.

    ``offset`` is the global exponent; ``terms`` maps each standard
    ancestor symbol to its swap count, in canonical symbol order, and
    ``labels`` holds each term's multisegment, aligned with ``terms``.
    Every term labels a distinct multisegment (multiplicity one); a
    repeat is an integrity failure.
    """

    offset: int
    terms: tuple[tuple[Symbol, int], ...]
    labels: tuple[Multisegment, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        terms = tuple(sorted(self.terms))
        object.__setattr__(self, "terms", terms)
        labels = tuple(multisegment_of_symbol(sym) for sym, _ in terms)
        object.__setattr__(self, "labels", labels)
        seen = set()
        for (sym, n), label in zip(terms, labels):
            if not is_standard(sym):
                raise IntegrityError(f"expansion term {sym} is not standard")
            # every bottom value of a standard symbol that is not shared
            # with the top row is the source of one pair
            top, bottom = sym.rows()
            if not 0 <= n <= len(bottom) - len(set(top).intersection(bottom)):
                raise IntegrityError(
                    f"swap count {n} out of range for term {sym}"
                )
            if label in seen:
                raise IntegrityError(
                    f"two expansion terms share the multisegment {label}"
                )
            seen.add(label)

    def factors(self) -> tuple[Multisegment, ...]:
        """Multisegment labels of the terms, in canonical order."""
        return tuple(sorted(self.labels))


def expansion(e1: EvaluationModuleSpec, e2: EvaluationModuleSpec) -> Expansion:
    """Expand the product of the two flag minors labelled by the inputs."""
    cp1, cp2 = normalize_inputs(e1, e2)
    sigma = symbol_of(cp1, cp2)
    offset = -content_count(cp2, cp1.charge)
    return Expansion(offset, standard_ancestors(sigma))


def composition_factors(
    e1: EvaluationModuleSpec, e2: EvaluationModuleSpec
) -> tuple[Multisegment, ...]:
    """Multisegments labelling the composition factors of the induction
    product of the two evaluation modules, each with multiplicity one,
    in canonical order."""
    return expansion(e1, e2).factors()


def is_irreducible(e1: EvaluationModuleSpec, e2: EvaluationModuleSpec) -> bool:
    """True when the induction product has a single composition factor."""
    return len(composition_factors(e1, e2)) == 1
