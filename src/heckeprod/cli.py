"""Command-line front end.

Each subcommand takes a pair of evaluation-module specs (a partition as a
comma-separated list, in any order, plus an integer exponent) and prints
either human-readable text or machine-readable JSON.  All output is in
canonical order, so identical invocations are byte-identical.

Exit codes: 0 success (also when the reader closes stdout early), 2 usage
error, 3 domain precondition violation, 4 internal integrity error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import IO, Iterable

from .errors import DomainError, IntegrityError
from .multisegments import Multisegment, multisegment_of_symbol
from .partitions import ChargedPartition, Partition, beta_row, make_partition
from .products import EvaluationModuleSpec, expansion, normalize_inputs
from .schurweyl import DrinfeldData, tensor_factors
from .symbols import Symbol, pair_structure, standard_ancestors, symbol_of

SCHEMA_VERSION = 1

USAGE_ERROR = 2
DOMAIN_ERROR = 3
INTEGRITY_ERROR = 4


@dataclass(frozen=True)
class Request:
    command: str
    e1: EvaluationModuleSpec | None = None
    e2: EvaluationModuleSpec | None = None
    rank: int | None = None
    max_weight: int | None = None
    max_charge: int | None = None
    fmt: str = "text"


def _partition_arg(text: str) -> Partition:
    text = text.strip()
    if not text:
        return Partition()
    try:
        values = [int(tok) for tok in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        )
    if any(v < 0 for v in values):
        raise argparse.ArgumentTypeError("partition parts must be non-negative")
    return make_partition(values)


def _int_at_least(low: int):
    """argparse type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"value must be at least {low}")
        return value

    return parse


_PAIR_FLAGS = (
    ("--lambda1", dict(
        type=_partition_arg,
        default=Partition(),
        metavar="PARTS",
        help="first partition, comma-separated (any order; empty for the empty partition)",
    )),
    ("--a1", dict(type=int, required=True, metavar="INT",
                  help="exponent of the first spectral parameter")),
    ("--lambda2", dict(
        type=_partition_arg,
        default=Partition(),
        metavar="PARTS",
        help="second partition, comma-separated",
    )),
    ("--a2", dict(type=int, required=True, metavar="INT",
                  help="exponent of the second spectral parameter")),
    ("--format", dict(choices=("text", "json"), default="text",
                      dest="fmt", help="output format (default text)")),
)

# (names, help, flags) of each subcommand; the names of one entry run the
# same command
_COMMANDS = (
    (("symbol",), "two-row symbol of the normalized pair", _PAIR_FLAGS),
    (("pairs",), "pair structure of the pair's (standard) symbol", _PAIR_FLAGS),
    (("ancestors",), "standard symbols whose swap orbit contains the pair's symbol",
     _PAIR_FLAGS),
    (("expand",), "graded expansion of the product of the two flag minors",
     _PAIR_FLAGS),
    (("factors",), "composition factors of the induction product", _PAIR_FLAGS),
    (("drinfeld", "tensor"),
     "Drinfeld polynomials of the surviving tensor-product factors",
     _PAIR_FLAGS + (("--rank", dict(type=int, required=True, metavar="N",
                                    help="rank bound N of the quantum affine algebra")),)),
    (("batch",),
     "stream one JSON record per charged-partition pair within the bounds", (
         ("--max-weight", dict(type=_int_at_least(0), required=True, metavar="W",
                               help="bound on the sum of the two partition weights")),
         ("--max-charge", dict(type=_int_at_least(1), required=True, metavar="A",
                               help="bound on both charges")),
     )),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heckeprod",
        description="Exact combinatorics of induction products of two "
        "evaluation modules: symbols, composition factors, graded "
        "flag-minor expansions and Drinfeld polynomials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for names, helptext, flags in _COMMANDS:
        for name in names:
            p = sub.add_parser(name, help=helptext)
            for flag, options in flags:
                p.add_argument(flag, **options)
    return parser


def parse_args(argv) -> Request:
    ns = build_parser().parse_args(argv)
    if ns.command == "batch":
        return Request(
            command="batch",
            max_weight=ns.max_weight,
            max_charge=ns.max_charge,
            fmt="json",
        )
    return Request(
        # both names run the tensor-product computation
        command="tensor" if ns.command == "drinfeld" else ns.command,
        e1=EvaluationModuleSpec(ns.lambda1, ns.a1),
        e2=EvaluationModuleSpec(ns.lambda2, ns.a2),
        rank=getattr(ns, "rank", None),
        fmt=ns.fmt,
    )


# ---------------------------------------------------------------------------
# rendering

def _mseg_json(m: Multisegment) -> list[list[int]]:
    return [[seg.start, seg.end] for seg in m]


def _symbol_json(s: Symbol) -> dict:
    return {"top": list(s.top), "bottom": list(s.bottom)}


def _terms_json(terms, labels) -> list[dict]:
    return [
        {"symbol": _symbol_json(sym), "n": n, "multisegment": _mseg_json(m)}
        for (sym, n), m in zip(terms, labels)
    ]


def _drinfeld_json(data: DrinfeldData) -> dict:
    return {
        "N": data.rank_bound,
        "zero": False,
        "polynomials": [
            {"k": k, "root_exponents": list(exps)}
            for k, exps in data.roots_by_degree
        ],
        "multisegment": _mseg_json(data.source_multisegment()),
    }


def _symbol_text(s: Symbol) -> list[str]:
    entries = list(s.top) + list(s.bottom)
    width = max((len(str(e)) for e in entries), default=1)
    return [
        " ".join(str(e).rjust(width) for e in row) for row in (s.top, s.bottom)
    ]


def _polynomials_text(data: DrinfeldData) -> str:
    parts = []
    for k, exps in data.roots_by_degree:
        factors = "".join(f"(u - q^-{e})" for e in exps)
        parts.append(f"P_{k} = {factors}")
    return "; ".join(parts) if parts else "all P_k = 1"


def _emit(req: Request, out: IO[str], payload: dict, lines: Iterable) -> None:
    """Write one answer: ``payload`` as one compact JSON line carrying the
    schema version, or else each of the text ``lines`` on a line of its own."""
    if req.fmt == "json":
        record = {"schema_version": SCHEMA_VERSION, **payload}
        out.write(json.dumps(record, separators=(",", ":")) + "\n")
    else:
        out.write("".join(f"{line}\n" for line in lines))


# ---------------------------------------------------------------------------
# command execution

def _symbol(req: Request) -> Symbol:
    return symbol_of(*normalize_inputs(req.e1, req.e2))


def _run_symbol(req: Request, out: IO[str]) -> None:
    sigma = _symbol(req)
    _emit(req, out, {"symbol": _symbol_json(sigma)}, _symbol_text(sigma))


def _run_pairs(req: Request, out: IO[str]) -> None:
    sigma = _symbol(req)
    ps = pair_structure(sigma)
    fixed = sorted(ps.fixed)
    payload = {
        "symbol": _symbol_json(sigma),
        "fixed": fixed,
        "pairs": [[j, img] for j, img in ps.pairs],
    }
    lines = _symbol_text(sigma) + [
        "fixed: " + (" ".join(str(j) for j in fixed) or "-"),
        "pairs: " + (" ".join(f"({j},{img})" for j, img in ps.pairs) or "-"),
    ]
    _emit(req, out, payload, lines)


def _run_ancestors(req: Request, out: IO[str]) -> None:
    sigma = _symbol(req)
    terms = standard_ancestors(sigma)
    labels = [multisegment_of_symbol(sym) for sym, _ in terms]
    lines = [f"{len(terms)} standard ancestors"]
    for (sym, n), m in zip(terms, labels):
        lines.append(f"n={n} m={m}")
        lines.extend("  " + line for line in _symbol_text(sym))
    payload = {"symbol": _symbol_json(sigma), "terms": _terms_json(terms, labels)}
    _emit(req, out, payload, lines)


def _run_expand(req: Request, out: IO[str]) -> None:
    exp = expansion(req.e1, req.e2)
    terms = " + ".join(f"v^{n} {m}" for (_, n), m in zip(exp.terms, exp.labels))
    payload = {"offset": exp.offset, "terms": _terms_json(exp.terms, exp.labels)}
    _emit(req, out, payload, [f"v^{exp.offset} * ( {terms} )"])


def _run_factors(req: Request, out: IO[str]) -> None:
    factors = expansion(req.e1, req.e2).factors()
    _emit(req, out, {"factors": [_mseg_json(m) for m in factors]}, factors)


def _run_tensor(req: Request, out: IO[str]) -> None:
    survivors = tensor_factors(req.e1, req.e2, req.rank)
    payload = {"N": req.rank, "factors": [_drinfeld_json(d) for d in survivors]}
    lines = [f"N = {req.rank}"] + [
        f"{d.source_multisegment()}: {_polynomials_text(d)}" for d in survivors
    ]
    _emit(req, out, payload, lines)


def _charged_partitions(max_weight: int, max_charge: int) -> list[ChargedPartition]:
    def weakly_decreasing(n, max_part):
        if n == 0:
            yield ()
            return
        for first in range(min(n, max_part), 0, -1):
            for rest in weakly_decreasing(n - first, first):
                yield (first,) + rest

    cps = []
    for w in range(max_weight + 1):
        for dec in weakly_decreasing(w, w if w else 1):
            if len(dec) > max_charge:
                continue
            p = Partition(tuple(sorted(dec)))
            for a in range(max(1, len(p)), max_charge + 1):
                cps.append(ChargedPartition(p, a))
    cps.sort(key=lambda cp: (cp.charge, beta_row(cp).entries))
    return cps


def _run_batch(req: Request, out: IO[str]) -> None:
    cps = _charged_partitions(req.max_weight, req.max_charge)
    for i, cp1 in enumerate(cps):
        for cp2 in cps[i:]:
            if cp1.partition.weight + cp2.partition.weight > req.max_weight:
                continue
            exp = expansion(
                EvaluationModuleSpec(cp1.partition, cp1.charge),
                EvaluationModuleSpec(cp2.partition, cp2.charge),
            )
            record = {
                "lambda1": list(cp1.partition),
                "a1": cp1.charge,
                "lambda2": list(cp2.partition),
                "a2": cp2.charge,
                "offset": exp.offset,
                "terms": _terms_json(exp.terms, exp.labels),
                "factors": [_mseg_json(m) for m in exp.factors()],
            }
            _emit(req, out, record, ())


_RUNNERS = {
    "symbol": _run_symbol,
    "pairs": _run_pairs,
    "ancestors": _run_ancestors,
    "expand": _run_expand,
    "factors": _run_factors,
    "tensor": _run_tensor,
    "batch": _run_batch,
}


def run(req: Request, out: IO[str]) -> None:
    _RUNNERS[req.command](req, out)


def _emit_error(message: str, code: int, fmt: str) -> None:
    if fmt == "json":
        json.dump({"error": message, "code": code}, sys.stderr)
        sys.stderr.write("\n")
    else:
        sys.stderr.write(f"error: {message}\n")


def main(argv=None) -> int:
    try:
        req = parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        run(req, sys.stdout)
        return 0
    except DomainError as exc:
        _emit_error(str(exc), DOMAIN_ERROR, req.fmt)
        return DOMAIN_ERROR
    except IntegrityError as exc:
        _emit_error(str(exc), INTEGRITY_ERROR, req.fmt)
        return INTEGRITY_ERROR


def console_main() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (``heckeprod batch ... | head``): stop
        # quietly.  Point stdout at devnull so that the flush at
        # interpreter exit cannot raise the same error again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    raise SystemExit(code)


if __name__ == "__main__":
    console_main()
