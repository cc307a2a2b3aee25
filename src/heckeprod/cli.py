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
from typing import IO

from .errors import DomainError, IntegrityError
from .multisegments import Multisegment, multisegment_of_symbol
from .partitions import ChargedPartition, Partition, beta_row, make_partition
from .products import EvaluationModuleSpec, Expansion, expansion, normalize_inputs
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


def _add_pair_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--lambda1",
        type=_partition_arg,
        default=Partition(),
        metavar="PARTS",
        help="first partition, comma-separated (any order; empty for the empty partition)",
    )
    sub.add_argument("--a1", type=int, required=True, metavar="INT",
                     help="exponent of the first spectral parameter")
    sub.add_argument(
        "--lambda2",
        type=_partition_arg,
        default=Partition(),
        metavar="PARTS",
        help="second partition, comma-separated",
    )
    sub.add_argument("--a2", type=int, required=True, metavar="INT",
                     help="exponent of the second spectral parameter")
    sub.add_argument("--format", choices=("text", "json"), default="text",
                     dest="fmt", help="output format (default text)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heckeprod",
        description="Exact combinatorics of induction products of two "
        "evaluation modules: symbols, composition factors, graded "
        "flag-minor expansions and Drinfeld polynomials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, helptext in (
        ("symbol", "two-row symbol of the normalized pair"),
        ("pairs", "pair structure of the pair's (standard) symbol"),
        ("ancestors", "standard symbols whose swap orbit contains the pair's symbol"),
        ("expand", "graded expansion of the product of the two flag minors"),
        ("factors", "composition factors of the induction product"),
    ):
        _add_pair_flags(sub.add_parser(name, help=helptext))

    for name in ("drinfeld", "tensor"):
        p = sub.add_parser(
            name,
            help="Drinfeld polynomials of the surviving tensor-product factors",
        )
        _add_pair_flags(p)
        p.add_argument("--rank", type=int, required=True, metavar="N",
                       help="rank bound N of the quantum affine algebra")

    batch = sub.add_parser(
        "batch",
        help="stream one JSON record per charged-partition pair within the bounds",
    )
    batch.add_argument("--max-weight", type=_int_at_least(0), required=True,
                       metavar="W", help="bound on the sum of the two partition weights")
    batch.add_argument("--max-charge", type=_int_at_least(1), required=True,
                       metavar="A", help="bound on both charges")
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
    e1 = EvaluationModuleSpec(ns.lambda1, ns.a1)
    e2 = EvaluationModuleSpec(ns.lambda2, ns.a2)
    if ns.command in ("drinfeld", "tensor"):
        # both names run the tensor-product computation
        return Request(command="tensor", e1=e1, e2=e2, rank=ns.rank, fmt=ns.fmt)
    return Request(command=ns.command, e1=e1, e2=e2, fmt=ns.fmt)


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


def _expansion_text(exp: Expansion) -> str:
    terms = " + ".join(f"v^{n} {m}" for (_, n), m in zip(exp.terms, exp.labels))
    return f"v^{exp.offset} * ( {terms} )"


def _polynomials_text(data: DrinfeldData) -> str:
    parts = []
    for k, exps in data.roots_by_degree:
        factors = "".join(f"(u - q^-{e})" for e in exps)
        parts.append(f"P_{k} = {factors}")
    return "; ".join(parts) if parts else "all P_k = 1"


def _dump(obj: dict, out: IO[str]) -> None:
    out.write(json.dumps(obj, separators=(",", ":")) + "\n")


# ---------------------------------------------------------------------------
# command execution

def _run_symbol(req: Request, out: IO[str]) -> None:
    sigma = symbol_of(*normalize_inputs(req.e1, req.e2))
    if req.fmt == "json":
        _dump({"schema_version": SCHEMA_VERSION, "symbol": _symbol_json(sigma)}, out)
    else:
        out.write("\n".join(_symbol_text(sigma)) + "\n")


def _run_pairs(req: Request, out: IO[str]) -> None:
    sigma = symbol_of(*normalize_inputs(req.e1, req.e2))
    ps = pair_structure(sigma)
    if req.fmt == "json":
        _dump(
            {
                "schema_version": SCHEMA_VERSION,
                "symbol": _symbol_json(sigma),
                "fixed": sorted(ps.fixed),
                "pairs": [[j, img] for j, img in ps.pairs],
            },
            out,
        )
    else:
        lines = _symbol_text(sigma)
        fixed = " ".join(str(j) for j in sorted(ps.fixed)) or "-"
        pairs = " ".join(f"({j},{img})" for j, img in ps.pairs) or "-"
        out.write("\n".join(lines) + f"\nfixed: {fixed}\npairs: {pairs}\n")


def _run_ancestors(req: Request, out: IO[str]) -> None:
    sigma = symbol_of(*normalize_inputs(req.e1, req.e2))
    terms = standard_ancestors(sigma)
    labels = [multisegment_of_symbol(sym) for sym, _ in terms]
    if req.fmt == "json":
        _dump(
            {
                "schema_version": SCHEMA_VERSION,
                "symbol": _symbol_json(sigma),
                "terms": _terms_json(terms, labels),
            },
            out,
        )
    else:
        out.write(f"{len(terms)} standard ancestors\n")
        for (sym, n), m in zip(terms, labels):
            out.write(
                f"n={n} m={m}\n"
                + "\n".join("  " + line for line in _symbol_text(sym))
                + "\n"
            )


def _run_expand(req: Request, out: IO[str]) -> None:
    exp = expansion(req.e1, req.e2)
    if req.fmt == "json":
        _dump(
            {
                "schema_version": SCHEMA_VERSION,
                "offset": exp.offset,
                "terms": _terms_json(exp.terms, exp.labels),
            },
            out,
        )
    else:
        out.write(_expansion_text(exp) + "\n")


def _run_factors(req: Request, out: IO[str]) -> None:
    factors = expansion(req.e1, req.e2).factors()
    if req.fmt == "json":
        _dump(
            {
                "schema_version": SCHEMA_VERSION,
                "factors": [_mseg_json(m) for m in factors],
            },
            out,
        )
    else:
        for m in factors:
            out.write(f"{m}\n")


def _run_tensor(req: Request, out: IO[str]) -> None:
    survivors = tensor_factors(req.e1, req.e2, req.rank)
    if req.fmt == "json":
        _dump(
            {
                "schema_version": SCHEMA_VERSION,
                "N": req.rank,
                "factors": [_drinfeld_json(d) for d in survivors],
            },
            out,
        )
    else:
        out.write(f"N = {req.rank}\n")
        for d in survivors:
            out.write(f"{d.source_multisegment()}: {_polynomials_text(d)}\n")


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
                "schema_version": SCHEMA_VERSION,
                "lambda1": list(cp1.partition),
                "a1": cp1.charge,
                "lambda2": list(cp2.partition),
                "a2": cp2.charge,
                "offset": exp.offset,
                "terms": _terms_json(exp.terms, exp.labels),
                "factors": [_mseg_json(m) for m in exp.factors()],
            }
            out.write(json.dumps(record, separators=(",", ":")) + "\n")


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
