"""Command-line front end.

Data goes to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 verification failure (a failing catalogue case, a witness that could not
be found or confirmed, or disagreeing routes), 2 bad input or parameters,
3 construction or input algebra above the dimension ceiling, 4 structure
constants violating the Jacobi identity, 5 certified rank requested above
its size gate.  The env var LIEINDEX_PRIME overrides the modulus used by
the randomized rank engine of `index` and `graph-index` only.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .algebra import LieAlgebra, center, check_jacobi, derived_subalgebra_pair, lower_central_series
from .filiform import build_G, build_L, build_Q
from .free_nilpotent import ResourceLimitError, build_free_nilpotent, build_metabelian
from .graphs import SimpleGraph, build_graph_algebra, graph_index
from .index import (
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    CertifySizeError,
    _check_prime,
    index,
    stabilizer,
)
from .serialize import (
    algebra_from_dict,
    algebra_to_dict,
    dumps,
    functional_from_dict,
    report_to_dict,
    stabilizer_to_dict,
)
from .verify import _SECTIONS, all_cases

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_RESOURCE = 3
EXIT_JACOBI = 4
EXIT_CERTIFY_GATE = 5


def _diag(msg: str) -> None:
    print(f"lieindex: {msg}", file=sys.stderr)


def _prime_from_env() -> int | None:
    raw = os.environ.get("LIEINDEX_PRIME")
    if raw is None:
        return None
    try:
        prime = int(raw)
    except ValueError:
        raise ValueError(f"LIEINDEX_PRIME is not an integer: {raw!r}") from None
    return _check_prime(prime)


def _unique_keys(pairs: list) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:  # json.load alone keeps the last value of a repeated key
            raise ValueError(f"JSON object repeats the key {key!r}")
        obj[key] = value
    return obj


def _load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh, object_pairs_hook=_unique_keys)
        except RecursionError:  # a RuntimeError, which main maps to exit 1
            raise ValueError(f"JSON in {path} is nested too deeply") from None


def _load_algebra(path: str) -> LieAlgebra:
    alg = algebra_from_dict(_load_json(path))
    violation = check_jacobi(alg)
    if violation is not None:
        (i, j, k), _res = violation
        raise _JacobiError(f"Jacobi identity fails on basis triple ({i}, {j}, {k})")
    return alg


class _JacobiError(Exception):
    pass


def _emit(obj, pretty: bool, out: str | None = None) -> None:
    text = dumps(obj, pretty)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _require(value, flag: str):
    if value is None:
        raise ValueError(f"{flag} is required here")
    return value


def _cmd_construct(args) -> int:
    if args.kind in ("free", "metabelian"):
        g = _require(args.generators, "--generators")
        c = _require(args.nil_class, "--class")
        built = build_free_nilpotent(g, c) if args.kind == "free" else build_metabelian(g, c)
        alg = built.algebra
    elif args.kind == "graph":
        graph = SimpleGraph.from_dict(_load_json(_require(args.input, "--input")))
        alg = build_graph_algebra(graph)
    else:
        family = _require(args.family, "--family")
        n = _require(args.dim, "--dim")
        if family == "G":
            alg = build_G(n, _require(args.k, "--k")).algebra
        elif args.k is not None:
            raise ValueError("only the G family takes --k")
        elif family == "L":
            alg = build_L(n).algebra
        else:
            alg = build_Q(n).algebra
    _emit(algebra_to_dict(alg), args.pretty, args.out)
    return EXIT_OK


def _cmd_index(args) -> int:
    prime = _prime_from_env()
    alg = _load_algebra(args.algebra)
    report = index(
        alg,
        trials=args.trials,
        seed=args.seed,
        prime=prime,
        certify=args.certify,
        want_witness=args.witness,
    )
    _emit(report_to_dict(report), args.pretty)
    return EXIT_OK


def _cmd_invariants(args) -> int:
    alg = _load_algebra(args.algebra)
    series_dims = [s.dim for s in lower_central_series(alg)]
    d1, d2 = derived_subalgebra_pair(alg)
    nil_class = len(series_dims) - 1 if series_dims[-1] == 0 else None
    _emit(
        {
            "dim": alg.dim,
            "center_dim": center(alg).dim,
            "lower_central_series": series_dims,
            "derived_dims": [d1.dim, d2.dim],
            "nilpotency_class": nil_class,
        },
        args.pretty,
    )
    return EXIT_OK


def _cmd_stabilizer(args) -> int:
    alg = _load_algebra(args.algebra)
    ell = functional_from_dict(_load_json(args.ell))
    _emit(stabilizer_to_dict(ell, stabilizer(alg, ell)), args.pretty)
    return EXIT_OK


def _cmd_graph_index(args) -> int:
    prime = _prime_from_env()
    graph = SimpleGraph.from_dict(_load_json(args.graph))
    result = graph_index(graph, trials=args.trials, seed=args.seed, prime=prime)
    _emit(
        {
            "graph": graph.to_dict(),
            "matching": [list(e) for e in result.matching],
            "via_matching": result.report.dim - 2 * len(result.matching),
            "via_rank": result.report.index,
            "report": report_to_dict(result.report),
        },
        args.pretty,
    )
    return EXIT_OK


def _cmd_verify_paper(args) -> int:
    cases = all_cases(args.section)
    payload = [
        {
            "id": c.id,
            "section": c.section,
            "expected": c.expected,
            "computed": c.computed,
            "status": "pass" if c.passed else "fail",
            "method": c.method,
        }
        for c in cases
    ]
    _emit(payload, args.pretty)
    width = max((len(c.id) for c in cases), default=2)
    for c in cases:
        status = "PASS" if c.passed else "FAIL"
        print(
            f"{c.id:<{width}}  {status}  expected={c.expected!r} computed={c.computed!r}",
            file=sys.stderr,
        )
    failed = sum(1 for c in cases if not c.passed)
    print(
        f"{len(cases)} cases, {len(cases) - failed} passed, {failed} failed",
        file=sys.stderr,
    )
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lieindex",
        description="Exact index computations for nilpotent Lie algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    construct = sub.add_parser("construct", help="build an algebra and emit its JSON")
    construct.add_argument("kind", choices=["free", "metabelian", "graph", "filiform"])
    construct.add_argument("--generators", type=int, help="generator count (free/metabelian)")
    construct.add_argument("--class", dest="nil_class", type=int, help="nilpotency class (free/metabelian)")
    construct.add_argument("--input", help="graph JSON path (graph)")
    construct.add_argument("--family", choices=["L", "Q", "G"], help="filiform family")
    construct.add_argument("--dim", type=int, help="dimension (filiform)")
    construct.add_argument("--k", type=int, help="family parameter (filiform G)")
    construct.add_argument("--out", help="output path (default stdout)")
    construct.add_argument("--pretty", action="store_true")
    construct.set_defaults(func=_cmd_construct)

    idx = sub.add_parser("index", help="index report for an algebra JSON file")
    idx.add_argument("algebra")
    idx.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    idx.add_argument("--seed", type=int, default=DEFAULT_SEED)
    idx.add_argument("--certify", action="store_true", help="exact elimination instead of sampling")
    idx.add_argument("--witness", action="store_true", help="include a rank-attaining functional")
    idx.add_argument("--pretty", action="store_true")
    idx.set_defaults(func=_cmd_index)

    inv = sub.add_parser("invariants", help="center, series, and derived dimensions")
    inv.add_argument("algebra")
    inv.add_argument("--pretty", action="store_true")
    inv.set_defaults(func=_cmd_invariants)

    stab = sub.add_parser("stabilizer", help="stabilizer of a functional")
    stab.add_argument("algebra")
    stab.add_argument("--ell", required=True, help="functional JSON path")
    stab.add_argument("--pretty", action="store_true")
    stab.set_defaults(func=_cmd_stabilizer)

    gidx = sub.add_parser("graph-index", help="index of a graph algebra, both routes")
    gidx.add_argument("graph")
    gidx.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    gidx.add_argument("--seed", type=int, default=DEFAULT_SEED)
    gidx.add_argument("--pretty", action="store_true")
    gidx.set_defaults(func=_cmd_graph_index)

    verify = sub.add_parser("verify-paper", help="run the catalogue of known results")
    verify.add_argument("--section", type=int, choices=_SECTIONS, help="restrict to one catalogue section")
    verify.add_argument("--pretty", action="store_true")
    verify.set_defaults(func=_cmd_verify_paper)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        _diag(str(exc))
        return EXIT_RESOURCE
    except RuntimeError as exc:
        # After ResourceLimitError, which is a RuntimeError with its own code.
        _diag(str(exc))
        return EXIT_VERIFY_FAILED
    except CertifySizeError as exc:
        _diag(str(exc))
        return EXIT_CERTIFY_GATE
    except _JacobiError as exc:
        _diag(str(exc))
        return EXIT_JACOBI
    except (ValueError, OSError) as exc:
        _diag(str(exc))
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
