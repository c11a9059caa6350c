"""JSON interchange for algebras, functionals, graphs, and reports.

Scalars travel as strings "p" or "p/q" so payloads stay exact; an algebra
payload parses each distinct scalar string, and checks each distinct key, once.
All dumps are deterministic: keys sorted, compact unless pretty-printing.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Any

from .algebra import LieAlgebra, _exact
from .index import IndexReport, LinearFunctional, StabilizerResult

_SCALAR_RE = re.compile(r"-?(0|[1-9][0-9]*)(/[1-9][0-9]*)?\Z")


def format_scalar(x: Fraction | int) -> str:  # "p" or "p/q"; a float or bool is refused
    return str(x if type(x) in (int, Fraction) else _exact(x, "scalar"))


def parse_scalar(s: Any) -> int | Fraction:
    """The exact value of "p" (an int) or "p/q" (a Fraction)."""
    if not isinstance(s, str) or not _SCALAR_RE.match(s):
        raise ValueError(f"malformed rational {s!r}; expected 'p' or 'p/q'")
    return Fraction(s) if "/" in s else int(s)


def algebra_to_dict(g: LieAlgebra) -> dict:
    brackets = [
        {"i": i, "j": j, "c": {str(k): format_scalar(c) for k, c in sorted(coeffs.items())}}
        for (i, j), coeffs in sorted(g.brackets.items())
    ]
    return {"dim": g.dim, "labels": list(g.labels), "brackets": brackets}


def _expect(cond: bool, msg: str, *args) -> None:  # msg.format(*args) only on failure
    if not cond:
        raise ValueError(msg.format(*args))


def algebra_from_dict(d: Any) -> LieAlgebra:
    _expect(isinstance(d, dict), "algebra payload must be an object")
    _expect(type(d.get("dim")) is int, "dim must be an integer")  # bool is not
    n = d["dim"]
    labels = d.get("labels")
    if labels is not None:
        _expect(isinstance(labels, list) and all(isinstance(s, str) for s in labels), "labels must be a list of strings")
        labels = tuple(labels)
    raw = d.get("brackets", [])
    _expect(isinstance(raw, list), "brackets must be a list")
    brackets: dict[tuple[int, int], dict[int, int | Fraction]] = {}
    positions, values = {}, {}  # each distinct key and scalar string, checked once
    for entry in raw:
        if not (isinstance(entry, dict) and type(i := entry.get("i")) is type(j := entry.get("j")) is int
                and isinstance(c := entry.get("c"), dict) and (i, j) not in brackets):
            _expect(isinstance(entry, dict), "each bracket must be an object")  # so i, j were bound
            _expect(type(i) is type(j) is int, "bracket indices must be integers")  # so c was bound
            _expect(isinstance(c, dict), "bracket coefficients must be an object")
            raise ValueError(f"duplicate bracket entry for ({i}, {j})")
        coeffs = {}
        for k, v in c.items():
            if k not in positions:
                _expect(isinstance(k, str) and k.isascii() and k.isdigit(), "coefficient key {!r} must be a digit string", k)
                positions[k] = int(k)
            if not isinstance(v, str) or v not in values:  # parse_scalar refuses a non-str
                values[v] = parse_scalar(v)
            coeffs[positions[k]] = values[v]
        _expect(len(coeffs) == len(c), "duplicate coefficient position in bracket ({}, {})", i, j)  # "2" and "02" name one position
        brackets[(i, j)] = coeffs
    return LieAlgebra(n, labels, brackets)


def functional_to_dict(ell: LinearFunctional) -> dict:
    return {"coords": [format_scalar(c) for c in ell.coords]}


def functional_from_dict(d: Any) -> LinearFunctional:
    _expect(isinstance(d, dict) and isinstance(d.get("coords"), list), "functional payload must have a coords list")
    return LinearFunctional.of(parse_scalar(c) for c in d["coords"])


def report_to_dict(report: IndexReport) -> dict:
    witness = None if report.witness is None else [format_scalar(c) for c in report.witness.coords]
    return {
        "dim": report.dim,
        "index": report.index,
        "generic_rank": report.generic_rank,
        "method": report.method,
        "witness": witness,
        "center_dim": report.center_dim,
    }


def stabilizer_to_dict(result: StabilizerResult) -> dict:
    n = result.stabilizer.ambient_dim
    return {
        "dim": n,
        "functional": functional_to_dict(result.functional),
        "form_rank": n - result.dim,
        "stabilizer_dim": result.dim,
        "stabilizer_basis": [[format_scalar(c) for c in v] for v in result.stabilizer.basis],
    }


def dumps(obj: Any, pretty: bool = False) -> str:
    if pretty:
        return json.dumps(obj, sort_keys=True, indent=2)
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
