"""The benchmark's workloads: inputs made from a seed, one op each, and its check.

Everything here except the op functions is stdlib-only and never imports
lieindex: inputs are generated by the benchmark's own code (the prebuilt
fixtures in ``data/algebras.json`` and the ``fractions``-based basis change
below), so the program under test only ever receives finished payloads.
The op functions take the imported ``lieindex`` package as an argument and
call only its public API.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data" / "algebras.json"

# name -> (dim, expected index), in round-robin order.
INDEX_LARGE = {"F(4,4)": (90, 76), "F(3,5)": (80, 68), "M(3,5)": (53, 47)}
CERTIFIED = {
    "F(2,6)": (23, 15),
    "F(3,4)": (32, 24),
    "M(3,4)": (29, 23),
    "M(2,7)": (23, 19),
    "K7": (28, 22),
}
RATIONAL_BASIS = {
    "F(3,4)": (32, 24),
    "M(3,4)": (29, 23),
    "F(2,6)": (23, 15),
    "G(11,5)": (11, 7),
    "C8": (16, 8),
}
CATALOGUE_CASES = 674

WORKLOADS = ("catalogue", "index_large", "certified", "rational_basis")

# Percentile reported as op_tail_s.  An op is a whole round over the
# workload's inputs, so every op does the same work.  Each percentile is the
# highest that keeps at least ten samples beyond it at the op count a 45 s
# run reaches at the commit that defined the benchmark, on a 2-vCPU Xeon
# (index_large and rational_basis about 34 rounds).  It is fixed rather
# than recomputed from each run's count, so that a faster commit, making
# more ops, does not move its own tail further out.  certified makes about
# 17 rounds, too few for ten beyond any useful tail, so its tail is p90;
# catalogue makes about four ops a run, so its tail is the maximum.
TAIL_PERCENTILE = {
    "catalogue": 100,
    "index_large": 70,
    "certified": 90,
    "rational_basis": 70,
}


def load_fixtures() -> dict:
    return json.loads(DATA.read_text())


def _odd32(rng: random.Random) -> int:
    # A random odd integer of exactly 32 bits, so every seed draws the same
    # sizes and only the values differ.
    return 1 << 31 | rng.getrandbits(30) << 1 | 1


def rational_copy(algebra: dict, rng: random.Random) -> dict:
    """Structure constants of an isomorphic copy after a seeded basis change.

    The new basis is the columns of P = U D: U is unitriangular with ones on
    the superdiagonal, D is diagonal with ratios of random odd 32-bit
    integers, so e'_0 = d_0 e_0 and e'_j = d_j (e_j + e_{j-1}).  U^-1 is
    dense, which makes the brackets denser, and D makes the constants large
    rationals.  The fill is the same for every seed: seeded fill positions
    changed the bracket count of F(3,4) from 99 to 269 between seeds, and
    seeded fill values moved op time by a quarter, so the seed would have
    set the figures instead of the program.
    """
    n = algebra["dim"]
    brackets = {
        (e["i"], e["j"]): {int(k): Fraction(v) for k, v in e["c"].items()}
        for e in algebra["brackets"]
    }
    d = [Fraction(_odd32(rng), _odd32(rng)) for _ in range(n)]

    def bracket(a: int, b: int) -> dict:
        if a < b:
            return brackets.get((a, b), {})
        if a > b:
            return {k: -c for k, c in brackets.get((b, a), {}).items()}
        return {}

    def column(j: int) -> tuple:
        return (j, j - 1) if j else (j,)

    out = []
    for i in range(n):
        for j in range(i + 1, n):
            v = [Fraction(0)] * n
            for a in column(i):
                for b in column(j):
                    for k, c in bracket(a, b).items():
                        v[k] += c
            if not any(v):
                continue
            # Solve P x = d_i d_j v: U y = v by back substitution, x = D^-1 y.
            scale = d[i] * d[j]
            coeffs = {}
            y = Fraction(0)
            for k in range(n - 1, -1, -1):
                y = v[k] - y
                if y:
                    coeffs[str(k)] = str(scale * y / d[k])
            out.append({"i": i, "j": j, "c": coeffs})
    return {"dim": n, "labels": algebra["labels"], "brackets": out}


def make_inputs(workload: str, seed: int, fixtures: dict) -> list[dict]:
    """The workload's inputs for ``seed``: one entry per algebra, in op order.

    catalogue has no inputs: the catalogue is fixed by the paper, so its
    seed changes nothing.  index_large and certified run on the prebuilt
    fixtures; the seed is the trial seed passed to ``index``.
    """
    if workload == "catalogue":
        return []
    if workload == "rational_basis":
        return [
            {
                "name": name,
                "dim": dim,
                "index": chi,
                "algebra": rational_copy(
                    fixtures[name], random.Random(f"rational_basis:{seed}:{name}")
                ),
            }
            for name, (dim, chi) in RATIONAL_BASIS.items()
        ]
    table = INDEX_LARGE if workload == "index_large" else CERTIFIED
    return [
        {"name": name, "dim": dim, "index": chi, "algebra": fixtures[name]}
        for name, (dim, chi) in table.items()
    ]


def input_facts(item: dict) -> dict:
    """Dimension, nonzero structure constants and largest coefficient size."""
    coeffs = [Fraction(v) for e in item["algebra"]["brackets"] for v in e["c"].values()]
    return {
        "name": item["name"],
        "dim": item["algebra"]["dim"],
        "bracket_nonzeros": len(coeffs),
        "max_coeff_bits": max(
            max(c.numerator.bit_length(), c.denominator.bit_length()) for c in coeffs
        ),
    }


# ------------------------------------------------------------------ ops
#
# Each op returns a short answer; ``check`` compares it with the expected
# values and returns an error string, or None when it is right.


def op_catalogue(li, item, seed, traced):
    verify = li.verify
    if traced:
        # The same calls as all_cases(), made through the public per-group
        # functions so that each catalogue group gets its own span.
        cases = []
        for num in sorted(verify.CRITERION_NAMES):
            cases += verify.cases_for_criterion(num)
        cases += verify.extra_cases()
    else:
        cases = verify.all_cases()
    failing = [c.id for c in cases if not c.passed]
    return {"cases": len(cases), "failing": failing[:5]}


def op_index(li, item, seed, traced, with_stabilizer=False):
    """The ``lieindex index --witness`` pipeline on a JSON payload."""
    g = li.algebra_from_dict(item["algebra"])
    if li.check_jacobi(g) is not None:
        return {"error": "Jacobi identity fails"}
    report = li.index(g, seed=seed, want_witness=True)
    text = li.dumps(li.report_to_dict(report))
    out = {"dim": report.dim, "index": report.index, "text": text}
    if with_stabilizer:
        out["stabilizer_dim"] = li.stabilizer(g, report.witness).dim
    return out


def op_rational(li, item, seed, traced):
    return op_index(li, item, seed, traced, with_stabilizer=True)


def op_certified(li, item, seed, traced):
    report = li.index(item["lie"], certify=True)
    return {"dim": report.dim, "index": report.index, "mode": report.method["mode"]}


OPS = {
    "catalogue": op_catalogue,
    "index_large": op_index,
    "certified": op_certified,
    "rational_basis": op_rational,
}


def check(workload: str, item, answer: dict) -> str | None:
    if "error" in answer:
        return answer["error"]
    if workload == "catalogue":
        if answer["cases"] != CATALOGUE_CASES or answer["failing"]:
            return f"{answer['cases']} cases, failing {answer['failing']}"
        return None
    want = (item["dim"], item["index"])
    if (answer["dim"], answer["index"]) != want:
        return f"{item['name']}: (dim, index) {(answer['dim'], answer['index'])} != {want}"
    if workload == "certified":
        return None if answer["mode"] == "certified" else f"{item['name']}: not certified"
    printed = json.loads(answer["text"])
    if (printed["dim"], printed["index"]) != want or printed["witness"] is None:
        return f"{item['name']}: printed report {answer['text'][:80]}"
    if "stabilizer_dim" in answer and answer["stabilizer_dim"] != item["index"]:
        return f"{item['name']}: witness stabilizer dim {answer['stabilizer_dim']}"
    return None


def witness_stabilizer_error(li, item, text: str) -> str | None:
    """index_large checks its witnesses here, outside the timed ops."""
    g = item["lie"]
    ell = li.LinearFunctional.of(li.parse_scalar(c) for c in json.loads(text)["witness"])
    dim = li.stabilizer(g, ell).dim
    return None if dim == item["index"] else f"{item['name']}: witness stabilizer dim {dim}"
