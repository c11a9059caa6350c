"""Regenerate ``data/algebras.json``, the prebuilt inputs of the benchmark.

The benchmark never builds its inputs with the program under test: it loads
this file, so a change to a construction cannot change what the index
workloads measure.  Run from the repository root after a deliberate change
to the fixtures:

    PYTHONPATH=src python3 perfbench/make_fixtures.py
"""

from __future__ import annotations

import json
from pathlib import Path

from lieindex import (
    SimpleGraph,
    algebra_to_dict,
    build_free_nilpotent,
    build_G,
    build_graph_algebra,
    build_metabelian,
)

OUT = Path(__file__).resolve().parent / "data" / "algebras.json"


def _complete(n: int) -> SimpleGraph:
    return SimpleGraph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


def _cycle(n: int) -> SimpleGraph:
    return SimpleGraph(n, tuple((i, i + 1) for i in range(n - 1)) + ((0, n - 1),))


BUILDERS = {
    "F(4,4)": lambda: build_free_nilpotent(4, 4).algebra,
    "F(3,5)": lambda: build_free_nilpotent(3, 5).algebra,
    "M(3,5)": lambda: build_metabelian(3, 5).algebra,
    "F(2,6)": lambda: build_free_nilpotent(2, 6).algebra,
    "F(3,4)": lambda: build_free_nilpotent(3, 4).algebra,
    "M(3,4)": lambda: build_metabelian(3, 4).algebra,
    "M(2,7)": lambda: build_metabelian(2, 7).algebra,
    "K7": lambda: build_graph_algebra(_complete(7)),
    "G(11,5)": lambda: build_G(11, 5).algebra,
    "C8": lambda: build_graph_algebra(_cycle(8)),
}


def main() -> None:
    payload = {name: algebra_to_dict(build()) for name, build in BUILDERS.items()}
    OUT.write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
