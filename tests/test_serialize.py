import hashlib
import json
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from lieindex.algebra import LieAlgebra
from lieindex.free_nilpotent import DEFAULT_MAX_DIM, ResourceLimitError, build_free_nilpotent, build_metabelian
from lieindex.graphs import SimpleGraph
from lieindex.index import LinearFunctional, index, stabilizer
from lieindex.serialize import (
    algebra_from_dict,
    algebra_to_dict,
    dumps,
    format_scalar,
    functional_from_dict,
    functional_to_dict,
    parse_scalar,
    report_to_dict,
    stabilizer_to_dict,
)

from families import assert_exact


class TestScalars:
    def test_format(self):
        assert format_scalar(Fraction(3)) == "3"
        assert format_scalar(Fraction(-3, 6)) == "-1/2"
        assert format_scalar(0) == "0"

    @pytest.mark.parametrize(
        "x", [0, 7, -7, 2**64 + 1, -(2**70), Fraction(3), Fraction(-3, 6), Fraction(2**65, 3), np.int64(-4)]
    )
    def test_format_matches_fraction_text(self, x):
        # int and Fraction print their own text, a numpy integer that of its int.
        assert format_scalar(x) == str(Fraction(x))

    @pytest.mark.parametrize("x", [True, False, 0.5, 0.1], ids=["True", "False", "0.5", "0.1"])
    def test_format_refuses_floats_and_bools(self, x):
        # A float would print its binary expansion, a bool as 1 or 0.
        with pytest.raises(ValueError, match="^scalar must be an int or Fraction, got "):
            format_scalar(x)

    def test_parse_round_trip(self):
        for s in ["0", "7", "-12", "3/4", "-5/9"]:
            assert format_scalar(parse_scalar(s)) == s
        assert parse_scalar("4/8") == Fraction(1, 2)

    def test_parse_rejects_malformed(self):
        for bad in ["", "1/0", "01", "+3", "1.5", "3/-2", " 3", "a", 3, None, "1/00", True, False, 1.5]:
            with pytest.raises(ValueError):
                parse_scalar(bad)

    def test_parse_keeps_integers_int(self):
        # "p" parses to an int, "p/q" to a Fraction, even when q divides p.
        for s, value in [("7", 7), ("-0", 0), ("-12", -12)]:
            assert type(parse_scalar(s)) is int and parse_scalar(s) == value
        assert type(parse_scalar("4/8")) is Fraction and parse_scalar("4/8") == Fraction(1, 2)
        assert type(parse_scalar("4/2")) is Fraction and parse_scalar("4/2") == 2


class TestAlgebraPayload:
    def test_round_trip(self):
        g = LieAlgebra(
            3,
            ("a", "b", "c"),
            {(0, 1): {2: Fraction(1, 2)}, (0, 2): {1: -2}},
        )
        assert algebra_from_dict(algebra_to_dict(g)) == g

    def test_round_trip_larger(self):
        g = build_free_nilpotent(3, 3).algebra
        assert algebra_from_dict(algebra_to_dict(g)) == g

    def test_shape(self):
        d = algebra_to_dict(LieAlgebra(3, None, {(0, 1): {2: 1}}))
        assert d == {
            "dim": 3,
            "labels": ["x1", "x2", "x3"],
            "brackets": [{"i": 0, "j": 1, "c": {"2": "1"}}],
        }

    def test_integral_constants_load_as_int(self):
        brackets = [{"i": 0, "j": 1, "c": {"2": "4/2"}}, {"i": 0, "j": 2, "c": {"1": "-3"}}]
        g = algebra_from_dict({"dim": 3, "brackets": brackets})
        assert g.brackets == {(0, 1): {2: 2}, (0, 2): {1: -3}}
        assert all(type(c) is int for cc in g.brackets.values() for c in cc.values())

    def test_labels_optional(self):
        g = algebra_from_dict({"dim": 2, "brackets": []})
        assert g.labels == ("x1", "x2")

    def test_dimension_ceiling(self):
        # Checked before one label per dimension is built, whatever else the payload holds.
        message = f"^input algebra has dimension {DEFAULT_MAX_DIM + 1}, above the ceiling {DEFAULT_MAX_DIM}$"
        for payload in ({"dim": DEFAULT_MAX_DIM + 1}, {"dim": DEFAULT_MAX_DIM + 1, "labels": 5}):
            with pytest.raises(ResourceLimitError, match=message):
                algebra_from_dict(payload)
        assert algebra_from_dict({"dim": DEFAULT_MAX_DIM}).dim == DEFAULT_MAX_DIM

    def test_validation(self):
        with pytest.raises(ValueError):
            algebra_from_dict([])
        with pytest.raises(ValueError):
            algebra_from_dict({"dim": "3"})
        with pytest.raises(ValueError):
            algebra_from_dict({"dim": True})
        with pytest.raises(ValueError):
            algebra_from_dict({"dim": 2, "labels": ["a"]})
        with pytest.raises(ValueError):
            algebra_from_dict({"dim": 3, "brackets": [{"i": 0, "j": 1}]})
        with pytest.raises(ValueError):
            algebra_from_dict({"dim": 3, "brackets": [{"i": 0, "j": 1, "c": {"k": "1"}}]})
        with pytest.raises(ValueError):
            algebra_from_dict({"dim": 3, "brackets": [{"i": 0, "j": 1, "c": {"2": "1.5"}}]})
        with pytest.raises(ValueError):
            algebra_from_dict(
                {
                    "dim": 3,
                    "brackets": [
                        {"i": 0, "j": 1, "c": {"2": "1"}},
                        {"i": 0, "j": 1, "c": {"2": "2"}},
                    ],
                }
            )
        with pytest.raises(ValueError):
            algebra_from_dict({"dim": 3, "brackets": [{"i": 1, "j": 0, "c": {"2": "1"}}]})

    @pytest.mark.parametrize(
        "bracket, message",
        [
            ({"i": False, "j": True, "c": {"2": "1"}}, "bracket indices must be integers"),
            ({"i": 0, "j": True, "c": {"2": "1"}}, "bracket indices must be integers"),
            ({"i": 0, "j": 1, "c": {"\u0662": "1"}}, "must be a digit string"),  # Arabic-Indic two
            ({"i": 0, "j": 1, "c": {"\u00b2": "1"}}, "must be a digit string"),  # superscript two
            # An entry failing several checks is named by the first, in the order
            # object, indices, coefficients object, duplicate.
            ({"i": "0", "j": "1", "c": [1]}, "bracket indices must be integers"),
            ({"i": 0, "j": 1.0, "c": "1"}, "bracket indices must be integers"),
            ({"i": 0, "j": 1, "c": [1]}, "bracket coefficients must be an object"),
            ({"i": 0, "c": {"2": "1"}}, "bracket indices must be integers"),
            ("(0, 1): x3", "each bracket must be an object"),
            ([{"i": 0, "j": 1, "c": {"2": "1"}}, {"i": 0, "j": 1, "c": [1]}], "bracket coefficients must be an object"),
            ([{"i": 0, "j": 1, "c": {"2": "1"}}, {"i": 0, "j": 1, "c": {"k": "1"}}], "duplicate bracket entry"),
        ],
        ids=["bool-pair", "bool-j", "arabic-indic-digit", "superscript-digit", "str-indices-list-c",
             "float-j-str-c", "list-c", "missing-j", "str-entry", "duplicate-list-c", "duplicate-bad-key"],
    )
    def test_rejects_non_json_integers(self, bracket, message):
        # bool is an int subclass, and str.isdigit accepts non-ASCII digits:
        # the booleans once loaded as the key (False, True), the Arabic-Indic
        # two as coefficient index 2.  A list stands for the whole brackets list.
        brackets = bracket if isinstance(bracket, list) else [bracket]
        with pytest.raises(ValueError, match=message):
            algebra_from_dict({"dim": 3, "brackets": brackets})

    def test_duplicate_entry_message(self):
        entry = {"i": 0, "j": 2, "c": {"1": "1"}}
        payload = {"dim": 3, "brackets": [entry, {**entry, "c": {"1": "2"}}]}
        with pytest.raises(ValueError, match=r"^duplicate bracket entry for \(0, 2\)$"):
            algebra_from_dict(payload)

    def test_duplicate_coefficient_position(self):
        # "2" and "02" name the same basis vector; the second once overwrote the first.
        payload = {"dim": 3, "brackets": [{"i": 0, "j": 1, "c": {"2": "1", "02": "5"}}]}
        with pytest.raises(ValueError, match=r"^duplicate coefficient position in bracket \(0, 1\)$"):
            algebra_from_dict(payload)


    @pytest.mark.parametrize("value", [[1], {}, 1, 1.5, None, True, "1.0"], ids=repr)
    @pytest.mark.parametrize("after_valid", [False, True], ids=["first", "after-valid"])
    def test_repeated_scalar_keeps_its_refusal(self, value, after_valid):
        # Parsing each scalar string once must not let a non-string or a
        # malformed string through, nor turn a list into a TypeError.
        brackets = [{"i": 0, "j": 1, "c": {"2": value}}, {"i": 0, "j": 2, "c": {"2": value}}]
        if after_valid:
            brackets.insert(0, {"i": 1, "j": 2, "c": {"0": "1"}})
        message = re.escape(f"malformed rational {value!r}; expected 'p' or 'p/q'")
        with pytest.raises(ValueError, match=f"^{message}$"):
            algebra_from_dict({"dim": 3, "brackets": brackets})

    def test_duplicate_coefficient_position_after_seen_keys(self):
        # Keys "2" and "02" already checked in an earlier bracket still name one position.
        brackets = [{"i": 0, "j": 2, "c": {"2": "1"}}, {"i": 1, "j": 2, "c": {"02": "1"}}]
        payload = {"dim": 3, "brackets": brackets + [{"i": 0, "j": 1, "c": {"2": "1", "02": "5"}}]}
        with pytest.raises(ValueError, match=r"^duplicate coefficient position in bracket \(0, 1\)$"):
            algebra_from_dict(payload)

class TestFunctionalPayload:
    def test_round_trip(self):
        ell = LinearFunctional.of([0, Fraction(1, 3), -2])
        assert functional_from_dict(functional_to_dict(ell)) == ell

    def test_coords_are_exact(self):
        ell = functional_from_dict({"coords": ["0", "-3", "4/2", "1/3"]})
        assert_exact(ell.coords, zeros=True)
        assert ell.coords == (0, -3, 2, Fraction(1, 3))

    def test_validation(self):
        with pytest.raises(ValueError):
            functional_from_dict({"coords": "xyz"})
        with pytest.raises(ValueError):
            functional_from_dict({})


class TestReports:
    def test_report_payload(self):
        g = build_free_nilpotent(2, 3).algebra
        rep = index(g, want_witness=True)
        d = report_to_dict(rep)
        assert set(d) == {"dim", "index", "generic_rank", "method", "witness", "center_dim"}
        assert d["dim"] == 5 and d["index"] == 3 and d["generic_rank"] == 2
        assert isinstance(d["witness"], list) and len(d["witness"]) == 5
        json.dumps(d)  # JSON-safe

    def test_witness_defaults_to_null(self):
        d = report_to_dict(index(build_free_nilpotent(2, 3).algebra))
        assert d["witness"] is None

    def test_stabilizer_payload(self):
        g = LieAlgebra(3, None, {(0, 1): {2: 1}})
        ell = LinearFunctional.of([0, 0, 1])
        d = stabilizer_to_dict(ell, stabilizer(g, ell))
        assert d["dim"] == 3
        assert d["form_rank"] == 2
        assert d["stabilizer_dim"] == 1
        assert d["stabilizer_basis"] == [["0", "0", "1"]]
        json.dumps(d)


class TestDumps:
    def test_compact_and_deterministic(self):
        obj = {"b": [1, 2], "a": {"y": "1/2", "x": "3"}}
        text = dumps(obj)
        assert text == '{"a":{"x":"3","y":"1/2"},"b":[1,2]}'
        assert dumps(obj) == text

    def test_pretty_is_indented(self):
        text = dumps({"a": 1}, pretty=True)
        assert text == '{\n  "a": 1\n}'

    def test_algebra_bytes_stable(self):
        golden = [
            (build_metabelian, 3, 5, "91c4750a048faf098ece8f9c8b1cfef58f032a1eda59a675bc12da3fae028d5d"),
            (build_metabelian, 2, 7, "fbab0d6395b2f2e0815b3b5976185aef33551d9c1fdd9c4c109ee7b01dcdf4cd"),
            (build_free_nilpotent, 4, 4, "50b0bbdf7fde2dab8017545ab71ec5d3da6f67d9b2e53272d463d3af1c430f4f"),
            # Digests of the metabelian algebras as once built by quotienting
            # F(g, c): the comb-tree route must give the same bytes.
            (build_metabelian, 4, 4, "d5b67fafb8aa62e6cd61509b4616c26331717bce1297beff8c1561c625ccbeef"),
            (build_metabelian, 3, 6, "aefe2f652d3e5223a6b3ba790c35f26c23d1a2c58d09e9c384369dac2feda38c"),
            (build_metabelian, 4, 5, "a7510c6a9cf9431f50de7ce08b8b8edbd5981fec32c0283b8974bec9b55f5ffe"),
            (build_metabelian, 2, 8, "063f40e4e4a9dbf77cac5f23d45dd47dc9ba7e7471a880728fc7b960a6c68ea8"),
            (build_metabelian, 2, 9, "ea0a274b5a092bad9a6741f73fc200a249d741c2cc1afa80958d1e88c7c06e86"),
        ]
        for build, gens, cls, digest in golden:
            payload = dumps(algebra_to_dict(build(gens, cls).algebra))
            assert hashlib.sha256(payload.encode()).hexdigest() == digest, (build.__name__, gens, cls)


def test_readme_json_examples_load():
    # The README's "JSON formats" section shows an algebra, a functional and a
    # graph file, in that order.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## JSON formats", 1)[1].split("\n## ", 1)[0]
    blocks = [json.loads(b) for b in re.findall(r"```json\n(.*?)```", section, re.S)]
    assert len(blocks) == 3
    alg = algebra_from_dict(blocks[0])
    ell = functional_from_dict(blocks[1])
    graph = SimpleGraph.from_dict(blocks[2])
    assert alg == LieAlgebra(3, ("x", "y", "z"), {(0, 1): {2: 1}})
    assert stabilizer(alg, ell).dim == 1
    assert graph.vertex_count == 4 and len(graph.edges) == 4
