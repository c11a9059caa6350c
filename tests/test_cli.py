import hashlib
import json
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest
import sympy

from lieindex import cli, graphs
from lieindex.algebra import LieAlgebra
from lieindex.free_nilpotent import build_free_nilpotent
from lieindex.serialize import algebra_to_dict, dumps
from lieindex.verify import VerificationCase

from families import heisenberg, index_module


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_algebra(tmp_path, alg, name="alg.json"):
    path = tmp_path / name
    path.write_text(dumps(algebra_to_dict(alg)))
    return str(path)


class TestConstruct:
    def test_free_to_stdout(self, capsys):
        code, out, _ = run(capsys, "construct", "free", "--generators", "3", "--class", "3")
        assert code == 0
        assert json.loads(out)["dim"] == 14

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "fil.json"
        code, out, _ = run(
            capsys, "construct", "filiform", "--family", "Q", "--dim", "8", "--out", str(target)
        )
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["dim"] == 8

    def test_metabelian(self, capsys):
        code, out, _ = run(capsys, "construct", "metabelian", "--generators", "3", "--class", "4")
        assert code == 0
        assert json.loads(out)["dim"] == 29

    def test_graph(self, capsys, tmp_path):
        gpath = tmp_path / "k4.json"
        edges = [[i, j] for i in range(4) for j in range(i + 1, 4)]
        gpath.write_text(json.dumps({"vertices": 4, "edges": edges}))
        code, out, _ = run(capsys, "construct", "graph", "--input", str(gpath))
        assert code == 0
        assert json.loads(out)["dim"] == 10

    def test_g_family_needs_k(self, capsys):
        code, _, err = run(capsys, "construct", "filiform", "--family", "G", "--dim", "9")
        assert code == 2 and "--k" in err
        code, _, _ = run(capsys, "construct", "filiform", "--family", "G", "--dim", "9", "--k", "5")
        assert code == 0

    def test_k_rejected_elsewhere(self, capsys):
        code, _, _ = run(capsys, "construct", "filiform", "--family", "L", "--dim", "7", "--k", "3")
        assert code == 2

    def test_missing_params(self, capsys):
        assert run(capsys, "construct", "free", "--generators", "3")[0] == 2
        assert run(capsys, "construct", "filiform", "--family", "L")[0] == 2
        assert run(capsys, "construct", "graph")[0] == 2

    def test_invalid_params(self, capsys):
        code, _, err = run(capsys, "construct", "free", "--generators", "0", "--class", "3")
        assert code == 2 and err

    def test_resource_guard(self, capsys):
        code, _, err = run(capsys, "construct", "free", "--generators", "5", "--class", "5")
        assert code == 3 and "829" in err

    def test_class_far_above_the_ceiling(self, capsys):
        # The layer sizes stop at the first partial sum above the ceiling, so
        # a huge class neither runs for seconds nor overflows int-to-str.
        start = time.perf_counter()
        code, out, err = run(capsys, "construct", "free", "--generators", "2", "--class", "20000")
        assert code == 3 and out == "" and "class-12 quotient has dimension 747" in err
        assert time.perf_counter() - start < 1

    def test_one_generator_of_any_class(self, capsys):
        # Every layer past the first is empty; construction stops at the first,
        # and nothing is kept per layer, so even a class of 10^13 builds at once.
        for kind in ("free", "metabelian"):
            for cls in ("12000", "10000000000000"):
                start = time.perf_counter()
                code, out, _ = run(capsys, "construct", kind, "--generators", "1", "--class", cls)
                assert code == 0 and out == '{"brackets":[],"dim":1,"labels":["x1"]}\n'
                assert time.perf_counter() - start < 1


class TestIndex:
    def test_report(self, capsys, tmp_path):
        path = write_algebra(tmp_path, build_free_nilpotent(2, 3).algebra)
        code, out, _ = run(capsys, "index", path)
        assert code == 0
        rep = json.loads(out)
        assert rep["dim"] == 5 and rep["index"] == 3 and rep["generic_rank"] == 2
        assert rep["witness"] is None
        assert rep["method"]["mode"] == "randomized"

    def test_witness_and_certify(self, capsys, tmp_path):
        path = write_algebra(tmp_path, heisenberg())
        code, out, _ = run(capsys, "index", path, "--certify", "--witness")
        assert code == 0
        rep = json.loads(out)
        assert rep["method"]["mode"] == "certified"
        assert len(rep["witness"]) == 3

    def test_deterministic_output(self, capsys, tmp_path):
        path = write_algebra(tmp_path, build_free_nilpotent(3, 2).algebra)
        _, first, _ = run(capsys, "index", path)
        _, second, _ = run(capsys, "index", path)
        assert first == second

    def test_jacobi_gate(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "dim": 3,
                    "brackets": [
                        {"i": 0, "j": 1, "c": {"2": "1"}},
                        {"i": 0, "j": 2, "c": {"1": "1"}},
                        {"i": 1, "j": 2, "c": {"1": "1"}},
                    ],
                }
            )
        )
        code, _, err = run(capsys, "index", str(bad))
        assert code == 4 and "Jacobi" in err

    def test_parse_errors(self, capsys, tmp_path):
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        assert run(capsys, "index", str(broken))[0] == 2
        assert run(capsys, "index", str(tmp_path / "missing.json"))[0] == 2
        empty = tmp_path / "wrong.json"
        empty.write_text('{"dim": "x"}')
        assert run(capsys, "index", str(empty))[0] == 2

    @pytest.mark.parametrize(
        "command",
        [["index"], ["graph-index"], ["stabilizer", "{alg}", "--ell"]],
        ids=["index", "graph-index", "stabilizer"],
    )
    def test_deeply_nested_json(self, capsys, tmp_path, command):
        # json.load raises RecursionError here, a RuntimeError (exit 1) unless remapped.
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        alg = write_algebra(tmp_path, heisenberg())
        code, out, err = run(capsys, *(a.format(alg=alg) for a in command), str(deep))
        assert code == 2 and out == "" and "nested too deeply" in err

    def test_duplicate_bracket_entry(self, capsys, tmp_path):
        path = tmp_path / "dup.json"
        entry = {"i": 0, "j": 1, "c": {"2": "1"}}
        path.write_text(json.dumps({"dim": 3, "brackets": [entry, entry]}))
        code, out, err = run(capsys, "index", str(path))
        assert code == 2 and out == "" and "duplicate bracket entry for (0, 1)" in err

    def test_duplicate_coefficient_position(self, capsys, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text(json.dumps({"dim": 3, "brackets": [{"i": 0, "j": 1, "c": {"2": "1", "02": "5"}}]}))
        code, out, err = run(capsys, "index", str(path))
        assert code == 2 and out == "" and "duplicate coefficient position in bracket (0, 1)" in err

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"dim": 3, "brackets": [{"i": 0, "j": 1, "c": {"2": "1", "2": "5"}}]}', "'2'"),
            ('{"dim": 3, "dim": 5, "brackets": []}', "'dim'"),
        ],
        ids=["coefficient", "dim"],
    )
    def test_repeated_json_key(self, capsys, tmp_path, text, key):
        # json.load alone keeps the last value: [x0, x1] = 5 x2, or dim 5.
        path = tmp_path / "dup.json"
        path.write_text(text)
        code, out, err = run(capsys, "index", str(path))
        assert code == 2 and out == "" and f"JSON object repeats the key {key}" in err

    def test_list_scalar(self, capsys, tmp_path):
        path = tmp_path / "list.json"
        path.write_text(json.dumps({"dim": 3, "brackets": [{"i": 0, "j": 1, "c": {"2": [1]}}]}))
        code, out, err = run(capsys, "index", str(path))
        assert code == 2 and out == "" and "malformed rational [1]" in err and "Traceback" not in err

    def test_certify_gate(self, capsys, tmp_path):
        path = write_algebra(tmp_path, LieAlgebra(41))
        code, _, err = run(capsys, "index", path, "--certify")
        assert code == 5 and "41" in err

    def test_pretty(self, capsys, tmp_path):
        path = write_algebra(tmp_path, heisenberg())
        _, out, _ = run(capsys, "index", path, "--pretty")
        assert out.startswith("{\n")

    @pytest.mark.parametrize("trials", ["0", "-2"])
    def test_trials_below_one(self, capsys, tmp_path, trials):
        path = write_algebra(tmp_path, heisenberg())
        code, out, err = run(capsys, "index", path, "--trials", trials)
        assert code == 2 and out == "" and "trials" in err

    def test_witness_not_found(self, capsys, tmp_path):
        # The structure constant vanishes modulo the default prime: every trial
        # ranks 0, below the certified rank 2, which no number of trials could
        # mend.  The exact rank 2 at the best trial point refuses the modulus.
        alg = LieAlgebra(3, None, {(0, 1): {2: (1 << 61) - 1}})
        path = write_algebra(tmp_path, alg)
        code, out, err = run(capsys, "index", path, "--certify", "--witness")
        assert code == 1 and out == ""
        assert err.startswith("lieindex: ") and "modulus is bad" in err

    def test_witness_out_of_the_trials_reach(self, capsys, tmp_path, monkeypatch):
        # Zero trial points rank 0 over Q too: a real miss of the certified rank.
        monkeypatch.setattr(index_module, "_trial_rng", lambda seed, trial: SimpleNamespace(getrandbits=lambda k: 0))
        path = write_algebra(tmp_path, heisenberg())
        code, out, err = run(capsys, "index", path, "--certify", "--witness")
        assert code == 1 and out == ""
        assert err.startswith("lieindex: ") and "did not reach the certified rank" in err

    def test_bad_modulus_witness_exits_one(self, capsys, tmp_path):
        # Every trial ranks 0 mod the default prime; the witness check ranks
        # the first trial point over Q, finds 2, and refuses the report.
        alg = LieAlgebra(3, None, {(0, 1): {2: (1 << 61) - 1}})
        path = write_algebra(tmp_path, alg)
        code, out, err = run(capsys, "index", path, "--witness")
        assert code == 1 and out == ""
        assert err.startswith("lieindex: ") and "modulus is bad" in err

    def test_bad_modulus_exits_one_without_witness(self, capsys, tmp_path):
        alg = LieAlgebra(3, None, {(0, 1): {2: (1 << 61) - 1}})
        path = write_algebra(tmp_path, alg)
        code, out, err = run(capsys, "index", path)
        assert code == 1 and out == ""
        assert err.startswith("lieindex: ") and "modulus is bad" in err

    def test_denominator_at_the_modulus(self, capsys, tmp_path):
        alg = LieAlgebra(3, None, {(0, 1): {2: Fraction(1, (1 << 61) - 1)}})
        path = write_algebra(tmp_path, alg)
        code, out, err = run(capsys, "index", path, "--witness")
        assert code == 0 and err == ""
        rep = json.loads(out)
        assert rep["index"] == 1 and rep["generic_rank"] == 2

    def test_runtime_error_exits_one(self, capsys, tmp_path, monkeypatch):
        def failing(*args, **kwargs):
            raise RuntimeError("witness confirmation failed")

        monkeypatch.setattr(cli, "index", failing)
        path = write_algebra(tmp_path, heisenberg())
        code, out, err = run(capsys, "index", path)
        assert code == 1 and out == ""
        assert err == "lieindex: witness confirmation failed\n"

    @pytest.mark.parametrize(
        "argv, dim",
        [
            (["index", "{algebra}"], 100000),
            (["invariants", "{algebra}"], 100000),
            (["construct", "filiform", "--family", "L", "--dim", "501"], 501),
            (["construct", "filiform", "--family", "Q", "--dim", "502"], 502),
            (["construct", "filiform", "--family", "G", "--dim", "501", "--k", "3"], 501),
            (["construct", "metabelian", "--generators", "3", "--class", "12"], 641),
            (["construct", "graph", "--input", "{graph}"], 501),
            (["graph-index", "{graph}"], 501),
        ],
        ids=["index", "invariants", "filiform-L", "filiform-Q", "filiform-G", "metabelian", "graph",
         "graph-index"],
    )
    def test_dimension_ceiling(self, capsys, tmp_path, argv, dim):
        algebra = tmp_path / "huge.json"
        algebra.write_text(json.dumps({"dim": 100000, "brackets": []}))
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps({"vertices": 501, "edges": []}))
        code, out, err = run(capsys, *(a.format(algebra=algebra, graph=graph) for a in argv))
        assert code == 3 and out == ""
        assert f"dimension {dim}, above the ceiling 500" in err


class TestInvariants:
    def test_two_generator_class_three(self, capsys, tmp_path):
        path = write_algebra(tmp_path, build_free_nilpotent(2, 3).algebra)
        code, out, _ = run(capsys, "invariants", path)
        assert code == 0
        inv = json.loads(out)
        assert inv == {
            "center_dim": 2,
            "derived_dims": [3, 0],
            "dim": 5,
            "lower_central_series": [5, 3, 2, 0],
            "nilpotency_class": 3,
        }

    def test_zero_algebra(self, capsys, tmp_path):
        path = write_algebra(tmp_path, LieAlgebra(0))
        code, out, _ = run(capsys, "invariants", path)
        assert code == 0
        assert json.loads(out) == {
            "center_dim": 0,
            "derived_dims": [0, 0],
            "dim": 0,
            "lower_central_series": [0],
            "nilpotency_class": 0,
        }

    def test_non_nilpotent(self, capsys, tmp_path):
        path = write_algebra(tmp_path, LieAlgebra(2, None, {(0, 1): {1: 1}}))
        code, out, _ = run(capsys, "invariants", path)
        assert code == 0
        assert json.loads(out)["nilpotency_class"] is None


class TestStabilizer:
    def test_center_functional(self, capsys, tmp_path):
        apath = write_algebra(tmp_path, heisenberg())
        lpath = tmp_path / "ell.json"
        lpath.write_text(json.dumps({"coords": ["0", "0", "1"]}))
        code, out, _ = run(capsys, "stabilizer", apath, "--ell", str(lpath))
        assert code == 0
        res = json.loads(out)
        assert res["stabilizer_dim"] == 1 and res["form_rank"] == 2
        assert res["stabilizer_basis"] == [["0", "0", "1"]]

    def test_length_mismatch(self, capsys, tmp_path):
        apath = write_algebra(tmp_path, heisenberg())
        lpath = tmp_path / "ell.json"
        lpath.write_text(json.dumps({"coords": ["1", "1"]}))
        assert run(capsys, "stabilizer", apath, "--ell", str(lpath))[0] == 2


class TestGraphIndex:
    def test_complete_four(self, capsys, tmp_path):
        gpath = tmp_path / "k4.json"
        edges = [[i, j] for i in range(4) for j in range(i + 1, 4)]
        gpath.write_text(json.dumps({"vertices": 4, "edges": edges}))
        code, out, _ = run(capsys, "graph-index", str(gpath))
        assert code == 0
        res = json.loads(out)
        assert res["via_matching"] == res["via_rank"] == 6
        assert len(res["matching"]) == 2
        assert res["report"]["dim"] == 10

    def test_short_matching_is_a_mismatch(self, capsys, tmp_path, monkeypatch):
        # The blossom core also gives index()'s rank ceiling.  A matching one
        # edge short lowers that ceiling below every trial's rank, so the
        # rank route stays exact and the two routes disagree.
        core = graphs.blossom_matching
        for module in (graphs, index_module):
            monkeypatch.setattr(module, "blossom_matching", lambda n, edges: core(n, edges)[1:])
        with pytest.raises(RuntimeError, match=r"graph index mismatch .*\(5 vs 3\)"):
            graphs.graph_index(graphs.SimpleGraph(4, ((0, 1), (1, 2), (2, 3))))
        gpath = tmp_path / "p4.json"
        gpath.write_text(json.dumps({"vertices": 4, "edges": [[0, 1], [1, 2], [2, 3]]}))
        code, out, err = run(capsys, "graph-index", str(gpath))
        assert code == 1 and out == "" and "mismatch" in err

    def test_bad_graph(self, capsys, tmp_path):
        gpath = tmp_path / "bad.json"
        gpath.write_text(json.dumps({"vertices": 2, "edges": [[0, 0]]}))
        assert run(capsys, "graph-index", str(gpath))[0] == 2

    def test_string_endpoint_is_named_as_given(self, capsys, tmp_path):
        # A string "1" once printed as the valid edge (0,1).
        gpath = tmp_path / "bad.json"
        gpath.write_text(json.dumps({"vertices": 3, "edges": [[0, "1"]]}))
        code, out, err = run(capsys, "graph-index", str(gpath))
        assert code == 2 and out == ""
        assert "edge (0,'1') must satisfy 0 <= i < j < n" in err

    def test_triple_edge_is_not_a_pair(self, capsys, tmp_path):
        gpath = tmp_path / "bad.json"
        gpath.write_text(json.dumps({"vertices": 3, "edges": [[0, 1, 2]]}))
        code, out, err = run(capsys, "graph-index", str(gpath))
        assert code == 2 and out == ""
        assert "edge (0, 1, 2) must be a pair" in err

    @pytest.mark.parametrize("command", [["graph-index"], ["construct", "graph", "--input"]], ids=["graph-index", "construct"])
    @pytest.mark.parametrize(
        "payload",
        [
            {"vertices": 3, "edges": 7},
            {"vertices": 3, "edges": [5]},
            {"vertices": 3, "edges": ["01"]},
            {"vertices": True, "edges": []},
            {"vertices": 3, "edges": [[False, True]]},
        ],
        ids=["edges-not-a-list", "edge-not-a-list", "edge-a-string", "bool-count", "bool-endpoints"],
    )
    def test_malformed_graph_json(self, capsys, tmp_path, command, payload):
        gpath = tmp_path / "bad.json"
        gpath.write_text(json.dumps(payload))
        code, out, err = run(capsys, *command, str(gpath))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("lieindex: ")
        assert "Traceback" not in err


class TestVerify:
    def test_one_section_passes(self, capsys):
        code, out, err = run(capsys, "verify-paper", "--section", "4")
        assert code == 0
        cases = json.loads(out)
        assert cases and all(c["status"] == "pass" for c in cases)
        assert all(c["section"] == 4 for c in cases)
        assert "failed" in err.splitlines()[-1]

    @pytest.mark.parametrize("section", ["7", "1", "99"])
    def test_section_without_cases_is_refused(self, capsys, section):
        # A section that names no catalogue group would pass with 0 cases.
        code, out, err = run(capsys, "verify-paper", "--section", section)
        assert code == 2 and out == ""
        assert "invalid choice" in err and "2, 3, 4, 5, 6" in err

    def test_catalogue_bytes_stable(self, capsys):
        # Pins every computed value, its repr and its method string, not only pass/fail.
        code, out, _ = run(capsys, "verify-paper")
        assert code == 0
        digest = "2a6cf92376b049dd5c1ac5c4377242517f736e380831353666e55e5e789f495d"
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_failure_sets_exit_code(self, capsys, monkeypatch):
        fake = [
            VerificationCase("made-up/1", 9, expected=1, computed=2, method="direct")
        ]
        monkeypatch.setattr(cli, "all_cases", lambda section=None: fake)
        code, out, err = run(capsys, "verify-paper")
        assert code == 1
        assert json.loads(out)[0]["status"] == "fail"
        assert "FAIL" in err


class TestEnvironmentPrime:
    def test_valid_override(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("LIEINDEX_PRIME", str(sympy.nextprime(1 << 61)))
        path = write_algebra(tmp_path, heisenberg())
        code, out, _ = run(capsys, "index", path)
        assert code == 0
        assert json.loads(out)["method"]["prime"] == int(sympy.nextprime(1 << 61))

    def test_small_prime_rejected(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("LIEINDEX_PRIME", "101")
        path = write_algebra(tmp_path, heisenberg())
        assert run(capsys, "index", path)[0] == 2

    def test_composite_without_small_factors_rejected(self, capsys, tmp_path, monkeypatch):
        # 92 bits, both factors Mersenne primes: only the Miller-Rabin rounds refuse it.
        monkeypatch.setenv("LIEINDEX_PRIME", str(((1 << 61) - 1) * ((1 << 31) - 1)))
        path = write_algebra(tmp_path, heisenberg())
        code, out, err = run(capsys, "index", path)
        assert code == 2 and out == ""
        assert "modulus must be a prime of at least 61 bits" in err

    def test_garbage_rejected(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("LIEINDEX_PRIME", "not-a-number")
        path = write_algebra(tmp_path, heisenberg())
        assert run(capsys, "index", path)[0] == 2

    def test_commands_without_a_modulus_ignore_it(self, capsys, tmp_path, monkeypatch):
        apath = write_algebra(tmp_path, build_free_nilpotent(2, 3).algebra)
        lpath = tmp_path / "ell.json"
        lpath.write_text(json.dumps({"coords": ["0", "0", "0", "1", "1"]}))
        commands = [
            ("construct", "free", "--generators", "2", "--class", "2"),
            ("invariants", apath),
            ("stabilizer", apath, "--ell", str(lpath)),
            ("verify-paper", "--section", "5"),
        ]
        clean = [run(capsys, *argv)[:2] for argv in commands]
        monkeypatch.setenv("LIEINDEX_PRIME", "junk")
        assert [run(capsys, *argv)[:2] for argv in commands] == clean
        assert all(code == 0 for code, _ in clean)


class TestParser:
    def test_no_arguments(self, capsys):
        assert cli.main([]) == 2

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0

    def test_unknown_command(self, capsys):
        assert cli.main(["frobnicate"]) == 2
