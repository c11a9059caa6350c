"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import signal
import sys

import pytest

import spans
import speed
import workloads
import worker

li = worker.import_lieindex(with_verify=True)


def _bound(owner, attr):
    # Classmethods are compared as stored, not as bound on access.
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def _unwrapped(saved) -> bool:
    return all(_bound(owner, attr) is original for owner, attr, original in saved)


def _small_certified_item():
    fixtures = workloads.load_fixtures()
    (item,) = [i for i in workloads.make_inputs("certified", 0, fixtures) if i["name"] == "M(2,7)"]
    return worker.load(li, [item])


def test_untraced_run_installs_no_wrapper(monkeypatch):
    saved = spans.bindings(li)
    assert len(saved) > 60
    seen = []
    real = workloads.OPS["certified"]

    def probe(*args):
        seen.append(_unwrapped(saved))
        return real(*args)

    monkeypatch.setitem(workloads.OPS, "certified", probe)
    result = worker.run_ops(li, "certified", _small_certified_item(), seed=0, seconds=0)
    assert seen == [True]
    assert result["failures"] == [] and len(result["latencies"]) == 1
    assert _unwrapped(saved)


def test_sampler_takes_probes_out_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.Sampler(interval=0.01) as sampler:
        result = worker.run_ops(li, "certified", _small_certified_item(), 0, 0.3,
                                sampler=sampler, warmup=1)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert result["failed"] == 0 and result["failures"] == []
    assert result["attempted"] == len(result["latencies"]) + 1
    assert len(result["norm_latencies"]) == len(result["latencies"]) >= 1
    assert len(sampler.samples) > 2
    assert sampler.spent == pytest.approx(sum(sampler.samples))


def test_tracer_wraps_every_binding_and_restores_on_exit():
    saved = spans.bindings(li)
    namespaces = {owner.__name__ for owner, attr, _ in saved if attr == "center"}
    assert {"lieindex", "lieindex.algebra", "lieindex.index"} <= namespaces
    with pytest.raises(RuntimeError):
        with spans.Tracer(li) as tracer:
            assert not any(_bound(o, a) is orig for o, a, orig in saved)
            index_module = sys.modules["lieindex.index"]  # li.index is the function
            assert li.center is li.algebra.center is index_module.center
            result = worker.run_ops(li, "certified", _small_certified_item(), 0, 0, tracer)
            raise RuntimeError("leave the block by an exception")
    assert _unwrapped(saved)
    assert result["failures"] == []
    summary = spans.summarize(tracer.spans, tracer.errors)
    assert summary["ops"] == 1
    assert summary["table"]["index.index"]["calls"] == 1
    assert summary["table"]["polynomials.bareiss_rank"]["calls"] == 1
    assert summary["bareiss_pivots"] == 23 - 19


def test_self_time_subtracts_children():
    # (id, name, start, end, parent, op, value), children before parents.
    fake = [
        (1, "linalg.rank_mod_p", 1.0, 2.0, 2, 0, 4),
        (3, "linalg.rank_mod_p", 2.5, 3.0, 2, 0, 2),
        (2, "index.index", 0.5, 4.0, 0, 0, 4),
        (0, spans.ROOT, 0.0, 5.0, -1, 0, None),
    ]
    summary = spans.summarize(fake, {})
    assert summary["table"]["index.index"]["self_s"] == pytest.approx(2.0)
    assert summary["table"][spans.ROOT]["self_s"] == pytest.approx(1.5)
    assert summary["table"]["linalg.rank_mod_p"] == {"self_s": 1.5, "incl_s": 1.5, "calls": 2}
    assert (summary["trials_at_max"], summary["trials"]) == (1, 2)


def test_rational_basis_generator_is_deterministic_and_isomorphic():
    fixtures = workloads.load_fixtures()
    first = workloads.make_inputs("rational_basis", 7, fixtures)
    assert first == workloads.make_inputs("rational_basis", 7, fixtures)
    other = workloads.make_inputs("rational_basis", 8, fixtures)
    assert [i["algebra"] for i in first] != [i["algebra"] for i in other]
    for item in first:
        if item["name"] in ("G(11,5)", "C8"):
            g = li.algebra_from_dict(item["algebra"])
            assert li.check_jacobi(g) is None
            assert li.index(g).index == item["index"]
            assert workloads.input_facts(item)["max_coeff_bits"] > 64


def test_wrong_witness_is_caught():
    fixtures = workloads.load_fixtures()
    item = worker.load(li, workloads.make_inputs("index_large", 0, fixtures))[2]
    assert item["name"] == "M(3,5)"
    zero = li.dumps({"witness": ["0"] * item["dim"]})
    assert "stabilizer dim 53" in workloads.witness_stabilizer_error(li, item, zero)
