"""One fresh interpreter of the benchmark: set up, then run ops in a closed loop.

Reads a job from stdin (JSON: workload, seed, inputs, seconds, mode, trace,
check_witness, warmup), imports lieindex from the checkout's ``src``, loads the
inputs into program objects, and prints ``ready``; that line ends the set-up that ``run.py``
times.  In mode ``setup`` it exits there.  In mode ``ops`` it runs ops,
each a whole round over the inputs, after ``warmup`` untimed ones, until
``seconds`` have passed (catalogue: exactly one op), checks every answer,
and prints one JSON line with the latencies, failures and peak resident
memory.  Untraced, ``speed.Sampler`` samples the host's speed during the
ops; with ``trace`` it runs the same ops under ``spans.Tracer`` instead and
adds the span summary.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path
from time import perf_counter

import speed
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def import_lieindex(with_verify: bool):
    """lieindex from this checkout's ``src``, never an installed copy."""
    sys.path.insert(0, str(SRC))
    import lieindex

    if with_verify:
        import lieindex.verify  # noqa: F401  (bound as lieindex.verify)

    where = Path(lieindex.__file__).resolve().parent
    if where != SRC / "lieindex":
        raise ImportError(f"lieindex imported from {where}, not from {SRC}")
    return lieindex


def load(li, inputs: list) -> list:
    """Program objects for the inputs: each algebra parsed and validated."""
    for item in inputs:
        item["lie"] = li.algebra_from_dict(item["algebra"])
    return inputs


def _round(op, li, items: list, seed: int, traced: bool) -> list:
    """One op: the pipeline on every input in turn; an input whose call
    raises gets an error answer, and the round goes on."""
    answers = []
    for item in items or [None]:
        try:
            answers.append(op(li, item, seed, traced))
        except Exception as exc:  # an op that raises is a failed op
            answers.append({"error": f"{type(exc).__name__}: {exc}"})
    return answers


def run_ops(li, workload: str, items: list, seed: int, seconds: float, tracer=None,
            check_witness: bool = False, sampler=None, warmup: int = 0) -> dict:
    """Closed loop, one client: ops until ``seconds`` have passed.

    One op is a whole round over ``items`` (catalogue: one pass), so that
    every op does the same work.  ``warmup`` rounds run first, checked but
    not timed.  Returns the per-op latencies in seconds, the ops attempted
    and failed (warm-up included), one message per wrong answer, and on
    index_large the report printed for each input.  With ``sampler``
    (``speed.Sampler``) the probe time inside an op is taken out of its
    latency, and ``norm_latencies`` holds the latencies at the reference
    speed.  With ``check_witness`` the witness of each report is checked
    after the loop, untimed; a wrong one fails every op.
    """
    op = workloads.OPS[workload]
    latencies, norm, failures, reports = [], [], [], {}
    attempted = failed = 0
    deadline = perf_counter() + seconds
    while True:
        timed = attempted >= warmup
        mark = sampler.mark() if sampler else None
        t0 = perf_counter()
        if tracer is None or not timed:
            # Calls outside tracer.op are left out of the span summary.
            answers = _round(op, li, items, seed, tracer is not None)
        else:
            with tracer.op(len(latencies)):
                answers = _round(op, li, items, seed, True)
        took = perf_counter() - t0
        if sampler:
            spent, probe_s = sampler.since(mark)
            took -= spent
        if timed:
            latencies.append(took)
            if sampler:
                norm.append(took * speed.PROBE_REF_S / probe_s)
        errors = []
        for item, answer in zip(items or [None], answers):
            error = workloads.check(workload, item, answer)
            if error is None and workload == "index_large":
                # The printed report must not change between rounds.
                name = item["name"]
                if reports.setdefault(name, answer["text"]) != answer["text"]:
                    error = f"{name}: report differs between rounds"
            if error is not None:
                errors.append(error)
        attempted += 1
        failed += bool(errors)
        failures += errors
        if not items or (timed and perf_counter() >= deadline):
            break
    for item in items if check_witness else ():
        if item["name"] in reports:
            error = workloads.witness_stabilizer_error(li, item, reports[item["name"]])
            if error is not None:
                failures.append(error)
                failed = attempted
    return {"latencies": latencies, "norm_latencies": norm, "attempted": attempted,
            "failed": failed, "failures": failures, "reports": reports}


def main() -> int:
    job = json.loads(sys.stdin.read())
    li = import_lieindex(job["workload"] == "catalogue")
    items = load(li, job["inputs"])
    print("ready", flush=True)
    if job["mode"] == "setup":
        return 0
    if job["trace"]:
        import spans

        with spans.Tracer(li) as tracer:
            result = run_ops(li, job["workload"], items, job["seed"], job["seconds"], tracer,
                             job["check_witness"], warmup=job["warmup"])
        result["trace"] = spans.summarize(tracer.spans, tracer.errors)
        with open(job["spans_path"], "w") as out:
            json.dump(tracer.spans, out, separators=(",", ":"))
    else:
        with speed.Sampler() as sampler:
            result = run_ops(li, job["workload"], items, job["seed"], job["seconds"],
                             check_witness=job["check_witness"], sampler=sampler,
                             warmup=job["warmup"])
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
