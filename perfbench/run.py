"""The lieindex benchmark: one command, every metric by name, every answer checked.

    python3 perfbench/run.py --workload index_large --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; lieindex is imported from the
checkout's ``src`` in fresh child interpreters (``worker.py``), one client
in a closed loop.  ``--workload all`` runs the four workloads in turn.

With ``--trace 0`` the last line of standard output is one JSON object with
the end-to-end metrics that ``BENCHMARK.json`` declares; with ``--trace 1``
it carries the per-layer metrics instead.  The declared op latencies are
at the reference speed of ``speed.py``; the raw ones are printed beside
them.  Per-layer metrics come from a run under ``spans.Tracer``
next to an untraced run of the same length, whose difference is the tracing
overhead.  The lines above it give each metric with its unit and sample
count, the inputs' facts and the machine.  Everything is also written to
``perfbench/results/``.  See README.md for what each workload is for.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKER = HERE / "worker.py"

# An untraced run splits its ops over this many op interpreters (catalogue:
# one per op), each starting with WARMUP untimed ops (catalogue: none, its
# op is cold by definition), and times SETUP_BETWEEN set-up-only
# interpreters before each.  setup_s is the median over all of them.
# Spreading the samples over the run keeps one noisy second of a shared
# machine from setting setup_s.
OP_INTERPRETERS = 2
WARMUP = 1
SETUP_BETWEEN = 4
# Wall-clock limit for a whole run; a child still running then is killed.
RUN_BUDGET_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
        "run_seconds": spec["run_seconds"],
    }


# ------------------------------------------------------------ environment


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def environment() -> dict:
    """The machine, read-only, so that results are compared on like machines."""
    model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")) if base.is_dir() else ():
        level, kind, size = (_read(str(index / f)) for f in ("level", "type", "size"))
        if level and kind and size:
            caches[f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")] = size
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "usable_cpus": usable,
        "cpu_model": model,
        "caches": caches,
    }


# ------------------------------------------------------------- children


def spawn(job: dict, deadline: float) -> tuple[float, dict | None]:
    """Start a worker, send it ``job``; return (setup seconds, its result)."""
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        cwd=ROOT,
        text=True,
    )
    timer = threading.Timer(max(deadline - t0, 1.0), proc.kill)
    timer.start()
    try:
        proc.stdin.write(json.dumps(job))
        proc.stdin.close()
        ready = proc.stdout.readline()
        setup = perf_counter() - t0
        out = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or code != 0:
        raise BenchError(f"worker for {job['workload']} exited with code {code}")
    return setup, (json.loads(out.splitlines()[-1]) if job["mode"] == "ops" else None)


def run_ops(job: dict, total: float, deadline: float, setups: list, interleave: int = 0) -> dict:
    """Ops for ``total`` seconds, in op interpreters of ``job['seconds']``
    each (catalogue: one op each), merged.

    Before each op interpreter, ``interleave`` set-up-only interpreters are
    timed, so that the set-up samples are spread over the run like the ops.
    """
    merged = {"latencies": [], "norm_latencies": [], "attempted": 0, "failed": 0,
              "failures": [], "peak_rss_mib": 0.0}
    reports = None
    start = perf_counter()
    while not merged["latencies"] or perf_counter() - start < total:
        for _ in range(interleave):
            setups.append(spawn(dict(job, mode="setup"), deadline)[0])
        # The first op interpreter checks the witnesses; the later ones
        # must print the same reports.
        setup, result = spawn(dict(job, check_witness=reports is None), deadline)
        setups.append(setup)
        if reports is None:
            reports = result["reports"]
        differs = [
            f"{name}: report differs between op interpreters"
            for name, text in result["reports"].items()
            if reports.get(name) != text
        ]
        for key in ("latencies", "norm_latencies", "attempted", "failures"):
            merged[key] += result[key]
        merged["failures"] += differs
        merged["failed"] += result["attempted"] if differs else result["failed"]
        merged["peak_rss_mib"] = max(merged["peak_rss_mib"], result["peak_rss_mib"])
        if "trace" in result:
            merged["trace"] = result["trace"]
            break
    return merged


# -------------------------------------------------------------- metrics


def percentile(values: list, pct: float) -> float:
    """Linear interpolation between the closest ranks."""
    xs = sorted(values)
    h = (len(xs) - 1) * pct / 100
    lo = math.floor(h)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (h - lo)


def latency_metrics(prefix: str, lat: list, pct: float, note: str) -> dict:
    n = len(lat)
    tail = percentile(lat, pct)
    beyond = sum(x > tail for x in lat)
    return {
        f"{prefix}ops_per_s": (n / sum(lat), "1/s", f"{n} ops{note}"),
        f"{prefix}op_p50_s": (statistics.median(lat), "s", f"{n} samples{note}"),
        f"{prefix}op_tail_s": (tail, "s", f"p{pct}, {n} samples, {beyond} beyond{note}"),
    }


def end_to_end(workload: str, result: dict, setups: list) -> dict:
    """{name: (value, unit, note)} for every end-to-end metric: the op
    latencies as measured, and at the reference speed (``norm_``)."""
    pct = workloads.TAIL_PERCENTILE[workload]
    attempted, failed = result["attempted"], result["failed"]
    return {
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} interpreters"),
        **latency_metrics("", result["latencies"], pct, ""),
        **latency_metrics("norm_", result["norm_latencies"], pct, ", at the reference speed"),
        "fail_ratio": (failed / attempted, "ratio", f"{failed}/{attempted} ops"),
        "peak_rss_mib": (result["peak_rss_mib"], "MiB", "max over op interpreters"),
    }


def per_layer(summary: dict, traced_lat: list, untraced_lat: list) -> tuple[dict, list]:
    """({name: (value, unit, note)}, full per-function table), per op."""
    ops = summary["ops"]
    table = summary["table"]
    rows = sorted(
        ((name, r["self_s"] / ops, r["incl_s"] / ops, r["calls"] / ops) for name, r in table.items()),
        key=lambda row: -row[1],
    )
    metrics = {}
    for name, self_s, incl_s, calls in rows:
        metrics[f"{name}_s"] = (self_s, "s", "self time per op")
        metrics[f"{name}_incl_s"] = (incl_s, "s", "inclusive time per op")
        metrics[f"{name}_calls"] = (calls, "count", "calls per op")
    for layer, count in summary["errors"].items():
        metrics[f"{layer}.errors"] = (count / ops, "count", "escaping exceptions per op")

    def ratio(hit: int, base: int) -> tuple:
        return (hit / base if base else 0.0, "ratio", f"{hit}/{base}")

    metrics["index.trials_at_max_ratio"] = ratio(summary["trials_at_max"], summary["trials"])
    metrics["index.sampling_hit_ratio"] = ratio(summary["sampling_hits"], summary["samples"])
    metrics["polynomials.bareiss_pivots"] = (summary["bareiss_pivots"] / ops, "count", "per op")
    traced = statistics.fmean(traced_lat)
    untraced = statistics.fmean(untraced_lat)
    self_sum = sum(r["self_s"] for r in table.values()) / ops
    metrics["trace.op_s"] = (traced, "s", f"mean of {len(traced_lat)} traced ops")
    metrics["trace.untraced_op_s"] = (untraced, "s", f"mean of {len(untraced_lat)} untraced ops")
    metrics["trace.overhead_s"] = (traced - untraced, "s", "traced minus untraced, per op")
    metrics["trace.outside_s"] = (table["op"]["self_s"] / ops, "s", "op time in no traced call")
    metrics["trace.accounted_ratio"] = (
        self_sum / traced,
        "ratio",
        "summed self times / (untraced op + overhead)",
    )
    return metrics, rows


# ------------------------------------------------------------------ run


def run_workload(workload: str, seed: int, seconds: float, trace: bool, declared: dict) -> dict:
    deadline = perf_counter() + RUN_BUDGET_S
    items = workloads.make_inputs(workload, seed, workloads.load_fixtures())
    facts = [workloads.input_facts(item) for item in items]
    if workload == "rational_basis":
        facts.append({"seed": seed})
    if workload == "catalogue":
        facts.append({"cases": workloads.CATALOGUE_CASES})
    job = {"workload": workload, "seed": seed, "inputs": items, "seconds": seconds, "trace": False,
           "warmup": 0 if workload == "catalogue" else WARMUP}
    RESULTS.mkdir(exist_ok=True)
    setups: list = []
    report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": environment(), "inputs": facts}
    if not trace:
        chunk = dict(job, mode="ops", seconds=seconds / OP_INTERPRETERS)
        result = run_ops(chunk, seconds, deadline, setups, SETUP_BETWEEN)
        metrics = end_to_end(workload, result, setups)
        wanted = declared["end_to_end"]
    else:
        half = dict(job, mode="ops", seconds=seconds / 2)
        untraced = run_ops(half, seconds / 2, deadline, setups)
        spans_path = RESULTS / f"{workload}-seed{seed}-spans.json"
        traced = dict(half, trace=True, spans_path=str(spans_path))
        result = run_ops(traced, seconds / 2, deadline, setups)
        metrics, rows = per_layer(result["trace"], result["latencies"], untraced["latencies"])
        for key in ("failures", "latencies", "attempted", "failed"):
            result[key] += untraced[key]
        report["table"] = [
            {"name": n, "self_s": s, "incl_s": i, "calls": c} for n, s, i, c in rows
        ]
        wanted = declared["per_layer"]
    for name in wanted:
        if name not in metrics:
            # A declared metric of a function this workload never calls.
            unit = wanted[name]
            metrics[name] = (0 if unit == "count" else 0.0, unit, "not called")
        elif metrics[name][1] != wanted[name]:
            raise BenchError(f"{name}: unit {metrics[name][1]} != declared {wanted[name]}")
    attempted = result["attempted"]
    report.update(
        attempted=attempted,
        failed=result["failed"],
        failures=result["failures"][:20],
        latencies=result["latencies"],
        norm_latencies=result.get("norm_latencies", []),
        setups=setups,
        metrics={k: {"value": v, "unit": u, "note": note} for k, (v, u, note) in metrics.items()},
    )
    out = RESULTS / f"{workload}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"workload {workload} seed {seed} seconds {seconds:g} trace {int(trace)}")
    print("environment " + json.dumps(report["environment"], sort_keys=True))
    for fact in facts:
        print("input " + " ".join(f"{k}={v}" for k, v in fact.items()))
    for message in result["failures"][:20]:
        print(f"FAILED {message}")
    for name, (value, unit, note) in (metrics if not trace else {k: metrics[k] for k in wanted}).items():
        print(f"metric {name} {value:.6g} {unit} ({note})")
    if trace:
        print("table self_s/op incl_s/op calls/op name")
        for name, self_s, incl_s, calls in rows:
            print(f"table {self_s:.6f} {incl_s:.6f} {calls:.6g} {name}")
    print(f"results {out.relative_to(ROOT)}")
    return {
        "correct": not result["failures"],
        "attempted": attempted,
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name][0], "unit": wanted[name]} for name in wanted},
    }


def main(argv=None) -> int:
    declared = declared_metrics()
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=declared["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lieindex" / "__init__.py").is_file():
        print(f"run.py: no lieindex sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {
            name: run_workload(name, args.seed, args.seconds, bool(args.trace), declared)
            for name in names
        }
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
