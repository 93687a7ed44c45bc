"""ckbundle benchmark: one workload per run, measured from outside the library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a ckbundle checkout; the library is imported from
./src. The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with --trace 0,
the per-layer metrics of BENCHMARK.json with --trace 1. The lines before it
repeat every metric by name and unit, with the bases of the ratios.

A run sets up SETUP_REPS times (fresh import of ckbundle, input generation
from the seed, validation) and reports the median as setup_s. It then runs
whole passes over the inputs, in one thread, until the ops have taken
--seconds at reference host speed (see below) and TAIL_MIN_OPS ops ran.
Every op is capped at OP_CAP_S wall-clock seconds and its output is checked
right after it, outside its timing. Every set-up and op time is scaled to a
reference host speed by hostspeed.HostClock; raw figures are printed too.
With --trace 1, an untraced phase of --seconds / 2 is followed by one pass
with span wrappers installed; the spans are written to perfbench/out/ and
the per-layer table (raw times) is read back from that file.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from types import SimpleNamespace

import hostspeed
import spans
import workloads

SETUP_REPS = 15
OP_CAP_S = 20
# No op starts after this many seconds, so a run that hangs on every op
# still ends well inside the 180 s a run may take.
HARD_STOP_S = 120
PROCESS_REPS = 5
# op_tail_ms is this percentile of every op of the run, and a timed run does
# at least TAIL_MIN_OPS ops, so that ten or more samples lie beyond it.
TAIL_PERCENTILE = 95
TAIL_MIN_OPS = 200
OUT_DIR = os.path.join("perfbench", "out")
HERE = os.path.dirname(os.path.abspath(__file__))


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout(f"op exceeded {OP_CAP_S} s")


def fresh_import(src: str) -> SimpleNamespace:
    """Import ckbundle from ./src, dropping any copy imported before, so
    every set-up pays the import."""
    for name in [m for m in sys.modules if m == "ckbundle" or m.startswith("ckbundle.")]:
        del sys.modules[name]
    package = importlib.import_module("ckbundle")
    if os.path.dirname(os.path.abspath(package.__file__)) != os.path.join(src, "ckbundle"):
        raise ImportError(f"ckbundle was imported from {package.__file__}, not {src}")
    return SimpleNamespace(
        **{layer: importlib.import_module(f"ckbundle.{layer}") for layer in spans.LAYERS}
    )


@dataclass
class Tally:
    latencies_ms: list = field(default_factory=list)  # scaled latency of every op
    busy_s: float = 0.0  # scaled time inside ops
    raw_busy_s: float = 0.0  # the same, unscaled
    host_ms: list = field(default_factory=list)  # calibration samples
    attempted: int = 0
    failed: int = 0
    decided: int = 0
    completed: int = 0
    problems: list = field(default_factory=list)
    first_pass: list = field(default_factory=list)  # canonical outputs, for the digest
    passes: int = 0


def run_passes(workload, lib, items, seconds, run_start, tracer=None, passes=None, min_ops=0) -> Tally:
    """Whole passes over items until the ops have taken `seconds` of scaled
    time and at least `min_ops` ops were attempted, or exactly `passes`
    passes. Counting scaled time keeps the number of passes from following
    the host's speed."""
    tally = Tally()
    canonical = getattr(workload, "canonical", None)
    clock = hostspeed.HostClock()
    tally.host_ms = clock.samples
    while True:
        for item in items:
            if time.perf_counter() - run_start > HARD_STOP_S:
                return tally
            if tracer is not None:
                tracer.begin_op(tally.attempted)
            output = error = None
            signal.setitimer(signal.ITIMER_REAL, OP_CAP_S)
            clock.start()
            try:
                output = workload.run(lib, item, tracer, clock)
            except Exception as exc:  # the op failed; the run goes on
                error = f"{type(exc).__name__}: {exc}"
            finally:
                raw, scaled = clock.stop()
                signal.setitimer(signal.ITIMER_REAL, 0)
            if tracer is not None:
                tracer.end_op()
            tally.latencies_ms.append(scaled * 1000)
            tally.busy_s += scaled
            tally.raw_busy_s += raw
            tally.attempted += 1
            if error is None:
                tally.completed += 1
                try:
                    tally.decided += bool(workload.check(lib, item, output))
                except Exception as exc:  # CheckFailed, or output too malformed to check
                    error = f"check failed: {type(exc).__name__}: {exc}"
            if error is not None:
                tally.failed += 1
                tally.problems.append(f"{item.kind if hasattr(item, 'kind') else item.argv}: {error}")
            if canonical is not None and tally.passes == 0:
                tally.first_pass.append("error" if output is None else canonical(output))
        tally.passes += 1
        if passes is not None:
            if tally.passes >= passes:
                break
        elif tally.busy_s >= seconds and tally.attempted >= min_ops:
            break
    return tally


def nearest_rank(sorted_values, p):
    return sorted_values[max(0, math.ceil(p / 100 * len(sorted_values)) - 1)]


def median_process_ms(cmd, env) -> float:
    times = []
    for _ in range(PROCESS_REPS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, capture_output=True)
        times.append((time.perf_counter() - t0) * 1000)
    return statistics.median(times)


def end_to_end_metrics(tally, setups, children) -> tuple[dict, str]:
    """Latency quantiles are taken over every op of the run."""
    latencies = sorted(tally.latencies_ms)
    beyond = len(latencies) - math.ceil(TAIL_PERCENTILE / 100 * len(latencies))
    usage = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    metrics = {
        "setup_s": (statistics.median(setups["scaled"]), "s"),
        "ops_per_s": (tally.completed / tally.busy_s, "ops/s"),
        "op_p50_ms": (statistics.median(latencies), "ms"),
        "op_tail_ms": (nearest_rank(latencies, TAIL_PERCENTILE), "ms"),
        "ok_frac": (1 - tally.failed / tally.attempted, "ratio"),
        "decided_frac": (tally.decided / tally.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(usage).ru_maxrss / 1024, "MB"),
    }
    note = (
        f"op_tail_ms is p{TAIL_PERCENTILE}, with {beyond} of {len(latencies)} op samples beyond it "
        f"({tally.passes} passes); setup_s is the median of {SETUP_REPS} "
        f"set-ups; raw: ops_per_s {tally.completed / tally.raw_busy_s:.4f}, setup_s "
        f"{statistics.median(setups['raw']):.4f}; host factor "
        f"{statistics.median(tally.host_ms) / hostspeed.REFERENCE_MS:.3f}"
    )
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, note


def per_layer_metrics(spec, table, measured) -> dict:
    """Per-pass values from the span table: `<module>.<function>.calls`,
    `.self_s`, `.max_bits` (largest extra) and `.yielded` (sum of extras).
    Names in `measured` are taken from it instead."""
    metrics = {}
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name in measured:
            value = measured[name]
        else:
            function, kind = name.rsplit(".", 1)
            row = table.get(function, {"calls": 0, "self_ns": 0, "max_extra": 0, "sum_extra": 0})
            value = {
                "calls": row["calls"],
                "self_s": row["self_ns"] / 1e9,
                "max_bits": row["max_extra"],
                "yielded": row["sum_extra"],
            }[kind]
        metrics[name] = {"value": value, "unit": metric["unit"]}
    return metrics


def traced_run(spec, name, workload, lib, items, seconds, run_start, src) -> tuple:
    untraced = run_passes(workload, lib, items, seconds / 2, run_start)
    tracer = spans.Tracer(os.path.join(OUT_DIR, f"spans-{name}.tsv"))
    tracer.install()
    try:
        traced = run_passes(workload, lib, items, 0, run_start, tracer, passes=1)
    finally:
        tracer.uninstall()
    tracer.write()
    # What a cold CLI process pays before the library does any work,
    # measured on every workload since only cli-cold runs the CLI itself.
    env = dict(os.environ, PYTHONPATH=src)
    interp = median_process_ms([sys.executable, "-c", "pass"], env)
    imported = median_process_ms([sys.executable, "-c", "import ckbundle.cli"], env)
    measured = {
        "trace.overhead_frac": 1
        - (traced.completed / traced.busy_s) / (untraced.completed / untraced.busy_s),
        "cli.interp_start_ms": interp,
        "cli.import_ms": imported - interp,
    }
    metrics = per_layer_metrics(spec, spans.layer_table(tracer.path), measured)
    return untraced, traced, metrics, f"spans written to {tracer.path}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    run_start = time.perf_counter()
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "ckbundle", "__init__.py")):
        print("error: run from the root of a ckbundle checkout (no src/ckbundle)", file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    sys.path.insert(0, src)
    os.makedirs(OUT_DIR, exist_ok=True)
    signal.signal(signal.SIGALRM, _on_alarm)

    name = args.workload
    workload = workloads.WORKLOADS[name]
    workdir = os.path.join(OUT_DIR, f"{name}-{args.seed}-{os.getpid()}")
    setups = {"raw": [], "scaled": []}
    try:
        clock = hostspeed.HostClock()
        for _ in range(SETUP_REPS):
            clock.start()
            lib = fresh_import(src)
            items = workload.prepare(lib, workload.generate(random.Random(args.seed)), workdir)
            raw, scaled = clock.stop()
            setups["raw"].append(raw)
            setups["scaled"].append(scaled)
        if args.trace:
            tally, traced, metrics, note = traced_run(
                spec, name, workload, lib, items, args.seconds, run_start, src
            )
            tallies = (tally, traced)
        else:
            tally = run_passes(workload, lib, items, args.seconds, run_start, min_ops=TAIL_MIN_OPS)
            metrics, note = end_to_end_metrics(tally, setups, name == "cli-cold")
            tallies = (tally,)
    finally:
        if os.path.isdir(workdir):
            for entry in os.listdir(workdir):
                os.remove(os.path.join(workdir, entry))
            os.rmdir(workdir)

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    decided = sum(t.decided for t in tallies)
    for problem in [p for t in tallies for p in t.problems][:20]:
        print(f"FAILED {problem}")
    print(f"perfbench workload={name} seed={args.seed} trace={args.trace} "
          f"inputs_per_pass={len(items)} passes={'+'.join(str(t.passes) for t in tallies)}")
    print(f"failed_frac {failed}/{attempted} = {failed / attempted:.4f}; "
          f"decided {decided}/{attempted}; {note}")
    known_defect = getattr(workload, "known_defect", None)
    if known_defect is not None:
        print(known_defect(lib, args.seed))
    if tally.first_pass:
        digest = hashlib.sha256("\n".join(tally.first_pass).encode()).hexdigest()
        with open(os.path.join(HERE, "baseline.json"), encoding="utf-8") as handle:
            recorded = json.load(handle)["report_digests"].get(name, {}).get(str(args.seed))
        status = "not recorded" if recorded is None else "same" if recorded == digest else "DIFFERENT"
        print(f"report digest {digest} (baseline.json: {status})")
    for key, metric in metrics.items():
        print(f"  {key:40s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
