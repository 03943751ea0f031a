"""gammacert benchmark: one closed-loop client, one process per run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root (or a checkout of it); it imports gammacert
from ``src/`` next to this directory and builds nothing.  Workloads are
defined in ``workloads.py``; ``BENCHMARK.json`` lists them and the metrics.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each round
once plain and once traced, in alternating order, for at least one pass and
until ``--seconds`` have passed; it prints the per-layer metrics of the first
traced pass and the overhead of tracing over all rounds.  Either way the last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give every metric with its
unit, the sample counts, ``op_p50_ms``, ``error_rate``, ``op_p99_ms`` where
at least 1,000 ops ran, and the machine facts.  A full record goes to
``.bench_out/``, and a traced run also writes its spans there.

End-to-end metrics (untraced):

* ``setup_s``: median over nine fresh processes, spread over the run, of
  importing gammacert and running the workload's warm-up ops (one op of each
  shape), so work moved into import or precomputation shows.
* ``wall_s``: time of one pass over the workload's whole input set: the sum,
  over the pass's rounds, of each round's mean time.  (Means vary less from
  run to run than medians here: the machine's speed drifts in phases of
  seconds, and a median jumps when the share of slow phases crosses half.)
* ``ops_per_s``: ops completed over the time spent inside ops.
* ``op_p90_ms``: the 90th percentile of op latency.  The median,
  ``op_p50_ms``, is printed but not gated: on the transfer grid it falls
  between the machine's fast-phase and slow-phase clusters, and its
  run-to-run spread was wider than the largest bound allowed.
* ``peak_rss_mb``: peak resident set of the process doing the work (the
  largest CLI child for cli-readme).

Op and round times cover only the library calls; the benchmark's checks of
every output run outside them.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import importlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from itertools import cycle

from tracing import LAYERS, Tracer
from workloads import ROOT, SRC, WORKLOADS, child_env

OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 9
# Printed beside the gated metrics; see the module docstring for why.
UNGATED = {"op_samples": "count", "op_p50_ms": "ms", "op_p99_ms": "ms", "error_rate": "ratio"}
STARTUP_PROBES = 5

# Per-layer metrics of the traced run.  Which end-to-end metric each should
# move is listed in bench/README.md.
CALLS_AND_SELF = {
    "polycore": ("gamma_to_h", "h_to_gamma", "rational_vector"),
    "concavity": (
        "check_transfer",
        "check_ulc_transfer",
        "is_log_concave",
        "has_internal_zeros",
        "is_ultra_log_concave",
    ),
    "coefficients": ("abel_check", "coeff_table", "diagonal", "diagonal_sum", "quad_coeff"),
    "paths": ("build_certificate", "check_crossing_claim", "lhs_by_paths", "rhs_by_paths", "check_rotation_balance"),
}
SELF_ONLY = (
    "sweeps.sweep_path_identities",
    "jsonio.dumps",
    "jsonio.parse_vector_payload",
    "render.format_quadratic_form",
    "render.render_grid",
    "cli.main",
)


def _percentile(data: list[float], pct: int) -> float:
    if len(data) < 2:
        return data[0]
    return statistics.quantiles(data, n=100, method="inclusive")[pct - 1]


def _child_seconds(argv: list[str]) -> float:
    env = child_env()
    start = time.perf_counter()
    subprocess.run(argv, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=60)
    return time.perf_counter() - start


def _calibrate() -> float:
    """A fixed pure-Python loop; its time tracks the machine, not the code."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for k in range(300_000):
            acc = (acc * 31 + k) % 1_000_003
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _cli_import_s() -> float:
    """``import gammacert.cli`` in a fresh interpreter, timed inside it.

    Timing inside the child leaves out interpreter start, whose own jitter
    is larger than the import.
    """
    code = "import time; t = time.perf_counter(); import gammacert.cli; print(time.perf_counter() - t)"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), cwd=ROOT, capture_output=True, text=True, check=True, timeout=60
    )
    return float(proc.stdout)


def machine_facts() -> dict:
    startup = statistics.median(_child_seconds([sys.executable, "-c", "pass"]) for _ in range(STARTUP_PROBES))
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "startup_s": startup,
        "calibration_start_s": _calibrate(),
    }


def time_setup(workload, seed: int) -> float:
    """Import gammacert and run the warm-up ops; runs in a fresh process."""
    ops = workload.warmup(seed)
    start = time.perf_counter()
    gc = [importlib.import_module(m) for m in workload.setup_modules][0]
    _warm_up(workload, gc, ops)
    return time.perf_counter() - start


def _warm_up(workload, gc, ops) -> None:
    for op in ops:
        try:
            workload.run_in_process(gc, op)
        except Exception:  # the measured run of the same op counts the failure
            pass


def setup_sample(name: str, seed: int) -> float:
    """One set-up sample, taken in a fresh process."""
    argv = [sys.executable, __file__, "--probe-setup", "--workload", name, "--seed", str(seed)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout.split()[-1])


class Loop:
    """Runs rounds of ops, times each op, checks each output."""

    def __init__(self, workload, gc):
        self.workload = workload
        self.gc = gc
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.tally: Counter = Counter()

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)

    def round(self, ops, runner, op_times: list[float] | None = None, tracer=None) -> float:
        """Run one round; returns the time spent inside its ops."""
        spent = 0.0
        perf = time.perf_counter
        for op in ops:
            self.attempted += 1
            if tracer:
                # Record the op only: the checks below call gammacert too.
                span = tracer.begin(tracer.name_id(f"op.{op[0]}"))
                tracer.recording = True
            start = perf()
            try:
                result = runner(self.gc, op)
            except Exception as exc:  # a failed op is counted, not fatal
                self.fail(f"{op!r:.120} raised {type(exc).__name__}: {exc}")
                continue
            finally:
                elapsed = perf() - start
                if tracer:
                    tracer.recording = False
                    tracer.end(span)
            spent += elapsed
            if op_times is not None:
                op_times.append(elapsed)
            error = self.workload.check(self.gc, op, result, self.tally)
            if error:
                self.fail(error)
        return spent

    def end_of_pass(self) -> None:
        error = self.workload.check_pass(self.tally)
        if error:
            self.fail(error)
        self.tally.clear()


def measure(workload, gc, rounds, seconds: float, probe) -> tuple[Loop, dict, dict]:
    """Run rounds for about ``seconds``; ``probe()`` takes one set-up sample.

    The set-up samples are spread over the run, between rounds, so that they
    meet the same machine conditions as the rounds do.
    """
    loop = Loop(workload, gc)
    op_times: list[float] = []
    round_times = [[] for _ in rounds]
    round_walls: list[float] = []
    setup_times: list[float] = []
    for k, ops in enumerate(cycle(rounds)):
        measured = sum(round_walls)
        while len(setup_times) < SETUP_PROBES and measured >= len(setup_times) * seconds / SETUP_PROBES:
            setup_times.append(probe())
        # Stop before a round that would overrun, but only after a full pass.
        if k >= len(rounds) and measured + statistics.median(round_walls) > seconds:
            break
        start = time.perf_counter()
        round_times[k % len(rounds)].append(loop.round(ops, workload.run, op_times))
        round_walls.append(time.perf_counter() - start)
        if k % len(rounds) == len(rounds) - 1:
            loop.end_of_pass()
    while len(setup_times) < SETUP_PROBES:
        setup_times.append(probe())
    samples = len(op_times)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (sum(statistics.fmean(times) for times in round_times), "s"),
        "ops_per_s": (samples / sum(op_times), "1/s"),
        "op_p90_ms": (_percentile(op_times, 90) * 1e3, "ms"),
        "peak_rss_mb": (workload.peak_rss_kb() / 1024, "MB"),
    }
    info = {
        "op_samples": samples,
        "op_p50_ms": statistics.median(op_times) * 1e3,
        "rounds": len(round_walls),
        "rounds_per_pass": len(rounds),
        "measured_s": sum(round_walls),
        "setup_samples": setup_times,
        "error_rate": loop.failed / max(loop.attempted, 1),
    }
    if samples >= 1000:
        info["op_p99_ms"] = _percentile(op_times, 99) * 1e3
    return loop, metrics, info


def measure_traced(workload, gc, rounds, seconds: float) -> tuple[Loop, dict, dict, object]:
    tracer = Tracer()
    # Each round runs twice, so each run keeps its own loop and pass tally.
    plain, loop = Loop(workload, gc), Loop(workload, gc)
    plain_times: list[float] = []
    traced_times: list[float] = []
    first_pass = None
    pair_walls: list[float] = []
    begin = time.perf_counter()
    for k, ops in enumerate(cycle(rounds)):
        # Like the untraced loop, but the first pass always completes, so
        # that the counts cover exactly one pass.
        start = time.perf_counter()
        if first_pass is not None and start - begin + statistics.median(pair_walls) > seconds:
            break
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
                traced_times.append(loop.round(ops, workload.run_in_process, tracer=tracer))
                tracer.uninstall()
            else:
                plain_times.append(plain.round(ops, workload.run_in_process))
        pair_walls.append(time.perf_counter() - start)
        if k % len(rounds) == len(rounds) - 1:
            plain.end_of_pass()
            loop.end_of_pass()
            if first_pass is None:
                first_pass = (len(tracer.span_name), Counter(tracer.counters))
    spans, counters = first_pass
    loop.attempted += plain.attempted
    loop.failed += plain.failed
    loop.errors += plain.errors
    agg = tracer.aggregate(spans)
    metrics = {}
    for layer, functions in CALLS_AND_SELF.items():
        for fn in functions:
            entry = agg.get(f"{layer}.{fn}", {"calls": 0, "self_s": 0.0})
            metrics[f"{layer}.{fn}.calls"] = (entry["calls"], "count")
            metrics[f"{layer}.{fn}.self_s"] = (entry["self_s"], "s")
    metrics["paths.paths_walked"] = (counters["paths.paths_walked"], "count")
    for name in SELF_ONLY:
        metrics[f"{name}.self_s"] = (agg.get(name, {"self_s": 0.0})["self_s"], "s")
    for layer in LAYERS:
        total = sum(e["self_s"] for name, e in agg.items() if name.startswith(layer + "."))
        metrics[f"{layer}.self_s"] = (total, "s")
    metrics["trace.overhead"] = (sum(traced_times) / sum(plain_times), "ratio")
    counts = {name: entry["calls"] for name, entry in agg.items()} | dict(counters)
    info = {
        "rounds": len(traced_times),
        "rounds_per_pass": len(rounds),
        "spans": len(tracer.span_name),
        "first_pass_spans": spans,
        "counts_sha256": hashlib.sha256(json.dumps(counts, sort_keys=True).encode()).hexdigest(),
        "counts": counts,
    }
    return loop, metrics, info, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "gammacert" / "__init__.py").is_file():
        print(f"error: no gammacert sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]()
    if args.probe_setup:
        print(time_setup(workload, args.seed))
        return 0

    facts = machine_facts()
    rounds = workload.rounds(args.seed)
    gc = [importlib.import_module(m) for m in workload.setup_modules][0]
    _warm_up(workload, gc, workload.warmup(args.seed))

    if args.trace:
        loop, metrics, info, tracer = measure_traced(workload, gc, rounds, args.seconds)
        metrics["cli.import_s"] = (statistics.median(_cli_import_s() for _ in range(SETUP_PROBES)), "s")
        metrics["interp.startup_s"] = (facts["startup_s"], "s")
    else:
        probe = functools.partial(setup_sample, args.workload, args.seed)
        loop, metrics, info = measure(workload, gc, rounds, args.seconds, probe)
    facts["calibration_end_s"] = _calibrate()

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.write(OUT_DIR / f"spans-{tag}.csv.gz")
    correct = loop.failed == 0
    result = {
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "machine": facts, "info": info, "errors": loop.errors, "result": result}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"run-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    for message in loop.errors:
        print(f"# FAILED: {message}")
    print("# machine: " + json.dumps(facts))
    print("# info: " + json.dumps({k: v for k, v in info.items() if k != "counts"}))
    for name, (value, unit) in metrics.items():
        print(f"# {args.workload:18s} {name:42s} {value:>16.6g} {unit}")
    for name, unit in UNGATED.items():
        if name in info:
            print(f"# {args.workload:18s} {name:42s} {info[name]:>16.6g} {unit} (not gated)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
