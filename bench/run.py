#!/usr/bin/env python3
"""Benchmark of the halfline command line, run in-process.

Run from the root of a checkout:

    python3 bench/run.py --workload sweep|zero_energy|exact --seed N \\
        --seconds S --trace 0|1

The package is imported from ``src/``; the seed fixes every input.  Each
pass runs the workload's commands one at a time through
``halfline.cli.main`` (a closed loop with one client) and checks every
output (see ``checks.py``).  Rounds over the workload's input sets repeat
until ``--seconds`` is used up.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones together with the tracing overhead.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics;
the lines before it print every metric by name with its unit, the
workload-specific latencies and the provenance of the run.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional

import numpy as np
import scipy

import checks
import inputs
from spans import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work" / str(os.getpid())

#: Set-ups per run; setup_s is their median.
SETUP_REPEATS = 5
#: Independent input sets per workload; round r runs set r mod INPUT_SETS.
#: The sets have the same shapes and commands, so wall_s, the sum over op
#: positions of their median round, and the worst error both range over
#: several draws of the random inputs (see README.md).
INPUT_SETS = {"sweep": 1, "zero_energy": 3, "exact": 4}
#: Fewest rounds of an untraced run.
MIN_ROUNDS = 3
#: Traced runs alternate untraced and traced passes, at least this many each.
MIN_TRACED_PAIRS = 2
#: The reference loop is timed REF_SAMPLES times before an op whenever
#: REF_EVERY_S seconds of commands have run since it was last timed.
REF_EVERY_S = 0.25
REF_SAMPLES = 4
#: Threads the reference loop runs on: sweep rows run on the program's
#: thread pool (default size min(4, cores)), everything else on one thread.
REF_THREADS = {"sweep": min(4, os.cpu_count() or 1)}

WORKLOADS = {
    "sweep": "S(k) on a 200-point grid per shape: propagation-bound, the "
             "zero-energy code is not touched",
    "zero_energy": "s0 and verify on a generic and an exceptional condition "
                   "per shape: short k = 0 propagations, quadrature and Jordan step",
    "exact": "bundled examples in both modes and s0 on seeded fixture "
             "families: exact arithmetic, no propagation (V = 0)",
}

#: Traced functions: (label, module, name).  Labels are layer.function,
#: except the CLI handlers, which are labelled by command.
TRACED = (
    ("solver.propagate", "solver", "propagate"),
    ("solver.moment_identities_residual", "solver", "moment_identities_residual"),
    ("scattering.jost_matrix", "scattering", "jost_matrix"),
    ("scattering.smatrix", "scattering", "smatrix"),
    ("scattering.jost_matrix_zero", "scattering", "jost_matrix_zero"),
    ("lowenergy.zero_energy_pipeline", "lowenergy", "zero_energy_pipeline"),
    ("lowenergy.jordan_form", "lowenergy", "jordan_form"),
    ("lowenergy.exact_free_pipeline", "lowenergy", "exact_free_pipeline"),
    ("exactalg.matmul", "exactalg", "matmul"),
    ("exactalg.rank", "exactalg", "rank"),
    ("exactalg.inverse", "exactalg", "inverse"),
    ("exactalg.nullspace", "exactalg", "nullspace"),
    ("verify.run_property_checks", "verify", "run_property_checks"),
    ("cli.sweep", "cli", "cmd_sweep"),
    ("cli.s0", "cli", "cmd_s0"),
    ("cli.verify", "cli", "cmd_verify"),
    ("cli.example", "cli", "cmd_example"),
)
LABELS = tuple(label for label, _, _ in TRACED)


def count_propagate(stack, pot, k, state, x_target, *rest, **kwargs):
    """Segments crossed (interfaces strictly between the end points split
    the walk), times the number of k values; and whether the call was made
    under ``jost_matrix_zero``."""
    lo, hi = sorted((state.x, x_target))
    cuts = {state.x, x_target}
    cuts.update(b for p in pot.pieces for b in p[:2] if lo < b < hi)
    out = {"solver.propagate.segments": (len(cuts) - 1) * int(np.size(k))}
    if "scattering.jost_matrix_zero" in stack:
        out["scattering.jost_matrix_zero.propagate_calls"] = 1
    return out


COUNTERS = {"solver.propagate": count_propagate}


def install(tracer):
    """Trace TRACED under every name bound in the imported package."""
    modules = [m for n, m in list(sys.modules.items())
               if n == "halfline" or n.startswith("halfline.")]
    targets = [(label, sys.modules[f"halfline.{short}"], name, COUNTERS.get(label))
               for label, short, name in TRACED]
    tracer.install(targets, modules)


END_TO_END = {
    "setup_s": "s",
    "wall_ref": "ref",
    "peak_rss_mb": "MB",
    "accuracy_digits": "digits",
}


def reference_loop(_=None):
    """Fixed work of the same kind as the package's (small complex numpy
    products, complex scalar math in a Python loop) that no change to the
    package can alter.

    Other tenants of a shared machine slow Python by up to 40% in stretches
    of a fraction of a second, at a rate that drifts over minutes, so pass
    times of one seed differ by 20% between runs.  Timed between ops, the
    loop's mean samples the same slowdown the ops saw; wall_ref divides it
    out."""
    A = np.full((4, 4), 0.25 + 0.1j)
    v = np.eye(4, dtype=complex)
    s = 0j
    for i in range(1500):
        v = A @ v
        s += cmath.cos(0.001 * i) * v[0, 0]
    return s


def per_layer_units():
    units = {}
    for label in LABELS:
        units.update({f"{label}.calls": "count", f"{label}.s": "s",
                      f"{label}.self_s": "s", f"{label}.failures": "count"})
    units.update({
        "solver.propagate.segments": "count",
        "scattering.jost_matrix_zero.propagate_calls": "count",
        "verify.checks_failed": "count",
        "verify.checks_total": "count",
        "trace.wall_s": "s",
        "trace.untraced_wall_s": "s",
        "trace.overhead_pct": "%",
        "trace.busy_s": "s",
    })
    return units


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

@dataclass
class Op:
    kind: str                  # latency class: sweep, s0, verify, s0_exact, example
    name: str
    argv: List[str]
    config: Optional[dict]
    check: Callable
    points: int = 0            # S(k) rows a sweep emits


def sweep_ops(seed, part, get_fixture):
    return [Op("sweep", c.name, ["sweep", "--format", "json"], c.config,
               checks.SweepCheck(c), points=inputs.KGRID[2])
            for c in inputs.random_cases(seed, part) if c.mu == 0]


def zero_energy_ops(seed, part, get_fixture):
    ops = []
    for c in inputs.random_cases(seed, part):
        ops.append(Op("s0", c.name, ["s0"], c.config, checks.S0Check(c)))
        ops.append(Op("verify", c.name, ["verify"], c.config, checks.VerifyCheck()))
    return ops


def exact_ops(seed, part, get_fixture):
    ops = []
    for fid in inputs.EXAMPLES:
        for mode in ("exact", "numeric"):
            ops.append(Op("example", f"{fid}-{mode}", ["example", fid, "--mode", mode],
                          None, checks.ExampleCheck(mode == "exact")))
    for c in inputs.fixture_cases(seed, part, get_fixture):
        for mode in ("exact", "numeric"):
            ops.append(Op("s0_exact" if mode == "exact" else "s0", f"{c.name}-{mode}",
                          ["s0", "--mode", mode], c.config,
                          checks.S0Check(c, exact=mode == "exact")))
    return ops


BUILDERS = {"sweep": sweep_ops, "zero_energy": zero_energy_ops, "exact": exact_ops}


def setup(workload, seed):
    """Import the package, generate the inputs, write and parse the job
    configs.  Returns the package modules by short name and the ops of
    each input set."""
    for name in [m for m in sys.modules if m == "halfline" or m.startswith("halfline.")]:
        del sys.modules[name]
    importlib.import_module("halfline")
    mods = {short: importlib.import_module(f"halfline.{short}")
            for short in ("solver", "scattering", "lowenergy", "exactalg",
                          "verify", "cli", "config", "fixtures")}
    sets = [BUILDERS[workload](seed, part, mods["fixtures"].get_fixture)
            for part in range(INPUT_SETS[workload])]
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    for part, ops in enumerate(sets):
        for i, op in enumerate(ops):
            if op.config is not None:
                text = json.dumps(op.config)
                cfg = WORK / f"{part}-{i}.json"
                cfg.write_text(text, encoding="utf-8")
                mods["config"].parse_config(text.encode("utf-8"))
                op.argv = op.argv[:1] + ["--config", str(cfg)] + op.argv[1:]
            op.argv = op.argv + ["--out", str(WORK / f"{part}-{i}.out")]
    return mods, sets


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

class Tally:
    """Outcome and timing of every op in a run."""

    def __init__(self, ref_threads=1):
        self.ref_threads = ref_threads
        self.ref_pool = ThreadPoolExecutor(ref_threads) if ref_threads > 1 else None
        self.attempted = 0
        self.failed = 0
        self.causes = Counter()
        self.errors = []                   # output error against its reference
        self.op_times = defaultdict(list)  # op position -> seconds, untraced
        self.latency = defaultdict(list)   # kind -> seconds, untraced
        self.points = 0
        self.sweep_s = 0.0
        self.audit_failures = Counter()    # verify record name -> count
        self.ref_times = []                # reference loop seconds, untraced passes
        self.since_ref = REF_EVERY_S

    def time_reference(self):
        start = time.perf_counter()
        if self.ref_pool is None:
            reference_loop()
        else:
            list(self.ref_pool.map(reference_loop, range(self.ref_threads)))
        return time.perf_counter() - start

    def close(self):
        if self.ref_pool is not None:
            self.ref_pool.shutdown(wait=True)


def run_pass(cli, ops, tally, times=None):
    """Run every op of one input set once and check its output.

    Command times go to ``times[i]`` for op position i; when ``times`` is
    None they are the run's untraced record.  Returns (command seconds,
    failing verify records, verify records)."""
    untraced = times is None
    if untraced:
        times = tally.op_times
    wall = 0.0
    audit_failed = audit_total = 0
    for i, op in enumerate(ops):
        out = Path(op.argv[-1])
        if out.exists():
            out.unlink()
        if untraced and tally.since_ref >= REF_EVERY_S:
            tally.ref_times.extend(tally.time_reference() for _ in range(REF_SAMPLES))
            tally.since_ref = 0.0
        start = time.perf_counter()
        try:
            rc = cli.main(op.argv)
        except Exception as exc:  # a crash is a failed op, not a failed run
            rc = f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - start
        wall += dt
        times[i].append(dt)
        if untraced:
            tally.since_ref += dt
            tally.latency[op.kind].append(dt)
            if op.points:
                tally.points += op.points
                tally.sweep_s += dt
        tally.attempted += 1
        text = out.read_text(encoding="utf-8") if out.exists() else ""
        try:
            err = op.check(rc, text)
            if err is not None:
                tally.errors.append(err)
        except (checks.CheckFailed, KeyError, TypeError, ValueError, IndexError) as exc:
            tally.failed += 1
            tally.causes[f"{op.kind} {op.name}: {type(exc).__name__}: {exc}"] += 1
        if isinstance(op.check, checks.VerifyCheck):
            failing, total = op.check.last
            audit_failed += len(failing)
            audit_total += total
            tally.audit_failures.update(failing)
    return wall, audit_failed, audit_total


def typical_pass(times):
    """Sum over op positions of each position's median repetition."""
    return sum(statistics.median(v) for v in times.values())


def _done(start, rounds, least, seconds):
    """Stop after ``least`` rounds unless another round of average length
    ends in good time."""
    elapsed = time.perf_counter() - start
    return rounds >= least and elapsed * (1 + 0.5 / rounds) >= seconds


def measure(cli, sets, seconds, tally):
    """Rounds, each over the next input set, until ``seconds`` is used up;
    returns the command time of each round."""
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(run_pass(cli, sets[len(rounds) % len(sets)], tally)[0])
        if _done(start, len(rounds), MIN_ROUNDS, seconds):
            return rounds


def measure_traced(cli, ops, seconds, tally):
    """Alternate untraced and traced passes over input set 0 until
    ``seconds`` is used up, so that counts repeat exactly.  Returns the
    traced command times by op and the per-layer metrics of each traced
    pass."""
    tracer = Tracer()
    times = defaultdict(list)
    snaps = []
    start = time.perf_counter()
    while True:
        run_pass(cli, ops, tally)
        tracer.reset()
        install(tracer)
        try:
            _, audit_failed, audit_total = run_pass(cli, ops, tally, times)
        finally:
            tracer.uninstall()
        snap = tracer.snapshot(LABELS)
        snap.update({"verify.checks_failed": audit_failed,
                     "verify.checks_total": audit_total,
                     "trace.busy_s": sum(tracer.self_time.values())})
        snaps.append(snap)
        if _done(start, len(snaps), MIN_TRACED_PAIRS, seconds):
            return times, snaps


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def latency_summary(samples):
    """Median in ms, sample count, and the highest of p90/p99/p99.9 that
    has at least ten samples beyond it."""
    ms = sorted(1000.0 * s for s in samples)
    out = {"ms_p50": statistics.median(ms), "n": len(ms)}
    for q in (99.9, 99.0, 90.0):
        if len(ms) * (1 - q / 100) >= 10:
            out[f"ms_p{q:g}"] = float(np.percentile(ms, q))
            break
    return out


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.exists():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.exists():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def provenance():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "HALFLINE_NUM_THREADS": os.environ.get("HALFLINE_NUM_THREADS", "unset"),
    }


EXCLUDED = ("piece scale 1.0 at shape (8, 20): verify took 36 s on one draw and failed "
            "outgoing_self_pairing, outgoing_cross_pairing and jl_pairing_constancy at "
            "their absolute 1e-8 tolerances (|f(0,0)| ~ 7e6), plus a NaN record from "
            "zero_energy_behavior; left out for run length")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "halfline" / "__init__.py").exists():
        print(f"package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        mods, sets = setup(args.workload, args.seed)
        setups.append(time.perf_counter() - start)

    tally = Tally(REF_THREADS.get(args.workload, 1))
    try:
        if args.trace:
            traced_times, snaps = measure_traced(mods["cli"], sets[0], args.seconds, tally)
        else:
            rounds = measure(mods["cli"], sets, args.seconds, tally)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        tally.close()
        shutil.rmtree(WORK, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.parent.rmdir()

    if args.trace:
        units = per_layer_units()
        metrics = {name: statistics.median(p.get(name, 0) for p in snaps)
                   for name in units}
        base = {name: snaps[0].get(name, 0) for name, unit in units.items()
                if unit == "count"}
        metrics.update(base)
        metrics["trace.wall_s"] = typical_pass(traced_times)
        metrics["trace.untraced_wall_s"] = typical_pass(tally.op_times)
        metrics["trace.overhead_pct"] = 100.0 * (
            metrics["trace.wall_s"] / metrics["trace.untraced_wall_s"] - 1.0)
        repeat = all({n: p.get(n, 0) for n in base} == base for p in snaps)
        summary = f"{len(snaps)} untraced + {len(snaps)} traced passes on input set 0"
    else:
        units = END_TO_END
        worst = max(tally.errors) if tally.errors else 0.0
        wall_s = typical_pass(tally.op_times)
        ref_s = statistics.fmean(tally.ref_times)
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_ref": wall_s / ref_s,
            "peak_rss_mb": peak_rss_mb,
            "accuracy_digits": -float(np.log10(max(worst, 1e-17))),
        }
        summary = f"{len(rounds)} rounds cycling over {len(sets)} input sets"

    also = {}   # measured alongside, not compared between commits
    if not args.trace:
        also.update({"wall_s": (wall_s, "s"),
                     "round_median_s": (statistics.median(rounds), "s"),
                     "reference_loop_s": (ref_s, "s")})
    if tally.sweep_s:
        also["sweep_points_per_s"] = (tally.points / tally.sweep_s, "1/s")
    for kind, samples in sorted(tally.latency.items()):
        for stat, value in latency_summary(samples).items():
            also[f"{kind}_{stat}"] = (value, "count" if stat == "n" else "ms")

    print(f"workload {args.workload}  seed {args.seed}  {summary}"
          f"  ops {tally.attempted}  failed {tally.failed}")
    for name, unit in units.items():
        print(f"  {name:48s} {metrics[name]:>16.6g} {unit}")
    print("  also measured:")
    for name, (value, unit) in also.items():
        print(f"  {name:48s} {value:>16.6g} {unit}")
    details = {
        "workload": args.workload,
        "why": WORKLOADS[args.workload],
        "also": {name: value for name, (value, _) in also.items()},
        "failure_causes": dict(tally.causes),
        "verify_failing_records": dict(tally.audit_failures),
        "excluded": EXCLUDED,
        "provenance": provenance(),
    }
    if args.trace:
        details["trace_counts_repeat_across_passes"] = repeat
        details["trace_note"] = ("self times are per thread; busy time summed over "
                                 "the sweep pool's threads can exceed the pass wall time")
    print("details " + json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
