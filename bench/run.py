"""Benchmark of the nosol certificate workflow, end to end and per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload search-distinct --seed 1 --seconds 15 --trace 0

The program is imported from ``src/`` of the checkout, driven only through
``nosol.cli.main`` and the public entry points, in this single process.  A
run sets up several times (fresh import of ``nosol`` plus the workload's
inputs), then repeats whole passes of the workload until ``--seconds`` have
been measured, then checks every output against the reference checker in
``reference.py``.

The host's speed drifts by tens of percent within minutes, so the host's
speed is sampled throughout every timed block (``HostSpeed``), and the times
reported end to end are scaled to a host on which the sampling snippet takes
``REF_SNIPPET_S`` seconds.

The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
untraced passes, then the same passes again with spans around every layer
boundary, and reports the per-layer metrics; the spans go to
``.bench_out/``.  ``--profile`` runs one pass under cProfile and prints the
top 15 functions instead of metrics.
"""

from __future__ import annotations

import argparse
import cProfile
import dataclasses
import gc
import importlib
import io
import json
import os
import pstats
import resource
import shutil
import signal
import statistics
import sys
import time
from contextlib import contextmanager

from tracing import NullTracer, Stat, Tracer
from workloads import ORACLE_SETS, SEARCH_GRID, WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUPS = 15
SETUP_MIN_S = 0.5        # enough snippets to scale the set-up time by
SAMPLE_EVERY_S = 0.02
REF_SNIPPET_S = 150e-6   # the host-speed snippet's time on the reference host

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    *((f"search.M{m}.{part}", unit) for m in SEARCH_GRID
      for part, unit in (("s", "s"), ("nodes", "count"))),
    ("search.phases_run", "count"),
    ("search.phases_improving", "count"),
    ("search.phase_yield", "ratio"),
    ("search.best_rate", "log-ratio"),
    *((f"index.{op}.{part}", unit) for op in ("legal_accept", "legal_reject", "add", "pop")
      for part, unit in (("calls", "count"), ("s", "s"))),
    ("cli.self_s", "s"),
    ("certificates.rate_compare.calls", "count"),
    ("certificates.rate_compare.s", "s"),
    ("certificates.save.s", "s"),
    *((f"oracle.{name}.{part}", unit) for name in ORACLE_SETS
      for part, unit in (("s", "s"), ("nodes", "count"))),
    ("oracle.nodes_per_s", "1/s"),
    ("constructions.construct.s", "s"),
    ("constructions.lift.s", "s"),
    ("rates.injective.calls", "count"),
    ("rates.injective.s", "s"),
    ("rates.sweep.s", "s"),
    ("rates.alpha.s", "s"),
    ("trace.overhead_s", "s"),
    ("host.snippet_s", "s"),
)

# hot groups keep totals only, so a traced search does not store a span per
# legality test
TOTALS_ONLY = ("index.legal", "index.add", "index.pop",
               "certificates.rate_compare", "rates.injective")
CONSTRUCTORS = ("geometric_digits", "two_var_digits",
                "three_coefficient_pipeline", "double_progression_digits")


def import_nosol():
    """A fresh import of the package from this checkout's ``src``."""
    for name in [n for n in sys.modules if n == "nosol" or n.startswith("nosol.")]:
        del sys.modules[name]
    nosol = importlib.import_module("nosol")
    importlib.import_module("nosol.cli")
    where = os.path.dirname(os.path.abspath(nosol.__file__))
    if where != os.path.join(ROOT, "src", "nosol"):
        raise ImportError(f"nosol imported from {where}, not from this checkout")
    return nosol


class HostSpeed:
    """The host's speed while timed work runs.

    A SIGALRM timer interrupts the work 50 times a second to time a fixed
    snippet of integer arithmetic and dict building, the two kinds of work
    the workloads do.  The snippets take under 1% of the time, and their
    median follows the host's speed over the whole of the timed work.
    """

    def __init__(self):
        self.samples = []

    def _sample(self, signum, frame):
        start = time.perf_counter()
        total = 0
        for i in range(1500):
            total += i * i % 7
        table = {}
        for i in range(300):
            table[i * 7919 % 1_000_003] = i
        self.samples.append(time.perf_counter() - start)

    @contextmanager
    def sampling(self):
        self._sample(None, None)    # at least one sample, however short the work
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def snippet_s(self):
        return statistics.median(self.samples)

    def scaled(self, seconds):
        """A time taken while sampling, scaled to the reference host."""
        return seconds * REF_SNIPPET_S / self.snippet_s()


def run_passes(workload, inputs, tracer, workdir, seconds):
    """Whole passes until ``seconds`` have gone by, sampling the host's
    speed throughout."""
    passes, host = [], HostSpeed()
    start = time.perf_counter()
    with host.sampling():
        while not passes or time.perf_counter() - start < seconds:
            gc.collect()
            passes.append(workload.run_pass(inputs, tracer, workdir))
    return passes, host


def median_wall(passes, host):
    return host.scaled(statistics.median(p.wall_s for p in passes))


def install_tracer(tracer, nosol, searches):
    """Wrap each layer's entry points where their callers bind them."""
    index = nosol.oracle.IncrementalSolutionIndex
    tracer.wrap(index, "legal", "index.legal",
                split=lambda ok: "index.legal_accept" if ok else "index.legal_reject")
    tracer.wrap(index, "add", "index.add")
    tracer.wrap(index, "pop", "index.pop")
    rate = nosol.certificates.Rate
    tracer.wrap(rate, "__lt__", "certificates.rate_compare")
    tracer.wrap(rate, "__eq__", "certificates.rate_compare")
    tracer.wrap(nosol.cli, "main", "cli.main")
    tracer.wrap(nosol.cli, "save_certificate", "certificates.save")
    for name in CONSTRUCTORS:
        tracer.wrap(nosol.cli, name, "constructions.construct")
    tracer.wrap(nosol.cli, "lift", "constructions.lift")
    tracer.wrap(nosol, "lift", "constructions.lift")
    tracer.wrap(nosol.constructions.LiftedSet, "elements", "constructions.lift")
    tracer.wrap(nosol.rates, "is_injective_map", "rates.injective")

    max_digit_set = nosol.cli.max_digit_set

    def traced_search(eq, L, cfg=None, distinct=False):
        # record the --progress events of this call alongside its result
        events = []
        forward = cfg.report if cfg is not None else None

        def report(event):
            events.append(event)
            if forward is not None:
                forward(event)

        cfg = dataclasses.replace(cfg or nosol.SearchConfig(), report=report)
        m = (L - 1) // eq.side_sum
        with tracer.span(f"search.M{m}"):
            result = max_digit_set(eq, L, cfg, distinct)
        searches.append((m, result, events))
        return result

    tracer.patch(nosol.cli, "max_digit_set", traced_search)


def _improving_phases(events):
    """Phases during which the best alphabet size grew."""
    improving, best = set(), 0
    for event in events:
        if event["best_size"] > best:
            best = event["best_size"]
            improving.add(event["phase"])
    return len(improving)


def layer_metrics(tracer, searches, traced, lift_in_setup):
    """Per-pass figures of a traced run; layers the workload never calls
    read 0."""
    n = len(traced)
    values = dict.fromkeys((name for name, _ in PER_LAYER), 0)

    def per_pass(key, part="seconds"):
        return getattr(tracer.stat(key), part) / n

    first_pass = searches[:len(SEARCH_GRID)]
    for m, result, _ in first_pass:
        values[f"search.M{m}.s"] = per_pass(f"search.M{m}")
        values[f"search.M{m}.nodes"] = result.nodes
    if first_pass:
        run = sum(len(result.phases) for _, result, _ in first_pass)
        improving = sum(_improving_phases(events) for _, _, events in first_pass)
        values["search.phases_run"] = run
        values["search.phases_improving"] = improving
        values["search.phase_yield"] = improving / run
        cert = next((p.out["cert"] for p in traced if not p.failed), None)
        values["search.best_rate"] = cert["rate"]["decimal"] if cert else 0
    for op in ("legal_accept", "legal_reject", "add", "pop"):
        values[f"index.{op}.calls"] = per_pass(f"index.{op}", "calls")
        values[f"index.{op}.s"] = per_pass(f"index.{op}")
    values["cli.self_s"] = per_pass("cli.main", "self_seconds")
    values["certificates.rate_compare.calls"] = per_pass("certificates.rate_compare", "calls")
    values["certificates.rate_compare.s"] = per_pass("certificates.rate_compare")
    values["certificates.save.s"] = per_pass("certificates.save")
    if "checks" in traced[0].out:
        nodes = seconds = 0
        for name in ORACLE_SETS:
            t = statistics.median(p.seconds[name] for p in traced)
            count = traced[0].out["checks"][name][2]
            values[f"oracle.{name}.s"] = t
            values[f"oracle.{name}.nodes"] = count
            nodes += count
            seconds += t
        values["oracle.nodes_per_s"] = nodes / seconds
    values["constructions.construct.s"] = per_pass("constructions.construct")
    values["constructions.lift.s"] = lift_in_setup + per_pass("constructions.lift")
    values["rates.injective.calls"] = per_pass("rates.injective", "calls")
    values["rates.injective.s"] = per_pass("rates.injective")
    values["rates.sweep.s"] = per_pass("rates.sweep")
    values["rates.alpha.s"] = per_pass("rates.alpha")
    return values


def traced_run(workload, nosol, seed, workdir, seconds, untraced, untraced_host):
    """Set up once and repeat the passes with every layer wrapped; returns
    the traced passes, the per-layer figures and the tracer."""
    searches = []
    tracer = Tracer(totals_only=TOTALS_ONLY)
    install_tracer(tracer, nosol, searches)
    try:
        inputs = workload.setup(nosol, seed, workdir)
        lift_in_setup = tracer.reset_totals().get("constructions.lift", Stat()).seconds
        traced, host = run_passes(workload, inputs, tracer, workdir, seconds)
    finally:
        tracer.restore()
    values = layer_metrics(tracer, searches, traced, lift_in_setup)
    values["trace.overhead_s"] = (median_wall(traced, host)
                                  - median_wall(untraced, untraced_host))
    values["host.snippet_s"] = untraced_host.snippet_s()
    return traced, values, tracer


def profile(workload, inputs, workdir):
    profiler = cProfile.Profile()
    profiler.enable()
    passes = [workload.run_pass(inputs, NullTracer(), workdir)]
    profiler.disable()
    text = io.StringIO()
    pstats.Stats(profiler, stream=text).sort_stats("tottime").print_stats(15)
    print(text.getvalue())
    return passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", action="store_true",
                        help="print the cProfile top 15 of one pass instead of metrics")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import_nosol()
    except ImportError as exc:
        print(f"error: cannot import nosol from {ROOT}/src: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    out_dir = os.path.join(ROOT, ".bench_out")
    workdir = os.path.join(out_dir, f"tmp-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        setup_times, setup_host = [], HostSpeed()
        first = time.perf_counter()
        with setup_host.sampling():
            while len(setup_times) < SETUPS or time.perf_counter() - first < SETUP_MIN_S:
                gc.collect()
                start = time.perf_counter()
                nosol = import_nosol()
                inputs = workload.setup(nosol, args.seed, workdir)
                setup_times.append(time.perf_counter() - start)

        if args.profile:
            passes = profile(workload, inputs, workdir)
        else:
            passes, host = run_passes(workload, inputs, NullTracer(), workdir, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        traced = []
        if args.trace and not args.profile:
            traced, values, tracer = traced_run(workload, nosol, args.seed, workdir,
                                                args.seconds, passes, host)
            tracer.write(os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json"))

        everything = passes + traced
        problems = workload.check(inputs, everything)
        print(json.dumps({"fingerprint": workload.fingerprint(everything)}, sort_keys=True))
        if not args.profile:
            # the unscaled times behind the metrics
            print(json.dumps({"raw": {"setup_s": setup_times,
                                      "setup_snippet_s": setup_host.snippet_s(),
                                      "wall_s": [p.wall_s for p in passes],
                                      "snippet_s": host.snippet_s()}}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if args.profile:
        print(f"correct: {not problems}")
        return 0 if not problems else 1

    if args.trace:
        units = PER_LAYER
    else:
        values = {
            "wall_s": median_wall(passes, host),
            "setup_s": setup_host.scaled(statistics.median(setup_times)),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(p.attempted for p in everything),
        "failed": sum(p.failed for p in everything),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
