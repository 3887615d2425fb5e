"""The repro benchmark: the QSS poll cycle and stored-history queries.

Run from the root of a checkout::

    python3 qssbench/run.py --workload poll-large --seed 1 --seconds 40 --trace 0
    python3 qssbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Workloads: ``poll-large``, ``fanout``, ``history-query`` (see NOTES.md),
or ``all``, which runs each in its own process.  A run spends about
``--seconds`` of wall time in episodes (set-up, measured phase, checks).
``--trace 0`` measures the end-to-end metrics with nothing installed;
their timings are scaled to reference machine speed (see ``speed.py``).
``--trace 1`` runs every episode twice, untraced and with span wrappers
installed (alternating which copy goes first), and reports the per-layer
metrics, unscaled.  Every run checks its outputs (the traced copies, in a
traced run).  The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exit codes: 0 all checks passed; 1 some output check failed (the JSON
says which counts); 2 the program under ``src/`` is missing; 3 a
workload produced no fresh sample of some metric in this run, so
nothing is reported.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RUNS = HERE / "_runs"

# (name, unit); the same lists as BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s"), ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"), ("op_p90_ms", "ms"),
    ("asof_p50_ms", "ms"), ("asof_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("diff.oem_diff.calls", "count"), ("diff.oem_diff.self_s", "s"),
    ("diff.match_snapshots.self_s", "s"), ("diff.node_signatures.self_s", "s"),
    ("diff.text_bags.self_s", "s"), ("diff.ops", "count"),
    ("diff.us_per_node", "us"),
    ("qss.wrapper_poll.calls", "count"), ("qss.poll_key_ratio", "ratio"),
    ("qss.queue_wait_p90_ms", "ms"),
    ("sources.export.self_s", "s"), ("sources.advance.self_s", "s"),
    ("lorel.run.self_s", "s"), ("lorel.compile.self_s", "s"),
    ("lorel.execute.self_s", "s"), ("lorel.as_oem.self_s", "s"),
    ("qss.incorporate.self_s", "s"), ("doem.apply_change_set.self_s", "s"),
    ("doem.current_snapshot.calls", "count"),
    ("doem.current_snapshot.self_s", "s"), ("qss.other.self_s", "s"),
    ("store.append.calls", "count"), ("store.append.self_s", "s"),
    ("store.fsyncs", "count"), ("store.checkpoint.self_s", "s"),
    ("store.checkpoints_written", "count"), ("store.bytes_written", "B"),
    ("store.bytes_per_poll", "B"),
    ("store.snapshot_at.self_s", "s"), ("store.replayed_sets_per_read", "count"),
    ("store.ckpt_loads_per_read", "count"),
    ("doem.build_doem.self_s", "s"), ("store.open.self_s", "s"),
    ("index.rebuild.self_s", "s"), ("doem.snapshot_at.self_s", "s"),
    ("chorel.run.self_s", "s"), ("chorel.compile.self_s", "s"),
    ("chorel.execute.self_s", "s"), ("chorel.indexed_ratio", "ratio"),
    ("chorel.visits_per_row", "ratio"), ("chorel.order_mismatches", "count"),
    ("trace.overhead_ratio", "ratio"), ("trace.unattributed_share", "ratio"),
)

# What the generic end-to-end names mean on each kind of workload.
ALIASES = {
    "poll": {"ops_per_s": "polls_per_s", "op_p50_ms": "notify_p50_ms",
             "op_p90_ms": "notify_p90_ms"},
    "history": {"ops_per_s": "queries_per_s", "op_p50_ms": "query_p50_ms",
                "op_p90_ms": "query_p90_ms"},
}


class NoFreshResult(Exception):
    """A metric has no sample recorded in this run."""


def import_program():
    """Put the checkout's ``src`` first on the path; exit 2 without it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"qssbench: no program at {SRC}/repro", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import repro
    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"qssbench: imported repro from {repro.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        raise SystemExit(2)


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def episode(workloads, name, size, seed, index, rec, run_dir,
            **options) -> None:
    # Start every episode from a collected heap, so the previous episode's
    # garbage (its checks' included) is not collected on this one's clock.
    gc.collect()
    try:
        workloads.run_episode(name, size, seed, index, rec, run_dir,
                              **options)
    except Exception as error:  # a program defect: count it, go on
        rec.attempted += 1
        rec.fail(f"episode {index}: {error!r}")


def measure(workloads, name, size, seed, seconds, rec, run_dir,
            **options) -> int:
    """Run episodes for ``seconds`` of wall time; returns how many.

    A poll episode starts only while the longest one so far still fits.
    ``history-query`` runs ``HISTORY_EPISODES`` episodes, each running
    mix cycles to the end of its share of the budget.  An episode that
    adds no polls or queries ends the run."""
    started = perf_counter()
    history = name == "history-query"
    done, longest = 0, 0.0
    while not done or (rec.busy_s and (
            done < workloads.HISTORY_EPISODES if history
            else perf_counter() + longest <= started + seconds)):
        if history:
            rec.deadline = started + seconds * (done + 1) \
                / workloads.HISTORY_EPISODES
        began = perf_counter()
        episode(workloads, name, size, seed, done, rec, run_dir, **options)
        longest = max(longest, perf_counter() - began)
        done += 1
    return done


def measure_traced(workloads, name, size, seed, seconds, plain, traced,
                   run_dir, **options) -> int:
    """Each episode twice, untraced and traced, alternating which goes
    first, while the longest pair so far still fits in ``seconds``.
    Only the traced copy is checked."""
    started = perf_counter()
    done, longest = 0, 0.0
    while not done or (plain.busy_s
                       and perf_counter() + longest <= started + seconds):
        began = perf_counter()
        for with_spans in ((False, True) if done % 2 == 0 else (True, False)):
            if with_spans:
                with traced.tracer:
                    episode(workloads, name, size, seed, done, traced,
                            run_dir, **options)
            else:
                episode(workloads, name, size, seed, done, plain, run_dir,
                        check=False)
        longest = max(longest, perf_counter() - began)
        done += 1
    return done


def end_to_end(rec, scale=True) -> dict[str, tuple[float, int]]:
    """Metric -> (value, sample count); raises NoFreshResult if empty.

    Timings are scaled to reference machine speed unless ``scale`` is
    false (the raw figures the report prints beside them)."""
    for label, samples in (("setup", rec.setup_s), ("op", rec.op_ms),
                           ("as-of", rec.asof_ms)):
        if not samples:
            raise NoFreshResult(f"no {label} samples in this run")

    def values(samples):
        if scale:
            return rec.speed.scaled(samples)
        return [value for _, value in samples]

    setup, ops, busy, asof = (values(samples) for samples in (
        rec.setup_s, rec.op_ms, rec.busy_s, rec.asof_ms))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(setup), len(setup)),
        "ops_per_s": (len(ops) / sum(busy), len(ops)),
        "op_p50_ms": (percentile(ops, 50), len(ops)),
        "op_p90_ms": (percentile(ops, 90), len(ops)),
        "asof_p50_ms": (percentile(asof, 50), len(asof)),
        "asof_p90_ms": (percentile(asof, 90), len(asof)),
        "peak_rss_mb": (peak_kb / 1024, 1),
    }


def per_layer(tracer, rec, untraced_s: float) -> dict[str, tuple[float, int]]:
    totals = tracer.totals()

    def ratio(num, den):
        return num / den if den else 0.0

    diffs = tracer.attrs_of("diff.oem_diff")
    diff_nodes = sum(nodes for _, nodes in diffs)
    keys = tracer.attrs_of("qss.wrapper_poll")
    queries = tracer.attrs_of("chorel.run")
    waits = tracer.queue_waits()
    values = {
        "diff.ops": sum(ops for ops, _ in diffs),
        "diff.us_per_node": ratio(
            totals.get("diff.oem_diff", {}).get("total_s", 0.0) * 1e6,
            diff_nodes),
        "qss.poll_key_ratio": ratio(len(set(keys)), len(keys)),
        "qss.queue_wait_p90_ms": percentile(waits, 90) * 1000 if waits else 0.0,
        "qss.other.self_s": totals.get("qss.run_until", {}).get("self_s", 0.0),
        "store.fsyncs": rec.store_counts["fsyncs"],
        "store.checkpoints_written": rec.store_counts["checkpoints_written"],
        "store.bytes_written": rec.store_counts["bytes_written"],
        "store.bytes_per_poll": ratio(rec.store_bytes, len(rec.op_ms)),
        "store.replayed_sets_per_read": ratio(
            rec.store_counts["replayed_sets"],
            rec.store_counts["snapshot_queries"]),
        "store.ckpt_loads_per_read": ratio(
            rec.store_counts["checkpoint_loads"],
            rec.store_counts["snapshot_queries"]),
        "chorel.indexed_ratio": ratio(sum(fast for _, _, fast in queries),
                                      len(queries)),
        "chorel.visits_per_row": ratio(sum(v for v, _, _ in queries),
                                       sum(r for _, r, _ in queries)),
        "chorel.order_mismatches": rec.order_mismatches,
        "trace.overhead_ratio": ratio(rec.timed_s, untraced_s),
        "trace.unattributed_share": ratio(
            rec.timed_s - tracer.root_seconds(), rec.timed_s),
    }
    counts = {}
    for name, _ in PER_LAYER:
        span_name, field = name.rsplit(".", 1)
        if name not in values:    # a span's own "calls" or "self_s"
            values[name] = totals.get(span_name, {}).get(field, 0)
        counts[name] = totals[span_name]["calls"] if span_name in totals \
            else None
    return {name: (values[name], counts[name]) for name, _ in PER_LAYER}


def report(name: str, metrics: dict, units: dict, rec, episodes: int,
           raw: dict | None = None) -> None:
    kind = "history" if name == "history-query" else "poll"
    print(f"workload {name}: {episodes} episodes, "
          f"{rec.op_busy_s:.2f} s in polls or queries")
    if raw:
        print(f"  timings at reference speed; raw in brackets; "
              f"median speed factor {rec.speed.median_factor():.3f} "
              f"over {len(rec.speed.seconds)} probes")
    for metric, (value, count) in metrics.items():
        alias = ALIASES[kind].get(metric, "")
        alias = f"  [{alias}]" if alias else ""
        count = f"n={count}" if count is not None else ""
        unscaled = f" ({raw[metric][0]:.4f})" if raw else ""
        print(f"  {metric:30s} {value:14.4f} {units[metric]:6s} "
              f"{count}{alias}{unscaled}")
    if rec.store_bytes:
        polls = len(rec.op_ms)
        print(f"  {'store_bytes_per_poll':30s} "
              f"{rec.store_bytes / polls:14.1f} B      n={polls}")
    rate = rec.failed / rec.attempted if rec.attempted else 0.0
    print(f"  {'error_rate':30s} {rate:14.4f} ratio  "
          f"n={rec.attempted} ({rec.failed} failed)")
    checked = ", ".join(f"{check}={count}"
                        for check, count in sorted(rec.checked.items()))
    print(f"  checks: {checked or 'none'}")
    if name == "history-query":
        print(f"  row-order mismatches vs the oracle: {rec.order_mismatches}"
              f" (rows compared as multisets)")
        print(f"  checkpoints per history log: {rec.checkpoints_per_log}"
              f" (the parsed-checkpoint LRU holds 8)")
    for failure in rec.failures:
        print(f"  FAILED {failure}")


def run_one(args) -> int:
    import_program()
    import tracing
    import workloads

    size = workloads.SIZES[args.workload][args.size]
    RUNS.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=RUNS))
    options = {"break_check": args.break_check}
    raw = None
    try:
        if not args.trace:
            rec = workloads.Recorder()
            episodes = measure(workloads, args.workload, size, args.seed,
                               args.seconds, rec, run_dir, **options)
            try:
                metrics = end_to_end(rec)
                raw = end_to_end(rec, scale=False)
            except NoFreshResult as error:
                print(f"qssbench: {args.workload}: {error}", file=sys.stderr)
                return 3
            units = dict(END_TO_END)
        else:
            baseline = workloads.Recorder()
            rec = workloads.Recorder(tracer=tracing.Tracer())
            episodes = measure_traced(workloads, args.workload, size,
                                      args.seed, args.seconds, baseline, rec,
                                      run_dir, **options)
            tracer = rec.tracer
            if not tracer.spans or baseline.timed_s <= 0:
                print(f"qssbench: {args.workload}: no spans recorded",
                      file=sys.stderr)
                return 3
            tracer.dump(RUNS / f"spans-{args.workload}-seed{args.seed}.json")
            metrics = per_layer(tracer, rec, baseline.timed_s)
            units = dict(PER_LAYER)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    report(args.workload, metrics, units, rec, episodes, raw)
    result = {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {metric: {"value": value, "unit": units[metric]}
                    for metric, (value, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if rec.failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own process; non-zero if any fails."""
    import_program()
    import workloads

    status = 0
    for name in workloads.WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--size", args.size]
        if args.break_check:
            command += ["--break-check", args.break_check]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1]) if lines else None
        except ValueError:
            result = None
        expected = {metric for metric, _ in
                    (PER_LAYER if args.trace else END_TO_END)}
        if child.returncode != 0 or result is None or \
                set(result.get("metrics", {})) != expected:
            print(f"{name}: FAILED (exit {child.returncode})")
            status = status or child.returncode or 1
        else:
            print(f"{name}: ok, {result['attempted']} operations checked")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("poll-large", "fanout", "history-query",
                                 "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny", "empty"),
                        default="full",
                        help="input sizes; 'tiny' and 'empty' are for the "
                             "benchmark's own tests")
    parser.add_argument("--break-check",
                        choices=("faithfulness", "asof", "rows"),
                        help="corrupt one expected output (tests the checks)")
    args = parser.parse_args(argv)
    # Stopped from outside: unwind, so temporary stores are removed and
    # a child run is killed and waited for.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
