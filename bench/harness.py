"""Measurement loops and metric summaries of the benchmark.

Untraced (--trace 0): one warm-up run, then rounds of the workload's fixed
optimisation seeds until the next round would pass the time budget, which
counts from before the warm-up.  Every round also interleaves set-up
probes, runs with no iterations that time the set-up path alone.  Every run
is checked; a seed that runs twice must give the same history both times.

Traced (--trace 1): one warm-up run, one untraced round and one traced round
on the same seeds.  The traced histories must be byte-identical to the
untraced ones, and every boundary the workload uses must have fired.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import sys
import time

import numpy as np

import tracing
import workloads

# Best gaps at or below this read as solved: the objectives here are of
# order one, so smaller differences are rounding.
GAP_FLOOR = 1e-12
# Set-up probes in the first round, and one per seed in each later round:
# spread over the whole run, so that one slow spell of a shared machine
# does not land on all of them.
SETUP_PROBES = 15
# Only expensive-cli enters the CLI layer.
CLI_SPANS = tuple(name for name in tracing.SPAN_NAMES if name.startswith("cli."))


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def iterations(workload, smoke: bool) -> int:
    return workload.smoke_iter if smoke else workload.n_iter


def seed_order(workload, seed: int, smoke: bool) -> list[int]:
    """The workload's optimisation seeds in an order drawn from seed."""
    seeds = workload.seeds[:1] if smoke else workload.seeds
    return [seeds[i] for i in np.random.default_rng(seed).permutation(len(seeds))]


def run_jobs(workload, jobs, workdir: str, tracer=None):
    """Run and check each (seed, iterations) job.

    Returns (records, histories, failures) for the jobs that passed and
    one message per job that raised, exited non-zero or failed a check.
    """
    records, histories, failures = [], [], []
    for seed, n_iter in jobs:
        if tracer is not None:
            tracer.run_id = f"{workload.name}/{seed}"
        try:
            record = workloads.run_once(workload, seed, n_iter, workdir, tracer)
            histories.append(workloads.check_run(workload, record))
            records.append(record)
        except Exception as err:  # every failure is counted, none ends the benchmark
            failures.append(f"seed {seed}: {type(err).__name__}: {err}")
    return records, histories, failures


def warm_up(workload, order, n_iter, workdir):
    """One full run before anything is timed: the first run in a process
    pays for first calls into numpy, scipy and the allocator, and reads up
    to a third slower.  It is checked like every other run."""
    return run_jobs(workload, [(order[0], n_iter)], workdir)


def untraced(workload, seed: int, seconds: float, smoke: bool, workdir: str) -> dict:
    order = seed_order(workload, seed, smoke)
    n_iter = iterations(workload, smoke)
    probes_per_run = 1 if smoke else math.ceil(SETUP_PROBES / len(order))
    deadline = time.monotonic() + seconds
    warm, _, failures = warm_up(workload, order, n_iter, workdir)
    attempted = 1
    records, histories = [], []
    first_round = True
    while True:
        round_start = time.monotonic()
        per_run = probes_per_run if first_round else 1
        jobs = [job for s in order for job in [(s, 0)] * per_run + [(s, n_iter)]]
        r, h, f = run_jobs(workload, jobs, workdir)
        records += r
        histories += h
        failures += f
        attempted += len(jobs)
        first_round = False
        if smoke or time.monotonic() + (time.monotonic() - round_start) > deadline:
            break
    probes = [r for r in records if r.iterations == 0]
    full = [(r, h) for r, h in zip(records, histories) if r.iterations]
    failures += determinism_failures(warm + [r for r, _ in full])
    return result(failures, attempted, *end_to_end(workload, full, probes))


def determinism_failures(records) -> list[str]:
    """A seed that ran more than once must give the same history each time."""
    first: dict[int, str] = {}
    return [
        f"seed {record.seed}: history differs between runs"
        for record in records
        if first.setdefault(record.seed, record.history_csv) != record.history_csv
    ]


def end_to_end(workload, full, probes) -> tuple[dict, dict]:
    """(metrics, report) from the (record, history) pairs of the full runs
    and the records of the set-up probes.

    metrics holds the end-to-end metrics of BENCHMARK.json; report adds the
    figures that can be exactly zero, which the gate cannot divide by.
    """
    records = [record for record, _ in full]
    if not records:
        return {}, {}
    repeats: dict[int, list] = {}
    first_run = {}
    for record, history in full:
        repeats.setdefault(record.seed, []).append(record)
        first_run.setdefault(record.seed, (record, history))
    gaps_ms, walls = fastest_repeats(workload, repeats.values())
    best_gap = statistics.median(record.best_f - workload.f_min for record, _ in first_run.values())
    duplicates = sum(workloads.duplicate_count(h) for _, h in first_run.values())
    wasted = duplicates / sum(len(h.stage) for _, h in first_run.values())
    setups = [min(r.calls)[0] - r.start for r in probes + records]
    metrics = {
        "overhead_ms.p50": (percentile(gaps_ms, 50), "ms"),
        "overhead_ms.p90": (percentile(gaps_ms, 90), "ms"),
        "run_wall_s": (statistics.fmean(walls), "s"),
        "best_gap_digits.p50": (-math.log10(max(best_gap, GAP_FLOOR)), "digits"),
        "distinct_eval_frac": (1.0 - wasted, "ratio"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    report = dict(metrics)
    report["overhead_ms.samples"] = (len(gaps_ms), "count")
    report["repeats_per_seed"] = (min(len(runs) for runs in repeats.values()), "count")
    report["setup_s.samples"] = (len(setups), "count")
    report["best_gap.p50"] = (best_gap, "objective")
    report["wasted_eval_frac"] = (wasted, "ratio")
    return metrics, report


def fastest_repeats(workload, repeats) -> tuple[list[float], list[float]]:
    """(gaps_ms, walls): each seed's idle gaps, batch by batch, and its run
    wall time, each the fastest of that seed's repeats.

    A seed repeats the same computation in every round, so its repeats
    differ only by what the shared machine did meanwhile: spells of a few
    seconds in which it runs up to twice as slow.  The fastest repeat
    measures the program rather than those spells.
    """
    gaps_ms, walls = [], []
    for runs in repeats:
        gaps = np.array([workloads.idle_gaps(workload, run) for run in runs])
        gaps_ms += (1e3 * gaps.min(axis=0)).tolist()
        walls.append(min(run.end - run.start for run in runs))
    return gaps_ms, walls


def result(failures, attempted, metrics, report) -> dict:
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    # A run can fail more than one check; it still counts once.
    failed = min(len(failures), attempted)
    report = dict(report)
    report["runs"] = (attempted, "count")
    report["failed_run_frac"] = (failed / attempted, "ratio")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "report": report,
    }


def traced(workload, seed: int, smoke: bool, workdir: str) -> dict:
    order = seed_order(workload, seed, smoke)
    n_iter = iterations(workload, smoke)
    jobs = [(s, n_iter) for s in order]
    _, _, failures = warm_up(workload, order, n_iter, workdir)
    plain, _, plain_failures = run_jobs(workload, jobs, workdir)
    failures += plain_failures
    tracer = tracing.Tracer()
    with tracer.patch():
        records, histories, traced_failures = run_jobs(workload, jobs, workdir, tracer)
    failures += traced_failures
    plain_by_seed = {r.seed: r.history_csv for r in plain}
    failures += [
        f"seed {r.seed}: traced history differs from the untraced one"
        for r in records
        if plain_by_seed.get(r.seed) != r.history_csv
    ]
    if workload.external:
        add_external_calls(tracer, records)

    metrics, cli_times = per_layer(tracer, histories, workload)
    silent = [
        name
        for name in tracing.SPAN_NAMES
        if metrics[f"{name}.calls"][0] == 0 and (workload.external or name not in CLI_SPANS)
    ]
    if silent:
        failures.append(f"boundaries that never fired: {', '.join(silent)}")
    overhead = 0.0
    if plain and records:
        plain_wall = statistics.median(r.end - r.start for r in plain)
        overhead = statistics.median(r.end - r.start for r in records) / plain_wall - 1.0
    metrics["trace_overhead_frac"] = (overhead, "ratio")

    path = os.path.join(workdir, f"trace-{workload.name}-seed{seed}.jsonl")
    tracer.write(path)
    print(f"spans written to {path}")
    report = {**metrics, **cli_times}
    report["spans"] = (len(tracer.spans), "count")
    return result(failures, 1 + 2 * len(order), metrics, report)


def add_external_calls(tracer, records) -> None:
    """Turn the external script's own call timestamps into objective spans
    under the evaluate_batch span that contains them; batches are barriers,
    so exactly one does."""
    batches = [s for s in tracer.spans if s.name == tracing.BATCH]
    for record in records:
        for start, end in record.calls:
            batch = next((b for b in batches if b.start <= start and end <= b.end), None)
            tracer.add_span(
                tracing.OBJECTIVE,
                start,
                end,
                batch.id if batch else None,
                batch.run if batch else None,
            )


def per_layer(tracer, histories, workload) -> tuple[dict, dict]:
    """Per-layer metrics of the traced round: calls, duration percentiles and
    total self time of every span name, plus the counters and ratios
    measured at the boundaries.

    Returns (metrics, cli_times).  Only expensive-cli enters the CLI layer,
    so the CLI's times are kept apart: on the other workloads they are
    zero on every run, which is not a measurement.
    """
    self_time = tracing.self_times(tracer.spans)
    by_name: dict[str, list] = {name: [] for name in tracing.SPAN_NAMES}
    for span in tracer.spans:
        by_name[span.name].append(span)
    metrics: dict = {}
    cli_times: dict = {}
    for name in tracing.SPAN_NAMES:
        spans = by_name[name]
        durations_ms = [1e3 * s.duration for s in spans]
        metrics[f"{name}.calls"] = (len(spans), "count")
        times = cli_times if name in CLI_SPANS else metrics
        times[f"{name}.ms.p50"] = (percentile(durations_ms, 50), "ms")
        times[f"{name}.ms.p90"] = (percentile(durations_ms, 90), "ms")
        times[f"{name}.self_s"] = (sum((self_time[s.id] for s in spans), 0.0), "s")
    metrics["rbf.evaluate_many.points"] = (tracer.evaluate_many_points, "count")
    metrics["cors.fallback_frac"] = (tracer.fallbacks / max(tracer.proposals, 1), "ratio")
    scaled = np.concatenate([h.f_scaled for h in histories]) if histories else np.zeros(0)
    metrics["scaling.clipped_frac"] = (float(np.mean(scaled == 1.0)) if scaled.size else 0.0, "ratio")

    longest_call: dict[int, float] = {}
    for span in by_name[tracing.OBJECTIVE]:
        if span.parent is not None:
            longest_call[span.parent] = max(longest_call.get(span.parent, 0.0), span.duration)
    dispatch_ms = [1e3 * (s.duration - longest_call.get(s.id, 0.0)) for s in by_name[tracing.BATCH]]
    metrics["engine.dispatch_ms.p50"] = (percentile(dispatch_ms, 50), "ms")
    busy = sum(s.duration for s in by_name[tracing.OBJECTIVE])
    capacity = workload.workers * sum(s.duration for s in by_name["engine.run"])
    metrics["engine.worker_util"] = (busy / capacity if capacity else 0.0, "ratio")
    # The external script sleeps latency_s per call; the rest of the round
    # trip is the line protocol.
    protocol_ms = [1e3 * (s.duration - workload.latency_s) for s in by_name["cli.CommandObjective.call"]]
    cli_times["cli.CommandObjective.call.overhead_ms.p50"] = (percentile(protocol_ms, 50), "ms")
    cli_times["cli.CommandObjective.call.overhead_ms.p90"] = (percentile(protocol_ms, 90), "ms")
    return metrics, cli_times
