"""Set-up, timed runs, output checks and metrics of one workload.

:func:`measure` is the body of ``run.py`` once the repository sources
are importable: it sets the workload up and runs its timed phase
untraced, each as often as the workload asks, and, when asked, runs it
again serial and in-process under the timing wrappers of :mod:`probes`.
Set-ups and timed phases are spread through the run (:func:`schedule`),
so that the set-ups, and the repeats of a part of the timed phase, meet
the machine in different states.

One set-up is a fresh interpreter that starts and imports the benchmark
(numpy and the ``repro`` package with it), then :meth:`prepare`: the
import can only be repeated in a new process.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

from repro.energy.machines import DEFAULT_MACHINE
from repro.utils.timer import Stopwatch

from attribution import (
    SpanTable,
    charged_by_family,
    cpu_energy_j,
    fastest,
    layer_shares,
    peak_rss_mb,
    percentile,
)
from probes import FAMILIES, Probes, SpanLog, default_probes, wrapper_costs
from workloads import SERVE_PASSES, WORKLOADS, Run, usage

HERE = Path(__file__).resolve().parent


@dataclass
class Report:
    """Metrics of one run in print order: ``(name, value, unit, n)``."""

    rows: list = field(default_factory=list)

    def add(self, name: str, value: float, unit: str, n: int = 1) -> None:
        self.rows.append((name, float(value), unit, int(n)))

    def metrics(self) -> dict:
        return {name: {"value": value, "unit": unit}
                for name, value, unit, _ in self.rows}


@dataclass
class Result:
    end_to_end: Report
    per_layer: Report | None
    attempted: int
    failed: int
    problems: list


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def mismatches(label: str, reference: Run, other: Run) -> list[str]:
    """Outputs that differ between two runs of the same inputs."""
    return [f"{label}: {key} differs"
            for key in sorted(reference.outputs)
            if other.outputs.get(key) != reference.outputs[key]]


def interpreter_start_s(clock) -> float:
    """Wall seconds a fresh interpreter takes to start and import the
    benchmark."""
    paths = [str(HERE), str(HERE.parent / "src")]
    watch = Stopwatch(clock)
    with watch:
        subprocess.run([sys.executable, "-c",
                        f"import sys; sys.path[:0] = {paths!r}; "
                        f"import harness"], check=True)
    return watch.elapsed


def setup_s(workload, clock) -> float:
    """One set-up: a fresh interpreter, then the workload's own."""
    start_s = interpreter_start_s(clock)
    watch = Stopwatch(clock)
    with watch:
        workload.prepare()
    return start_s + watch.elapsed


def schedule(setups: int, repeats: int) -> list[str]:
    """Order of the set-ups and untraced timed phases of a run, each
    kind spread evenly through it, a set-up first."""
    steps = [(k / setups, "setup") for k in range(setups)]
    steps += [((j + 0.5) / repeats, "run") for j in range(repeats)]
    return [kind for _, kind in sorted(steps)]


def measure(name: str, seed: int, trace: bool, clock, scratch: Path,
            out_dir: Path) -> Result:
    workload = WORKLOADS[name](seed, scratch)
    setups, runs = [], []
    for step in schedule(workload.setups, workload.repeats):
        if step == "setup":
            setups.append(setup_s(workload, clock))
        else:
            runs.append(workload.run(workers=workload.workers))
    untraced = runs[0]
    e2e = end_to_end(runs, setups)
    problems = list(untraced.problems)
    for other in runs[1:]:
        problems += other.problems + mismatches("repeat", untraced, other)
    layer = None
    if trace:
        # what the traced run is compared with: the untraced runs, or a
        # serial one when those ran on a pool
        references = runs
        if workload.workers > 1:
            workload.prepare()
            references = [workload.run(workers=1)]
            problems += references[0].problems
            problems += mismatches("pooled vs serial", untraced,
                                   references[0])
        log = SpanLog(clock)
        with Probes(log, default_probes()):
            with log.span("bench.setup") as setup_root:
                workload.prepare()
            passed = log.passed
            with log.span("bench.timed") as timed_root:
                traced = workload.run(workers=1, log=log)
            passed = log.passed - passed
        problems += traced.problems
        problems += mismatches("traced vs untraced", references[0], traced)
        span_cost, pass_cost = wrapper_costs(clock)
        spans = len(log.records) - timed_root - 1
        layer = per_layer(log.records, setup_root, timed_root,
                          untraced, references, traced,
                          spans * span_cost + passed * pass_cost)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"trace-{name}-seed{seed}.json").write_text(json.dumps({
            "workload": name, "seed": seed,
            "fields": ["name", "t0", "t1", "parent", "tag", "value"],
            "records": log.records,
        }))
    extra_failures = len(problems) - len(untraced.problems)
    return Result(e2e, layer, untraced.attempted,
                  untraced.failed + extra_failures, problems)


def _wall_s(part) -> float:
    return part.wall_s


def _cpu_energy_j(part) -> float:
    return cpu_energy_j(part.usage_before, part.usage_after,
                        DEFAULT_MACHINE.power(1))


def end_to_end(runs: list, setups: list) -> Report:
    """End-to-end metrics.  ``setup_s`` is the median set-up; the timed
    metrics add up each part's fastest repeat (:func:`fastest`); the
    rest come from the first timed phase (repeats reproduce it)."""
    run, n = runs[0], len(runs)
    report = Report()
    report.add("setup_s", statistics.median(setups), "s", len(setups))
    report.add("wall_s", fastest(runs, _wall_s), "s", n)
    report.add("cpu_energy_j", fastest(runs, _cpu_energy_j), "J", n)
    report.add("peak_rss_mb", peak_rss_mb(usage()), "MB")
    report.add("success_rate",
               1.0 - _ratio(min(run.failed, run.attempted), run.attempted),
               "ratio", run.attempted)
    report.add("mean_bal_acc", run.mean_bal_acc, "ratio")
    report.add("work_per_s", _ratio(
        run.work, fastest(runs, _wall_s, run.work_parts)), "1/s", n)
    report.add("j_per_pred", run.j_per_pred, "J")
    return report


def per_layer(records, setup_root: int, timed_root: int, untraced: Run,
              references: list, traced: Run,
              wrapper_s: float = 0.0) -> Report:
    """Per-layer metrics from the span records of the traced run;
    ``references`` are the untraced runs it is compared with and
    ``wrapper_s`` the measured cost of its wrappers."""
    spans = SpanTable(records, [timed_root])
    report = Report()
    add = report.add

    asks = spans.durations("hpo.ask")
    add("hpo.asks", len(asks), "count")
    add("hpo.ask_s", spans.self_time("hpo.ask"), "s")
    for q in (50.0, 90.0):
        value, _ = percentile(asks, q)
        add(f"hpo.ask_ms.p{q:g}", 1e3 * value, "ms", len(asks))
    add("hpo.surrogate_fit_s", spans.inclusive("hpo.surrogate_fit"), "s")
    add("hpo.surrogate_predict_s",
        spans.inclusive("hpo.surrogate_predict"), "s")
    add("hpo.candidates_s", spans.self_time("hpo.candidates"), "s")
    add("hpo.encode_s", spans.self_time("hpo.encode"), "s")

    for family in FAMILIES:
        add(f"models.fit_s.{family}",
            spans.inclusive(f"models.fit.{family}"), "s")
        add(f"models.fits.{family}", spans.count(f"models.fit.{family}"),
            "count")
    predict_s = 0.0
    for variant, _ in SERVE_PASSES:
        seconds = spans.inclusive(f"models.predict.{variant}")
        rows = sum(spans.values(f"models.predict.{variant}"))
        predict_s += seconds
        add(f"models.predict_s.{variant}", seconds, "s")
        add(f"models.predict_rows_per_s.{variant}", _ratio(rows, seconds),
            "rows/s", rows)
    add("pipeline.predict_s", spans.self_time("pipeline.predict"), "s")
    add("pipeline.build_s", spans.inclusive("pipeline.build"), "s")
    add("preprocessing.fit_s", spans.self_time("preprocessing.fit"), "s")

    # simulated service seconds of every batch the server ran: the cost
    # model's estimate plus the dispatch overhead
    estimates = [r[5] for r in records
                 if r[0] == "energy.estimate_inference" and r[3] >= 0
                 and records[r[3]][0] == "serving.process"]
    simulated = sum(estimates) + len(estimates) * traced.extra.get(
        "dispatch_overhead_s", 0.0)
    batches = traced.extra.get("batches", 0)
    add("serving.loop_s", spans.self_time("serving.process"), "s")
    add("serving.route_s", spans.self_time("serving.route"), "s")
    add("serving.batches", batches, "count")
    add("serving.rows_per_batch",
        _ratio(traced.extra.get("rows", 0.0), batches), "rows", batches)
    for metric, key in (("serving.queue_wait_ms.p99", "sim_queue_wait_s"),
                        ("serving.latency_ms.p99", "sim_latency_s")):
        samples = traced.extra.get(key, [])
        value, _ = percentile(samples, 99.0)
        add(metric, 1e3 * value, "ms", len(samples))
    add("serving.artifact_load_s", spans.inclusive("serving.artifact_load"),
        "s")
    add("serving.predict_wall_per_sim", _ratio(predict_s, simulated),
        "ratio", len(estimates))

    cells = spans.durations("runtime.cell")
    add("runtime.cells", len(cells), "count")
    add("runtime.cell_s.p50", percentile(cells, 50.0)[0], "s", len(cells))
    add("runtime.cell_s.max", max(cells, default=0.0), "s", len(cells))
    add("runtime.queue_wait_s", untraced.extra.get("queue_wait_s", 0.0),
        "s")
    add("runtime.commit_s", spans.inclusive("runtime.commit"), "s")
    add("runtime.retries", untraced.extra.get("retries", 0), "count")
    add("runtime.quarantined", untraced.extra.get("quarantined", 0),
        "count")

    scores = spans.values("systems.trial")
    charged = charged_by_family(spans.records)
    add("systems.trials", len(scores), "count")
    add("systems.trial_fail_ratio",
        _ratio(sum(1 for s in scores if s == -1.0), len(scores)), "ratio",
        len(scores))
    add("systems.search_self_s", spans.self_time("systems.search"), "s")
    add("systems.charged_s", sum(charged.values()), "s")
    for family in FAMILIES:
        add(f"systems.wall_per_charged.{family}",
            _ratio(spans.inclusive(f"models.fit.{family}"),
                   charged[family]), "ratio")

    add("ensemble.caruana_s", spans.self_time("ensemble.caruana"), "s")
    add("ensemble.stack_s", spans.self_time("ensemble.stack")
        + spans.self_time("ensemble.bag")
        + spans.self_time("ensemble.bag_fit"), "s")
    add("ensemble.bags", spans.count("ensemble.bag_fit"), "count")

    gets = spans.count("evalstore.get")
    add("evalstore.puts", spans.count("evalstore.put"), "count")
    add("evalstore.put_s", spans.inclusive("evalstore.put"), "s")
    add("evalstore.gets", gets, "count")
    add("evalstore.get_s", spans.inclusive("evalstore.get"), "s")
    add("evalstore.reads_per_record",
        _ratio(gets, traced.extra.get("store_records", 0)), "ratio")
    add("evalstore.bytes", traced.extra.get("store_bytes", 0), "bytes")
    add("evalstore.whatif_s", spans.inclusive("evalstore.whatif"), "s")

    add("energy.estimate_s", spans.self_time("energy"), "s")
    add("datasets.load_s", SpanTable(records, [setup_root, timed_root])
        .inclusive("datasets.load"), "s")
    add("observability.trace_overhead", _ratio(
        traced.wall_s, statistics.median(r.wall_s for r in references))
        - 1.0, "ratio", len(references))
    add("observability.wrapper_overhead",
        _ratio(wrapper_s, traced.wall_s - wrapper_s), "ratio")
    for layer, share in layer_shares(records, timed_root).items():
        add(f"share.{layer}", share, "ratio")
    return report

