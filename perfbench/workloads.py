"""The benchmark's three seeded workloads.

``bo-loop``     a serial CAML + AutoSklearn1 campaign on a tiny dataset
                with a long budget (BO-bound), then the what-if step.
``stack-pool``  a 2-worker AutoGluon + FLAML campaign (tree-ensemble
                fits; no BO).
``serve-o1``    three passes of an AutoGluon winner's deployment variants
                through the prediction server (predict- and loop-bound).

Each workload has a set-up (:meth:`Workload.prepare`) and a timed phase
(:meth:`Workload.run`).  ``seed`` makes the request stream of
``serve-o1``.  What is fitted keeps a fixed seed (``FIT_SEED``), because
a campaign's work is chaotic in its seed (README.md): the two campaigns
run the same grid, in grid order, for every seed.
"""

from __future__ import annotations

import hashlib
import json
import resource
import shutil
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from repro.datasets import loaders
from repro.datasets.registry import get_spec
from repro.energy.machines import JOULES_PER_KWH
from repro.evalstore import mining, pareto, whatif
from repro.evalstore.store import EvalStore
from repro.experiments import runner
from repro.experiments.config import ExperimentConfig
from repro.observability import MetricsRegistry
from repro.serving.artifacts import ArtifactStore, export_system
from repro.serving.loadgen import LoadProfile, generate_requests
from repro.serving.router import SLORouter
from repro.serving.server import (
    KNOWN_STATUSES,
    STATUS_OK,
    STATUS_REJECTED,
    PredictionServer,
)
from repro.systems import make_system
from repro.utils.timer import Stopwatch


def usage():
    """``(self, children)`` resource usage snapshot."""
    return (resource.getrusage(resource.RUSAGE_SELF),
            resource.getrusage(resource.RUSAGE_CHILDREN))


@dataclass
class Part:
    """Wall time and resource usage of one part of a timed phase."""

    wall_s: float
    usage_before: tuple
    usage_after: tuple


@dataclass
class Run:
    """What one timed phase produced."""

    #: wall time of the timed phase (its parts added up)
    wall_s: float = 0.0
    #: part name -> :class:`Part`, in the order the parts ran
    parts: dict = field(default_factory=dict)
    #: the parts whose wall time ``work`` is divided by
    work_parts: tuple = ()
    attempted: int = 0
    failed: int = 0
    #: output-check failures (each also counts as a failed operation)
    problems: list = field(default_factory=list)
    #: outputs two runs of the same inputs must reproduce exactly
    outputs: dict = field(default_factory=dict)
    #: trials (campaigns) or answered rows (serving)
    work: float = 0.0
    mean_bal_acc: float = 0.0
    #: joules per prediction of what the workload deploys
    j_per_pred: float = 0.0
    #: layer inputs the program reports itself (telemetry, simulation)
    extra: dict = field(default_factory=dict)

    def fail(self, message: str, count: int = 1) -> None:
        self.problems.append(message)
        self.failed += count


class _Timed:
    """Wall time and resource usage around one part of the timed phase."""

    def __init__(self, run: Run, part: str):
        self.run = run
        self.part = part
        self.watch = Stopwatch()

    def __enter__(self) -> "_Timed":
        self.before = usage()
        self.watch.__enter__()
        return self

    def __exit__(self, *exc) -> None:
        self.watch.__exit__(*exc)
        self.run.parts[self.part] = Part(self.watch.elapsed, self.before,
                                         usage())
        self.run.wall_s += self.watch.elapsed


def _tag(log, label: str) -> None:
    if log is not None:
        log.tag = label


def _dir_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


class Workload:
    """Set-up and timed phase of one workload."""

    name = ""
    #: datasets the set-up materialises
    datasets: tuple = ()
    #: worker processes of the untraced timed phase
    workers = 1
    #: set-ups per run (their median is reported)
    setups = 9
    #: untraced timed phases per run (each part's fastest is reported)
    repeats = 1
    #: seed of everything fitted
    FIT_SEED = 7

    def __init__(self, seed: int, scratch: Path):
        self.seed = int(seed)
        self.scratch = Path(scratch)
        self.dir: Path | None = None
        self._generation = 0

    def _fresh_dir(self) -> Path:
        if self.dir is not None:
            shutil.rmtree(self.dir, ignore_errors=True)
        self._generation += 1
        self.dir = self.scratch / f"{self.name}-{self._generation}"
        self.dir.mkdir(parents=True)
        return self.dir

    def prepare(self) -> None:
        """Fresh working directories; every dataset materialised from
        its spec, and present in the loader cache the campaign reads."""
        self._fresh_dir()
        for name in self.datasets:
            loaders.load_dataset(name, spec=get_spec(name))
            loaders.load_dataset(name)

    def run(self, *, workers: int, log=None) -> Run:
        raise NotImplementedError


class _Campaign(Workload):
    """A ``run_grid`` campaign on a fixed base seed (``FIT_SEED``)."""

    systems: tuple = ()
    budgets: tuple = ()
    time_scale = 0.01
    eval_store = False

    @property
    def config(self) -> ExperimentConfig:
        return ExperimentConfig(
            systems=self.systems, datasets=self.datasets,
            budgets=self.budgets, n_runs=1, time_scale=self.time_scale,
            base_seed=self.FIT_SEED,
        )

    def run(self, *, workers: int, log=None) -> Run:
        # a campaign fills its cache, journal and store: every run starts
        # from empty ones
        self._fresh_dir()
        config = self.config
        telemetry: dict = {}
        out = Run(work_parts=("campaign",))
        _tag(log, "campaign")
        with _Timed(out, "campaign"):
            results = runner.run_grid(
                config, workers=workers,
                cache_dir=self.dir / "cache",
                journal_path=self.dir / "journal.jsonl",
                eval_store_dir=(self.dir / "store"
                                if self.eval_store else None),
                telemetry=telemetry,
            )
            self.after_campaign(out, results, log)
        records = results.records
        if len(records) != config.n_cells:
            out.fail(f"{len(records)} records for {config.n_cells} cells")
        out.attempted += config.n_cells
        # these grids fail no cell, so a failed cell is a wrong output
        for r in records:
            if r.failed:
                out.fail(f"cell {r.system}/{r.dataset}/"
                         f"{r.configured_seconds:g} failed: {r.note}")
        out.outputs["records"] = json.dumps(
            [asdict(r) for r in records], indent=1)
        out.work = float(sum(r.n_evaluations for r in records))
        if records:
            out.mean_bal_acc = float(np.mean(
                [r.balanced_accuracy for r in records]))
            out.j_per_pred = JOULES_PER_KWH * float(np.mean(
                [r.inference_kwh_per_instance for r in records]))
        counters = telemetry.get("metrics", {})
        quarantined = counters.get("cells.quarantined", {}).get("value", 0)
        failed_attempts = counters.get(
            "cells.failed_attempts", {}).get("value", 0)
        out.extra.update({
            "cells": config.n_cells,
            "queue_wait_s": float(counters.get(
                "executor.queue_wait_seconds", {}).get("sum", 0.0)),
            "quarantined": int(quarantined),
            "retries": int(failed_attempts - quarantined),
        })
        return out

    def after_campaign(self, out: Run, results, log) -> None:
        """The step a user runs after the campaign (inside the timing)."""


class BoLoop(_Campaign):
    name = "bo-loop"
    systems = ("CAML", "AutoSklearn1")
    datasets = ("blood-transfusion-service-center",)
    budgets = (60.0,)
    eval_store = True
    repeats = 2

    def after_campaign(self, out: Run, results, log) -> None:
        _tag(log, "what-if")
        store = EvalStore(self.dir / "store")
        kept = store.query(kept_only=True)
        cells = sorted({r.cell_key for r in kept
                        if r.system == "AutoSklearn1"})
        members = [
            whatif.whatif_ensemble(
                [r for r in kept if r.cell_key == key], top_k=25,
            ).n_members
            for key in cells
        ]
        front = pareto.trial_front(store.query())
        portfolio = mining.mine_portfolio(store.query())
        digest = store.digest()
        askl = sum(1 for r in results.records if r.system == "AutoSklearn1")
        if len(cells) != askl:
            out.fail(f"what-if pools for {len(cells)} of {askl} "
                     f"AutoSklearn1 cells")
        if any(m < 1 for m in members):
            out.fail(f"what-if returned no members: {members}")
        if not front or not len(portfolio):
            out.fail("empty Pareto front or portfolio")
        stats = store.stats
        out.attempted += stats.hits + stats.misses
        if stats.misses:
            out.fail(f"{stats.misses} store reads missed "
                     f"({stats.corrupt} corrupt)", count=stats.misses)
        out.outputs["evalstore_digest"] = digest
        out.extra.update({
            "store_records": len(store.keys()),
            "store_bytes": _dir_bytes(self.dir / "store"),
        })


class StackPool(_Campaign):
    name = "stack-pool"
    # grid order puts the longest cells first (the phoneme AutoGluon
    # stack is the straggler)
    systems = ("AutoGluon", "FLAML")
    datasets = ("phoneme", "kc1", "credit-g")
    budgets = (300.0, 60.0)
    workers = 2


#: (variant the pass is meant for, requests replayed from the stream);
#: the first pass has no joule target.  Sized so that each pass takes
#: about a third of the timed phase.
SERVE_PASSES = (("ensemble", 500), ("refit", 1200), ("distilled", 12000))


class ServeO1(Workload):
    name = "serve-o1"
    datasets = ("credit-g",)
    # a set-up fits AutoGluon
    setups = 3
    repeats = 4
    FIT_SEED = 0
    budget_s = 30.0
    dispatch_overhead_s = 1e-4

    def prepare(self) -> None:
        super().prepare()
        ds = loaders.load_dataset("credit-g")
        automl = make_system("AutoGluon", random_state=self.FIT_SEED,
                             time_scale=0.01)
        automl.fit(ds.X_train, ds.y_train, budget_s=self.budget_s,
                   categorical_mask=ds.categorical_mask)
        self.store = ArtifactStore(self.dir / "artifacts",
                                   registry=MetricsRegistry())
        self.manifests = export_system(self.store, automl, ds,
                                       random_state=self.FIT_SEED)
        self.stream = generate_requests(
            LoadProfile(n_requests=max(n for _, n in SERVE_PASSES)),
            X_pool=ds.X_test, random_state=self.seed,
        )

    def targets(self) -> dict:
        """Joule target per pass: none, midway between the cheapest and
        the dearest manifest, just above the cheapest."""
        joules = sorted(m.joules_per_prediction
                        for m in self.manifests.values())
        return {"ensemble": None,
                "refit": 0.5 * (joules[0] + joules[-1]),
                "distilled": joules[0] * 1.001}

    def run(self, *, workers: int, log=None) -> Run:
        out = Run(work_parts=tuple(v for v, _ in SERVE_PASSES))
        targets = self.targets()
        passes = []
        _tag(log, "load")
        with _Timed(out, "load"):
            artifacts = {
                variant: self.store.load(manifest.artifact_id)
                for variant, manifest in sorted(self.manifests.items())
            }
        for variant, n_requests in SERVE_PASSES:
            _tag(log, variant)
            router = SLORouter(artifacts,
                               target_j_per_pred=targets[variant])
            server = PredictionServer(
                router, span_sample_every=0,
                dispatch_overhead_s=self.dispatch_overhead_s,
            )
            with _Timed(out, variant):
                responses = server.process(self.stream[:n_requests])
            passes.append((variant, responses, server.n_batches))
        self._check(out, artifacts, targets, passes)
        return out

    def _check(self, out: Run, artifacts: dict, targets: dict,
               passes) -> None:
        missing = sorted(v for v, a in artifacts.items() if a is None)
        if missing:
            out.fail(f"artifacts failed to load: {missing}")
            return
        accuracy = {v: a.manifest.accuracy for v, a in artifacts.items()}
        most_accurate = {v for v, a in accuracy.items()
                         if a == max(accuracy.values())}
        digest = hashlib.sha256()
        latencies, waits = [], []
        rows = joules = acc_sum = 0.0
        answered = batches = 0
        for variant, responses, n_batches in passes:
            n_requests = dict(SERVE_PASSES)[variant]
            out.attempted += n_requests
            batches += n_batches
            if [r.request_id for r in responses] != list(range(n_requests)):
                out.fail(f"{variant} pass did not answer each of its "
                         f"{n_requests} requests exactly once")
            counts = dict.fromkeys(KNOWN_STATUSES, 0)
            for r in responses:
                counts[r.status] = counts.get(r.status, 0) + 1
                digest.update(repr((r.request_id, r.status, r.variant,
                                    r.started_s, r.completed_s,
                                    r.joules)).encode())
                if r.predictions is not None:
                    digest.update(np.ascontiguousarray(
                        r.predictions).tobytes())
                if r.status == STATUS_OK and (
                        r.predictions is None
                        or len(r.predictions) != r.n_rows):
                    out.fail(f"request {r.request_id} answered without "
                             f"its predictions")
                if r.status == STATUS_REJECTED:
                    continue
                answered += 1
                rows += r.n_rows
                joules += r.joules
                acc_sum += accuracy[r.variant]
                latencies.append(r.latency_s)
                waits.append(r.queue_wait_s)
            if set(counts) != set(KNOWN_STATUSES) \
                    or sum(counts.values()) != n_requests:
                out.fail(f"{variant} pass statuses {counts}")
            out.failed += n_requests - counts[STATUS_OK]
            served = {r.variant for r in responses if r.status == STATUS_OK}
            wanted = (most_accurate if targets[variant] is None
                      else {variant})
            if not served <= wanted:
                out.fail(f"{variant} pass served by {sorted(served)}")
        out.outputs["responses"] = digest.hexdigest()
        out.work = rows
        out.mean_bal_acc = acc_sum / answered if answered else 0.0
        out.j_per_pred = joules / rows if rows else 0.0
        out.extra.update({
            "sim_latency_s": latencies,
            "sim_queue_wait_s": waits,
            "batches": batches,
            "rows": rows,
            "dispatch_overhead_s": self.dispatch_overhead_s,
        })


WORKLOADS = {w.name: w for w in (BoLoop, StackPool, ServeO1)}
