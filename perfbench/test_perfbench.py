"""Tests for the benchmark's own arithmetic and wrappers.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import attribution  # noqa: E402
import harness  # noqa: E402
import probes  # noqa: E402
from workloads import Run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def rec(name, t0, t1, parent, value=None):
    return [name, float(t0), float(t1), parent, "", value]


class TickClock:
    """Deterministic clock: every read advances one second."""

    def __init__(self):
        self.t = 0.0

    def now(self) -> float:
        self.t += 1.0
        return self.t


def test_self_time_and_layer_shares():
    records = [
        rec("bench.timed", 0, 10, -1),
        rec("hpo.ask", 1, 5, 0),
        rec("hpo.surrogate_fit", 2, 4, 1),
        rec("systems.trial", 6, 9, 0),
    ]
    assert attribution.self_times(records) == [3.0, 2.0, 2.0, 3.0]
    shares = attribution.layer_shares(records, 0)
    assert shares["hpo"] == pytest.approx(0.4)
    assert shares["systems"] == pytest.approx(0.3)
    assert shares["other"] == pytest.approx(0.3)
    assert sum(shares.values()) == pytest.approx(1.0)


def test_estimator_time_goes_to_the_outermost_estimator():
    from repro.models import DecisionTreeClassifier, RandomForestClassifier
    from repro.pipeline.pipeline import Pipeline
    from repro.preprocessing import StandardScaler

    rng = np.random.default_rng(0)
    X = rng.normal(size=(60, 4))
    y = (X[:, 0] > 0).astype(int)
    log = probes.SpanLog(TickClock())
    table = [p for p in probes.default_probes()
             if p.attr == "fit" and p.owner.split(":")[1] in (
                 "RandomForestClassifier", "DecisionTreeClassifier",
                 "Pipeline")]
    with probes.Probes(log, table):
        RandomForestClassifier(n_estimators=3, random_state=0).fit(X, y)
        Pipeline([("scale", StandardScaler()),
                  ("tree", DecisionTreeClassifier(random_state=0))]).fit(X, y)
    names = [(r[0], r[3]) for r in log.records]
    # the forest's three inner tree fits are not recorded
    assert names == [("models.fit.random_forest", -1),
                     ("preprocessing.fit", -1),
                     ("models.fit.decision_tree", 1)]
    selfs = attribution.self_times(log.records)
    pipeline, tree = log.records[1], log.records[2]
    assert selfs[1] == (pipeline[2] - pipeline[1]) - (tree[2] - tree[1])


def _bound(holder, attr):
    """The object ``holder.attr`` is bound to, without descriptors."""
    return vars(holder)[attr]


def test_removing_the_wrappers_restores_the_original_callables():
    log = probes.SpanLog(TickClock())
    wrapped = probes.Probes(log, probes.default_probes()).install()
    patched = [(p.holder, p.attr, p.original) for p in wrapped.patches]
    assert len(patched) > 50
    assert all(_bound(h, a) is not orig for h, a, orig in patched)
    wrapped.uninstall()
    for holder, attr, original in patched:
        assert _bound(holder, attr) is original, f"{holder}.{attr}"
    assert not wrapped.patches


def test_a_tagging_probe_tags_its_span_and_the_spans_under_it():
    log = probes.SpanLog(TickClock())
    log.tag = "campaign"
    commit = probes._make_wrapper(
        log, probes.Probe("m", "put", "runtime.commit"), lambda: None)
    cell = probes._make_wrapper(
        log, probes.Probe("m", "run", "runtime.cell",
                          tag=lambda args: f"cell-{args[0]}"),
        lambda k: commit())
    cell(3)
    commit()
    assert [(r[0], r[4]) for r in log.records] == [
        ("runtime.cell", "cell-3"), ("runtime.commit", "cell-3"),
        ("runtime.commit", "campaign")]


def test_wrapper_costs_are_small_and_a_record_costs_more():
    from repro.utils.timer import WallClock

    span_s, pass_s = probes.wrapper_costs(WallClock(), calls=2000)
    assert 0.0 < span_s < 1e-3
    assert pass_s < span_s


def test_charged_seconds_follow_the_latest_estimate():
    records = [
        rec("energy.estimate_fit", 0, 1, -1, ["gradient_boosting", 1.0]),
        rec("systems.charge", 1, 2, -1, 1.0),
        rec("energy.estimate_fit", 2, 3, -1, ["random_forest", 9.0]),
        rec("energy.estimate_fit", 3, 4, -1, ["random_forest", 0.25]),
        rec("systems.charge", 4, 5, -1, 1.25),
    ]
    charged = attribution.charged_by_family(records)
    assert charged["gradient_boosting"] == 1.0
    assert charged["random_forest"] == 1.25
    assert sum(charged.values()) == 2.25


@pytest.mark.parametrize("n, q", [(9, 50.0), (99, 50.0), (100, 90.0),
                                  (999, 90.0), (1000, 99.0),
                                  (10000, 99.9)])
def test_tail_percentile_keeps_ten_samples_beyond(n, q):
    assert attribution.tail_percentile(n) == q


def test_percentile_falls_back_to_the_supported_tail():
    values = list(range(1, 101))
    value, used = attribution.percentile(values, 99.0)
    assert used == 90.0
    assert value == pytest.approx(np.percentile(values, 90.0))
    assert attribution.percentile(values, 50.0) == (50.5, 50.0)
    assert attribution.percentile([], 50.0) == (0.0, 50.0)


def test_timed_metrics_add_up_each_parts_fastest_repeat():
    def run(**walls):
        return SimpleNamespace(parts={name: SimpleNamespace(wall_s=wall)
                                      for name, wall in walls.items()})

    def wall(part):
        return part.wall_s

    runs = [run(load=1.0, a=5.0, b=2.0), run(load=2.0, a=3.0, b=4.0)]
    # neither repeat is the fastest as a whole (8.0 and 9.0)
    assert attribution.fastest(runs, wall) == 1.0 + 3.0 + 2.0
    assert attribution.fastest(runs, wall, ("a", "b")) == 5.0
    assert attribution.fastest(runs[:1], wall) == 8.0
    assert attribution.fastest([], wall) == 0.0


@pytest.mark.parametrize("setups, repeats, order", [
    (9, 1, "sssssTssss"),
    (9, 2, "sssTssssTss"),
    (3, 5, "sTTsTsTT"),
])
def test_set_ups_are_spread_through_the_run_and_come_first(setups, repeats,
                                                           order):
    steps = harness.schedule(setups, repeats)
    assert "".join("s" if s == "setup" else "T" for s in steps) == order


def test_cpu_energy_from_a_fake_rusage():
    usage = SimpleNamespace
    before = (usage(ru_utime=1.0, ru_stime=0.5, ru_maxrss=1024),
              usage(ru_utime=0.0, ru_stime=0.0, ru_maxrss=0))
    after = (usage(ru_utime=3.0, ru_stime=1.0, ru_maxrss=2048),
             usage(ru_utime=4.0, ru_stime=0.5, ru_maxrss=4096))
    assert attribution.cpu_seconds(before, after) == 7.0
    assert attribution.cpu_energy_j(before, after, 10.0) == 70.0
    assert attribution.peak_rss_mb(after) == 4.0


def test_declared_metric_names_are_valid():
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(attribution.valid_metric_name(n) for n in names)
    units = [m["unit"] for key in ("end_to_end", "per_layer")
             for m in SPEC[key]]
    assert all(attribution.valid_unit(u) for u in units)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())
    assert not attribution.valid_metric_name("-leading-dash")
    assert not attribution.valid_metric_name("x" * 65)


def test_reports_emit_exactly_the_declared_metrics():
    run = Run(extra={"dispatch_overhead_s": 1e-4})
    e2e = harness.end_to_end([run], [1.0, 1.2, 0.9])
    assert e2e.rows[0] == ("setup_s", 1.0, "s", 3)
    assert [r[0] for r in e2e.rows] == [m["name"]
                                        for m in SPEC["end_to_end"]]
    records = [rec("bench.setup", 0, 1, -1), rec("bench.timed", 1, 2, -1)]
    layer = harness.per_layer(records, 0, 1, run, [run], run)
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {r[0]: r[2] for r in layer.rows} == declared
