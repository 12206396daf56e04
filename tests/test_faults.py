"""The fault-injection subsystem: plans, injectors, failure taxonomy,
and the per-layer seams (cache, journal, energy, systems, runner)."""

import json
import warnings
from dataclasses import asdict

import pytest

from repro.datasets import load_dataset
from repro.energy.tracker import EnergyTracker, ZERO_REPORT
from repro.exceptions import InjectedFault, RaplUnavailableError
from repro.experiments import run_single
from repro.experiments.results import RunRecord
from repro.faults import (
    KNOWN_SEAMS,
    SEAM_CACHE_CORRUPT,
    SEAM_CELL_ERROR,
    SEAM_JOURNAL_TORN,
    SEAM_RAPL_READ,
    SEAM_TRIAL_ERROR,
    FailureRecord,
    FaultInjector,
    FaultPlan,
    SeamSpec,
)
from repro.runtime import CampaignJournal
from repro.systems.base import PipelineEvaluator


def _record(**overrides) -> RunRecord:
    payload = dict(
        system="CAML", dataset="kc1", configured_seconds=10.0, seed=0,
        balanced_accuracy=0.5, execution_kwh=1e-6, actual_seconds=10.0,
        inference_kwh_per_instance=1e-12,
        inference_seconds_per_instance=1e-6,
    )
    payload.update(overrides)
    return RunRecord(**payload)


class TestFaultPlan:
    def test_decisions_are_deterministic_and_order_independent(self):
        plan = FaultPlan.uniform(7, KNOWN_SEAMS, 0.3)
        again = FaultPlan.uniform(7, KNOWN_SEAMS, 0.3)
        keys = [f"cell-{i}#a0" for i in range(200)]
        forward = [(s, k) for k in keys for s in KNOWN_SEAMS
                   if plan.decide(s, k)]
        backward = [(s, k) for k in reversed(keys) for s in KNOWN_SEAMS
                    if again.decide(s, k)]
        assert sorted(forward) == sorted(backward)
        assert forward  # 0.3 over 200 keys must fire

    def test_different_seeds_differ(self):
        keys = [f"k{i}" for i in range(100)]
        a = FaultPlan.uniform(0, (SEAM_CELL_ERROR,), 0.3)
        b = FaultPlan.uniform(1, (SEAM_CELL_ERROR,), 0.3)
        assert [a.decide(SEAM_CELL_ERROR, k) for k in keys] \
            != [b.decide(SEAM_CELL_ERROR, k) for k in keys]

    def test_json_roundtrip_preserves_decisions(self):
        plan = FaultPlan.uniform(11, KNOWN_SEAMS, 0.25, delay_s=1.5)
        clone = FaultPlan.from_json(plan.to_json())
        assert clone.to_dict() == plan.to_dict()
        for key in (f"x{i}" for i in range(50)):
            for seam in KNOWN_SEAMS:
                assert clone.decide(seam, key) == plan.decide(seam, key)
        # and the dict survives a JSON round trip unchanged
        assert json.loads(plan.to_json()) == plan.to_dict()

    def test_unknown_seam_never_fires(self):
        plan = FaultPlan.uniform(0, (SEAM_CELL_ERROR,), 1.0)
        assert not plan.decide("no_such_seam", "k")

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SeamSpec(rate=1.5)
        with pytest.raises(ValueError):
            SeamSpec(rate=0.5, mode="sometimes")
        with pytest.raises(ValueError):
            SeamSpec(rate=0.5, burst_len=0)
        with pytest.raises(ValueError):
            SeamSpec(rate=0.5, delay_s=-1.0)


class TestFaultInjector:
    def test_one_shot_fires_once(self):
        plan = FaultPlan(seed=0, seams={
            SEAM_CELL_ERROR: SeamSpec(rate=1.0, mode="one_shot"),
        })
        injector = FaultInjector(plan)
        fired = [injector.fire(SEAM_CELL_ERROR, f"k{i}") for i in range(5)]
        assert fired == [True, False, False, False, False]

    def test_burst_fires_consecutively(self):
        plan = FaultPlan(seed=0, seams={
            SEAM_CELL_ERROR: SeamSpec(rate=1.0, mode="burst", burst_len=3),
        })
        injector = FaultInjector(plan)
        assert all(injector.fire(SEAM_CELL_ERROR, f"k{i}")
                   for i in range(3))

    def test_max_faults_caps_total(self):
        plan = FaultPlan(seed=0, seams={
            SEAM_CELL_ERROR: SeamSpec(rate=1.0, max_faults=2),
        })
        injector = FaultInjector(plan)
        fired = [injector.fire(SEAM_CELL_ERROR, f"k{i}") for i in range(5)]
        assert sum(fired) == 2
        assert injector.fired_counts() == {SEAM_CELL_ERROR: 2}

    def test_inject_raises_and_corrupt_garbles(self):
        plan = FaultPlan.uniform(0, (SEAM_CELL_ERROR, SEAM_CACHE_CORRUPT),
                                 1.0)
        injector = FaultInjector(plan)
        with pytest.raises(InjectedFault):
            injector.inject(SEAM_CELL_ERROR, "k")
        garbled = injector.corrupt(SEAM_CACHE_CORRUPT, "k", '{"a": 1}')
        with pytest.raises(json.JSONDecodeError):
            json.loads(garbled)

    def test_ledger_records_every_fire(self):
        plan = FaultPlan.uniform(0, (SEAM_CELL_ERROR,), 1.0)
        injector = FaultInjector(plan)
        injector.fire(SEAM_CELL_ERROR, "a")
        injector.fire(SEAM_CELL_ERROR, "b")
        assert injector.event_keys() == [
            (SEAM_CELL_ERROR, "a"), (SEAM_CELL_ERROR, "b"),
        ]


class TestFailureRecord:
    def test_from_exception(self):
        record = FailureRecord.from_exception(
            ValueError("boom"), seam="cell", attempt=2,
        )
        assert record.error_type == "ValueError"
        assert record.message == "boom"
        assert not record.injected

    def test_injected_flag_inferred(self):
        record = FailureRecord.from_exception(
            InjectedFault("chaos"), seam="cell",
        )
        assert record.injected

    def test_from_error_text_parses_traceback_tail(self):
        text = ("Traceback (most recent call last):\n"
                '  File "x.py", line 1, in f\n'
                "KeyError: 'missing'\n")
        record = FailureRecord.from_error_text(text, seam="cell", attempt=1)
        assert record.error_type == "KeyError"
        assert "missing" in record.message

    def test_from_error_text_empty_is_unknown(self):
        record = FailureRecord.from_error_text("", seam="cell")
        assert record.message == "unknown error"

    def test_message_is_truncated(self):
        record = FailureRecord("E", "cell", 1, "x" * 1000)
        assert len(record.message) <= 200

    def test_note_roundtrip_is_structured(self):
        record = FailureRecord("ValueError", "timeout", 3, "too slow")
        note = record.to_note(3)
        assert "quarantined after 3 attempt(s)" in note
        assert FailureRecord.is_structured_note(note)
        assert not FailureRecord.is_structured_note(
            "quarantined after 3 attempt(s): something went wrong"
        )

    def test_dict_roundtrip(self):
        record = FailureRecord("E", "pool", 2, "died", injected=True)
        assert FailureRecord.from_dict(record.as_dict()) == record


class TestJournalSeams:
    def test_torn_lines_are_injected_and_tolerated(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = CampaignJournal(path, fault_injector=FaultInjector(
            FaultPlan.uniform(0, (SEAM_JOURNAL_TORN,), 1.0)
        ))
        with journal:
            journal.open_campaign(2, fault_plan={"seed": 0, "seams": {}})
            journal.record_cell(0, "k0", _record())
            journal.record_cell(1, "k1", _record())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            state = CampaignJournal.load(path)
        # the header is exempt (it carries the plan); every cell line tore
        assert state.fault_plan == {"seed": 0, "seams": {}}
        assert state.completed == {}
        assert state.skipped_lines >= 1

    def test_durable_knob(self, tmp_path):
        journal = CampaignJournal(tmp_path / "j.jsonl", durable=False)
        assert journal.durable is False
        with journal:
            journal.open_campaign(1)
            journal.record_cell(0, "k0", _record())
        state = CampaignJournal.load(tmp_path / "j.jsonl")
        assert len(state.completed) == 1

    def test_legacy_error_string_failures_replay_structured(self, tmp_path):
        path = tmp_path / "j.jsonl"
        # a journal written before the taxonomy existed: failure events
        # carry only the raw error text
        path.write_text(
            json.dumps({"type": "campaign", "n_cells": 1}) + "\n"
            + json.dumps({
                "type": "failure", "index": 0, "key": "k0", "attempt": 1,
                "error": "Traceback ...\nRuntimeError: legacy boom",
            }) + "\n"
        )
        state = CampaignJournal.load(path)
        records = state.failure_records()
        assert len(records) == 1
        assert records[0].error_type == "RuntimeError"
        assert records[0].message == "legacy boom"

    def test_record_failure_writes_both_forms(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with CampaignJournal(path) as journal:
            journal.record_failure(0, "k0", 1, failure=FailureRecord(
                "ValueError", "cell", 1, "boom",
            ))
        event = [json.loads(line) for line in
                 path.read_text().splitlines()][0]
        assert event["failure"]["error_type"] == "ValueError"
        assert "ValueError" in event["error"]


class TestRaplDegradation:
    def test_tracker_degrades_to_estimate(self):
        def hook():
            raise RaplUnavailableError("counter gone")

        tracker = EnergyTracker(fault_hook=hook)
        tracker.start()
        report = tracker.stop()
        assert report.source == "estimated"
        assert report.kwh > 0.0   # never zero: the region still burned

    def test_healthy_tracker_reports_rapl(self):
        tracker = EnergyTracker()
        tracker.start()
        report = tracker.stop()
        assert report.source == "rapl"

    def test_estimated_contribution_taints_sums(self):
        def hook():
            raise RaplUnavailableError("gone")

        tracker = EnergyTracker(fault_hook=hook)
        tracker.start()
        estimated = tracker.stop()
        assert (ZERO_REPORT + estimated).source == "estimated"
        assert (ZERO_REPORT + ZERO_REPORT).source == "rapl"

    def test_run_single_tags_energy_source(self):
        dataset = load_dataset("kc1")
        clean = run_single("CAML", dataset, 10.0, seed=0, time_scale=0.004)
        assert clean.energy_source == "measured"

        def hook():
            raise RaplUnavailableError("counter gone")

        degraded = run_single(
            "CAML", dataset, 10.0, seed=0, time_scale=0.004,
            energy_meter=EnergyTracker(fault_hook=hook),
        )
        assert degraded.energy_source == "estimated"
        # degradation flags the record; the deterministic numbers hold
        assert degraded.execution_kwh == clean.execution_kwh
        assert degraded.execution_kwh > 0.0
        masked = {k: v for k, v in asdict(degraded).items()
                  if k != "energy_source"}
        assert masked == {k: v for k, v in asdict(clean).items()
                          if k != "energy_source"}


class TestTrialSandbox:
    def test_sandbox_records_structured_failure(self, binary_data):
        X, y = binary_data
        ev = PipelineEvaluator(X, y, random_state=0, sandbox=True)
        score, model = ev.evaluate_config({"classifier": "no-such-model"})
        assert (score, model) == (-1.0, None)
        assert len(ev.failures) == 1
        assert ev.failures[0].seam == SEAM_TRIAL_ERROR
        assert ev.failures[0].error_type
        assert ev.n_evaluations == 1   # the crash is charged, not hidden

    def test_sandbox_charges_budget(self, binary_data):
        from repro.systems.base import Deadline

        X, y = binary_data
        deadline = Deadline(100.0)
        ev = PipelineEvaluator(X, y, random_state=0, sandbox=True,
                               deadline=deadline)
        ev.evaluate_config({"classifier": "no-such-model"})
        assert deadline.elapsed() > 0.0   # crashed but still paid for

    def test_fault_hook_injects_trial_errors(self, binary_data):
        X, y = binary_data
        injector = FaultInjector(
            FaultPlan.uniform(0, (SEAM_TRIAL_ERROR,), 1.0)
        )
        calls = iter(range(100))
        ev = PipelineEvaluator(
            X, y, random_state=0, sandbox=True,
            fault_hook=lambda: injector.inject(
                SEAM_TRIAL_ERROR, f"t{next(calls)}"
            ),
        )
        score, model = ev.evaluate_config({"classifier": "gaussian_nb"})
        assert (score, model) == (-1.0, None)
        assert ev.failures[0].injected

    def test_without_sandbox_exceptions_escape(self, binary_data):
        X, y = binary_data
        ev = PipelineEvaluator(X, y, random_state=0)
        with pytest.raises(Exception):
            ev.evaluate_config({"classifier": "no-such-model"})
        assert ev.failures == []
