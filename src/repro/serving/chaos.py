"""Chaos harness for the serving layer.

Same discipline as :mod:`repro.runtime.chaos`, pointed at the serving
stack: run a seeded loadtest under a :class:`~repro.faults.FaultPlan`
arming the two serving seams —

- ``artifact_corrupt`` garbles stored payload bytes at export time, so
  load-time digest verification must catch the damage and serving must
  degrade to surviving variants (and recover the casualties by
  re-exporting from the still-fitted model);
- ``request_timeout`` stalls individual served requests past their
  deadline, so timeout accounting and the no-request-unanswered
  guarantee are exercised.

The audit reuses :class:`~repro.runtime.chaos.ChaosCheck` /
:class:`~repro.runtime.chaos.ChaosReport` (one report shape for every
subsystem) and encodes the serving contract:

- every submitted request gets exactly one response, every status is
  from the known taxonomy (nothing hangs, nothing is dropped);
- every corrupted artifact is detected (digest mismatch counted, read
  as a miss) and recovered by a clean re-export — never served;
- every non-ok response and every injected fault carries a structured
  :class:`~repro.faults.FailureRecord`;
- the same plan + seed replays to a byte-identical bench report
  (determinism under fire);
- every request's span tree is well-formed in the ``sim`` clock domain.
"""

from __future__ import annotations

import warnings
from pathlib import Path

from repro.faults import (
    SEAM_ARTIFACT_CORRUPT,
    SEAM_REQUEST_TIMEOUT,
    FailureRecord,
    FaultInjector,
    FaultPlan,
    SeamSpec,
)
from repro.observability import MetricsRegistry, validate_span_tree
from repro.runtime.chaos import ChaosCheck, ChaosReport
from repro.serving.artifacts import export_system
from repro.serving.loadgen import LoadProfile, generate_requests
from repro.serving.router import SLORouter
from repro.serving.server import (
    KNOWN_STATUSES,
    STATUS_OK,
    PredictionServer,
)
from repro.serving.bench import prepare_artifacts, summarise_responses

#: the serving seams a chaos run arms by default
SERVING_SEAMS = (SEAM_ARTIFACT_CORRUPT, SEAM_REQUEST_TIMEOUT)


def _run_once(artifacts, profile, plan, *, seed, target_j_per_pred,
              n_slots):
    """One seeded chaos loadtest with a fresh injector off ``plan``."""
    injector = FaultInjector(plan)
    registry = MetricsRegistry()
    router = SLORouter(artifacts, target_j_per_pred=target_j_per_pred,
                       registry=registry)
    server = PredictionServer(
        router, n_slots=n_slots, execute_predictions=True,
        span_sample_every=1, fault_injector=injector,
        registry=registry,
    )
    requests = generate_requests(profile, random_state=seed)
    responses = server.process(requests)
    report = summarise_responses(
        responses, seed=seed, n_batches=server.n_batches, router=router,
    )
    return report, responses, server, injector


def run_serving_chaos(
    seed: int,
    work_dir,
    *,
    system: str = "CAML",
    dataset: str = "credit-g",
    budget_s: float = 10.0,
    n_requests: int = 2000,
    rate: float = 0.03,
    delay_s: float = 2.0,
    target_j_per_pred: float | None = None,
    n_slots: int = 2,
) -> ChaosReport:
    """Run one seeded serving chaos campaign and audit the wreckage."""
    work_dir = Path(work_dir)
    # artifact_corrupt is one_shot at rate 1: with only a handful of
    # variant exports, bernoulli sampling would usually hurt nothing;
    # one guaranteed corruption per run is the deterministic worst case
    # that still leaves survivors.  request_timeout stays bernoulli over
    # the thousands of request keys.
    plan = FaultPlan(seed=seed, seams={
        SEAM_ARTIFACT_CORRUPT: SeamSpec(rate=1.0, mode="one_shot"),
        SEAM_REQUEST_TIMEOUT: SeamSpec(rate=rate, delay_s=delay_s),
    })

    # 1. export under the artifact_corrupt seam: some payloads are
    #    garbled on disk, load must detect every one of them
    export_injector = FaultInjector(plan)
    with warnings.catch_warnings():
        # corruption warnings are the *point* here, not operator news
        warnings.simplefilter("ignore")
        artifacts, dropped, ds, store = prepare_artifacts(
            work_dir / "artifacts", system=system, dataset=dataset,
            budget_s=budget_s, seed=seed,
            fault_injector=export_injector,
        )
    corrupt_fired = [key for s, key in export_injector.event_keys()
                     if s == SEAM_ARTIFACT_CORRUPT]
    detected = store.stats.corrupt

    # 2. recovery: re-export the casualties cleanly (the model is still
    #    fitted in memory — a replica would re-pull from the training
    #    tier the same way), so serving runs on verified variants only
    recovered = []
    if dropped:
        store.fault_injector = None
        manifests = export_system(store, _refit_stub(ds, system, seed,
                                                     budget_s),
                                  ds, random_state=seed)
        for variant in dropped:
            loaded = store.load(manifests[variant].artifact_id)
            if loaded is not None:
                artifacts[variant] = loaded
                recovered.append(variant)

    # 3. the chaos loadtest (request_timeout armed), twice for replay
    profile = LoadProfile(n_requests=n_requests, deadline_fraction=1.0,
                          deadline_s=delay_s / 2.0)
    report_a, responses, server, injector = _run_once(
        artifacts, profile, plan, seed=seed,
        target_j_per_pred=target_j_per_pred, n_slots=n_slots,
    )
    report_b, _, _, _ = _run_once(
        artifacts, profile, plan, seed=seed,
        target_j_per_pred=target_j_per_pred, n_slots=n_slots,
    )

    stalled = {key for s, key in injector.event_keys()
               if s == SEAM_REQUEST_TIMEOUT}
    n_ok = sum(1 for r in responses if r.status == STATUS_OK)
    report = ChaosReport(
        seed=seed, workers=n_slots, n_cells=len(responses),
        survivors=n_ok, quarantined=len(responses) - n_ok,
        fault_counts={
            **export_injector.fired_counts(), **injector.fired_counts(),
        },
        subsystem="serving", unit="request",
    )
    check = report.checks.append

    # -- every request answered, with a known status --------------------------
    ids = sorted(r.request_id for r in responses)
    unknown = [r.status for r in responses
               if r.status not in KNOWN_STATUSES]
    check(ChaosCheck(
        "every-request-answered",
        ids == list(range(n_requests)) and not unknown,
        f"{len(responses)}/{n_requests} requests answered exactly once"
        + ("" if not unknown else f"; unknown statuses: {unknown[:5]}"),
    ))

    # -- corruption detected, dropped, recovered ------------------------------
    check(ChaosCheck(
        "artifact-corruption-detected",
        detected >= len(corrupt_fired) and sorted(dropped) == sorted(
            set(dropped)) and len(recovered) == len(dropped),
        f"{len(corrupt_fired)} corrupted export(s), {detected} digest "
        f"failure(s) detected, {len(dropped)} variant(s) dropped and "
        f"{len(recovered)} recovered by clean re-export",
    ))

    # -- structured failures ---------------------------------------------------
    bad = [
        r.request_id for r in responses
        if (r.status != STATUS_OK and (
            r.failure is None
            or not FailureRecord.is_structured_note(r.failure.to_note())
        ))
    ]
    unflagged = [
        key for key in stalled
        if not any(f"req:{r.request_id}" == key and r.failure is not None
                   and r.failure.injected for r in responses)
    ]
    check(ChaosCheck(
        "structured-failures", not bad and not unflagged,
        f"{report.quarantined} non-ok response(s) all carry structured "
        f"FailureRecords; {len(stalled)} injected stall(s) all flagged "
        f"injected=true"
        + ("" if not bad and not unflagged
           else f"; bad={bad[:5]} unflagged={unflagged[:5]}"),
    ))

    # -- determinism under fire ------------------------------------------------
    check(ChaosCheck(
        "deterministic-replay",
        report_a.to_json() == report_b.to_json(),
        "two runs of the same plan+seed produce byte-identical "
        "BENCH_serving reports"
        if report_a.to_json() == report_b.to_json()
        else "replayed report differs from the first run",
    ))

    # -- span integrity --------------------------------------------------------
    problems = [p for root in server.spans
                for p in validate_span_tree(root)]
    spanned = {root["attrs"]["id"] for root in server.spans}
    check(ChaosCheck(
        "span-integrity",
        not problems and len(spanned) == n_requests,
        f"{len(server.spans)} request span tree(s) over "
        f"{len(spanned)}/{n_requests} requests, all well-formed"
        if not problems else f"malformed spans: {problems[:5]}",
    ))

    # -- coverage: the campaign actually hurt ----------------------------------
    check(ChaosCheck(
        "fault-coverage",
        bool(corrupt_fired) and bool(stalled),
        f"artifact_corrupt fired {len(corrupt_fired)}x, "
        f"request_timeout fired {len(stalled)}x",
    ))
    return report


def _refit_stub(ds, system, seed, budget_s):
    """Re-fit the campaign winner for the recovery re-export.

    Deliberately a fresh deterministic fit (same seed, simulated budget
    clock) rather than a cached object: recovery must work from the
    training tier alone, exactly as a replica that lost its artifact
    cache would.
    """
    from repro.systems import make_system

    automl = make_system(system, random_state=seed, time_scale=0.01)
    automl.fit(ds.X_train, ds.y_train, budget_s=budget_s,
               categorical_mask=ds.categorical_mask)
    return automl
