"""Seeded chaos campaigns: run a real grid under a fault plan and verify
the runtime's robustness invariants.

The harness runs the same small grid twice:

1. a **fault-free serial reference** (``workers=1``, no plan) — the
   ground truth every surviving cell must match bit for bit;
2. a **chaos run** (pooled by default) under a seeded
   :class:`~repro.faults.FaultPlan` arming the infrastructure seams:
   injected cell exceptions, hard worker death, stalls that trip
   ``cell_timeout_s``, corrupted cache payloads, torn journal lines and
   RAPL counter loss.

Afterwards it audits the wreckage and returns a :class:`ChaosReport`
whose named checks encode the contract chaos must never break:

- the campaign completes (every cell produces a record — no hangs);
- surviving cells are bit-identical to the reference, modulo
  ``energy_source`` (a RAPL fault legitimately flags a survivor as
  ``"estimated"``);
- every quarantined cell carries a structured
  :class:`~repro.faults.FailureRecord` note, and every journal failure
  event a structured payload;
- no worker process outlives the campaign;
- injections are accounted for: corrupted cache entries are detected on
  re-read, failure events cover the planned worker-seam faults, and the
  plan replayed from the journal header reproduces the executor's
  injected-fault ledger exactly (determinism);
- the chaos run executes with tracing on, and every cell — including
  fault-injected, timed-out and worker-killed ones — still emits a
  well-formed span tree for every submission attempt.
"""

from __future__ import annotations

import json
import os
import time
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.evalstore import EvalStore, mine_portfolio, whatif_ensemble
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import grid_cells
from repro.faults import (
    SEAM_CACHE_CORRUPT,
    SEAM_CELL_ERROR,
    SEAM_JOURNAL_TORN,
    SEAM_LEASE_EXPIRE,
    SEAM_RAPL_READ,
    SEAM_SEGMENT_TORN,
    SEAM_SHARD_DEATH,
    SEAM_SLOW_CELL,
    SEAM_STORE_CORRUPT,
    SEAM_WORKER_DEATH,
    FailureRecord,
    FaultPlan,
    SeamSpec,
)
from repro.observability import validate_span_tree
from repro.runtime.cache import ResultCache
from repro.runtime.executor import CampaignExecutor, RetryPolicy
from repro.runtime.journal import CampaignJournal, iter_journal_events
from repro.runtime.shard import (
    ShardCoordinator,
    ShardPolicy,
    canonical_state_bytes,
    coordinator_path,
    merge_journals,
    segment_path,
)

#: the infrastructure seams a chaos campaign arms by default
DEFAULT_SEAMS = (
    SEAM_CELL_ERROR,
    SEAM_WORKER_DEATH,
    SEAM_SLOW_CELL,
    SEAM_CACHE_CORRUPT,
    SEAM_JOURNAL_TORN,
    SEAM_RAPL_READ,
    SEAM_STORE_CORRUPT,
)

#: seams whose firing makes one (cell, attempt) submission fail
_WORKER_FAIL_SEAMS = (SEAM_CELL_ERROR, SEAM_WORKER_DEATH, SEAM_SLOW_CELL)


def default_chaos_config(n_runs: int = 5) -> ExperimentConfig:
    """2 systems x 2 datasets x 1 budget x ``n_runs`` = 20 cells by
    default: big enough to exercise every seam, small enough for CI."""
    return ExperimentConfig(
        systems=("CAML", "FLAML"),
        datasets=("credit-g", "kc1"),
        budgets=(10.0,),
        n_runs=n_runs,
        time_scale=0.005,
    )


@dataclass(frozen=True)
class ChaosCheck:
    """One named invariant with its verdict and evidence."""

    name: str
    ok: bool
    detail: str


@dataclass
class ChaosReport:
    """Everything one seeded chaos campaign produced and verified.

    ``subsystem`` names the layer under test (``"runtime"`` for the
    campaign executor, ``"serving"`` for the prediction server's chaos
    harness, which reuses this report shape with cells = requests).
    """

    seed: int
    workers: int
    n_cells: int
    survivors: int
    quarantined: int
    fault_counts: dict[str, int] = field(default_factory=dict)
    checks: list[ChaosCheck] = field(default_factory=list)
    subsystem: str = "runtime"
    #: what one "cell" is for this subsystem (rendering only)
    unit: str = "cell"

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    def render(self) -> str:
        faults = ", ".join(
            f"{seam}={count}"
            for seam, count in sorted(self.fault_counts.items())
        ) or "none"
        lines = [
            f"{self.subsystem} chaos seed {self.seed}: "
            f"{self.n_cells} {self.unit}s, "
            f"{self.workers} worker(s), {self.survivors} survived, "
            f"{self.quarantined} quarantined",
            f"  injected faults: {faults}",
        ]
        for check in self.checks:
            mark = "PASS" if check.ok else "FAIL"
            lines.append(f"  [{mark}] {check.name}: {check.detail}")
        return "\n".join(lines)


def _identity(record) -> tuple:
    return (record.system, record.dataset,
            record.configured_seconds, record.seed)


def _masked(record) -> dict:
    """A record's payload with the measurement-channel flag removed: a
    RAPL fault changes ``energy_source``, nothing else may differ."""
    payload = asdict(record)
    payload.pop("energy_source", None)
    return payload


def _replay_ledger(plan: FaultPlan, keys) -> list[tuple[str, str]]:
    """Re-derive the worker-seam fault ledger from a plan and the set of
    submission keys, mirroring the executor's short-circuit order."""
    events = []
    for key in sorted(keys):
        if plan.decide(SEAM_WORKER_DEATH, key):
            events.append((SEAM_WORKER_DEATH, key))
            continue
        if plan.decide(SEAM_SLOW_CELL, key):
            events.append((SEAM_SLOW_CELL, key))
        if plan.decide(SEAM_CELL_ERROR, key):
            events.append((SEAM_CELL_ERROR, key))
            continue
        if plan.decide(SEAM_RAPL_READ, key):
            events.append((SEAM_RAPL_READ, key))
    return sorted(events)


def _reread_corrupted(store, keys) -> tuple[list[str], int]:
    """Re-read the keys a corruption seam garbled, through the store's
    own ``get``: returns the keys still served and the store's
    ``corrupt`` counter delta.  Every garbled entry must read as a
    counted miss, so both must account for every key."""
    before = store.stats.corrupt
    with warnings.catch_warnings():
        # the corruption warnings are the point here, not operator news
        warnings.simplefilter("ignore")
        served = [key for key in keys if store.get(key) is not None]
    return served, store.stats.corrupt - before


def _await_worker_exit(pids, deadline_s: float = 3.0) -> list[int]:
    """Pids still alive after the campaign (briefly polled: the executor
    kills and joins its workers, this only absorbs the reap latency)."""
    remaining = set(pids)
    waited = 0.0
    while remaining and waited < deadline_s:
        remaining = {pid for pid in remaining if _alive(pid)}
        if remaining:
            time.sleep(0.05)   # repro-lint: disable=GRN004
            waited += 0.05
    return sorted(remaining)


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        return True
    return True


def run_chaos_campaign(
    seed: int,
    work_dir,
    *,
    workers: int = 2,
    rate: float = 0.15,
    delay_s: float = 2.0,
    cell_timeout_s: float = 1.0,
    max_retries: int = 3,
    config: ExperimentConfig | None = None,
    progress=None,
) -> ChaosReport:
    """Run one seeded chaos campaign + reference and audit the result."""
    config = config or default_chaos_config()
    work_dir = Path(work_dir)
    cells = grid_cells(config)

    # 1. the fault-free serial reference: ground truth for survivors
    reference = CampaignExecutor(workers=1).run(cells)
    ref_by_id = {_identity(r): r for r in reference.records}

    # 2. the chaos run
    plan = FaultPlan.uniform(
        seed, DEFAULT_SEAMS, rate, delay_s=delay_s,
    )
    cache = ResultCache(work_dir / "cache")
    eval_store = EvalStore(work_dir / "evalstore")
    journal_path = work_dir / "journal.jsonl"
    journal = CampaignJournal(journal_path)
    policy = RetryPolicy(
        max_retries=max_retries,
        cell_timeout_s=cell_timeout_s if workers > 1 else None,
    )
    executor = CampaignExecutor(
        workers=workers, cache=cache, journal=journal,
        policy=policy, fault_plan=plan, progress_callback=progress,
        trace=True, eval_store=eval_store,
    )
    store = executor.run(cells)

    report = ChaosReport(
        seed=seed, workers=workers, n_cells=len(cells),
        survivors=sum(1 for r in store.records if not r.failed),
        quarantined=sum(1 for r in store.records if r.failed),
        fault_counts=executor.fault_counts,
    )
    check = report.checks.append

    # -- completion -----------------------------------------------------------
    check(ChaosCheck(
        "completes", len(store) == len(cells),
        f"{len(store)}/{len(cells)} cells produced a record",
    ))

    # -- survivors bit-identical to the reference -----------------------------
    mismatched = [
        r.system + "/" + r.dataset + f"/s{r.seed}"
        for r in store.records
        if not r.failed and _masked(r) != _masked(ref_by_id[_identity(r)])
    ]
    check(ChaosCheck(
        "survivors-bit-identical",
        not mismatched and report.survivors > 0,
        (f"{report.survivors} survivor(s) match the fault-free serial "
         f"reference (modulo energy_source)"
         if not mismatched else f"mismatched cells: {mismatched}"),
    ))

    # -- quarantine notes are structured --------------------------------------
    unstructured = [
        r.note for r in store.records
        if r.failed and not FailureRecord.is_structured_note(r.note)
    ]
    check(ChaosCheck(
        "structured-quarantine", not unstructured,
        (f"{report.quarantined} quarantine note(s) all carry the "
         f"[seam] ErrorType taxonomy"
         if not unstructured else f"unstructured notes: {unstructured}"),
    ))

    # -- journal failure events are structured --------------------------------
    with warnings.catch_warnings():
        # torn lines are injected here on purpose; the load-time warning
        # is for real campaigns, not the audit
        warnings.simplefilter("ignore")
        state = CampaignJournal.load(journal_path)
    bare = [event for event in state.failures
            if not isinstance(event.get("failure"), dict)]
    check(ChaosCheck(
        "structured-journal-failures", not bare,
        f"{len(state.failures)} journal failure event(s), "
        f"{len(bare)} without a structured payload",
    ))

    # -- no leaked worker processes -------------------------------------------
    pids = set(executor.tracker.workers) - {os.getpid()}
    leaked = _await_worker_exit(pids)
    check(ChaosCheck(
        "no-leaked-workers", not leaked,
        (f"all {len(pids)} worker pid(s) exited"
         if not leaked else f"still alive: {leaked}"),
    ))

    # -- fault accounting -----------------------------------------------------
    ledger = list(executor.fault_events)
    parent = getattr(executor, "_parent_injector", None)
    parent_events = parent.event_keys() if parent is not None else []

    corrupt_keys = {key for seam, key in parent_events
                    if seam == SEAM_CACHE_CORRUPT}
    undetected, detected = _reread_corrupted(cache, corrupt_keys)
    check(ChaosCheck(
        "cache-corruption-detected",
        not undetected and detected == len(corrupt_keys),
        f"{detected}/{len(corrupt_keys)} corrupted cache entries "
        f"re-read as misses (corrupt_entries counter agrees)",
    ))

    # -- store corruption degrades to warned misses, queries survive ----------
    # every garbled evaluation-store payload must re-read as a counted
    # miss, and the query layer (what-if replay, portfolio mining) must
    # keep answering from the surviving records — corruption thins the
    # pool, it never poisons a query
    store_corrupt_keys = {key for seam, key in parent_events
                          if seam == SEAM_STORE_CORRUPT}
    store_undetected, store_detected = _reread_corrupted(
        eval_store, store_corrupt_keys,
    )
    query_error = ""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            surviving = eval_store.records()
            mine_portfolio(surviving, size=4)
            # pool per (cell, validation split): systems that resample
            # validation per trial (CAML) yield mixed-split cells, which
            # what-if legitimately refuses — same-split pools must work
            pools: dict[tuple, list] = {}
            for record in surviving:
                if record.kept:
                    pools.setdefault(
                        (record.cell_key, tuple(record.y_val)), []
                    ).append(record)
            for pool in pools.values():
                whatif_ensemble(pool, top_k=5)
    except Exception as exc:   # any query failure fails the invariant
        query_error = f"{type(exc).__name__}: {exc}"
    check(ChaosCheck(
        "store-corruption-degrades",
        not store_undetected
        and store_detected == len(store_corrupt_keys)
        and not query_error,
        (f"{store_detected}/{len(store_corrupt_keys)} corrupted store "
         f"entries re-read as warned misses; what-if and portfolio "
         f"queries answered from {len(surviving)} surviving record(s)"
         if not query_error
         else f"store query failed after corruption: {query_error}"),
    ))

    torn_failures = sum(
        1 for seam, key in parent_events
        if seam == SEAM_JOURNAL_TORN and key.startswith("failure:")
    )
    fail_seams = (_WORKER_FAIL_SEAMS if workers > 1
                  else (SEAM_CELL_ERROR, SEAM_WORKER_DEATH))
    expected_keys = {key for seam, key in ledger if seam in fail_seams}
    check(ChaosCheck(
        "failures-accounted",
        len(state.failures) + torn_failures >= len(expected_keys),
        f"{len(state.failures)} journal failure event(s) + "
        f"{torn_failures} torn line(s) cover {len(expected_keys)} "
        f"planned fault key(s)",
    ))

    estimated = [r for r in store.records
                 if not r.failed and r.energy_source == "estimated"]
    rapl_labels = {key.rsplit("#a", 1)[0] for seam, key in ledger
                   if seam == SEAM_RAPL_READ}
    unexplained = [
        label for label in (
            f"{r.system}|{r.dataset}|{r.configured_seconds:g}s"
            f"|seed={r.seed}" for r in estimated
        )
        if label not in rapl_labels
    ]
    check(ChaosCheck(
        "rapl-degradation-tagged", not unexplained,
        f"{len(estimated)} survivor(s) tagged energy_source=estimated, "
        f"all with a planned rapl_read fault",
    ))

    # -- determinism: the journal header replays the exact ledger -------------
    header_plan = (FaultPlan.from_dict(state.fault_plan)
                   if state.fault_plan else None)
    replayed = (_replay_ledger(header_plan, executor._planned)
                if header_plan is not None else None)
    check(ChaosCheck(
        "deterministic-plan",
        replayed is not None and replayed == sorted(ledger),
        ("the plan recovered from the journal header replays the "
         f"injected-fault ledger exactly ({len(ledger)} event(s))"
         if replayed == sorted(ledger)
         else "journal-header plan does not reproduce the ledger"),
    ))

    # -- span integrity under fire --------------------------------------------
    # every submission attempt of every cell must have produced a
    # well-formed span tree, no matter which seam fired on it.  The
    # in-memory ledger is authoritative (journalled spans lines can be
    # legitimately torn by the journal seam); whatever did survive in
    # the journal must validate too.
    problems = [
        problem
        for event in list(executor.cell_spans) + state.spans
        for root in event.get("spans", ())
        for problem in validate_span_tree(root)
    ]
    spanned = {event["index"] for event in executor.cell_spans}
    unspanned = len(cells) - len(spanned)
    check(ChaosCheck(
        "span-integrity",
        not problems and unspanned == 0 and bool(executor.cell_spans),
        (f"{len(executor.cell_spans)} span tree(s) over "
         f"{len(spanned)}/{len(cells)} cells, all well-formed"
         if not problems
         else f"malformed span trees: {problems[:5]}"),
    ))

    # -- coverage: the campaign actually hurt ---------------------------------
    seams_fired = {seam for seam, _ in ledger + parent_events}
    hurt_labels = {key.rsplit("#a", 1)[0] for _, key in ledger}
    check(ChaosCheck(
        "fault-coverage",
        len(seams_fired) >= 4 and len(hurt_labels) >= len(cells) // 10,
        f"{len(seams_fired)} seam(s) fired across "
        f"{len(hurt_labels)}/{len(cells)} cells",
    ))
    return report


def shard_chaos_plan(seed: int, torn_rate: float = 0.4) -> FaultPlan:
    """The shard-seam plan: exactly one whole-shard death and one lease
    expiry per campaign (``one_shot``), plus bernoulli segment tears.
    No cell-level seams — the headline invariant is *absolute*
    bit-identity of the merged result to the fault-free reference."""
    return FaultPlan(seed=seed, seams={
        SEAM_SHARD_DEATH: SeamSpec(rate=1.0, mode="one_shot"),
        SEAM_LEASE_EXPIRE: SeamSpec(rate=1.0, mode="one_shot"),
        SEAM_SEGMENT_TORN: SeamSpec(rate=torn_rate),
    })


def _torn_tails(paths) -> int:
    """How many of ``paths`` end in an unparseable (torn) final line —
    the tears :func:`iter_journal_events` silently drops."""
    tails = 0
    for path in paths:
        path = Path(path)
        if not path.exists():
            continue
        lines = [line for line
                 in path.read_text(encoding="utf-8").splitlines()
                 if line.strip()]
        if not lines:
            continue
        try:
            json.loads(lines[-1])["type"]
        except (json.JSONDecodeError, KeyError, TypeError):
            tails += 1
    return tails


def run_shard_chaos_campaign(
    seed: int,
    work_dir,
    *,
    shards: int = 3,
    workers: int = 2,
    lease_timeout_s: float = 1.5,
    config: ExperimentConfig | None = None,
    progress=None,
) -> ChaosReport:
    """Kill a whole shard mid-campaign and prove nothing was lost.

    Runs the grid twice: a fault-free **serial single-journal
    reference**, then a sharded campaign under
    :func:`shard_chaos_plan` (one shard group dies mid-batch, one shard
    wedges past its lease and straggles back as a fenced zombie,
    segment lines tear at random).  The audit asserts the headline
    invariant — the deterministically merged journal is **bit-identical**
    to the reference — plus the fencing ledger: every orphan reassigned
    exactly once per fence, every fenced duplicate counted, every torn
    line accounted for, no worker process leaked.
    """
    config = config or default_chaos_config()
    work_dir = Path(work_dir)
    cells = grid_cells(config)

    # 1. the fault-free serial single-journal reference
    ref_path = work_dir / "reference.jsonl"
    CampaignExecutor(
        workers=1, journal=CampaignJournal(ref_path),
    ).run(cells)
    ref_bytes = canonical_state_bytes(
        CampaignJournal.load(ref_path), mask_energy_source=True,
    )

    # 2. the sharded chaos run
    plan = shard_chaos_plan(seed)
    cache = ResultCache(work_dir / "cache")
    merged_path = work_dir / "campaign.jsonl"
    coordinator = ShardCoordinator(
        shards=shards, workers=workers, cache=cache,
        journal_path=merged_path,
        policy=RetryPolicy(max_retries=2),
        shard_policy=ShardPolicy(
            batch_size=2, lease_timeout_s=lease_timeout_s,
            poll_interval_s=0.05,
        ),
        fault_plan=plan, progress_callback=progress,
    )
    store = coordinator.run(cells)
    merged = coordinator.merged

    report = ChaosReport(
        seed=seed, workers=shards * workers, n_cells=len(cells),
        survivors=sum(1 for r in store.records if not r.failed),
        quarantined=sum(1 for r in store.records if r.failed),
        fault_counts=coordinator.fault_counts,
        subsystem="shard",
    )
    check = report.checks.append

    def counter(name: str) -> int:
        return int(coordinator.metrics.counter(name).value)

    # -- completion -----------------------------------------------------------
    completed = len(coordinator.last_results)
    check(ChaosCheck(
        "completes", completed == len(cells),
        f"{completed}/{len(cells)} cells resolved "
        f"(records + budget skips)",
    ))

    # -- the headline: merged == fault-free serial reference ------------------
    merged_bytes = canonical_state_bytes(
        merged.state, mask_energy_source=True,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        replayed_bytes = canonical_state_bytes(
            CampaignJournal.load(merged_path), mask_energy_source=True,
        )
    check(ChaosCheck(
        "merged-bit-identical",
        merged_bytes == ref_bytes and replayed_bytes == ref_bytes,
        ("the merged journal state and its written replay both "
         "bit-match the serial reference (modulo energy_source)"
         if merged_bytes == ref_bytes == replayed_bytes
         else "merged state diverged from the serial reference"),
    ))

    # -- a whole shard actually died, and was fenced --------------------------
    deaths = counter("shard.deaths")
    injected_deaths = report.fault_counts.get(SEAM_SHARD_DEATH, 0)
    check(ChaosCheck(
        "shard-death-fenced",
        injected_deaths >= 1 and deaths >= injected_deaths,
        f"{injected_deaths} injected death(s), {deaths} dead shard(s) "
        f"fenced by the monitor",
    ))

    # -- a lease expired, the zombie straggled, the shard resurrected ---------
    expiries = counter("shard.lease_expiries")
    resurrections = counter("shard.resurrections")
    injected_wedges = report.fault_counts.get(SEAM_LEASE_EXPIRE, 0)
    check(ChaosCheck(
        "lease-expiry-resurrected",
        injected_wedges >= 1 and expiries >= injected_wedges
        and resurrections >= injected_wedges,
        f"{injected_wedges} injected wedge(s), {expiries} lease "
        f"expiry fence(s), {resurrections} epoch resurrection(s)",
    ))

    # -- every orphan reassigned exactly once per fence -----------------------
    fence_moves = [entry for entry in coordinator.reassignments
                   if entry["reason"] != "steal"]
    seen: dict[tuple, int] = {}
    for entry in fence_moves:
        origin = (entry["index"], entry["from_shard"],
                  entry["from_epoch"])
        seen[origin] = seen.get(origin, 0) + 1
    doubled = {origin: n for origin, n in seen.items() if n != 1}
    check(ChaosCheck(
        "orphans-exactly-once",
        bool(fence_moves) and not doubled,
        (f"{len(fence_moves)} orphan(s) reassigned exactly once per "
         f"(cell, fenced shard, fenced epoch)"
         if not doubled else f"double reassignments: {doubled}"),
    ))

    # -- fenced duplicates counted, and the count recomputes ------------------
    segments = [coordinator_path(merged_path),
                *(segment_path(merged_path, s.id)
                  for s in coordinator._shards)]
    events = []
    for path in segments:
        events.extend(iter_journal_events(path)[0])
    fenced_epochs = set(merged.fenced_epochs)
    by_key: dict[str, list[dict]] = {}
    for event in events:
        if event.get("type") in ("cell", "skip") and "key" in event:
            by_key.setdefault(event["key"], []).append(event)
    recount = 0
    for candidates in by_key.values():
        fenced_here = [
            c for c in candidates
            if isinstance(c.get("shard"), int)
            and (c["shard"], int(c.get("epoch", 0))) in fenced_epochs
        ]
        if len(fenced_here) < len(candidates):
            recount += len(fenced_here)      # a live commit won
        else:
            recount += max(0, len(fenced_here) - 1)
    check(ChaosCheck(
        "fenced-commits-counted",
        merged.fenced_commits >= 1
        and merged.fenced_commits == recount,
        f"{merged.fenced_commits} fenced duplicate commit(s), "
        f"independent recount {recount}",
    ))

    # -- every torn segment line accounted ------------------------------------
    injected_tears = report.fault_counts.get(SEAM_SEGMENT_TORN, 0)
    tails = _torn_tails(segments)
    accounted = merged.state.skipped_lines + tails
    check(ChaosCheck(
        "torn-segments-accounted",
        accounted == injected_tears,
        f"{injected_tears} injected tear(s) = "
        f"{merged.state.skipped_lines} skipped line(s) + "
        f"{tails} torn tail(s)",
    ))

    # -- the merge is order-independent ---------------------------------------
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        shuffled = merge_journals(list(reversed(segments)))
    check(ChaosCheck(
        "merge-order-independent",
        shuffled.canonical_bytes() == merged.canonical_bytes(),
        "re-merging the segments in reverse order reproduces the "
        "canonical journal byte for byte",
    ))

    # -- no leaked worker processes -------------------------------------------
    pids = set(coordinator.tracker.workers) - {os.getpid()}
    leaked = _await_worker_exit(pids)
    check(ChaosCheck(
        "no-leaked-workers", not leaked,
        (f"all {len(pids)} worker pid(s) across every shard pool "
         f"exited" if not leaked else f"still alive: {leaked}"),
    ))
    return report
