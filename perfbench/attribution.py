"""The benchmark's arithmetic: self times, layer shares, percentiles,
fastest repeats, modelled CPU energy and metric-name rules.

Everything here is a pure function of span records (see
:mod:`probes`), sample lists or ``resource`` usage snapshots, so the
tests in ``test_perfbench.py`` pin it without running a workload.
"""

from __future__ import annotations

import re

import numpy as np

from probes import FAMILIES

#: layers a span name can belong to: its prefix before the first dot
LAYERS = (
    "datasets", "energy", "ensemble", "evalstore", "experiments", "hpo",
    "models", "pipeline", "preprocessing", "runtime", "serving", "systems",
)

#: the percentiles a tail summary may report, lowest first
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9)
#: samples a percentile needs beyond it before it is reported
MIN_TAIL_SAMPLES = 10

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def valid_metric_name(name: str) -> bool:
    return bool(_NAME.match(name))


def valid_unit(unit: str) -> bool:
    return bool(_UNIT.match(unit))


# -- span trees ------------------------------------------------------------

def self_times(records) -> list[float]:
    """Duration of each span minus the time its direct children cover.

    Records come from one thread, so children nest strictly inside their
    parent and their durations add up to the covered time.
    """
    covered = [0.0] * len(records)
    for name, t0, t1, parent, *_ in records:
        if parent >= 0:
            covered[parent] += t1 - t0
    return [(r[2] - r[1]) - covered[i] for i, r in enumerate(records)]


def root_of(records) -> list[int]:
    """Index of each record's root span (parents precede children)."""
    roots: list[int] = []
    for i, record in enumerate(records):
        parent = record[3]
        roots.append(i if parent < 0 else roots[parent])
    return roots


def layer_of(name: str) -> str:
    layer = name.split(".", 1)[0]
    return layer if layer in LAYERS else "other"


def layer_shares(records, root: int) -> dict[str, float]:
    """Each layer's share of the root span's wall time, by self time.

    The root's own self time — code outside every wrapper — is the
    unattributed remainder, reported as ``other``.
    """
    total = records[root][2] - records[root][1]
    selfs = self_times(records)
    roots = root_of(records)
    shares = {layer: 0.0 for layer in LAYERS}
    shares["other"] = 0.0
    for i, record in enumerate(records):
        if roots[i] != root:
            continue
        layer = "other" if i == root else layer_of(record[0])
        shares[layer] += selfs[i]
    return {k: (v / total if total > 0 else 0.0) for k, v in shares.items()}


class SpanTable:
    """Per-name aggregates over the spans under one or more roots."""

    def __init__(self, records, roots):
        selfs = self_times(records)
        owner = root_of(records)
        keep = set(roots)
        self.records = [r for i, r in enumerate(records)
                        if owner[i] in keep and i not in keep]
        self.selfs = [s for i, s in enumerate(selfs)
                      if owner[i] in keep and i not in keep]

    def _match(self, prefix: str):
        for record, own in zip(self.records, self.selfs):
            name = record[0]
            if name == prefix or name.startswith(prefix + "."):
                yield record, own

    def count(self, prefix: str) -> int:
        return sum(1 for _ in self._match(prefix))

    def inclusive(self, prefix: str) -> float:
        return float(sum(r[2] - r[1] for r, _ in self._match(prefix)))

    def self_time(self, prefix: str) -> float:
        return float(sum(own for _, own in self._match(prefix)))

    def durations(self, prefix: str) -> list[float]:
        return [r[2] - r[1] for r, _ in self._match(prefix)]

    def values(self, prefix: str) -> list:
        return [r[5] for r, _ in self._match(prefix)]


def charged_by_family(records) -> dict[str, float]:
    """Charged simulated seconds per model family.

    Every ``Deadline.charge`` is booked to the family of the latest
    ``estimate_fit_seconds`` call before it: the evaluator charges the
    estimate it just made, and AutoGluon charges ``n_folds`` times its
    per-fold estimate.  Estimates made only to project a cost (CAML's
    rung guard) are never followed by their own charge and book nothing.
    """
    charged = {family: 0.0 for family in FAMILIES}
    family = "other"
    for name, _, _, _, _, value in records:
        if name == "energy.estimate_fit" and value is not None:
            family = value[0]
        elif name == "systems.charge" and value is not None:
            charged[family] += float(value)
    return charged


# -- samples ------------------------------------------------------------------

def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ``MIN_TAIL_SAMPLES``
    samples beyond it (the median when none qualifies)."""
    best = PERCENTILE_LADDER[0]
    for q in PERCENTILE_LADDER[1:]:
        # the tolerance absorbs float error in 100 - q (99.9 is inexact)
        if n * (100.0 - q) / 100.0 >= MIN_TAIL_SAMPLES - 1e-9:
            best = q
    return best


def percentile(values, q: float) -> tuple[float, float]:
    """``(value, used_q)``: the ``q``-th percentile, or the highest
    supported one when ``q`` has fewer than ``MIN_TAIL_SAMPLES`` samples
    beyond it."""
    if len(values) == 0:
        return 0.0, q
    used = min(q, tail_percentile(len(values)))
    return float(np.percentile(np.asarray(values, dtype=float), used)), used


def fastest(runs, measure, parts=None) -> float:
    """Sum over the parts of a timed phase of each part's smallest
    ``measure`` among the repeated runs.

    Each run has ``parts``, a dict of part name -> part; ``parts`` picks
    some of them (all by default).  Contention from other tenants only
    ever adds time, so the least disturbed repeat of a part is its
    fastest one, and short parts are more often undisturbed than the
    whole phase.
    """
    if not runs:
        return 0.0
    names = list(runs[0].parts) if parts is None else parts
    return float(sum(min(measure(run.parts[name]) for run in runs)
                     for name in names))


# -- resources ----------------------------------------------------------------

def cpu_seconds(before, after) -> float:
    """CPU seconds between two ``(self, children)`` rusage snapshots."""
    total = 0.0
    for b, a in zip(before, after):
        total += (a.ru_utime - b.ru_utime) + (a.ru_stime - b.ru_stime)
    return total


def cpu_energy_j(before, after, watts: float) -> float:
    """CPU seconds × single-core power: the CPU-time model
    ``repro.energy.rapl.RaplCounter`` uses, extended to reaped children."""
    return cpu_seconds(before, after) * watts


def peak_rss_mb(snapshot) -> float:
    """Larger ``ru_maxrss`` of the process and its children (KiB on
    Linux) in MB."""
    own, children = snapshot
    return max(own.ru_maxrss, children.ru_maxrss) / 1024.0
