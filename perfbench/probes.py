"""Timing wrappers around the public functions of each ``src/repro`` layer.

The benchmark attributes time from the outside: :class:`Probes` swaps
each named function or method for a wrapper that opens a span on a
:class:`SpanLog`, calls the original and closes the span.  Nothing in
``src/repro`` is edited.  :meth:`Probes.uninstall` puts every original
object back, so a run after it is untraced.

A span record is a list ``[name, t0, t1, parent, tag, value]``:
``parent`` is the index of the enclosing record (``-1`` for a root),
``tag`` the cell or pass id the span belongs to, and ``value`` an
optional payload a probe extracts from the call (a score, a row count,
charged seconds).  The workload tags its passes; the ``run_single``
probe tags each cell and every span under it.

Estimator fits are attributed to the outermost estimator: while one
estimator span is open, nested estimator fits (the trees of a forest,
the stages of a boosting model) run unwrapped, so no time is counted
twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import statistics
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.energy.train_cost import _CLASS_TO_FAMILY
from repro.utils.timer import Stopwatch

#: the families reported one by one (the charge model's keys); every
#: other family is reported as ``other``
FAMILIES = (
    "decision_tree", "random_forest", "extra_trees", "gradient_boosting",
    "adaboost", "logistic_regression", "sgd", "knn", "mlp", "other",
)


def family_of(config_or_model) -> str:
    """Model family of a search-space config dict or an estimator, as
    the charge model (``estimate_fit_seconds``) classifies it."""
    if isinstance(config_or_model, dict):
        family = str(config_or_model.get("classifier", ""))
    else:
        family = _CLASS_TO_FAMILY.get(type(config_or_model).__name__, "")
    return family if family in FAMILIES else "other"


class SpanLog:
    """In-memory span records of one traced run (single thread)."""

    def __init__(self, clock):
        self.clock = clock
        self.records: list[list] = []
        self.tag = ""
        #: calls a wrapper let through without a record
        self.passed = 0
        self._stack: list[int] = []
        self._estimators = 0

    def open(self, name: str, *, estimator: bool = False) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.records.append([name, self.clock.now(), 0.0, parent,
                             self.tag, None])
        index = len(self.records) - 1
        self._stack.append(index)
        self._estimators += estimator
        return index

    def close(self, index: int, *, estimator: bool = False) -> None:
        self.records[index][2] = self.clock.now()
        self._stack.pop()
        self._estimators -= estimator

    @contextmanager
    def span(self, name: str):
        """Record the ``with`` body as one span; yields its index."""
        index = self.open(name)
        try:
            yield index
        finally:
            self.close(index)

    @property
    def in_estimator(self) -> bool:
        return self._estimators > 0

    def inside(self, name: str) -> bool:
        """Is a span called ``name`` open on the stack?"""
        return any(self.records[i][0] == name for i in self._stack)


@dataclass(frozen=True)
class Probe:
    """One wrapped callable: ``owner.attr`` (a class or a module).

    ``name`` is a span name, or a function ``(log, args) -> name``
    returning None to let a call through unrecorded.  ``value`` maps
    ``(args, result)`` to the record's payload; ``tag`` maps ``args`` to
    the id the span and every span under it carry.
    """

    owner: str
    attr: str
    name: object
    value: object = None
    estimator: bool = False
    tag: object = None


@dataclass
class _Patch:
    holder: object
    attr: str
    original: object


def _resolve(path: str):
    module_name, _, qual = path.partition(":")
    obj = importlib.import_module(module_name)
    for part in filter(None, qual.split(".")):
        obj = getattr(obj, part)
    return obj


def _span_name(probe: Probe, log: SpanLog, args) -> str | None:
    if callable(probe.name):
        return probe.name(log, args)
    return probe.name


def _make_wrapper(log: SpanLog, probe: Probe, func):
    estimator = probe.estimator

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        if estimator and log.in_estimator:
            log.passed += 1
            return func(*args, **kwargs)
        name = _span_name(probe, log, args)
        if name is None:
            log.passed += 1
            return func(*args, **kwargs)
        outer = log.tag
        if probe.tag is not None:
            log.tag = probe.tag(args)
        index = log.open(name, estimator=estimator)
        try:
            result = func(*args, **kwargs)
        finally:
            log.close(index, estimator=estimator)
            log.tag = outer
        if probe.value is not None:
            log.records[index][5] = probe.value(args, result)
        return result

    return wrapper


def _per_call_s(func, calls: int, clock) -> float:
    watch = Stopwatch(clock)
    with watch:
        for _ in range(calls):
            func()
    return watch.elapsed / calls


def wrapper_costs(clock, calls: int = 20000,
                  rounds: int = 5) -> tuple[float, float]:
    """Seconds a wrapper adds to one call when it records a span and
    when it lets the call through: a wrapped no-op against a bare one,
    median over ``rounds``."""
    def noop():
        return None

    log = SpanLog(clock)
    recorded = _make_wrapper(log, Probe("", "", "bench.noop"), noop)
    passed = _make_wrapper(log, Probe("", "", lambda log, args: None), noop)
    samples: dict = {noop: [], recorded: [], passed: []}
    for _ in range(rounds):
        for func, per_call in samples.items():
            per_call.append(_per_call_s(func, calls, clock))
        log.records.clear()
    bare = statistics.median(samples[noop])
    return (statistics.median(samples[recorded]) - bare,
            statistics.median(samples[passed]) - bare)


@dataclass
class Probes:
    """Installs and removes a set of probes on one :class:`SpanLog`."""

    log: SpanLog
    probes: list
    patches: list = field(default_factory=list)

    def install(self) -> "Probes":
        if self.patches:
            raise RuntimeError("probes are already installed")
        for probe in self.probes:
            owner = _resolve(probe.owner)
            if inspect.isclass(owner):
                self._patch_class(owner, probe)
            else:
                self._patch_function(owner, probe)
        return self

    def uninstall(self) -> None:
        for patch in reversed(self.patches):
            setattr(patch.holder, patch.attr, patch.original)
        self.patches.clear()

    def __enter__(self) -> "Probes":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch_class(self, cls, probe: Probe) -> None:
        if probe.attr not in vars(cls):
            raise LookupError(f"{cls.__name__} does not define {probe.attr}")
        raw = vars(cls)[probe.attr]
        if isinstance(raw, (staticmethod, classmethod)):
            wrapped = type(raw)(_make_wrapper(self.log, probe, raw.__func__))
        else:
            wrapped = _make_wrapper(self.log, probe, raw)
        self.patches.append(_Patch(cls, probe.attr, raw))
        setattr(cls, probe.attr, wrapped)

    def _patch_function(self, module, probe: Probe) -> None:
        """Module functions are bound by name into importing modules, so
        every loaded ``repro`` module holding the same object is patched."""
        original = getattr(module, probe.attr)
        wrapped = _make_wrapper(self.log, probe, original)
        holders = [
            mod for name, mod in sorted(sys.modules.items())
            if (name == "repro" or name.startswith("repro."))
            and mod is not None
            and getattr(mod, probe.attr, None) is original
        ]
        for holder in holders:
            self.patches.append(_Patch(holder, probe.attr, original))
            setattr(holder, probe.attr, wrapped)


# -- the probe table ----------------------------------------------------------

def _fit_name(log: SpanLog, args) -> str:
    model = args[0]
    if type(model).__name__ == "RandomForestRegressor":
        return "hpo.surrogate_fit"   # the BO surrogate
    return f"models.fit.{family_of(model)}"


def _space_name(kind: str):
    def name(log: SpanLog, args) -> str:
        if log.inside("hpo.ask"):
            return f"hpo.{kind}"
        return "pipeline.space"
    return name


def _predict_variant(log: SpanLog, args) -> str:
    return f"models.predict.{args[0].manifest.variant}"


def _rows(args, result) -> int:
    return len(args[1])


def _score(args, result) -> float:
    return float(result[0])


def _charged(args, result) -> float:
    return float(args[1])


def _estimate_fit(args, result) -> list:
    return [family_of(args[0]), float(result)]


def _estimate_seconds(args, result) -> float:
    return float(result.seconds)


def _cell_id(args) -> str:
    system, dataset, budget_s = args[:3]
    return f"{system}/{dataset.name}/{budget_s:g}"


def estimator_classes() -> list:
    """Every fitted model class of ``repro.models`` that defines its own
    ``fit`` (inherited fits are patched once, on the defining class)."""
    import repro.models as models

    found = []
    for info in sorted(pkgutil.iter_modules(models.__path__),
                       key=lambda i: i.name):
        module = importlib.import_module(f"repro.models.{info.name}")
        for _, cls in sorted(vars(module).items()):
            if (inspect.isclass(cls) and cls.__module__ == module.__name__
                    and "fit" in cls.__dict__
                    and (hasattr(cls, "predict")
                         or hasattr(cls, "predict_proba"))):
                found.append(cls)
    return found


def default_probes() -> list[Probe]:
    """The wrapped public functions, layer by layer."""
    est = [
        Probe(f"{cls.__module__}:{cls.__qualname__}", "fit", _fit_name,
              estimator=True)
        for cls in estimator_classes()
    ]
    return est + [
        # hpo
        Probe("repro.hpo.bo:BayesianOptimizer", "ask", "hpo.ask"),
        Probe("repro.hpo.bo:BayesianOptimizer", "tell", "hpo.tell"),
        Probe("repro.models.forest:RandomForestRegressor",
              "predict_with_std", "hpo.surrogate_predict", estimator=True),
        Probe("repro.pipeline.search_space:ConfigSpace", "sample",
              _space_name("candidates")),
        Probe("repro.pipeline.search_space:ConfigSpace", "perturb",
              _space_name("candidates")),
        Probe("repro.pipeline.search_space:ConfigSpace", "encode",
              _space_name("encode")),
        # models (predict inside the server)
        Probe("repro.serving.artifacts:LoadedArtifact", "predict",
              _predict_variant, value=_rows),
        # pipeline + preprocessing
        Probe("repro.pipeline.spaces", "build_pipeline", "pipeline.build"),
        Probe("repro.pipeline.pipeline:Pipeline", "fit",
              "preprocessing.fit"),
        Probe("repro.pipeline.pipeline:Pipeline", "predict",
              "pipeline.predict"),
        Probe("repro.pipeline.pipeline:Pipeline", "predict_proba",
              "pipeline.predict"),
        # systems
        Probe("repro.systems.base:AutoMLSystem", "fit", "systems.search"),
        Probe("repro.systems.base:AutoMLSystem", "predict",
              "systems.predict"),
        Probe("repro.systems.base:AutoMLSystem", "predict_proba",
              "systems.predict"),
        Probe("repro.systems.base:PipelineEvaluator", "evaluate_config",
              "systems.trial", value=_score),
        Probe("repro.systems.base:PipelineEvaluator", "refit_on_all",
              "systems.refit"),
        Probe("repro.systems.base:Deadline", "charge", "systems.charge",
              value=_charged),
        # ensemble
        Probe("repro.ensemble.caruana:CaruanaEnsemble", "fit",
              "ensemble.caruana"),
        Probe("repro.ensemble.caruana", "caruana_select",
              "ensemble.caruana"),
        Probe("repro.systems.autogluon:AutoGluonSystem", "_caruana_weights",
              "ensemble.caruana"),
        # ensemble *predict* stays unwrapped: it is model inference and
        # belongs to whoever predicts (the server, a trial, the scorer)
        Probe("repro.ensemble.stacking:StackingEnsemble", "fit",
              "ensemble.stack"),
        Probe("repro.ensemble.stacking:StackingEnsemble", "refit",
              "ensemble.stack"),
        Probe("repro.ensemble.bagging:BaggedModel", "fit",
              "ensemble.bag_fit"),
        Probe("repro.ensemble.bagging:BaggedModel", "refit", "ensemble.bag"),
        # evalstore
        Probe("repro.evalstore.store:EvalStore", "put", "evalstore.put"),
        Probe("repro.evalstore.store:EvalStore", "get", "evalstore.get"),
        Probe("repro.evalstore.store:EvalStore", "ingest", "evalstore.store"),
        Probe("repro.evalstore.store:EvalStore", "records",
              "evalstore.store"),
        Probe("repro.evalstore.store:EvalStore", "query", "evalstore.store"),
        Probe("repro.evalstore.store:EvalStore", "digest", "evalstore.store"),
        Probe("repro.evalstore.capture:TrialCapture", "record",
              "evalstore.capture"),
        Probe("repro.evalstore.whatif", "whatif_ensemble",
              "evalstore.whatif"),
        Probe("repro.evalstore.pareto", "trial_front", "evalstore.whatif"),
        Probe("repro.evalstore.mining", "mine_portfolio",
              "evalstore.whatif"),
        # runtime + experiments
        Probe("repro.experiments.runner", "run_grid", "experiments.run_grid"),
        Probe("repro.experiments.runner", "run_single", "runtime.cell",
              tag=_cell_id),
        Probe("repro.runtime.executor:CampaignExecutor", "run",
              "runtime.executor"),
        Probe("repro.runtime.cache:ResultCache", "get", "runtime.cache"),
        Probe("repro.runtime.cache:ResultCache", "put", "runtime.commit"),
    ] + [
        Probe("repro.runtime.journal:CampaignJournal", method,
              "runtime.commit")
        for method in ("open_campaign", "record_cell", "record_skip",
                       "record_failure", "record_spans", "record_metrics",
                       "record_event", "close")
    ] + [
        # serving
        Probe("repro.serving.server:PredictionServer", "process",
              "serving.process"),
        Probe("repro.serving.router:SLORouter", "route", "serving.route"),
        Probe("repro.serving.artifacts:ArtifactStore", "load",
              "serving.artifact_load"),
        # energy
        Probe("repro.energy.train_cost", "estimate_fit_seconds",
              "energy.estimate_fit", value=_estimate_fit),
        Probe("repro.energy.cost_model", "estimate_inference",
              "energy.estimate_inference", value=_estimate_seconds),
        Probe("repro.energy.cost_model", "kwh_per_prediction",
              "energy.kwh_per_prediction"),
        # datasets
        Probe("repro.datasets.loaders", "load_dataset", "datasets.load"),
    ]
