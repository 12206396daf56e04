"""Speed bench — histogram-binned tree kernels vs the exact builders, and
compiled tree-ensemble inference vs the per-tree predict loop.

Fits the tree family (DT, RF, ET, GBM) twice on the same synthetic
table — once with the exact sort-based split search, once with the
histogram-binned builder — and records fits/s, rows/s and cells/s plus
the binned-vs-exact prediction agreement into ``BENCH_models.json``.
kNN rides along as the inference-bound member of the zoo: its number is
prediction throughput through the blocked pairwise kernel.

The ``predict`` section times ``predict_proba`` of campaign-sized RF,
ET, GBM and AdaBoost models at 16-row batches (the serving
micro-batch) and 300-row batches (a campaign validation split): the
compiled path (one descent of the model's node table) against the
per-tree loop it replaced (one descent per member tree, outputs added in
member order), asserting that both return the same bytes.

``REPRO_BENCH_SMOKE=1`` shrinks the grid for CI; the committed artefact
comes from a full local run, where the binned RF/GBM fits clear 5x.
The CI gate only asserts the conservative 2x floors (binned fit vs
exact fit, compiled vs per-tree predict at 16 rows).
"""

import os

import numpy as np
from conftest import emit, write_bench_json

from repro.analysis.reporting import format_table
from repro.datasets import make_classification
from repro.models import (
    AdaBoostClassifier,
    DecisionTreeClassifier,
    ExtraTreesClassifier,
    GradientBoostingClassifier,
    KNeighborsClassifier,
    RandomForestClassifier,
)
from repro.utils.timer import Stopwatch, WallClock

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
N_ROWS = 3_000 if SMOKE else 20_000
N_TEST = 1_000 if SMOKE else 4_000
N_FEATURES = 20 if SMOKE else 40
N_CLASSES = 3
N_TREES = 10 if SMOKE else 30
MAX_BINS = 255
SEED = 0
#: binned split search may tie-break differently than the exact scan, so
#: "equal predictions" is agreement on held-out rows, not bit identity
MIN_AGREEMENT = 0.9
#: conservative CI floor; local full runs show >=5x for RF/GBM
MIN_SPEEDUP = 2.0
#: predict bench: campaign-sized training split and query pool
N_PREDICT_TRAIN = 300
N_PREDICT_QUERY = 1_200
PREDICT_BATCHES = (16, 300)
#: timing repeats per (model, batch size, path); the fastest is kept
PREDICT_REPEATS = 3 if SMOKE else 7
#: CI floor for compiled vs per-tree predict at 16-row batches
MIN_PREDICT_SPEEDUP = 2.0


def _models():
    return [
        ("DT", lambda b: DecisionTreeClassifier(
            max_depth=12, random_state=SEED, binning=b)),
        ("RF", lambda b: RandomForestClassifier(
            n_estimators=N_TREES, random_state=SEED, binning=b)),
        ("ET", lambda b: ExtraTreesClassifier(
            n_estimators=N_TREES, random_state=SEED, binning=b)),
        ("GBM", lambda b: GradientBoostingClassifier(
            n_estimators=N_TREES, max_depth=3, random_state=SEED,
            binning=b)),
    ]


def _run_models_bench():
    X, y = make_classification(
        N_ROWS + N_TEST, N_FEATURES, N_CLASSES, class_sep=1.2,
        nonlinearity=0.3, random_state=SEED,
    )
    X, Xt = X[:N_ROWS], X[N_ROWS:]
    y, yt = y[:N_ROWS], y[N_ROWS:]
    results = {}
    for name, make in _models():
        with Stopwatch(WallClock()) as w_exact:
            exact = make(None).fit(X, y)
        with Stopwatch(WallClock()) as w_binned:
            binned = make(MAX_BINS).fit(X, y)
        pred_e = exact.predict(Xt)
        pred_b = binned.predict(Xt)
        t_e, t_b = w_exact.elapsed, w_binned.elapsed
        results[name] = {
            "acc_binned": round(float((pred_b == yt).mean()), 4),
            "acc_exact": round(float((pred_e == yt).mean()), 4),
            "agreement": round(float((pred_e == pred_b).mean()), 4),
            "binned_s": round(t_b, 3),
            "cells_per_s": round(N_ROWS * N_FEATURES / t_b, 1),
            "exact_s": round(t_e, 3),
            "fits_per_s": round(1.0 / t_b, 4),
            "rows_per_s": round(N_ROWS / t_b, 1),
            "speedup": round(t_e / t_b, 2),
        }
    # kNN: all the cost is inference through the blocked pairwise kernel
    knn = KNeighborsClassifier(n_neighbors=5)
    with Stopwatch(WallClock()) as w_fit:
        knn.fit(X, y)
    with Stopwatch(WallClock()) as w_pred:
        pred = knn.predict(Xt)
    results["kNN"] = {
        "acc": round(float((pred == yt).mean()), 4),
        "fit_s": round(w_fit.elapsed, 3),
        "fits_per_s": round(1.0 / max(w_fit.elapsed, 1e-9), 1),
        "predict_rows_per_s": round(len(Xt) / w_pred.elapsed, 1),
        "predict_s": round(w_pred.elapsed, 3),
    }
    return results


def _predict_models():
    """AutoGluon-portfolio-sized tree ensembles, plus SAMME AdaBoost."""
    return [
        ("RF", RandomForestClassifier(n_estimators=20, max_depth=12,
                                      random_state=SEED)),
        ("ET", ExtraTreesClassifier(n_estimators=20, max_depth=12,
                                    random_state=SEED)),
        ("GBM", GradientBoostingClassifier(
            n_estimators=20, max_depth=5, learning_rate=0.06,
            random_state=SEED)),
        ("AdaBoost", AdaBoostClassifier(n_estimators=50, max_depth=2,
                                        random_state=SEED)),
    ]


def _per_tree_proba(model, X):
    """The per-tree loops the compiled node table replaced: each member
    tree descends on its own, outputs are added in member order."""
    X = np.asarray(X, dtype=float)
    if isinstance(model, GradientBoostingClassifier):
        raw = np.tile(model.init_raw_, (X.shape[0], 1))
        for stage in model.stages_:
            for c, tree in enumerate(stage):
                raw[:, c] += model.learning_rate * tree.predict(X)
        raw -= raw.max(axis=1, keepdims=True)
        e = np.exp(raw)
        return e / e.sum(axis=1, keepdims=True)
    alphas = getattr(model, "estimator_weights_", None)
    out = np.zeros((X.shape[0], len(model.classes_)))
    for i, tree in enumerate(model.estimators_):
        proba = np.zeros_like(out)
        proba[:, tree.classes_] = tree.predict_proba(X)
        out += proba if alphas is None else alphas[i] * proba
    if alphas is None:
        return out / len(model.estimators_)
    return out / np.maximum(out.sum(axis=1, keepdims=True), 1e-12)


def _rows_per_s(predict, batches) -> float:
    best = np.inf
    for _ in range(PREDICT_REPEATS):
        with Stopwatch(WallClock()) as watch:
            for batch in batches:
                predict(batch)
        best = min(best, watch.elapsed)
    return sum(len(b) for b in batches) / best


def _run_predict_bench():
    X, y = make_classification(
        N_PREDICT_TRAIN + N_PREDICT_QUERY, 20, 2, class_sep=1.0,
        nonlinearity=0.3, random_state=SEED,
    )
    X, Xq = X[:N_PREDICT_TRAIN], X[N_PREDICT_TRAIN:]
    y = y[:N_PREDICT_TRAIN]
    results = {}
    for name, model in _predict_models():
        model.fit(X, y)
        compiled = model.predict_proba(Xq)  # builds the node table
        assert compiled.tobytes() == _per_tree_proba(model, Xq).tobytes(), \
            f"{name} compiled predict must equal the per-tree loop"
        row = {}
        for size in PREDICT_BATCHES:
            batches = [Xq[i:i + size] for i in range(0, len(Xq), size)]
            fast = _rows_per_s(model.predict_proba, batches)
            slow = _rows_per_s(lambda b: _per_tree_proba(model, b), batches)
            row[f"compiled_rows_per_s_{size}"] = round(fast, 1)
            row[f"per_tree_rows_per_s_{size}"] = round(slow, 1)
            row[f"speedup_{size}"] = round(fast / slow, 2)
        results[name] = row
    return results


def test_speed_models(benchmark):
    results, predict = benchmark.pedantic(
        lambda: (_run_models_bench(), _run_predict_bench()),
        rounds=1, iterations=1)
    path = write_bench_json("BENCH_models.json", {
        "config": {
            "max_bins": MAX_BINS,
            "n_classes": N_CLASSES,
            "n_features": N_FEATURES,
            "n_rows": N_ROWS,
            "n_trees": N_TREES,
            "smoke": SMOKE,
        },
        "models": results,
        "predict": {
            "config": {
                "batch_rows": list(PREDICT_BATCHES),
                "n_classes": 2,
                "n_features": 20,
                "n_query": N_PREDICT_QUERY,
                "n_train": N_PREDICT_TRAIN,
                "repeats": PREDICT_REPEATS,
            },
            "models": predict,
        },
    })
    rows = [
        [name, f"{r['exact_s']:.2f}", f"{r['binned_s']:.2f}",
         f"{r['speedup']:.1f}x", f"{r['agreement']:.3f}",
         f"{r['rows_per_s']:,.0f}", f"{r['fits_per_s']:.2f}"]
        for name, r in results.items() if name != "kNN"
    ]
    knn = results["kNN"]
    emit(f"Model-zoo fit speed — n={N_ROWS:,}, d={N_FEATURES}, "
         f"{N_TREES} trees, {MAX_BINS} bins\n\n"
         + format_table(
             ["model", "exact s", "binned s", "speedup", "agree",
              "rows/s", "fits/s"], rows)
         + f"\n\nkNN predict: {knn['predict_rows_per_s']:,.0f} rows/s "
           f"(fit {knn['fit_s']:.3f}s)\n\n"
         + "predict_proba rows/s, compiled vs per-tree loop\n\n"
         + format_table(
             ["model"] + [f"{kind} {size}" for size in PREDICT_BATCHES
                          for kind in ("compiled", "per-tree", "x")],
             [[name] + [f"{r[key]:,.1f}" for size in PREDICT_BATCHES
                        for key in (f"compiled_rows_per_s_{size}",
                                    f"per_tree_rows_per_s_{size}",
                                    f"speedup_{size}")]
              for name, r in predict.items()])
         + f"\nwrote {path}")
    for name in ("RF", "GBM"):
        r = results[name]
        assert r["speedup"] >= MIN_SPEEDUP, \
            f"{name} binned fit must stay >={MIN_SPEEDUP}x the exact fit"
        assert r["agreement"] >= MIN_AGREEMENT, \
            f"{name} binned predictions must track the exact builder"
    assert results["ET"]["agreement"] >= 0.8  # random-splitter tolerance
    assert abs(results["DT"]["acc_exact"]
               - results["DT"]["acc_binned"]) < 0.05
    for name, r in predict.items():
        assert r["speedup_16"] >= MIN_PREDICT_SPEEDUP, \
            f"{name} compiled predict must stay >={MIN_PREDICT_SPEEDUP}x " \
            f"the per-tree loop at 16-row batches"
