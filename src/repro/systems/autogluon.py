"""AutoGluon-Tabular [Erickson et al. 2020].

No hyperparameter search: a hand-picked portfolio of base models is bagged
(one model per CV fold), stacked into a second layer that sees the lower
layer's out-of-fold predictions, and finally weighted with Caruana ensemble
selection over the top layer (Table 1: 'Caruana & bagging & stacking').

Budget discipline (Table 7): the time budget is only used to *plan* the
stack; once training starts the plan runs to completion, so small budgets
overrun by ~2x (22.32s measured for a 10s budget).

The inference-optimised preset (Figure 6, 'good_quality_faster_inference_
only_refit') collapses every bag into one refit model via
:meth:`AutoGluonModel.refit`.
"""

from __future__ import annotations

import numpy as np

from repro.energy.train_cost import estimate_fit_seconds
from repro.ensemble.stacking import StackingEnsemble
from repro.models import (
    ExtraTreesClassifier,
    GradientBoostingClassifier,
    KNeighborsClassifier,
    LogisticRegression,
    MLPClassifier,
    RandomForestClassifier,
)
from repro.observability import trace_span
from repro.systems.base import AutoMLSystem, Deadline, StrategyCard
from repro.utils.validation import check_is_fitted


def default_portfolio(random_state=None) -> list[tuple[str, object]]:
    """AutoGluon's hand-picked base-model zoo (scaled down)."""
    rs = random_state
    return [
        ("gbm", GradientBoostingClassifier(
            n_estimators=12, max_depth=3, learning_rate=0.12,
            random_state=rs)),
        ("rf", RandomForestClassifier(
            n_estimators=20, max_depth=12, random_state=rs)),
        ("xt", ExtraTreesClassifier(
            n_estimators=20, max_depth=12, random_state=rs)),
        ("gbm_deep", GradientBoostingClassifier(
            n_estimators=20, max_depth=5, learning_rate=0.06,
            random_state=rs)),
        ("lr", LogisticRegression(C=1.0)),
        ("knn", KNeighborsClassifier(n_neighbors=7)),
        ("mlp", MLPClassifier(hidden_layer_sizes=(32,), max_iter=10,
                              random_state=rs)),
    ]


class AutoGluonModel:
    """Deployable artefact: the stack plus Caruana weights over its top
    layer, with the one-hot encoder (if any) bundled in."""

    def __init__(self, stack: StackingEnsemble, weights: np.ndarray,
                 encoder=None):
        # Caruana weights span ALL trained bags (layer 1 then layer 2),
        # mirroring AutoGluon's weighted ensemble selecting across layers.
        if len(weights) != len(stack.layer1_) + len(stack.layer2_):
            raise ValueError("one weight per trained bag required")
        self.stack = stack
        self.weights = np.asarray(weights, dtype=float)
        self.classes_ = stack.classes_
        self.encoder = encoder

    def _encode(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return self.encoder.transform(X) if self.encoder is not None else X

    def refit(self, X, y) -> "AutoGluonModel":
        """Collapse all bags to single refit models (fast-inference preset)."""
        self.stack.refit(self._encode(X), y)
        return self

    @property
    def is_refit(self) -> bool:
        return all(b.is_refit for b in self.stack.layer1_)

    @property
    def ensemble_members(self) -> list:
        return self.stack.ensemble_members

    @property
    def _layer2_weights(self) -> np.ndarray:
        return self.weights[len(self.stack.layer1_):]

    def predict_proba(self, X) -> np.ndarray:
        X = self._encode(X)
        stack = self.stack
        n1 = len(stack.layer1_)
        weights1 = self.weights[:n1]
        weights2 = self._layer2_weights
        need_layer2 = bool(stack.layer2_) and np.any(weights2 > 0)
        # layer-1 probabilities, aligned onto the stack's class order; a
        # bag is run only when it is weighted or the stack needs its
        # block as a feature (the bags ``inference_flops`` prices)
        blocks = [
            stack._layer1_proba(bag, X) if need_layer2 or w > 0 else None
            for w, bag in zip(weights1, stack.layer1_)
        ]
        out = np.zeros((X.shape[0], len(self.classes_)))
        for w, block in zip(weights1, blocks):
            if w > 0:
                out += w * block
        if need_layer2:
            X_top = np.hstack([X] + blocks)
            lookup = {c: j for j, c in enumerate(self.classes_.tolist())}
            for w, bag in zip(weights2, stack.layer2_):
                if w <= 0:
                    continue
                proba = bag.predict_proba(X_top)
                for j, c in enumerate(bag.classes_.tolist()):
                    out[:, lookup[c]] += w * proba[:, j]
        total = out.sum(axis=1, keepdims=True)
        return out / np.maximum(total, 1e-12)

    def predict(self, X) -> np.ndarray:
        return self.classes_[np.argmax(self.predict_proba(X), axis=1)]

    def inference_flops(self, n_samples: int) -> float:
        """Layer-1 bags all run whenever any layer-2 model is selected
        (the stack needs their outputs as features); otherwise only the
        selected layer-1 bags run."""
        stack = self.stack
        n1 = len(stack.layer1_)
        total = (
            self.encoder.transform_flops(n_samples)
            if self.encoder is not None else 0.0
        )
        need_layer2 = bool(stack.layer2_) and np.any(self._layer2_weights > 0)
        for i, bag in enumerate(stack.layer1_):
            if need_layer2 or self.weights[i] > 0:
                total += bag.inference_flops(n_samples)
        for w, bag in zip(self._layer2_weights, stack.layer2_):
            if w > 0:
                total += bag.inference_flops(n_samples)
        return float(total)


class AutoGluonSystem(AutoMLSystem):
    """Predefined pipelines + bagging + stacking + Caruana weighting."""

    system_name = "AutoGluon"
    min_budget_s = 0.0
    parallel_fraction = 0.85   # bagging is embarrassingly parallel (Fig 5)
    budget_discipline = (
        "soft: budget only informs the training plan; small budgets overrun ~2x"
    )
    budget_bound = False       # plan-bound: more cores finish the plan sooner

    def __init__(self, *, optimize_for_inference: bool = False,
                 caruana_rounds: int = 25, **kwargs):
        super().__init__(**kwargs)
        self.optimize_for_inference = optimize_for_inference
        self.caruana_rounds = caruana_rounds

    def strategy_card(self) -> StrategyCard:
        return StrategyCard(
            system=self.system_name,
            search_space="predefined pipelines",
            search_init="manual",
            search="predefined pipelines",
            ensembling="Caruana & bagging & stacking",
        )

    def _plan(self, budget_s: float) -> tuple[int, int, int]:
        """(min base models, bagging folds, layer-2 models).

        The budget only sizes the plan; training then runs to completion —
        AutoGluon 'has to learn a stacked model and does not know how long
        the training of the different stacking levels will take' (Sec 3.10).
        """
        if budget_s < 20:
            return 2, 2, 1
        if budget_s < 45:
            return 3, 3, 2
        if budget_s < 120:
            return 3, 4, 2
        return 4, 5, 3

    def _search(self, X, y, deadline: Deadline, categorical_mask, rng):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        encoder = None
        if categorical_mask is not None and np.any(categorical_mask):
            from repro.preprocessing import OneHotEncoder

            cols = np.flatnonzero(categorical_mask).tolist()
            encoder = OneHotEncoder(columns=cols).fit(X)
            X = encoder.transform(X)
        # the plan is sized by the *configured* budget; extra cores make the
        # same plan finish sooner rather than inflating it
        budget_s = getattr(
            self, "_configured_budget_s",
            deadline.real_budget / self.time_scale,
        )
        min_base, n_folds, n_layer2 = self._plan(budget_s)
        portfolio = default_portfolio(
            random_state=int(rng.integers(0, 2**31 - 1))
        )
        stack = StackingEnsemble(
            portfolio, n_folds=n_folds, use_stacking=True,
            min_layer1=min_base, max_layer2=n_layer2,
            random_state=int(rng.integers(0, 2**31 - 1)),
        )
        # The plan runs to completion; only layer granularity honours the
        # deadline (this produces the Table 7 overrun shape).  Each bag's
        # modelled cost (k fold fits) is charged to the simulated clock.
        def charge_bag(est, n_samples, n_features):
            per_fold = max(int(n_samples * (n_folds - 1) / n_folds), 1)
            cost = n_folds * estimate_fit_seconds(est, per_fold, n_features)
            deadline.charge(cost)
            return cost

        stack.fit(X, y, budget_left=deadline.left, charge=charge_bag)
        with trace_span("ensemble"):
            weights = self._caruana_weights(stack, y)
        model = AutoGluonModel(stack, weights, encoder=encoder)
        if self.optimize_for_inference:
            with trace_span("refit"):
                self.stack_refit_on_encoded(model, X, y)
        oof_score = self._oof_score(stack, y, weights)
        return model, {
            "n_evaluations": len(stack.layer1_) + len(stack.layer2_),
            "best_val_score": oof_score,
            "n_folds": n_folds,
            "refit": self.optimize_for_inference,
        }

    @staticmethod
    def stack_refit_on_encoded(model: AutoGluonModel, X_encoded, y) -> None:
        """Refit the stack with already-encoded features (the encoder's
        transform must not be applied twice)."""
        model.stack.refit(np.asarray(X_encoded, dtype=float), y)

    # -- Caruana weighting on out-of-fold predictions --------------------------
    def _caruana_weights(self, stack: StackingEnsemble,
                         y: np.ndarray) -> np.ndarray:
        """Greedy selection over *all* trained bags (both layers), using
        their out-of-fold probabilities — AutoGluon's weighted ensemble can
        pick lower-layer models when the stacker does not pay off."""
        from repro.metrics.classification import balanced_accuracy_score

        check_is_fitted(stack, "_fitted")
        bags = stack.layer1_ + stack.layer2_
        classes = stack.classes_
        probas = [bag.oof_proba_ for bag in bags]
        n = len(y)
        counts = np.zeros(len(bags))
        running = np.zeros((n, len(classes)))
        picked = 0
        for _ in range(self.caruana_rounds):
            best_i, best_score = -1, -np.inf
            for i, p in enumerate(probas):
                cand = (running * picked + p) / (picked + 1)
                pred = classes[np.argmax(cand, axis=1)]
                score = balanced_accuracy_score(y, pred)
                if score > best_score:
                    best_score, best_i = score, i
            counts[best_i] += 1
            picked += 1
            running = (running * (picked - 1) + probas[best_i]) / picked
        return counts / counts.sum()

    def _oof_score(self, stack, y, weights) -> float:
        from repro.metrics.classification import balanced_accuracy_score

        bags = stack.layer1_ + stack.layer2_
        mix = sum(w * bag.oof_proba_ for w, bag in zip(weights, bags))
        pred = stack.classes_[np.argmax(mix, axis=1)]
        return float(balanced_accuracy_score(y, pred))
