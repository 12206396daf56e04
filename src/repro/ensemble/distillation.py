"""Ensemble distillation (paper Sec 5, ref [17] Fakoor et al. 2020).

The paper's Limitations section points at model distillation as the
complementary lever for inference energy: 'distilling the large stacking
models of AutoGluon with a DNN'.  :func:`distill` trains a small student on
the teacher ensemble's *soft* class probabilities, collapsing an O(10)-model
stack into one model whose inference FLOPs are a fraction of the teacher's.
"""

from __future__ import annotations

import numpy as np

from repro.models.base import clone
from repro.models.mlp import MLPClassifier
from repro.models.tree import (
    CompiledTreesMixin,
    DecisionTreeRegressor,
    NodeTable,
)
from repro.utils.rng import check_random_state
from repro.utils.validation import check_is_fitted


class DistilledModel(CompiledTreesMixin):
    """A soft-label student: per-class regression trees over the teacher's
    probability surface (works for any teacher exposing predict_proba)."""

    def __init__(self, classes, trees):
        self.classes_ = np.asarray(classes)
        self._trees = trees

    def _compile(self) -> NodeTable:
        return NodeTable.of(self._trees)

    def predict_proba(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        raw = np.ascontiguousarray(self._table().predict(X).T)
        raw = np.clip(raw, 1e-9, None)
        return raw / raw.sum(axis=1, keepdims=True)

    def predict(self, X) -> np.ndarray:
        return self.classes_[np.argmax(self.predict_proba(X), axis=1)]

    def inference_flops(self, n_samples: int) -> float:
        return float(sum(t.inference_flops(n_samples) for t in self._trees))


def _augment(X: np.ndarray, n_augment: int, rng) -> np.ndarray:
    """Gibbs-style data augmentation from [17], simplified: jitter real rows
    and permute feature blocks so the student sees the teacher's behaviour
    beyond the training manifold."""
    if n_augment <= 0:
        return X
    rows = rng.integers(0, len(X), size=n_augment)
    Xa = X[rows].copy()
    sigma = X.std(axis=0)
    Xa += rng.normal(0.0, 0.1, Xa.shape) * sigma
    # feature permutation on a random column per row
    cols = rng.integers(0, X.shape[1], size=n_augment)
    donors = rng.integers(0, len(X), size=n_augment)
    Xa[np.arange(n_augment), cols] = X[donors, cols]
    return np.vstack([X, Xa])


def distill(teacher, X, *, student: str = "tree", max_depth: int = 8,
            augment_factor: float = 1.0, random_state=None):
    """Distill ``teacher`` (fitted, with predict_proba) into a small student.

    Parameters
    ----------
    student:
        ``"tree"`` (per-class regression trees on soft labels, default) or
        ``"mlp"`` (a compact network trained on the teacher's argmax labels).
    augment_factor:
        Size of the synthetic augmentation set relative to ``X``.
    """
    X = np.asarray(X, dtype=float)
    rng = check_random_state(random_state)
    X_aug = _augment(X, int(augment_factor * len(X)), rng)
    soft = teacher.predict_proba(X_aug)
    classes = teacher.classes_

    if student == "tree":
        trees = []
        for c in range(soft.shape[1]):
            tree = DecisionTreeRegressor(
                max_depth=max_depth, min_samples_leaf=2,
                random_state=int(rng.integers(0, 2**31 - 1)),
            )
            tree.fit(X_aug, soft[:, c])
            trees.append(tree)
        return DistilledModel(classes, trees)
    if student == "mlp":
        labels = classes[np.argmax(soft, axis=1)]
        mlp = MLPClassifier(
            hidden_layer_sizes=(32,), max_iter=30,
            random_state=int(rng.integers(0, 2**31 - 1)),
        )
        mlp.fit(X_aug, labels)
        return mlp
    raise ValueError(f"unknown student {student!r}")


def distillation_report(teacher, student_model, X_test, y_test,
                        n_samples: int = 1000) -> dict:
    """Fidelity + energy summary of a distillation."""
    from repro.energy.cost_model import kwh_per_prediction
    from repro.metrics.classification import balanced_accuracy_score

    teacher_pred = teacher.predict(X_test)
    student_pred = student_model.predict(X_test)
    return {
        "teacher_accuracy": balanced_accuracy_score(y_test, teacher_pred),
        "student_accuracy": balanced_accuracy_score(y_test, student_pred),
        "agreement": float(np.mean(teacher_pred == student_pred)),
        "teacher_kwh_per_instance": kwh_per_prediction(teacher),
        "student_kwh_per_instance": kwh_per_prediction(student_model),
        "energy_reduction": 1.0 - (
            kwh_per_prediction(student_model)
            / max(kwh_per_prediction(teacher), 1e-300)
        ),
    }
