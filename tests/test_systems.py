"""The six AutoML systems: contract tests + system-specific behaviour.

Budgets are scaled hard (time_scale <= 0.01) so the whole module runs in
well under a minute.
"""

import numpy as np
import pytest

from repro.datasets import load_dataset, make_classification
from repro.exceptions import NotFittedError
from repro.metrics import balanced_accuracy_score
from repro.systems import (
    SYSTEM_REGISTRY,
    AutoGluonSystem,
    AutoSklearnSystem,
    CamlConstraints,
    CamlParameters,
    CamlSystem,
    FlamlSystem,
    TabPFNSystem,
    TpotSystem,
    make_system,
)

FAST = dict(time_scale=0.004, random_state=0)


@pytest.fixture(scope="module")
def ds():
    return load_dataset("credit-g")


class TestRegistry:
    def test_all_seven_systems_available(self):
        assert set(SYSTEM_REGISTRY) == {
            "CAML", "AutoGluon", "AutoSklearn1", "AutoSklearn2",
            "FLAML", "TabPFN", "TPOT",
        }

    def test_unknown_system(self):
        with pytest.raises(ValueError):
            make_system("H2O")

    def test_strategy_cards_match_table1(self):
        card = make_system("AutoGluon").strategy_card()
        assert card.ensembling == "Caruana & bagging & stacking"
        card = make_system("TabPFN").strategy_card()
        assert card.search == "-"
        card = make_system("CAML").strategy_card()
        assert "successive halving" in card.search
        card = make_system("TPOT").strategy_card()
        assert card.search == "genetic programming"


@pytest.mark.parametrize("name", sorted(SYSTEM_REGISTRY))
class TestSystemContract:
    def test_fit_predict_score_energy(self, name, ds):
        system = make_system(name, **FAST)
        budget = max(60.0, system.min_budget_s)
        system.fit(ds.X_train, ds.y_train, budget_s=budget,
                   categorical_mask=ds.categorical_mask)
        acc = balanced_accuracy_score(ds.y_test, system.predict(ds.X_test))
        assert acc > 0.6   # all systems must beat chance comfortably
        fr = system.fit_result_
        assert fr.execution_kwh > 0
        assert fr.actual_seconds > 0
        assert system.inference_kwh_per_instance() > 0
        proba = system.predict_proba(ds.X_test)
        assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-6)

    def test_unfitted_raises(self, name):
        with pytest.raises(NotFittedError):
            make_system(name, **FAST).predict(np.zeros((2, 3)))


class TestBudgets:
    def test_askl_rejects_small_budget(self, ds):
        with pytest.raises(ValueError, match="below"):
            make_system("AutoSklearn1", **FAST).fit(
                ds.X_train, ds.y_train, budget_s=10,
            )

    def test_tpot_rejects_sub_minute_budget(self, ds):
        with pytest.raises(ValueError, match="below"):
            make_system("TPOT", **FAST).fit(
                ds.X_train, ds.y_train, budget_s=30,
            )

    def test_caml_adheres_strictly(self, ds):
        system = make_system("CAML", **FAST)
        system.fit(ds.X_train, ds.y_train, budget_s=30,
                   categorical_mask=ds.categorical_mask)
        assert system.fit_result_.overrun_ratio < 1.4

    def test_tabpfn_constant_execution_time(self, ds):
        times = []
        for budget in (10.0, 300.0):
            system = make_system("TabPFN", **FAST)
            system.fit(ds.X_train, ds.y_train, budget_s=budget)
            times.append(system.fit_result_.actual_seconds)
        assert times[0] == pytest.approx(times[1])
        assert times[0] < 1.0   # ~0.29s model load

    def test_autogluon_overruns_small_budget(self, ds):
        system = make_system("AutoGluon", **FAST)
        system.fit(ds.X_train, ds.y_train, budget_s=10,
                   categorical_mask=ds.categorical_mask)
        assert system.fit_result_.overrun_ratio > 1.2


class TestCaml:
    def test_single_model_deployed(self, ds):
        system = CamlSystem(**FAST)
        system.fit(ds.X_train, ds.y_train, budget_s=30,
                   categorical_mask=ds.categorical_mask)
        assert system.n_ensemble_members == 1

    def test_classifier_space_pruning(self, ds):
        params = CamlParameters(classifiers=["gaussian_nb"])
        system = CamlSystem(params=params, **FAST)
        system.fit(ds.X_train, ds.y_train, budget_s=20,
                   categorical_mask=ds.categorical_mask)
        config = system.fit_result_.info["best_config"]
        assert config["classifier"] == "gaussian_nb"

    def test_inference_constraint_is_enforced(self, ds):
        limit = 1e-9   # binding: unconstrained models span ~3e-10..2e-8
        constrained = CamlSystem(
            constraints=CamlConstraints(inference_time_per_instance=limit),
            **FAST,
        )
        constrained.fit(ds.X_train, ds.y_train, budget_s=30,
                        categorical_mask=ds.categorical_mask)
        # the deployed model must actually satisfy the constraint
        est = constrained.inference_estimate(1000)
        assert est.seconds / 1000.0 <= limit * 1.05

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            CamlParameters(classifiers=[])
        with pytest.raises(ValueError):
            CamlParameters(holdout_fraction=0.0)
        with pytest.raises(ValueError):
            CamlParameters(evaluation_fraction=2.0)

    def test_sampling_parameter(self, ds):
        params = CamlParameters(sample_cap=60)
        system = CamlSystem(params=params, **FAST)
        system.fit(ds.X_train, ds.y_train, budget_s=20,
                   categorical_mask=ds.categorical_mask)
        assert system.score(ds.X_test, ds.y_test) > 0.55

    def test_refit_parameter(self, ds):
        params = CamlParameters(refit=True)
        system = CamlSystem(params=params, **FAST)
        system.fit(ds.X_train, ds.y_train, budget_s=20,
                   categorical_mask=ds.categorical_mask)
        assert system.score(ds.X_test, ds.y_test) > 0.6


class TestAutoGluon:
    def test_ensemble_members_many(self, ds):
        """O1: the stacked bagged ensemble carries many models."""
        system = AutoGluonSystem(**FAST)
        system.fit(ds.X_train, ds.y_train, budget_s=60,
                   categorical_mask=ds.categorical_mask)
        assert system.n_ensemble_members >= 5

    def test_inference_energy_order_of_magnitude_above_caml(self, ds):
        """O1 on average: a single CAML model can occasionally be a forest,
        so compare seed-averaged inference energies."""
        ag_kwh, caml_kwh = [], []
        for seed in (0, 1, 2):
            ag = AutoGluonSystem(time_scale=0.004, random_state=seed)
            ag.fit(ds.X_train, ds.y_train, budget_s=60,
                   categorical_mask=ds.categorical_mask)
            ag_kwh.append(ag.inference_kwh_per_instance())
            caml = CamlSystem(time_scale=0.004, random_state=seed)
            caml.fit(ds.X_train, ds.y_train, budget_s=60,
                     categorical_mask=ds.categorical_mask)
            caml_kwh.append(caml.inference_kwh_per_instance())
        assert np.mean(ag_kwh) > 4 * np.mean(caml_kwh)

    def test_refit_mode_cuts_inference_energy(self, ds):
        """Figure 6: the inference-optimised preset saves most of the
        inference energy at a small accuracy cost."""
        normal = AutoGluonSystem(**FAST)
        normal.fit(ds.X_train, ds.y_train, budget_s=30,
                   categorical_mask=ds.categorical_mask)
        fast = AutoGluonSystem(optimize_for_inference=True, **FAST)
        fast.fit(ds.X_train, ds.y_train, budget_s=30,
                 categorical_mask=ds.categorical_mask)
        assert (
            fast.inference_kwh_per_instance()
            < 0.6 * normal.inference_kwh_per_instance()
        )

    def test_caruana_weights_normalised(self, ds):
        system = AutoGluonSystem(**FAST)
        system.fit(ds.X_train, ds.y_train, budget_s=30,
                   categorical_mask=ds.categorical_mask)
        assert system.model_.weights.sum() == pytest.approx(1.0)

    def test_zero_weight_layer1_bags_are_never_run(self, ds, monkeypatch):
        """Predict runs the bags ``inference_flops`` prices: a layer-1
        bag with weight 0 runs only when a weighted layer-2 bag needs
        its block as a feature."""
        system = AutoGluonSystem(**FAST)
        system.fit(ds.X_train, ds.y_train, budget_s=30,
                   categorical_mask=ds.categorical_mask)
        model = system.model_
        layer1 = model.stack.layer1_
        assert len(layer1) >= 2 and model.stack.layer2_
        weights = np.zeros(len(model.weights))
        weights[0], weights[1] = 0.6, 0.4
        model.weights = weights
        expected = model.predict_proba(ds.X_test)

        def refuse(X):
            raise AssertionError("a zero-weight bag was run")

        for bag in layer1[2:]:
            monkeypatch.setattr(bag, "predict_proba", refuse)
        got = model.predict_proba(ds.X_test)
        assert got.tobytes() == expected.tobytes()
        weights[len(layer1)] = 0.5  # a weighted layer-2 bag needs them all
        with pytest.raises(AssertionError, match="zero-weight"):
            model.predict_proba(ds.X_test)


class TestAutoSklearn:
    def test_returns_caruana_ensemble(self, ds):
        system = AutoSklearnSystem(version=1, **FAST)
        system.fit(ds.X_train, ds.y_train, budget_s=60,
                   categorical_mask=ds.categorical_mask)
        assert system.n_ensemble_members >= 2

    def test_version_names(self):
        assert AutoSklearnSystem(version=1).system_name == "AutoSklearn1"
        assert AutoSklearnSystem(version=2).system_name == "AutoSklearn2"

    def test_invalid_version(self):
        with pytest.raises(ValueError):
            AutoSklearnSystem(version=3)

    def test_warm_start_used(self, ds):
        from repro.metalearning import MetaDatabase, MetaEntry

        db = MetaDatabase(entries=[
            MetaEntry(
                "m0", np.zeros(9),
                [{"classifier": "gaussian_nb",
                  "imputation": "mean", "scaling": "standard",
                  "feature_preprocessor": "none"}],
                [0.9],
            ),
        ])
        system = AutoSklearnSystem(version=1, meta_database=db, **FAST)
        system.fit(ds.X_train, ds.y_train, budget_s=30,
                   categorical_mask=ds.categorical_mask)
        assert system.fit_result_.info["warm_started"]


class TestFlaml:
    def test_deploys_single_cheap_model(self, ds):
        system = FlamlSystem(**FAST)
        system.fit(ds.X_train, ds.y_train, budget_s=30,
                   categorical_mask=ds.categorical_mask)
        assert system.n_ensemble_members == 1

    def test_lowest_inference_energy_of_search_systems(self, ds):
        flaml = FlamlSystem(**FAST)
        flaml.fit(ds.X_train, ds.y_train, budget_s=30,
                  categorical_mask=ds.categorical_mask)
        ag = AutoGluonSystem(**FAST)
        ag.fit(ds.X_train, ds.y_train, budget_s=30,
               categorical_mask=ds.categorical_mask)
        assert (
            flaml.inference_kwh_per_instance()
            < ag.inference_kwh_per_instance()
        )


class TestTabPFN:
    def test_rejects_too_many_classes(self):
        X, y = make_classification(400, 8, 12, random_state=0)
        system = TabPFNSystem(**FAST)
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            system.fit(X, y, budget_s=60)

    def test_inference_energy_dominates_everyone(self, ds):
        tab = TabPFNSystem(**FAST)
        tab.fit(ds.X_train, ds.y_train, budget_s=10)
        caml = CamlSystem(**FAST)
        caml.fit(ds.X_train, ds.y_train, budget_s=10,
                 categorical_mask=ds.categorical_mask)
        assert (
            tab.inference_kwh_per_instance()
            > 50 * caml.inference_kwh_per_instance()
        )

    def test_execution_energy_is_tiny(self, ds):
        tab = TabPFNSystem(**FAST)
        tab.fit(ds.X_train, ds.y_train, budget_s=300)
        caml = CamlSystem(**FAST)
        caml.fit(ds.X_train, ds.y_train, budget_s=300,
                 categorical_mask=ds.categorical_mask)
        assert (
            tab.fit_result_.execution_kwh
            < 0.1 * caml.fit_result_.execution_kwh
        )

    def test_support_subsampling(self):
        X, y = make_classification(1000, 6, 2, random_state=1)
        system = TabPFNSystem(subsample_support=200, **FAST)
        system.fit(X, y, budget_s=10)
        assert system.fit_result_.info["n_support"] <= 210


class TestTpot:
    def test_cv_evaluations_counted(self, ds):
        system = TpotSystem(population_size=4, **FAST)
        system.fit(ds.X_train, ds.y_train, budget_s=60,
                   categorical_mask=ds.categorical_mask)
        assert system.fit_result_.n_evaluations >= 4
        assert system.fit_result_.info["generations"] >= 1


class TestParallelAndGpu:
    def test_invalid_core_count(self):
        with pytest.raises(ValueError):
            make_system("CAML", n_cores=0)

    def test_gpu_requires_gpu_machine(self):
        from repro.energy import XEON_GOLD_6132

        with pytest.raises(ValueError):
            make_system("TabPFN", use_gpu=True, machine=XEON_GOLD_6132)

    def test_gpu_machine_default(self):
        system = make_system("TabPFN", use_gpu=True)
        assert system.machine.gpu is not None

    def test_caml_multicore_uses_more_energy(self, ds):
        one = make_system("CAML", **FAST)
        one.fit(ds.X_train, ds.y_train, budget_s=30,
                categorical_mask=ds.categorical_mask)
        eight = make_system("CAML", n_cores=8, **FAST)
        eight.fit(ds.X_train, ds.y_train, budget_s=30,
                  categorical_mask=ds.categorical_mask)
        ratio = (
            eight.fit_result_.execution_kwh / one.fit_result_.execution_kwh
        )
        assert 1.3 < ratio < 4.5   # paper: up to 2.7x

    def test_autogluon_multicore_saves_energy(self, ds):
        one = make_system("AutoGluon", **FAST)
        one.fit(ds.X_train, ds.y_train, budget_s=30,
                categorical_mask=ds.categorical_mask)
        eight = make_system("AutoGluon", n_cores=8, **FAST)
        eight.fit(ds.X_train, ds.y_train, budget_s=30,
                  categorical_mask=ds.categorical_mask)
        assert (
            eight.fit_result_.execution_kwh
            < one.fit_result_.execution_kwh
        )
