from dataclasses import replace

import numpy as np
import pytest

from fedcycle import heuristics, transport
from fedcycle.data import gen_synthetic, normalize
from fedcycle.heuristics import (ExperimentConfig, _Recorder, accuracy_from_probs,
                                 ensemble_predict, evaluate, mlp_specs,
                                 predict_proba, run_central,
                                 run_cyclical_weight_transfer, run_ensemble,
                                 run_heuristic, run_scaling_sweep,
                                 run_single_institution,
                                 run_single_weight_transfer)
from fedcycle.nn import LayerSpec, OptimizerConfig, init_model
from fedcycle.partition import SplitPlan, stratified_split
from fedcycle.schedule import PlateauPolicy


def tiny_split(seed=0, k=2, num_classes=2):
    ds = gen_synthetic("rings", n_patients=40 * (k + 2), samples_per_patient=2,
                       num_classes=num_classes, noise_rate=0.0, feature_dim=3,
                       rng=np.random.default_rng(seed))
    plan = SplitPlan(k=k, patients_per_institution=20, patients_validation=20,
                     patients_test=20, seed=seed)
    return stratified_split(ds, plan)


def tiny_config(num_classes=2, **overrides):
    kwargs = dict(
        model_specs=mlp_specs(3, [8], num_classes),
        optimizer=OptimizerConfig("adam", 1e-3),
        plateau=PlateauPolicy(patience=3, decay_factor=0.25, max_decays=1),
        batch_size=16, seed=0, max_epochs=60)
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


class TestAccuracy:
    def test_sigmoid_threshold(self):
        probs = np.array([[0.7], [0.49], [0.5], [0.2]])
        labels = np.array([1, 0, 1, 1])
        assert accuracy_from_probs(probs, labels)["top1"] == 0.75

    def test_argmax_ties_go_low(self):
        probs = np.array([[0.4, 0.4, 0.2]])
        assert accuracy_from_probs(probs, np.array([0]))["top1"] == 1.0
        assert accuracy_from_probs(probs, np.array([1]))["top1"] == 0.0

    def test_topk(self):
        probs = np.array([[0.5, 0.3, 0.2], [0.1, 0.2, 0.7]])
        labels = np.array([1, 0])
        scores = accuracy_from_probs(probs, labels, k=2)
        assert scores["top1"] == 0.0
        assert scores["topk"] == 0.5

    def test_topk_exceeding_classes_rejected(self):
        with pytest.raises(ValueError):
            accuracy_from_probs(np.array([[0.6, 0.4]]), np.array([0]), k=3)

    def test_top_all_classes_is_one(self):
        rng = np.random.default_rng(0)
        probs = rng.dirichlet(np.ones(5), size=30)
        labels = rng.integers(0, 5, 30)
        assert accuracy_from_probs(probs, labels, k=5)["topk"] == 1.0


class TestMlpSpecs:
    def test_two_class_uses_sigmoid_head(self):
        specs = mlp_specs(4, [8, 8], 2)
        assert specs[-1].kind == "sigmoid-head" and specs[-1].out_dim == 1
        assert [s.kind for s in specs] == ["affine", "relu", "affine", "relu",
                                           "sigmoid-head"]

    def test_multiclass_uses_softmax_head(self):
        specs = mlp_specs(4, [8], 5)
        assert specs[-1].kind == "softmax-head" and specs[-1].out_dim == 5

    def test_batchnorm_and_dropout_placement(self):
        specs = mlp_specs(4, [8], 2, batchnorm=True, dropout=0.5)
        kinds = [s.kind for s in specs]
        assert kinds == ["affine", "batchnorm", "relu", "dropout", "sigmoid-head"]
        assert specs[kinds.index("dropout")].dropout_rate == 0.5


class TestSingleAndCentral:
    def test_single_deterministic(self):
        split = tiny_split()
        a = run_single_institution(tiny_config(), split, 0)
        b = run_single_institution(tiny_config(), split, 0)
        assert a.test_accuracy == b.test_accuracy
        assert [r.validation_loss for r in a.metrics] == \
            [r.validation_loss for r in b.metrics]

    def test_single_index_out_of_range(self):
        with pytest.raises(IndexError):
            run_single_institution(tiny_config(), tiny_split(), 5)

    def test_metrics_rows_well_formed(self):
        res = run_central(tiny_config(), tiny_split())
        assert [r.global_epoch for r in res.metrics] == \
            list(range(1, len(res.metrics) + 1))
        assert all(r.institution is None for r in res.metrics)
        assert all(r.phase in "AB" for r in res.metrics)
        assert res.metrics[0].learning_rate == 1e-3

    def test_lr_decays_along_run(self):
        res = run_central(tiny_config(), tiny_split())
        lrs = [r.learning_rate for r in res.metrics]
        assert all(b <= a for a, b in zip(lrs, lrs[1:]))

    def test_easy_task_learned(self):
        ds = gen_synthetic("blobs", n_patients=160, samples_per_patient=2,
                           num_classes=2, noise_rate=0.0, feature_dim=3,
                           rng=np.random.default_rng(0))
        plan = SplitPlan(k=2, patients_per_institution=20,
                         patients_validation=20, patients_test=20, seed=0)
        cfg = tiny_config(plateau=PlateauPolicy(10, 0.25, 2), max_epochs=150)
        res = run_central(cfg, stratified_split(ds, plan))
        assert res.test_accuracy >= 0.95

    def test_result_fields_in_range(self):
        res = run_central(tiny_config(), tiny_split())
        for value in (res.train_accuracy, res.validation_accuracy,
                      res.test_accuracy, res.test_top_k):
            assert 0.0 <= value <= 1.0
        assert res.optimizer_steps > 0
        assert res.transfers == 0

    def test_central_normalizes_only_cohorts_it_uses(self, monkeypatch):
        calls = []

        def counting(cohort, stats=None):
            calls.append(len(cohort))
            return normalize(cohort, stats)
        monkeypatch.setattr(heuristics, "normalize", counting)
        run_central(tiny_config(max_epochs=2), tiny_split(k=4))
        assert len(calls) == 3  # the pooled cohort, validation and test


class TestEnsemble:
    def test_members_differ_by_seed(self):
        res = run_ensemble(tiny_config(), tiny_split())
        assert len(res.models) == 2
        w0 = res.models[0].params[0]["W"]
        w1 = res.models[1].params[0]["W"]
        assert not np.array_equal(w0, w1)

    def test_members_leave_test_cohort_unscored(self, monkeypatch):
        split = tiny_split(k=4)
        test = normalize(split.test)[0]
        test_evaluations = []

        def counting(model, cohort, k=1):
            if np.array_equal(cohort.features, test.features):
                test_evaluations.append(model)
            return evaluate(model, cohort, k)
        monkeypatch.setattr(heuristics, "evaluate", counting)
        res = run_ensemble(tiny_config(max_epochs=3), split)
        assert test_evaluations == []
        probs = ensemble_predict(res.models, test.features)
        assert res.test_accuracy == accuracy_from_probs(probs, test.labels)["top1"]

    def test_identical_members_match_single_model(self):
        split = tiny_split()
        res = run_single_institution(tiny_config(), split, 0)
        model = res.models[0]
        test_features = split.test.features
        merged = ensemble_predict([model] * 4, test_features)
        single = ensemble_predict([model], test_features)
        assert np.array_equal(merged, single)

    def test_average_of_distinct_members(self):
        specs = [LayerSpec("sigmoid-head", 2, 1)]
        models = [init_model(specs, OptimizerConfig("adam", 1e-3),
                             np.random.default_rng(s)) for s in range(3)]
        x = np.random.default_rng(9).normal(size=(5, 2))
        table = ensemble_predict(models, x)
        stacked = [predict_proba(m, x)[:, 0] for m in models]
        assert np.allclose(table[:, 1], np.mean(stacked, axis=0))
        assert np.allclose(table.sum(axis=1), 1.0)


class TestSingleWeightTransfer:
    def frozen_config(self):
        # learning rate small enough that the validation loss never improves,
        # so every visit plateaus after exactly `patience` epochs
        return tiny_config(optimizer=OptimizerConfig("adam", 1e-300),
                           plateau=PlateauPolicy(3, 0.25, 1), max_epochs=100)

    def test_visits_in_order_with_k_minus_1_transfers(self):
        split = tiny_split(k=3)
        res = run_single_weight_transfer(self.frozen_config(), split)
        assert res.transfers == 2
        visited = [r.institution for r in res.metrics]
        assert visited == [0, 0, 0, 1, 1, 1, 2, 2, 2]

    def test_epochs_are_contiguous(self):
        res = run_single_weight_transfer(self.frozen_config(), tiny_split(k=3))
        assert [r.global_epoch for r in res.metrics] == \
            list(range(1, len(res.metrics) + 1))

    def test_decay_ladder_advances_at_transfers(self):
        res = run_single_weight_transfer(self.frozen_config(), tiny_split(k=3))
        # one decay available: phase B from the first plateau onward
        assert [r.phase for r in res.metrics] == ["A"] * 3 + ["B"] * 6

    def test_no_transfer_after_epoch_budget(self):
        cfg = replace(self.frozen_config(), max_epochs=4)
        res = run_single_weight_transfer(cfg, tiny_split(k=4))
        assert [r.institution for r in res.metrics] == [0, 0, 0, 1]
        assert res.transfers == 1


class TestCyclicalWeightTransfer:
    def test_visit_lengths_match_frequency(self):
        for freq in (1, 2, 3):
            res = run_cyclical_weight_transfer(tiny_config(), tiny_split(), freq)
            insts = [r.institution for r in res.metrics]
            # institution changes exactly at multiples of freq (round robin)
            for e, inst in enumerate(insts):
                assert inst == (e // freq) % 2

    def test_transfer_count_matches_visits(self):
        res = run_cyclical_weight_transfer(tiny_config(), tiny_split(), 2)
        visits = int(np.ceil(len(res.metrics) / 2))
        assert res.transfers in (visits - 1, visits)

    def test_patience_scaled_by_institution_count(self):
        # updates vanish below float64 resolution, so the loss is exactly flat:
        # (max_decays+1) * patience * K epochs
        cfg = tiny_config(optimizer=OptimizerConfig("adam", 1e-300),
                          plateau=PlateauPolicy(2, 0.25, 1), max_epochs=100)
        res = run_cyclical_weight_transfer(cfg, tiny_split(k=2), 1)
        assert len(res.metrics) == (1 + 1) * 2 * 2

    def test_bad_frequency(self):
        with pytest.raises(ValueError):
            run_cyclical_weight_transfer(tiny_config(), tiny_split(), 0)

    def test_deterministic(self):
        a = run_cyclical_weight_transfer(tiny_config(), tiny_split(), 2)
        b = run_cyclical_weight_transfer(tiny_config(), tiny_split(), 2)
        assert [r.validation_loss for r in a.metrics] == \
            [r.validation_loss for r in b.metrics]


class TestScalingSweep:
    def test_returns_one_row_per_m(self):
        split = tiny_split(k=3)
        rows = run_scaling_sweep(tiny_config(), split, [1, 2, 3])
        assert [m for m, _ in rows] == [1, 2, 3]
        for _, acc in rows:
            assert 0.0 <= acc <= 1.0

    def test_m_out_of_range(self):
        with pytest.raises(ValueError):
            run_scaling_sweep(tiny_config(), tiny_split(k=2), [3])


class TestDispatch:
    @pytest.mark.parametrize("kind", ["single", "central", "ensemble",
                                      "single_transfer", "cyclical"])
    def test_known_kinds(self, kind):
        res = run_heuristic(tiny_config(), tiny_split(), kind)
        assert 0.0 <= res.test_accuracy <= 1.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            run_heuristic(tiny_config(), tiny_split(), "gossip")

    @pytest.mark.parametrize("kind", ["single", "central", "ensemble"])
    def test_no_channel_without_handoff(self, kind, monkeypatch):
        def refuse(_kind):
            pytest.fail("a run without hand-offs opened a channel")
        monkeypatch.setattr(transport, "make_channel", refuse)
        res = run_heuristic(tiny_config(transport="socket"), tiny_split(), kind)
        assert res.transfers == 0


class TestRecorder:
    def test_test_cohort_scored_once(self):
        split, cfg = tiny_split(), tiny_config()
        model = init_model(cfg.model_specs, cfg.optimizer, np.random.default_rng(0))
        rec = _Recorder(cfg, split.validation, split.test)
        rec.record(model, 1, "A", 0, 1e-3, split.institutions[0])
        rec.finish(model)
        with pytest.raises(RuntimeError, match="exactly once"):
            rec.finish(model)


class TestEvaluate:
    def test_evaluate_matches_predict_proba(self):
        split = tiny_split()
        model = run_single_institution(tiny_config(), split, 0).models[0]
        probs = predict_proba(model, split.test.features)
        assert evaluate(model, split.test) == \
            accuracy_from_probs(probs, split.test.labels)
