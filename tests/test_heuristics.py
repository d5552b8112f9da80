import itertools
import math
import json
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from fedcycle import cli, heuristics, transport
from fedcycle.config import build_experiment, load_plan
from fedcycle.data import concat, gen_synthetic, normalize
from fedcycle.heuristics import (ExperimentConfig, MetricsRow, accuracy_from_probs,
                                 ensemble_predict, evaluate, mlp_specs,
                                 predict_proba, run_heuristic, run_scaling_sweep,
                                 scale_split)
from fedcycle.nn import PROB_CLAMP, LayerSpec, OptimizerConfig, init_model, l2_penalty, loss
from fedcycle.partition import SplitPlan, pool, stratified_split
from fedcycle.schedule import ExpDecayPolicy, PlateauPolicy


def tiny_split(seed=0, k=2, num_classes=2):
    ds = gen_synthetic("rings", n_patients=40 * (k + 2), samples_per_patient=2,
                       num_classes=num_classes, noise_rate=0.0, feature_dim=3,
                       rng=np.random.default_rng(seed))
    plan = SplitPlan(k=k, patients_per_institution=20, patients_validation=20,
                     patients_test=20, seed=seed)
    return stratified_split(ds, plan)


def tiny_scaled(kind, **kwargs):
    """tiny_split(**kwargs) scaled for a run of `kind`."""
    return scale_split(tiny_split(**kwargs), kind)


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
        with pytest.raises(ValueError, match="k=3 exceeds 2 classes"):
            accuracy_from_probs(np.array([[0.6, 0.4]]), np.array([0]), k=3)

    @pytest.mark.parametrize("k", [0, -1])
    @pytest.mark.parametrize("probs", [[[0.2, 0.5, 0.3]], [[0.7]]], ids=["softmax", "sigmoid"])
    def test_topk_below_one_rejected(self, probs, k):
        """k=0 would score nothing and k=-1 would slice off the last-ranked
        class (scoring top-(C-1)); both are refused."""
        with pytest.raises(ValueError, match=f"k must be >= 1, got {k}"):
            accuracy_from_probs(np.array(probs), np.array([1]), k=k)

    def test_top_all_classes_is_one(self):
        rng = np.random.default_rng(0)
        probs = rng.dirichlet(np.ones(5), size=30)
        labels = rng.integers(0, 5, 30)
        assert accuracy_from_probs(probs, labels, k=5)["topk"] == 1.0


def score_tables():
    """Random sigmoid and softmax tables of 1, 7, 80 and 333 rows with their
    labels. Labelled entries take exactly 0.5, 0 and 1, and values at and
    past both clamps; the last softmax row is a five-way tie."""
    rng = np.random.default_rng(19)
    edges = [0.5, 0.0, 1e-13, PROB_CLAMP, 1.0 - PROB_CLAMP, 1.0 - 1e-13, 1.0]
    for rows in (1, 7, 80, 333):
        sig = rng.uniform(size=(rows, 1))
        sig[:len(edges), 0] = edges[:rows]
        yield sig, rng.integers(0, 2, rows)
        labels = rng.integers(0, 5, rows)
        soft = rng.dirichlet(np.ones(5), size=rows)
        soft[np.arange(min(rows, len(edges))), labels[:len(edges)]] = edges[:rows]
        soft[-1] = 0.2
        yield soft, labels


class TestEpochScores:
    """accuracy_from_probs and loss must give the bits of the np.mean and
    np.clip expressions they replaced, kept here as the reference."""

    @staticmethod
    def mean_accuracy(probs, labels, k):
        if probs.shape[1] == 1:
            pred = (probs[:, 0] >= 0.5).astype(np.int64)
            table = np.stack([1.0 - probs[:, 0], probs[:, 0]], axis=1)
        else:
            pred, table = np.argmax(probs, axis=1), probs
        top1 = float(np.mean(pred == labels))
        ranked = np.argsort(-table, axis=1, kind="stable")[:, :k]
        topk = top1 if k == 1 else float(np.mean(np.any(ranked == labels[:, None], axis=1)))
        return {"top1": top1, "topk": topk}

    @staticmethod
    def clip_mean_loss(probs, labels, model, l2_coeff):
        if probs.shape[1] == 1:
            p = np.clip(probs[:, 0], PROB_CLAMP, 1.0 - PROB_CLAMP)
            y = labels.astype(np.float64)
            ce = -np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))
        else:
            p = np.clip(probs[np.arange(len(labels)), labels], PROB_CLAMP, 1.0 - PROB_CLAMP)
            ce = -np.mean(np.log(p))
        return float(ce + l2_penalty(model, l2_coeff))

    def test_accuracy_matches_mean_reference(self):
        for probs, labels in score_tables():
            for k in (1, 2, probs.shape[1]) if probs.shape[1] > 1 else (1, 2):
                got = accuracy_from_probs(probs, labels, k)
                assert got == self.mean_accuracy(probs, labels, k)
                assert all(type(v) is float for v in got.values())

    def test_loss_matches_clip_mean_reference(self):
        model = init_model(mlp_specs(3, [4], 2), OptimizerConfig("adam", 0.01),
                           np.random.default_rng(0))
        for probs, labels in score_tables():
            for l2 in (0.0, 0.01):
                got = loss(probs, labels, model, l2)
                assert got == self.clip_mean_loss(probs, labels, model, l2)
                assert type(got) is float


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
        split = tiny_scaled("single")
        a = run_heuristic(tiny_config(), split, "single", institution=0)
        b = run_heuristic(tiny_config(), split, "single", institution=0)
        assert a.test_accuracy == b.test_accuracy
        assert [r.val_loss for r in a.metrics] == \
            [r.val_loss for r in b.metrics]

    def test_single_index_out_of_range(self):
        with pytest.raises(IndexError):
            run_heuristic(tiny_config(), tiny_scaled("single"), "single", institution=5)

    def test_metrics_rows_well_formed(self):
        res = run_heuristic(tiny_config(), tiny_scaled("central"), "central")
        assert [r.global_epoch for r in res.metrics] == \
            list(range(1, len(res.metrics) + 1))
        assert all(r.institution is None for r in res.metrics)
        assert all(r.phase in "AB" for r in res.metrics)
        assert res.metrics[0].learning_rate == 1e-3

    def test_lr_decays_along_run(self):
        res = run_heuristic(tiny_config(), tiny_scaled("central"), "central")
        lrs = [r.learning_rate for r in res.metrics]
        assert all(b <= a for a, b in zip(lrs, lrs[1:]))

    def test_easy_task_learned(self):
        ds = gen_synthetic("blobs", n_patients=160, samples_per_patient=2,
                           num_classes=2, noise_rate=0.0, feature_dim=3,
                           rng=np.random.default_rng(0))
        plan = SplitPlan(k=2, patients_per_institution=20,
                         patients_validation=20, patients_test=20, seed=0)
        cfg = tiny_config(plateau=PlateauPolicy(10, 0.25, 2), max_epochs=150)
        res = run_heuristic(cfg, scale_split(stratified_split(ds, plan), "central"), "central")
        assert res.test_accuracy >= 0.95

    def test_result_fields_in_range(self):
        res = run_heuristic(tiny_config(), tiny_scaled("central"), "central")
        for value in (res.train_accuracy, res.validation_accuracy,
                      res.test_accuracy, res.test_top_k):
            assert 0.0 <= value <= 1.0
        assert res.optimizer_steps > 0
        assert res.transfers == 0

    @pytest.mark.parametrize("kind", ["central", "single", "ensemble",
                                      "single_transfer", "cyclical"])
    def test_normalizes_only_cohorts_it_uses(self, monkeypatch, tmp_path, kind):
        """A 3-seed `fedcycle run` scales each of its k + 2 cohorts once, at
        set-up, and the pool once more for central and ensemble."""
        calls = []

        def counting(cohort):
            calls.append(len(cohort))
            return normalize(cohort)
        monkeypatch.setattr(heuristics, "normalize", counting)
        doc = {"dataset": {"kind": "rings", "n_patients": 240, "feature_dim": 3},
               "split": {"k": 4, "patients_per_institution": 20,
                         "patients_validation": 20, "patients_test": 20},
               "model": {"hidden": [8]},
               "optimizer": {"kind": "adam", "learning_rate": 1e-3},
               "schedule": {"patience": 3, "max_decays": 1},
               "training": {"batch_size": 16, "max_epochs": 2},
               "heuristic": {"kind": kind, **({"institution": 2} if kind == "single" else {})},
               "seeds": [1, 2, 3]}
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 0
        assert len(calls) == 4 + 2 + (kind in ("central", "ensemble"))

    @pytest.mark.parametrize("kind", ["single", "central", "ensemble",
                                      "single_transfer", "cyclical"])
    def test_each_site_normalizes_locally(self, kind):
        """Every cohort a heuristic uses, validation and test included, is
        normalized by its own statistics, never by another cohort's; the pool
        of central and ensemble is the raw pool normalized as one cohort."""
        split = tiny_split(k=3)
        scaled = scale_split(split, kind)
        names = [name for name, _ in split.cohorts()]
        assert [name for name, _ in scaled.cohorts()] == names
        for (_, raw), (_, cohort) in zip(split.cohorts(), scaled.cohorts()):
            assert cohort.features.tobytes() == normalize(raw).features.tobytes()
            assert np.array_equal(cohort.labels, raw.labels)
        if kind in ("central", "ensemble"):
            assert scaled.pooled.features.tobytes() == \
                normalize(pool(split)).features.tobytes()
            # pooling the scaled institutions would give other bits
            assert not np.array_equal(scaled.pooled.features,
                                      concat(scaled.institutions).features)
        else:
            assert scaled.pooled is None


class TestEnsemble:
    def test_members_differ_by_seed(self):
        res = run_heuristic(tiny_config(), tiny_scaled("ensemble"), "ensemble")
        assert len(res.models) == 2
        w0 = res.models[0].params[0]["W"]
        w1 = res.models[1].params[0]["W"]
        assert not np.array_equal(w0, w1)

    def test_members_leave_test_cohort_unscored(self, monkeypatch):
        split = tiny_scaled("ensemble", k=4)
        test = split.test
        test_evaluations = []

        def counting(model, cohort, k=1):
            if np.array_equal(cohort.features, test.features):
                test_evaluations.append(model)
            return evaluate(model, cohort, k)
        monkeypatch.setattr(heuristics, "evaluate", counting)
        res = run_heuristic(tiny_config(max_epochs=3), split, "ensemble")
        assert test_evaluations == []
        probs = ensemble_predict(res.models, test.features)
        assert res.test_accuracy == accuracy_from_probs(probs, test.labels)["top1"]

    def test_members_in_stacks_and_alone_match_single_runs(self, monkeypatch):
        """Members whose cohorts share a length train as one stack; a member
        whose cohort is shorter trains alone. Each ends as its single run."""
        split = tiny_scaled("ensemble", k=3)
        split = replace(split, institutions=[*split.institutions[:2],
                                             split.institutions[2].subset(np.arange(30))])
        stacks, stack_models = [], heuristics.stack_models
        monkeypatch.setattr(heuristics, "stack_models",
                            lambda models: stacks.append(len(models)) or stack_models(models))
        cfg = tiny_config(max_epochs=12)
        res = run_heuristic(cfg, split, "ensemble")
        assert stacks == [2]
        singles = [run_heuristic(replace(cfg, seed=cfg.seed + i), split, "single", institution=i)
                   for i in range(3)]
        assert res.metrics == [row for single in singles for row in single.metrics]
        assert [m.theta.tobytes() for m in res.models] == \
            [single.models[0].theta.tobytes() for single in singles]

    def test_identical_members_match_single_model(self):
        split = tiny_split()
        res = run_heuristic(tiny_config(), scale_split(split, "single"), "single", institution=0)
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
        column = ensemble_predict(models, x)
        assert column.shape == (5, 1)
        assert np.array_equal(column, np.mean([predict_proba(m, x) for m in models], axis=0))

    def test_tie_scored_as_single_model(self):
        """A sigmoid head with zero weights and bias outputs p = 0.5 exactly,
        which predicts class 1; so does an ensemble of copies of it."""
        model = init_model(mlp_specs(3, [8], 2), OptimizerConfig("adam", 1e-3),
                           np.random.default_rng(0))
        model.params[-1]["W"][...] = 0.0
        model.params[-1]["b"][...] = 0.0
        cohort = tiny_split().test
        cohort = replace(cohort, labels=np.ones_like(cohort.labels))
        assert np.all(predict_proba(model, cohort.features) == 0.5)
        merged = ensemble_predict([model] * 4, cohort.features)
        assert evaluate(model, cohort) == accuracy_from_probs(merged, cohort.labels)
        assert evaluate(model, cohort)["top1"] == 1.0


class TestSingleWeightTransfer:
    def frozen_config(self):
        # learning rate small enough that the validation loss never improves,
        # so every visit plateaus after exactly `patience` epochs
        return tiny_config(optimizer=OptimizerConfig("adam", 1e-300),
                           plateau=PlateauPolicy(3, 0.25, 1), max_epochs=100)

    def test_visits_in_order_with_k_minus_1_transfers(self):
        split = tiny_scaled("single_transfer", k=3)
        res = run_heuristic(self.frozen_config(), split, "single_transfer")
        assert res.transfers == 2
        visited = [r.institution for r in res.metrics]
        assert visited == [0, 0, 0, 1, 1, 1, 2, 2, 2]

    def test_epochs_are_contiguous(self):
        res = run_heuristic(self.frozen_config(), tiny_scaled("single_transfer", k=3),
                            "single_transfer")
        assert [r.global_epoch for r in res.metrics] == \
            list(range(1, len(res.metrics) + 1))

    def test_decay_ladder_advances_at_transfers(self):
        res = run_heuristic(self.frozen_config(), tiny_scaled("single_transfer", k=3),
                            "single_transfer")
        # one decay available: phase B from the first plateau onward
        assert [r.phase for r in res.metrics] == ["A"] * 3 + ["B"] * 6

    def test_no_transfer_after_epoch_budget(self):
        cfg = replace(self.frozen_config(), max_epochs=4)
        res = run_heuristic(cfg, tiny_scaled("single_transfer", k=4), "single_transfer")
        assert [r.institution for r in res.metrics] == [0, 0, 0, 1]
        assert res.transfers == 1


class TestCyclicalWeightTransfer:
    def test_visit_lengths_match_frequency(self):
        for freq in (1, 2, 3):
            res = run_heuristic(tiny_config(), tiny_scaled("cyclical"), "cyclical", frequency=freq)
            insts = [r.institution for r in res.metrics]
            # institution changes exactly at multiples of freq (round robin)
            for e, inst in enumerate(insts):
                assert inst == (e // freq) % 2

    def test_transfer_count_matches_visits(self):
        res = run_heuristic(tiny_config(), tiny_scaled("cyclical"), "cyclical", frequency=2)
        visits = int(np.ceil(len(res.metrics) / 2))
        assert res.transfers in (visits - 1, visits)

    def test_patience_scaled_by_institution_count(self):
        # updates vanish below float64 resolution, so the loss is exactly flat:
        # (max_decays+1) * patience * K epochs
        cfg = tiny_config(optimizer=OptimizerConfig("adam", 1e-300),
                          plateau=PlateauPolicy(2, 0.25, 1), max_epochs=100)
        res = run_heuristic(cfg, tiny_scaled("cyclical", k=2), "cyclical", frequency=1)
        assert len(res.metrics) == (1 + 1) * 2 * 2

    def test_bad_frequency(self):
        with pytest.raises(ValueError):
            run_heuristic(tiny_config(), tiny_scaled("cyclical"), "cyclical", frequency=0)

    def test_deterministic(self):
        a = run_heuristic(tiny_config(), tiny_scaled("cyclical"), "cyclical", frequency=2)
        b = run_heuristic(tiny_config(), tiny_scaled("cyclical"), "cyclical", frequency=2)
        assert [r.val_loss for r in a.metrics] == \
            [r.val_loss for r in b.metrics]


def drive_policy(cfg, visits, val_losses):
    """Run `_visit_policy` with no model: each epoch request is answered with
    3 steps, train accuracy 0.5, validation accuracy 0.25 and the next of
    `val_losses`, which must all be used. Returns the requests and what the
    policy returns."""
    policy, losses = heuristics._visit_policy(cfg, visits), iter(val_losses)
    requests, answer = [], None
    while True:
        try:
            requests.append(policy.send(answer))
        except StopIteration as end:
            assert next(losses, None) is None, "the run ended before its script"
            return requests, end.value
        answer = (3, 0.5, 0.25, next(losses)) if requests[-1][0] == "epoch" else None


class TestVisitPolicy:
    """The rules of a run, pinned with scripted answers and no model; the
    cohorts are stand-in strings, since the policy only passes them on."""

    def test_cyclical_budget_ends_mid_visit_without_handoff(self):
        cfg = tiny_config(max_epochs=5)
        visits = itertools.cycle([(i, f"c{i}", 2) for i in range(3)])
        requests, (rows, transfers, steps) = drive_policy(cfg, visits, [1.0, 0.9, 0.8, 0.7, 0.6])
        lr = cfg.optimizer.learning_rate
        assert requests == [("epoch", "c0", lr), ("epoch", "c0", lr), ("handoff", 0, 2),
                            ("epoch", "c1", lr), ("epoch", "c1", lr), ("handoff", 1, 4),
                            ("epoch", "c2", lr)]
        assert rows == [MetricsRow(e, "A", i, lr, 0.5, 0.25, loss) for e, i, loss in
                        zip(range(1, 6), [0, 0, 1, 1, 2], [1.0, 0.9, 0.8, 0.7, 0.6])]
        assert (transfers, steps) == (2, 15)

    def test_single_transfer_plateau_ends_only_its_visit(self):
        """With no decays, every plateau is a STOP; an `epochs=None` visit
        still only ends, the next visit's patience starts afresh at its
        hand-off, and the run ends when the visits run out."""
        cfg = tiny_config(plateau=PlateauPolicy(2, 0.25, 0), max_epochs=100)
        visits = [(i, f"c{i}", None) for i in range(3)]
        losses = [1.0, 0.9, 0.9, 0.9, 0.95, 0.95, 0.95, 0.95]
        requests, (rows, transfers, steps) = drive_policy(cfg, visits, losses)
        lr = cfg.optimizer.learning_rate
        assert requests == [("epoch", "c0", lr)] * 4 + [("handoff", 0, 4)] + \
            [("epoch", "c1", lr)] * 2 + [("handoff", 1, 6)] + [("epoch", "c2", lr)] * 2
        assert rows == [MetricsRow(e, "A", i, lr, 0.5, 0.25, loss) for e, i, loss in
                        zip(range(1, 9), [0, 0, 0, 0, 1, 1, 2, 2], losses)]
        assert (transfers, steps) == (2, 24)

    def test_exp_decay_sets_rate_while_plateau_stops(self):
        """The exponential schedule sets each epoch's rate; the plateau
        ladder still names the phase and ends the run, long before max_epochs."""
        cfg = tiny_config(optimizer=OptimizerConfig("adam", 1.0), exp_decay=ExpDecayPolicy(0.5),
                          plateau=PlateauPolicy(1, 0.25, 1), max_epochs=10)
        requests, (rows, transfers, steps) = drive_policy(cfg, [(None, "pool", 10)], [1.0, 1.0])
        assert requests == [("epoch", "pool", 1.0), ("epoch", "pool", 0.5)]
        assert rows == [MetricsRow(1, "A", None, 1.0, 0.5, 0.25, 1.0),
                        MetricsRow(2, "B", None, 0.5, 0.5, 0.25, 1.0)]
        assert (transfers, steps) == (0, 6)


def test_schedule_driving_rate_to_zero_refused():
    """A schedule whose last rate, computed as a run computes it, is 0 cannot
    be configured. At 5e-4 halved per epoch, epoch index 1064 still trains at
    5e-324 and index 1065 would train at 0; two plateau decays by 1e-300 reach
    0 as well."""
    sgd = OptimizerConfig("sgd-momentum", 5e-4)
    tiny_config(optimizer=sgd, exp_decay=ExpDecayPolicy(0.5), max_epochs=1065)
    with pytest.raises(ValueError, match="the exp schedule drives the learning rate"):
        tiny_config(optimizer=sgd, exp_decay=ExpDecayPolicy(0.5), max_epochs=1066)
    with pytest.raises(ValueError, match="the plateau schedule drives the learning rate"):
        tiny_config(optimizer=sgd, plateau=PlateauPolicy(10, 1e-300, 2))
    tiny_config(optimizer=sgd, plateau=PlateauPolicy(10, 1e-300, 1))


class TestScalingSweep:
    def test_returns_one_row_per_m(self):
        split = tiny_scaled("sweep", k=3)
        rows = run_scaling_sweep(tiny_config(), split, [1, 2, 3])
        assert [m for m, _ in rows] == [1, 2, 3]
        for _, acc in rows:
            assert 0.0 <= acc <= 1.0

    def test_m_out_of_range(self, monkeypatch):
        """Every m must be in 1..K; one that is not is refused before any
        training, wherever it stands in the list."""
        monkeypatch.setattr(heuristics, "_build_model",
                            lambda cfg: pytest.fail("a sweep trained on a bad m"))
        for m_values in ([3], [0], [-1], [1, 0]):
            with pytest.raises(ValueError, match="m_values"):
                run_scaling_sweep(tiny_config(), tiny_scaled("sweep", k=2), m_values)


KINDS = ["single", "central", "ensemble", "single_transfer", "cyclical"]


def runner(kind):
    """`run_heuristic` for one kind, called as run(cfg, split)."""
    return lambda cfg, split: run_heuristic(cfg, split, kind)


# Every kind of run, called as run(cfg, split); the sweep runs m = 1 and 2.
every_run = pytest.mark.parametrize("run", [
    *map(runner, KINDS), lambda cfg, split: run_scaling_sweep(cfg, split, [1, 2]),
], ids=[*KINDS, "sweep"])


class TestDispatch:
    @pytest.mark.parametrize("kind", ["single", "central", "ensemble",
                                      "single_transfer", "cyclical"])
    def test_known_kinds(self, kind):
        res = run_heuristic(tiny_config(), tiny_scaled(kind), kind)
        assert 0.0 <= res.test_accuracy <= 1.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            run_heuristic(tiny_config(), tiny_scaled("central"), "gossip")

    @every_run
    def test_raw_split_refused_before_training(self, monkeypatch, run):
        """A raw Split has unscaled features: every run refuses it before it
        builds a model."""
        monkeypatch.setattr(heuristics, "_build_model",
                            lambda cfg: pytest.fail("a run began on a raw Split"))
        with pytest.raises(TypeError, match="ScaledSplit"):
            run(tiny_config(), tiny_split())

    @every_run
    @pytest.mark.parametrize("overrides, classes, message", [
        ({"num_classes": 2}, 3, "sigmoid-head scores 2 classes, the split has 3"),
        ({"num_classes": 3}, 4, "softmax-head scores 3 classes, the split has 4"),
        ({"top_k": 3}, 2, "top_k=3 exceeds the model's 2 classes"),
        ({"model_specs": []}, 2, "empty layer list"),
        ({"model_specs": [LayerSpec("affine", 3, 2)]}, 2, "exactly one head layer"),
        ({"model_specs": mlp_specs(5, [8], 2)}, 2, "the model takes 5 features, the split has 3"),
    ], ids=["sigmoid_head_3_classes", "softmax_head_4_classes", "top_3_of_2",
            "no_layers", "no_head", "5_features_of_3"])
    def test_unfit_model_refused_before_training(self, monkeypatch, run, overrides,
                                                 classes, message):
        """An empty or headless layer list, an input width other than the
        split's feature count, a head that scores another class count than
        the split's labels, or a top_k past that count, stops every run
        before it builds a model."""
        monkeypatch.setattr(heuristics, "_build_model",
                            lambda cfg: pytest.fail("a run began with a model unfit for its split"))
        with pytest.raises(ValueError, match=message):
            run(tiny_config(**overrides), tiny_scaled("central", num_classes=classes))

    @pytest.mark.parametrize("kind", ["central", "ensemble"])
    def test_poolless_split_refused_before_training(self, monkeypatch, kind):
        """A split scaled for a kind that pools nothing has no pool: central
        and ensemble refuse it before any training."""
        calls, train_on = [], heuristics.train_on
        monkeypatch.setattr(heuristics, "train_on",
                            lambda *args: calls.append(args) or train_on(*args))
        with pytest.raises(TypeError, match=r"scale_split\(split, 'central'\)"):
            run_heuristic(tiny_config(), tiny_scaled("cyclical"), kind)
        assert calls == []

    @pytest.mark.parametrize("kind", ["single", "central", "ensemble"])
    def test_no_channel_without_handoff(self, kind, monkeypatch):
        def refuse():
            pytest.fail("a run without hand-offs opened a channel")
        monkeypatch.setitem(transport.CHANNELS, "socket", refuse)
        res = run_heuristic(tiny_config(transport="socket"), tiny_scaled(kind), kind)
        assert res.transfers == 0


class TestScoredOnce:
    @pytest.mark.parametrize("kind", ["single", "central", "ensemble",
                                      "single_transfer", "cyclical"])
    def test_test_cohort_scored_once(self, monkeypatch, kind):
        """The test cohort is scored once, after training: one pass of the
        final model, or one pass per member of an ensemble."""
        split = tiny_scaled(kind, k=3)
        test = split.test
        passes = []

        def recording(model, features):
            if np.array_equal(features, test.features):
                passes.append(model)
            return predict_proba(model, features)
        monkeypatch.setattr(heuristics, "predict_proba", recording)
        res = run_heuristic(tiny_config(max_epochs=3), split, kind)
        assert len(passes) == len(res.models) == (3 if kind == "ensemble" else 1)
        assert all(p is m for p, m in zip(passes, res.models))


class TestEvaluate:
    def test_evaluate_matches_predict_proba(self):
        split = tiny_split()
        model = run_heuristic(tiny_config(), scale_split(split, "single"), "single").models[0]
        probs = predict_proba(model, split.test.features)
        assert evaluate(model, split.test) == \
            accuracy_from_probs(probs, split.test.labels)


@pytest.fixture(scope="module")
def demo():
    """The quick demo's config at seed 0 and its raw split, with learning rate
    0.05, patience 3 and at most 300 epochs, so that plateaus end its runs."""
    plan = load_plan(Path(__file__).resolve().parents[1] / "configs" / "quick_demo.yaml")
    dataset, cfg = build_experiment(plan)
    cfg = replace(cfg, seed=0, optimizer=replace(cfg.optimizer, learning_rate=0.05),
                  plateau=replace(cfg.plateau, patience=3), max_epochs=300)
    return cfg, stratified_split(dataset, plan.split_plan)


def same_run(a, b):
    """Two one-model runs' metric rows and final theta are bitwise equal."""
    return a.metrics == b.metrics and a.models[0].theta.tobytes() == b.models[0].theta.tobytes()


class TestIdentities:
    """Exact identities between kinds that the visit plans imply, on the quick demo."""

    def test_cyclical_without_handoff_is_single_with_scaled_patience(self, demo):
        """(a) Cyclical with frequency >= max_epochs never hands off: it is single
        at institution 0 with the patience scaled by K."""
        cfg, split = demo
        scaled, k = scale_split(split, "cyclical"), len(split.institutions)
        cyclical = run_heuristic(cfg, scaled, "cyclical", frequency=cfg.max_epochs)
        single = run_heuristic(replace(cfg, plateau=replace(cfg.plateau, patience_scale=k)),
                               scaled, "single", institution=0)
        assert same_run(cyclical, single)
        assert cyclical.test_accuracy == single.test_accuracy
        assert cyclical.transfers == 0 and len(cyclical.metrics) < cfg.max_epochs

    def test_single_transfer_on_one_institution_is_single_to_its_first_plateau(self, demo):
        """(b) Single transfer over one institution ends at its first plateau:
        it is single at institution 0, cut at that epoch."""
        cfg, split = demo
        scaled = scale_split(split, "single_transfer")
        single = run_heuristic(cfg, scaled, "single")
        first_plateau = [row.phase for row in single.metrics].count("A")
        assert first_plateau < len(single.metrics)
        alone = replace(scaled, institutions=scaled.institutions[:1])
        transfer = run_heuristic(cfg, alone, "single_transfer")
        assert transfer.metrics == single.metrics[:first_plateau]
        assert same_run(transfer, run_heuristic(replace(cfg, max_epochs=first_plateau),
                                                scaled, "single"))

    @pytest.mark.parametrize("carry", [True, False], ids=["carry", "reset"])
    def test_handoff_loses_nothing(self, demo, monkeypatch, carry):
        """(c) A cyclical run whose hand-offs pass the model object through, with
        no serialize, channel or deserialize, equals the real run."""
        cfg, split = demo
        cfg, scaled = replace(cfg, carry_opt_state=carry), scale_split(split, "cyclical")
        real = run_heuristic(cfg, scaled, "cyclical", frequency=1)
        handoffs = []
        channel = SimpleNamespace(handoff=lambda model: handoffs.append(model) or model,
                                  close=lambda: None)
        monkeypatch.setattr(heuristics, "transport", SimpleNamespace(
            CHANNELS={"memory": lambda: channel}, serialize=lambda model, **_: model,
            deserialize=lambda model, specs: (model, None)))
        passed = run_heuristic(cfg, scaled, "cyclical", frequency=1)
        assert same_run(passed, real)
        assert passed.transfers == real.transfers == len(handoffs) > 0

    def test_sweep_at_k_is_cyclical(self, demo, monkeypatch):
        """(d) The scaling sweep at m = K is cyclical on the full split."""
        cfg, split = demo
        scaled, k = scale_split(split, "sweep"), len(split.institutions)
        runs, run_visits = [], heuristics._run_visits
        monkeypatch.setattr(heuristics, "_run_visits",
                            lambda *args: runs.append(run_visits(*args)) or runs[-1])
        [(m, accuracy)] = run_scaling_sweep(cfg, scaled, [k], freq=2)
        cyclical = run_heuristic(cfg, scaled, "cyclical", frequency=2)
        [(model, rows, *_)], _ = runs  # the sweep's one member, then cyclical's
        assert (m, accuracy) == (k, cyclical.test_accuracy)
        assert rows == cyclical.metrics
        assert model.theta.tobytes() == cyclical.models[0].theta.tobytes()

    def test_ensemble_members_are_single_runs(self, demo):
        """(e) Ensemble member i is single at institution i with seed seed + i.
        The members train in lockstep as one stack, and they stop at different
        epochs, so the one that runs longer steps alone after the other leaves."""
        cfg, split = demo
        scaled = scale_split(split, "ensemble")
        ensemble = run_heuristic(cfg, scaled, "ensemble")
        singles = [run_heuristic(replace(cfg, seed=cfg.seed + i), scaled, "single",
                                 institution=i) for i in range(len(split.institutions))]
        assert len({len(single.metrics) for single in singles}) == len(singles)
        assert ensemble.metrics == [row for single in singles for row in single.metrics]
        assert [m.theta.tobytes() for m in ensemble.models] == \
            [single.models[0].theta.tobytes() for single in singles]


def oracle_plan(kind, k, institution, frequency, patience, max_decays, max_epochs, lr0, draws):
    """The README table's visit plan for one run, written out with no generator
    and no schedule module: the metrics rows (epoch, phase, institution, lr),
    the transfer count and the step count. Epoch e trains for draws[e - 1][0]
    steps and scores a validation loss of draws[e - 1][1]."""
    scale = k if kind == "cyclical" else 1
    if kind == "single":
        visits = [(institution, max_epochs)]
    elif kind == "central":
        visits = [(None, max_epochs)]
    elif kind == "single_transfer":
        visits = [(i, None) for i in range(k)]
    else:
        visits = [(v % k, frequency) for v in range(max_epochs)]  # enough round-robin visits
    rows, transfers, steps, epoch = [], 0, 0, 0
    best, since, decays, lr = math.inf, 0, 0, lr0
    for v, (inst, length) in enumerate(visits):
        if epoch >= max_epochs:
            break
        if v > 0:
            transfers += 1
            if length is None:
                since = 0
        done = 0
        while epoch < max_epochs and (length is None or done < length):
            epoch += 1
            done += 1
            epoch_steps, val_loss = draws[epoch - 1]
            steps += epoch_steps
            rows.append((epoch, "ABCD"[decays], inst, lr))
            if best == math.inf:       # the seeding epoch counts as no improvement
                best = val_loss
                since += 1
            elif val_loss < best:      # only a strict improvement resets the count
                best, since = val_loss, 0
                continue
            else:
                since += 1
            if since < patience * scale:
                continue
            if decays < max_decays:    # a plateau decays the rate while decays remain
                decays, lr, since = decays + 1, lr * 0.25, 0
            elif length is not None:   # and after the last decay stops the run,
                return rows, transfers, steps
            if length is None:         # but a visit of None epochs ends at any plateau
                break
    return rows, transfers, steps


class TestVisitPlanOracle:
    """`run_heuristic` drives the real plans, policy and driver with training and
    scoring replaced by a seeded stream of small integer losses, so ties and
    plateaus are common; its rows and counts must equal `oracle_plan`'s."""
    CASES = 500  # per kind

    @staticmethod
    def scripted(monkeypatch, draws):
        epochs = iter(draws)
        current = []

        def train_on(model, cohort, cfg, lr, rng):
            current[:] = next(epochs)
            return current[0]
        monkeypatch.setattr(heuristics, "train_on", train_on)
        monkeypatch.setattr(heuristics, "evaluate", lambda model, cohort, k=1: {"top1": 0.5})
        monkeypatch.setattr(heuristics, "_val_metrics",
                            lambda model, validation: (0.5, float(current[1])))

    @pytest.mark.parametrize("kind", ["single", "central", "single_transfer", "cyclical"])
    def test_runs_follow_the_oracle(self, monkeypatch, kind):
        rng = np.random.default_rng(["single", "central", "single_transfer",
                                     "cyclical"].index(kind))
        splits = {k: tiny_scaled(kind, k=k) for k in range(1, 6)}
        for _ in range(self.CASES):
            k, frequency, patience = (int(v) for v in rng.integers([1, 1, 1], [6, 8, 5]))
            max_decays, max_epochs = int(rng.integers(0, 4)), int(rng.integers(1, 61))
            institution = int(rng.integers(0, k))
            draws = [(int(s), int(v)) for s, v in rng.integers([1, 0], [4, 5], (max_epochs, 2))]
            cfg = tiny_config(plateau=PlateauPolicy(patience, 0.25, max_decays),
                              max_epochs=max_epochs)
            with monkeypatch.context() as patch:
                self.scripted(patch, draws)
                res = run_heuristic(cfg, splits[k], kind, institution=institution,
                                    frequency=frequency)
            want = oracle_plan(kind, k, institution, frequency, patience, max_decays,
                               max_epochs, cfg.optimizer.learning_rate, draws)
            got = ([(r.global_epoch, r.phase, r.institution, r.learning_rate)
                    for r in res.metrics], res.transfers, res.optimizer_steps)
            assert got == want, (k, institution, frequency, patience, max_decays, max_epochs)
