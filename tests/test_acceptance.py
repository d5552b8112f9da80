"""End-to-end acceptance checks.

Exact invariants (gradients, serialization, scheduling, equivalences) plus
ordering reproductions on a synthetic desk-scale task. Each test prints one
PASS/FAIL line. The ordering tests share one batch of training runs, made
in two worker processes, so the module is slowest on first collection (a
minute or two in total).
"""
import multiprocessing
import time
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from fedcycle.data import gen_synthetic
from fedcycle.heuristics import (ExperimentConfig, accuracy_from_probs,
                                 ensemble_predict, evaluate, mlp_specs,
                                 predict_proba, run_central,
                                 run_cyclical_weight_transfer, run_ensemble,
                                 run_scaling_sweep, run_single_institution,
                                 run_single_weight_transfer, scale_split)
from fedcycle.nn import (LayerSpec, OptimizerConfig, gradcheck_suite,
                         init_model)
from fedcycle.partition import SplitPlan, split_manifest, stratified_split
from fedcycle.schedule import (CONTINUE, DECAY, STOP, PlateauPolicy,
                               PlateauState, observe)
from fedcycle.transport import deserialize, serialize

pytestmark = pytest.mark.slow

# ---------------------------------------------------------------------------
# shared desk-scale task: 4 institutions x 400 patients, rings, 10% label noise


DESK_SEEDS = (1, 2, 3, 4, 5, 6, 7, 8)
HIGH_FREQS = (1, 2, 4)
LOW_FREQS = (5, 10, 20)
SWEEP_M_VALUES = [1, 2, 4, 8, 12, 16]


def desk_dataset(seed):
    return gen_synthetic("rings", n_patients=3200, samples_per_patient=2,
                         num_classes=2, noise_rate=0.1, feature_dim=32,
                         rng=np.random.default_rng([seed, 2]),
                         patient_spread=0.25, sample_jitter=0.2)


def desk_split(seed):
    plan = SplitPlan(k=4, patients_per_institution=400, patients_validation=400,
                     patients_test=400, seed=seed)
    return stratified_split(desk_dataset(seed), plan)


def desk_config(seed, **overrides):
    kwargs = dict(
        model_specs=mlp_specs(32, [32, 32], 2),
        optimizer=OptimizerConfig("adam", 1e-3),
        plateau=PlateauPolicy(patience=20, decay_factor=0.25, max_decays=3),
        batch_size=32, augment_sigma=0.1, seed=seed)
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


def desk_seed_results(seed):
    """One seed's test accuracies for every heuristic and CWT frequency."""
    split = scale_split(desk_split(seed), "central")
    cfg = desk_config(seed)
    out = {"central": run_central(cfg, split).test_accuracy, "cwt": {}}
    for freq in HIGH_FREQS + LOW_FREQS:
        out["cwt"][freq] = run_cyclical_weight_transfer(cfg, split, freq).test_accuracy
    out["swt"] = run_single_weight_transfer(cfg, split).test_accuracy
    ens = run_ensemble(cfg, split)
    out["ensemble"] = ens.test_accuracy
    # the ensemble members are exactly the per-institution models, so the
    # institutional baseline reuses them instead of retraining
    singles = [evaluate(m, split.test)["top1"] for m in ens.models]
    out["single_mean"] = float(np.mean(singles))
    return out


def worker_pool():
    """Two spawned worker processes that turn a RuntimeWarning into an
    error, as the test run does."""
    return ProcessPoolExecutor(max_workers=2, mp_context=multiprocessing.get_context("spawn"),
                               initializer=warnings.simplefilter,
                               initargs=("error", RuntimeWarning))


@pytest.fixture(scope="module")
def desk_results():
    """Per-seed test accuracies for every heuristic and CWT frequency. Each
    seed is a pure function of its number, so two worker processes share the
    seeds; the pool is shut down before the fixture returns, so no timed
    test shares the CPU with it."""
    with worker_pool() as workers:
        per_seed = list(workers.map(desk_seed_results, DESK_SEEDS))
    out = {key: [r[key] for r in per_seed]
           for key in ("central", "swt", "ensemble", "single_mean")}
    out["cwt"] = {f: [r["cwt"][f] for r in per_seed] for f in HIGH_FREQS + LOW_FREQS}
    return out


def report(n, ok, detail):
    print(f"\nACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


class TestCriterion1:
    def test_gradient_correctness(self):
        start = time.time()
        worst = gradcheck_suite(n_seeds=20)
        elapsed = time.time() - start
        ok = worst < 1e-4 and elapsed < 10
        report(1, ok, f"gradcheck max rel err {worst:.3e} (<1e-4), "
                      f"{elapsed:.1f}s (<10s)")


class TestCriterion2:
    def test_cwt_k1_equals_central(self):
        start = time.time()
        ds = gen_synthetic("rings", n_patients=300, samples_per_patient=2,
                           num_classes=2, noise_rate=0.1, feature_dim=8,
                           rng=np.random.default_rng([3, 2]))
        plan = SplitPlan(k=1, patients_per_institution=100,
                         patients_validation=60, patients_test=60, seed=3)
        split = scale_split(stratified_split(ds, plan), "central")
        cfg = desk_config(3, model_specs=mlp_specs(8, [16], 2), max_epochs=400,
                          plateau=PlateauPolicy(10, 0.25, 2))
        central = run_central(cfg, split)
        cwt = run_cyclical_weight_transfer(cfg, split, freq=3)
        elapsed = time.time() - start
        same_len = len(central.metrics) == len(cwt.metrics)
        max_gap = max(abs(a.val_loss - b.val_loss)
                      for a, b in zip(central.metrics, cwt.metrics)) \
            if same_len else float("inf")
        ok = same_len and max_gap <= 1e-9 and elapsed < 60
        report(2, ok, f"CWT(K=1) vs central: {len(cwt.metrics)} epochs, max "
                      f"val-loss gap {max_gap:.2e} (<=1e-9), {elapsed:.1f}s (<60s)")


class TestCriterion3:
    def test_heuristic_ordering(self, desk_results):
        start = time.time()
        means = {
            "central": np.mean(desk_results["central"]),
            "cwt": np.mean(desk_results["cwt"][1]),
            "swt": np.mean(desk_results["swt"]),
            "ensemble": np.mean(desk_results["ensemble"]),
            "single": np.mean(desk_results["single_mean"]),
        }
        order = ["central", "cwt", "swt", "ensemble", "single"]
        slack = -0.01  # adjacent pairs may tie within one accuracy point
        pair_ok = all(means[a] - means[b] >= slack
                      for a, b in zip(order, order[1:]))
        gap = means["central"] - means["single"]
        elapsed = time.time() - start
        ok = pair_ok and gap >= 0.08 and elapsed < 1800
        detail = " >= ".join(f"{k} {means[k]:.3f}" for k in order)
        report(3, ok, f"{detail}; central-single gap {gap * 100:.1f} pts (>=8), "
                      f"{len(DESK_SEEDS)} seeds")


class TestCriterion4:
    def test_frequency_effect(self, desk_results):
        diffs = []
        for i in range(len(DESK_SEEDS)):
            high = np.mean([desk_results["cwt"][f][i] for f in HIGH_FREQS])
            low = np.mean([desk_results["cwt"][f][i] for f in LOW_FREQS])
            diffs.append(high - low)
        diffs = np.array(diffs)
        mean_diff = float(diffs.mean())
        favorable = int(np.sum(diffs > 0))
        ok = mean_diff >= 0.0 and favorable >= int(np.sum(diffs < 0))
        report(4, ok, f"high-freq CWT - low-freq CWT: mean {mean_diff * 100:+.2f} "
                      f"pts (>=0), {favorable}/{len(diffs)} seeds favor high frequency")


def sweep_seed_curve(seed):
    """One seed's test accuracy per m for criterion 5."""
    ds = gen_synthetic("rings", n_patients=1900, samples_per_patient=2,
                       num_classes=2, noise_rate=0.1, feature_dim=32,
                       rng=np.random.default_rng([seed, 2]),
                       patient_spread=0.25, sample_jitter=0.2)
    plan = SplitPlan(k=16, patients_per_institution=40,
                     patients_validation=300, patients_test=300, seed=seed)
    split = scale_split(stratified_split(ds, plan), "sweep")
    rows = run_scaling_sweep(desk_config(seed), split, SWEEP_M_VALUES, freq=1)
    return [acc for _, acc in rows]


class TestCriterion5:
    def test_scaling_sweep(self):
        """The seeds run in two spawned workers, as the fixture's do; the
        pool is shut down before the elapsed time is taken."""
        start = time.time()
        with worker_pool() as workers:
            curves = list(workers.map(sweep_seed_curve, (1, 2, 3, 4, 5, 6)))
        mean = np.mean(curves, axis=0)
        moving = np.convolve(mean, np.ones(3) / 3, mode="valid")
        elapsed = time.time() - start
        chance = 0.5
        low_start = mean[0] < chance + 0.05
        gain = mean[-1] - mean[0]
        monotone = bool(np.all(np.diff(moving) >= -1e-12))
        ok = low_start and gain >= 0.10 and monotone and elapsed < 2700
        report(5, ok, f"m=1 {mean[0]:.3f} (<{chance + 0.05:.2f}), gain "
                      f"{gain * 100:+.1f} pts (>=10), moving average "
                      f"{'non-decreasing' if monotone else 'DECREASES'}, "
                      f"{elapsed:.0f}s (<2700s)")


class TestCriterion6:
    def test_partition_invariants(self):
        start = time.time()
        rng = np.random.default_rng(2024)
        violations = []
        for trial in range(1000):
            num_classes = int(rng.integers(2, 4))
            spp = int(rng.integers(1, 4))
            k = int(rng.integers(1, 5))
            per = int(rng.integers(2, 6))
            held = int(rng.integers(2, 6))
            # headroom so every plan is feasible for any class skew
            need = k * per + 2 * held
            n_patients = need * num_classes + int(rng.integers(0, 20))
            ds = gen_synthetic("blobs", n_patients=n_patients,
                               samples_per_patient=spp, num_classes=num_classes,
                               noise_rate=0.0, feature_dim=2,
                               rng=np.random.default_rng(int(rng.integers(1 << 30))))
            plan = SplitPlan(k=k, patients_per_institution=per,
                             patients_validation=held, patients_test=held,
                             seed=int(rng.integers(1 << 30)))
            split = stratified_split(ds, plan)
            sets = [set(c.patient_ids.tolist()) for _, c in split.cohorts()]
            for i in range(len(sets)):
                for j in range(i + 1, len(sets)):
                    if sets[i] & sets[j]:
                        violations.append((trial, "overlap"))
            for _, cohort in split.cohorts():
                counts = np.bincount(cohort.labels, minlength=num_classes)
                if counts.max() - counts.min() > spp:
                    violations.append((trial, "balance"))
            if split_manifest(split) != split_manifest(stratified_split(ds, plan)):
                violations.append((trial, "determinism"))
        elapsed = time.time() - start
        ok = not violations and elapsed < 60
        report(6, ok, f"1000 random (dataset, plan) pairs: "
                      f"{len(violations)} violations, {elapsed:.1f}s (<60s)")


class TestCriterion7:
    ARCHES = (
        [LayerSpec("sigmoid-head", 3, 1)],
        [LayerSpec("affine", 4, 6), LayerSpec("relu", 6, 6),
         LayerSpec("sigmoid-head", 6, 1)],
        [LayerSpec("affine", 4, 6), LayerSpec("batchnorm", 6, 6),
         LayerSpec("relu", 6, 6), LayerSpec("dropout", 6, 6, 0.5),
         LayerSpec("softmax-head", 6, 3)],
    )

    def test_transport(self):
        start = time.time()
        failures = []

        # 1000 random models roundtrip bitwise
        for trial in range(1000):
            specs = self.ARCHES[trial % len(self.ARCHES)]
            opt = ("adam", "sgd-momentum")[trial % 2]
            model = init_model(specs, OptimizerConfig(opt, 1e-3),
                               np.random.default_rng(trial))
            data = serialize(model, global_epoch=trial, origin=trial % 7)
            back, meta = deserialize(data, specs)
            if serialize(back, global_epoch=trial, origin=trial % 7) != data:
                failures.append(("roundtrip", trial))

        # every single-byte corruption of one packet raises
        model = init_model(self.ARCHES[2], OptimizerConfig("adam", 1e-3),
                           np.random.default_rng(0))
        data = serialize(model)
        undetected = 0
        for i in range(len(data)):
            mutated = bytearray(data)
            mutated[i] ^= 0xFF
            try:
                deserialize(bytes(mutated), self.ARCHES[2])
                undetected += 1
            except Exception:
                pass

        # CWT metrics identical across transports
        ds = gen_synthetic("rings", n_patients=200, samples_per_patient=2,
                           num_classes=2, noise_rate=0.0, feature_dim=4,
                           rng=np.random.default_rng([1, 2]))
        plan = SplitPlan(k=2, patients_per_institution=40,
                         patients_validation=30, patients_test=30, seed=1)
        split = scale_split(stratified_split(ds, plan), "cyclical")
        rows = {}
        for transport_kind in ("memory", "socket"):
            cfg = desk_config(1, model_specs=mlp_specs(4, [8], 2),
                              plateau=PlateauPolicy(5, 0.25, 1), max_epochs=80,
                              transport=transport_kind)
            rows[transport_kind] = run_cyclical_weight_transfer(cfg, split, 2).metrics
        channels_match = rows["memory"] == rows["socket"]

        elapsed = time.time() - start
        ok = (not failures and undetected == 0 and channels_match
              and elapsed < 120)
        report(7, ok, f"1000 roundtrips ({len(failures)} failures), "
                      f"{len(data)} byte-flips all detected "
                      f"({undetected} silent), socket==memory metrics: "
                      f"{channels_match}, {elapsed:.1f}s (<120s)")


class TestCriterion8:
    def test_plateau_hand_traces(self):
        checks = []

        # patience 2: 1.0, 0.9, 0.95, 0.92 -> C, C, C, Decay
        policy = PlateauPolicy(2, 0.5, 3)
        state = PlateauState.fresh(0.1)
        kinds = [observe(state, policy, v).kind for v in (1.0, 0.9, 0.95, 0.92)]
        checks.append(kinds == [CONTINUE, CONTINUE, CONTINUE, DECAY])

        # strictly improving stream never decays or stops
        state = PlateauState.fresh(0.1)
        kinds = [observe(state, policy, 1.0 - 0.01 * i).kind for i in range(100)]
        checks.append(all(k == CONTINUE for k in kinds))

        # three 0.25 decays from 5e-4 end at 7.8125e-6
        policy = PlateauPolicy(1, 0.25, 3)
        state = PlateauState.fresh(5e-4)
        while observe(state, policy, 1.0).kind != STOP:
            pass
        checks.append(abs(state.current_lr - 7.8125e-6) < 1e-18)

        # flat stream stops at (max_decays+1) * patience * K exactly
        stop_exact = []
        for patience, k, max_decays in ((20, 4, 3), (2, 1, 0), (3, 5, 2)):
            policy = PlateauPolicy(patience, 0.25, max_decays, patience_scale=k)
            state = PlateauState.fresh(1e-3)
            epoch = 0
            while True:
                epoch += 1
                if observe(state, policy, 0.7).kind == STOP:
                    break
            stop_exact.append(epoch == (max_decays + 1) * patience * k)
        checks.append(all(stop_exact))

        ok = all(checks)
        report(8, ok, f"hand-traced schedule sequences: "
                      f"{sum(checks)}/{len(checks)} groups exact")


class TestCriterion9:
    def test_ensemble_degenerate_case(self):
        ds = gen_synthetic("rings", n_patients=360, samples_per_patient=2,
                           num_classes=2, noise_rate=0.1, feature_dim=8,
                           rng=np.random.default_rng([5, 2]))
        plan = SplitPlan(k=4, patients_per_institution=40,
                         patients_validation=50, patients_test=50, seed=5)
        split = stratified_split(ds, plan)
        cfg = desk_config(5, model_specs=mlp_specs(8, [16], 2),
                          plateau=PlateauPolicy(5, 0.25, 1), max_epochs=60)
        scaled = scale_split(split, "single")
        model = run_single_institution(cfg, scaled, 0).models[0]
        test = scaled.test
        copies = ensemble_predict([model] * len(split.institutions), test.features)
        probs_equal = np.array_equal(copies, predict_proba(model, test.features))
        preds_equal = (accuracy_from_probs(copies, test.labels)["top1"]
                       == evaluate(model, test)["top1"])
        ok = probs_equal and preds_equal
        report(9, ok, f"ensemble of {len(split.institutions)} copies of one model: "
                      f"probabilities bitwise equal to the model's {probs_equal}, "
                      f"top-1 equal {preds_equal} on {len(test)} samples")
