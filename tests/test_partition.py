import hashlib
import json

import numpy as np
import pytest

from fedcycle.cli import _write_json
from fedcycle.data import Dataset, gen_synthetic
from fedcycle.partition import (CapacityError, SplitPlan, pool, split_manifest,
                                stratified_split)


def make_dataset(seed=0, n_patients=200, num_classes=2, spp=3, noise=0.0):
    return gen_synthetic("rings", n_patients=n_patients, samples_per_patient=spp,
                         num_classes=num_classes, noise_rate=noise, feature_dim=3,
                         rng=np.random.default_rng(seed))


PLAN = SplitPlan(k=3, patients_per_institution=30, patients_validation=40,
                 patients_test=40, seed=7)


def patient_sets(split):
    return [set(cohort.patient_ids.tolist()) for _, cohort in split.cohorts()]


class TestStratifiedSplit:
    def test_cohort_sizes(self):
        split = stratified_split(make_dataset(), PLAN)
        sets = patient_sets(split)
        assert [len(s) for s in sets] == [30, 30, 30, 40, 40]
        # every sample of a selected patient travels with the patient
        for _, cohort in split.cohorts():
            counts = np.unique(cohort.patient_ids, return_counts=True)[1]
            assert np.all(counts == 3)

    def test_patient_disjointness(self):
        split = stratified_split(make_dataset(), PLAN)
        sets = patient_sets(split)
        for i in range(len(sets)):
            for j in range(i + 1, len(sets)):
                assert not (sets[i] & sets[j])

    def test_stratification_balance(self):
        ds = make_dataset(num_classes=2)
        split = stratified_split(ds, PLAN)
        for _, cohort in split.cohorts():
            counts = np.bincount(cohort.labels, minlength=2)
            assert abs(counts[0] - counts[1]) <= 3  # samples_per_patient

    def test_deterministic_and_seed_sensitive(self):
        ds = make_dataset()
        a = stratified_split(ds, PLAN)
        b = stratified_split(ds, PLAN)
        c = stratified_split(ds, SplitPlan(**{**PLAN.__dict__, "seed": 8}))
        assert split_manifest(a) == split_manifest(b)
        assert split_manifest(a) != split_manifest(c)

    def test_capacity_error_names_class(self):
        ds = make_dataset(n_patients=100)
        plan = SplitPlan(k=3, patients_per_institution=30, patients_validation=30,
                         patients_test=30, seed=0)
        with pytest.raises(CapacityError, match="class"):
            stratified_split(ds, plan)

    def test_exact_capacity_succeeds(self):
        ds = make_dataset(n_patients=140)
        plan = SplitPlan(k=2, patients_per_institution=30, patients_validation=40,
                         patients_test=40, seed=0)
        split = stratified_split(ds, plan)
        assert sum(len(s) for s in patient_sets(split)) == 140

    def test_majority_label_ties_go_low(self):
        # one patient with one sample of each class: stratified as class 0
        ds = Dataset(np.array(["p0", "p0", "p1", "p1"]),
                     np.zeros((4, 2)) + np.arange(4)[:, None],
                     np.array([0, 1, 1, 1]), 2)
        plan = SplitPlan(k=1, patients_per_institution=1, patients_validation=1,
                         patients_test=1, seed=0)
        # class 0 pool holds only p0, class 1 only p1 -> plan needs 3 patients
        with pytest.raises(CapacityError):
            stratified_split(ds, plan)

    def test_with_label_noise(self):
        ds = make_dataset(n_patients=300, noise=0.2)
        split = stratified_split(ds, PLAN)
        sets = patient_sets(split)
        assert [len(s) for s in sets] == [30, 30, 30, 40, 40]


class TestPool:
    def test_pool_excludes_validation_and_test(self):
        split = stratified_split(make_dataset(), PLAN)
        pooled = pool(split)
        assert len(pooled) == 3 * 30 * 3
        pool_pids = set(pooled.patient_ids.tolist())
        assert not (pool_pids & set(split.validation.patient_ids.tolist()))
        assert not (pool_pids & set(split.test.patient_ids.tolist()))


class TestManifest:
    def test_manifest_shape(self):
        split = stratified_split(make_dataset(), PLAN)
        manifest = split_manifest(split)
        assert sorted(manifest) == ["institution_0", "institution_1",
                                    "institution_2", "test", "validation"]
        for pids in manifest.values():
            assert pids == sorted(pids)

    def test_write_manifest_json(self, tmp_path):
        split = stratified_split(make_dataset(), PLAN)
        path = tmp_path / "manifest.json"
        _write_json(path, split_manifest(split))
        assert json.loads(path.read_text()) == split_manifest(split)


class TestSplitPlanValidation:
    @pytest.mark.parametrize("kw", [
        dict(k=0),
        dict(patients_per_institution=0),
        dict(patients_validation=0),
        dict(patients_test=-1),
    ])
    def test_rejects_nonpositive(self, kw):
        base = dict(k=2, patients_per_institution=10, patients_validation=10,
                    patients_test=10)
        base.update(kw)
        with pytest.raises(ValueError):
            SplitPlan(**base)


def interleaved_dataset():
    """Patient ids out of order and interleaved, 1-3 samples each, with
    mixed and tied labels, as load_csv can give."""
    rng = np.random.default_rng(5)
    names = [f"p{n}" for n in rng.permutation(40)] + [f"b{n}" for n in range(8)]
    pids, labels = [], []
    for i, name in enumerate(names):
        base = i % 2
        for _ in range(int(rng.integers(1, 4))):
            pids.append(name)
            labels.append(base if rng.random() < 0.7 else 1 - base)
    order = rng.permutation(len(pids))
    return Dataset(np.array(pids)[order], rng.normal(size=(len(pids), 3)),
                   np.array(labels, dtype=np.int64)[order], 2)


def split_digest(ds, plan):
    split = stratified_split(ds, plan)
    h = hashlib.sha256(json.dumps(split_manifest(split)).encode())
    for _, cohort in split.cohorts():
        h.update("\n".join(cohort.patient_ids.tolist()).encode())
        h.update(np.ascontiguousarray(cohort.labels, dtype="<i8").tobytes())
        h.update(np.ascontiguousarray(cohort.features, dtype="<f8").tobytes())
    return h.hexdigest()


# Which patient lands in which cohort, and each cohort's sample order, as
# sha256 digests: a change to the split's draws would change every metric.
@pytest.mark.parametrize("make, plan, digest", [
    # configs/ordering.yaml: 3,200 patients, k=4
    (lambda: gen_synthetic("rings", n_patients=3200, samples_per_patient=2,
                           num_classes=2, noise_rate=0.1, feature_dim=32,
                           rng=np.random.default_rng([1, 2]),
                           patient_spread=0.25, sample_jitter=0.2),
     SplitPlan(k=4, patients_per_institution=400, patients_validation=400,
               patients_test=400, seed=1),
     "bec33b7c21a4d3ffe211f2f3f6f16af24526e459a5a7945051dc7fc7dd689816"),
    # configs/quick_demo.yaml: 240 patients, k=2
    (lambda: gen_synthetic("blobs", n_patients=240, samples_per_patient=2,
                           num_classes=2, noise_rate=0.05, feature_dim=4,
                           rng=np.random.default_rng([0, 2])),
     SplitPlan(k=2, patients_per_institution=40, patients_validation=40,
               patients_test=40, seed=0),
     "f0f6e8cefb8c8a43aa2a53e5556171e5d75f4cc97760156edf4ac3ae82c91b5f"),
    # 3 classes, 3 samples per patient, 20% label noise: mixed and tied patients
    (lambda: make_dataset(seed=3, n_patients=150, num_classes=3, spp=3, noise=0.2),
     SplitPlan(k=3, patients_per_institution=10, patients_validation=8,
               patients_test=8, seed=11),
     "e4b511d6c29fa7e36cf91cf97158077949d227904b90454241539994aa9d305e"),
    (interleaved_dataset,
     SplitPlan(k=2, patients_per_institution=6, patients_validation=5,
               patients_test=5, seed=2),
     "94be81661f236a4a6e03ef09876a87858e56326fa956f9112796f597fcddf9c0"),
], ids=["ordering", "quick_demo", "three_class_noisy", "interleaved"])
def test_split_digest(make, plan, digest):
    assert split_digest(make(), plan) == digest
