import copy
import tracemalloc

import numpy as np
import pytest

from fedcycle.data import (CsvParseError, Dataset, DegenerateFeatureError,
                           augment, concat, export_csv, gen_synthetic,
                           load_csv, normalize)


def make_dataset(seed=0, **overrides):
    kwargs = dict(kind="rings", n_patients=60, samples_per_patient=3,
                  num_classes=2, noise_rate=0.0, feature_dim=4,
                  rng=np.random.default_rng(seed))
    kwargs.update(overrides)
    return gen_synthetic(**kwargs)


class TestGenSynthetic:
    def test_shapes_and_grouping(self):
        ds = make_dataset()
        assert len(ds) == 180
        assert ds.feature_dim == 4
        assert len(set(ds.patient_ids.tolist())) == 60
        counts = np.unique(ds.patient_ids, return_counts=True)[1]
        assert np.all(counts == 3)

    def test_deterministic(self):
        a = make_dataset(seed=42)
        b = make_dataset(seed=42)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_class_counts_balanced_even_with_noise(self):
        clean = make_dataset(noise_rate=0.0, num_classes=3, n_patients=90)
        noisy = make_dataset(noise_rate=0.2, num_classes=3, n_patients=90)
        assert np.array_equal(np.bincount(clean.labels), np.bincount(noisy.labels))

    def test_noise_rate_flips_expected_fraction(self):
        clean = make_dataset(noise_rate=0.0, n_patients=200)
        noisy = make_dataset(noise_rate=0.2, n_patients=200)
        flipped = np.mean(clean.labels != noisy.labels)
        assert flipped == pytest.approx(0.2, abs=0.01)

    def test_blobs_linearly_separable_at_zero_noise(self):
        ds = make_dataset(kind="blobs", noise_rate=0.0, patient_spread=0.1,
                          sample_jitter=0.1)
        # classes sit at opposite ends of the x axis for 2 classes
        x = ds.features[:, 0]
        assert np.all((x > 0) == (ds.labels == 0))

    def test_rings_radius_ordering(self):
        ds = make_dataset(kind="rings", noise_rate=0.0, patient_spread=0.05,
                          sample_jitter=0.05)
        r = np.linalg.norm(ds.features[:, :2], axis=1)
        assert r[ds.labels == 0].max() < r[ds.labels == 1].min()

    def test_within_patient_variance_below_between(self):
        ds = make_dataset(samples_per_patient=5, patient_spread=0.5,
                          sample_jitter=0.1)
        pids = ds.patient_ids
        centers = np.stack([ds.features[pids == p, :2].mean(axis=0)
                            for p in dict.fromkeys(pids.tolist())])
        within = np.mean([ds.features[pids == p, :2].var(axis=0).mean()
                          for p in dict.fromkeys(pids.tolist())])
        between = centers.var(axis=0).mean()
        assert within < between

    def test_noise_dims_uncorrelated_with_label(self):
        ds = make_dataset(n_patients=400, feature_dim=6)
        for d in range(2, 6):
            corr = np.corrcoef(ds.features[:, d], ds.labels)[0, 1]
            assert abs(corr) < 0.1

    @pytest.mark.parametrize("bad", [
        dict(kind="moons"),
        dict(noise_rate=0.5),
        dict(noise_rate=-0.1),
        dict(feature_dim=1),
        dict(num_classes=1),
        dict(samples_per_patient=0),
        dict(n_patients=1, num_classes=2),
    ])
    def test_rejects_bad_arguments(self, bad):
        with pytest.raises(ValueError):
            make_dataset(**bad)


class TestNormalize:
    def test_self_normalization(self):
        ds = make_dataset()
        out = normalize(ds)
        assert np.allclose(out.features.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(out.features.std(axis=0), 1.0, atol=1e-12)

    def test_two_point_example(self):
        ds = Dataset(np.array(["a", "b"]), np.array([[1.0], [3.0]]),
                     np.array([0, 1]), 2)
        out = normalize(ds)
        # mean 2 and population std 1 (the sample std would be sqrt(2))
        assert np.allclose(out.features, [[-1.0], [1.0]])

    def test_degenerate_feature_raises(self):
        ds = Dataset(np.array(["a", "b"]), np.array([[1.0, 5.0], [2.0, 5.0]]),
                     np.array([0, 1]), 2)
        with pytest.raises(DegenerateFeatureError, match="f1"):
            normalize(ds)

    def test_overflowing_spread_raises(self):
        """f0's std and f1's mean overflow float64, f2 is an ordinary
        feature: both wide features are named, with no overflow warning."""
        ds = Dataset(np.array(["a", "b", "c"]),
                     np.array([[-1e300, 1e308, 0.0], [1e300, 1e308, 1.0], [0.0, 1e308, 2.0]]),
                     np.array([0, 1, 0]), 2)
        with pytest.raises(DegenerateFeatureError,
                           match=r"overflows float64 in feature\(s\): f0, f1$"):
            normalize(ds)

    def test_labels_and_ids_untouched(self):
        ds = make_dataset()
        out = normalize(ds)
        assert np.array_equal(out.labels, ds.labels)
        assert np.array_equal(out.patient_ids, ds.patient_ids)


class TestAugment:
    def test_sigma_zero_is_identity(self):
        x = np.ones((4, 3))
        assert augment(x, 0.0, np.random.default_rng(0)) is x

    def test_noise_scale(self):
        x = np.zeros((20000, 2))
        out = augment(x, 0.5, np.random.default_rng(1))
        assert out.std() == pytest.approx(0.5, rel=0.02)
        assert not x.any()  # the input is left as it was

    def test_result_is_the_noise_draw(self):
        """The features are added into the noise draw, so augment allocates one
        array of their size, bitwise features + noise. The features are one
        institution's of the ordering task: numpy sums into a temporary of
        256 KiB or more by itself, but not into a smaller one."""
        features = np.random.default_rng(0).normal(size=(800, 32))
        rng = np.random.default_rng(1)
        twin = copy.deepcopy(rng)
        tracemalloc.start()
        try:
            out = augment(features, 0.3, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * features.nbytes
        expected = features + twin.normal(0.0, 0.3, size=features.shape)
        assert out.dtype == expected.dtype and out.tobytes() == expected.tobytes()
        assert augment(features, 0.0, rng) is features

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            augment(np.ones((2, 2)), -0.1, np.random.default_rng(0))


class TestCsv:
    def test_roundtrip_bit_exact(self, tmp_path):
        ds = make_dataset(noise_rate=0.1)
        path = tmp_path / "data.csv"
        export_csv(ds, path)
        back = load_csv(path)
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)
        assert np.array_equal(back.patient_ids, ds.patient_ids)
        assert back.num_classes == ds.num_classes

    def test_header_schema(self, tmp_path):
        ds = make_dataset(feature_dim=3)
        path = tmp_path / "data.csv"
        export_csv(ds, path)
        header = path.read_text().splitlines()[0]
        assert header == "patient_id,label,f0,f1,f2"

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("patient_id,label,f0\np0,0,1.5\np1,zero,2.5\n")
        with pytest.raises(CsvParseError, match=":3"):
            load_csv(path)

    @pytest.mark.parametrize("text", [
        "",
        "id,label,f0\np0,0,1.0\n",
        "patient_id,label,f1\np0,0,1.0\n",
        "patient_id,label,f0\np0,0\n",
        "patient_id,label,f0\np0,0,nope\n",
        "patient_id,label,f0\n",
        "patient_id,label,f0\np0,-1,1.0\n",
        "patient_id,label,f0\np0,0,1.0\np1,1000000000,2.0\n",
        "patient_id,label,f0\np0,0,1.0\np1,2,2.0\n",
        "patient_id,label,f0\np0,0,1.0\np1,99999999999999999999,2.0\n",
    ])
    def test_malformed_inputs(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(CsvParseError):
            load_csv(path)


class TestDatasetOps:
    def test_subset(self):
        ds = make_dataset()
        sub = ds.subset(np.array([0, 2, 4]))
        assert len(sub) == 3
        assert np.array_equal(sub.features, ds.features[[0, 2, 4]])

    def test_concat_roundtrip(self):
        ds = make_dataset()
        merged = concat([ds.subset(np.arange(0, 90)), ds.subset(np.arange(90, 180))])
        assert np.array_equal(merged.features, ds.features)

    def test_concat_nothing(self):
        with pytest.raises(ValueError, match="nothing to concatenate"):
            concat([])

    def test_concat_class_mismatch(self):
        a = make_dataset(num_classes=2)
        b = make_dataset(num_classes=3, n_patients=90)
        with pytest.raises(ValueError):
            concat([a, b])

    def test_misaligned_arrays_rejected(self):
        with pytest.raises(ValueError, match="patient_ids, features, labels must align"):
            Dataset(np.array(["a", "b"]), np.array([[1.0]]), np.array([0]), 2)

    def test_nonfinite_features_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.array(["a"]), np.array([[np.inf]]), np.array([0]), 2)

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.array(["a"]), np.array([[1.0]]), np.array([2]), 2)
