import textwrap

import numpy as np
import pytest

from fedcycle.config import (ConfigError, build_dataset, build_experiment,
                             load_plan)
from fedcycle.data import export_csv, gen_synthetic

BASE_YAML = """
dataset:
  kind: rings
  n_patients: 120
  samples_per_patient: 2
  num_classes: 2
  noise_rate: 0.1
  feature_dim: 4
  seed: 3
split:
  k: 2
  patients_per_institution: 20
  patients_validation: 20
  patients_test: 20
  seed: 1
model:
  hidden: [16, 8]
optimizer:
  kind: adam
  learning_rate: 0.001
schedule:
  patience: 5
  decay_factor: 0.25
  max_decays: 2
training:
  batch_size: 16
  augment_sigma: 0.1
heuristic:
  kind: cyclical
  frequency: 2
seeds: [1, 2]
output_dir: out
"""


def write_config(tmp_path, text=BASE_YAML, **replacements):
    for old, new in replacements.items():
        assert old in text
        text = text.replace(old, new)
    path = tmp_path / "experiment.yaml"
    path.write_text(textwrap.dedent(text))
    return path


class TestLoadPlan:
    def test_full_round(self, tmp_path):
        plan = load_plan(write_config(tmp_path))
        assert plan.split_plan.k == 2
        assert plan.heuristic.kind == "cyclical"
        assert plan.heuristic.frequency == 2
        assert plan.seeds == (1, 2)
        assert plan.base_config.optimizer.kind == "adam"
        assert plan.base_config.plateau.patience == 5
        assert plan.base_config.batch_size == 16
        assert plan.model_shape == {"hidden": [16, 8], "batchnorm": False,
                                    "dropout": 0.0}

    def test_build_experiment_fills_specs(self, tmp_path):
        plan = load_plan(write_config(tmp_path))
        dataset, cfg = build_experiment(plan)
        assert dataset.feature_dim == 4
        assert cfg.model_specs[0].in_dim == 4
        assert cfg.model_specs[-1].kind == "sigmoid-head"

    def test_unknown_top_level_key(self, tmp_path):
        path = write_config(tmp_path, BASE_YAML + "extras: 1\n")
        with pytest.raises(ConfigError, match="extras"):
            load_plan(path)

    def test_unknown_section_key(self, tmp_path):
        path = write_config(tmp_path, **{"patience: 5": "patience: 5\n  min_delta: 0.1"})
        with pytest.raises(ConfigError, match="min_delta"):
            load_plan(path)

    def test_missing_section(self, tmp_path):
        text = BASE_YAML.replace("heuristic:\n  kind: cyclical\n  frequency: 2\n", "")
        with pytest.raises(ConfigError, match="heuristic"):
            load_plan(write_config(tmp_path, text))

    def test_unknown_heuristic_kind(self, tmp_path):
        path = write_config(tmp_path, **{"kind: cyclical": "kind: gossip"})
        with pytest.raises(ConfigError, match="gossip"):
            load_plan(path)

    def test_bad_seeds(self, tmp_path):
        path = write_config(tmp_path, **{"seeds: [1, 2]": "seeds: [one]"})
        with pytest.raises(ConfigError, match="seeds"):
            load_plan(path)

    def test_sweep_requires_m_values(self, tmp_path):
        path = write_config(tmp_path, **{"kind: cyclical": "kind: sweep"})
        with pytest.raises(ConfigError, match="m_values"):
            load_plan(path)

    def test_exp_decay_schedule(self, tmp_path):
        path = write_config(tmp_path, **{
            "patience: 5": "kind: exp\n  decay: 0.98\n  period: 2\n  patience: 5"})
        plan = load_plan(path)
        assert plan.base_config.exp_decay is not None
        assert plan.base_config.exp_decay.decay_per_period == 0.98
        assert plan.base_config.exp_decay.period == 2

    def test_defaults(self, tmp_path):
        text = BASE_YAML.replace("  kind: adam\n", "") \
                        .replace("training:\n  batch_size: 16\n  augment_sigma: 0.1\n", "")
        plan = load_plan(write_config(tmp_path, text))
        assert plan.base_config.optimizer.kind == "sgd-momentum"
        assert plan.base_config.batch_size == 32
        assert plan.base_config.plateau.decay_factor == 0.25

    @pytest.mark.parametrize("value", ['"no"', "1", "null"])
    def test_carry_optimizer_state_must_be_bool(self, tmp_path, value):
        path = write_config(tmp_path, **{
            "batch_size: 16": f"batch_size: 16\n  carry_optimizer_state: {value}"})
        with pytest.raises(ConfigError, match="carry_optimizer_state"):
            load_plan(path)

    def test_carry_optimizer_state_false(self, tmp_path):
        path = write_config(tmp_path, **{
            "batch_size: 16": "batch_size: 16\n  carry_optimizer_state: false"})
        assert load_plan(path).base_config.carry_opt_state is False

    def test_non_mapping_document(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("- just\n- a\n- list\n")
        with pytest.raises(ConfigError):
            load_plan(path)

    def test_invalid_yaml(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("dataset: [unclosed\n")
        with pytest.raises(ConfigError):
            load_plan(path)


class TestBuildDataset:
    def test_synthetic_deterministic(self):
        sec = {"kind": "rings", "n_patients": 50, "seed": 9, "feature_dim": 3}
        a = build_dataset(sec)
        b = build_dataset(sec)
        assert np.array_equal(a.features, b.features)
        assert len(a) == 100  # default samples_per_patient = 2

    def test_csv_dataset(self, tmp_path):
        ds = gen_synthetic("blobs", n_patients=30, samples_per_patient=2,
                           num_classes=2, noise_rate=0.0, feature_dim=3,
                           rng=np.random.default_rng(0))
        path = tmp_path / "cohort.csv"
        export_csv(ds, path)
        back = build_dataset({"kind": "csv", "path": str(path)})
        assert np.array_equal(back.features, ds.features)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            build_dataset({"kind": "spirals", "n_patients": 10})

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="gap"):
            build_dataset({"kind": "rings", "n_patients": 10, "gap": 2})

    def test_generator_knobs_accepted(self):
        ds = build_dataset({"kind": "rings", "n_patients": 20, "ring_gap": 2.0,
                            "patient_spread": 0.1, "sample_jitter": 0.1})
        r = np.linalg.norm(ds.features[:, :2], axis=1)
        assert r[ds.labels == 1].min() > r[ds.labels == 0].max()
