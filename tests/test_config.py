import copy
import importlib.util
import json
import math
import re
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import yaml

from fedcycle.cli import main
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

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="this Python reads ints of any length")
    def test_int_beyond_digit_limit(self, tmp_path):
        path = write_config(tmp_path, **{"patience: 5": "patience: 1" + "0" * 5000})
        with pytest.raises(ConfigError, match="digits"):
            load_plan(path)

    def test_invalid_yaml(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("dataset: [unclosed\n")
        with pytest.raises(ConfigError):
            load_plan(path)

    def test_exponent_floats_load_as_floats(self, tmp_path):
        """YAML 1.2's floats: an exponent needs neither a dot nor a sign."""
        for text, value in EXPONENTS.items():
            path = write_config(tmp_path, **{"learning_rate: 0.001": f"learning_rate: {text}"})
            rate = load_plan(path).base_config.optimizer.learning_rate
            assert type(rate) is float and rate == value, text

    def test_json_exponent_float(self, tmp_path):
        doc = yaml.safe_load(BASE_YAML)
        doc["optimizer"]["learning_rate"] = 0.00001
        path = tmp_path / "experiment.json"
        path.write_text(json.dumps(doc))
        assert '"learning_rate": 1e-05' in path.read_text()
        plan = load_plan(path)
        assert plan.base_config.optimizer.learning_rate == 1e-05
        assert type(plan.split_plan.k) is int  # an integer stays an int


TWO_DOCUMENTS = "a: 1\n---\nb: 2\n"
# Each YAML text that is not a document, and where its problem is.
SYNTAX_ERRORS = {"unclosed": ("dataset: [unclosed\n", "line 2, column 1"),
                 "unhashable": ("[1]: 2\n", "line 1, column 1"),
                 "documents": (TWO_DOCUMENTS, "line 2, column 1"),
                 "control": ("a: \x07\n", "position 3")}


def use_loader(monkeypatch, libyaml):
    if not libyaml:
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    elif not hasattr(yaml, "CSafeLoader"):
        pytest.skip("PyYAML is built without libyaml")


@pytest.mark.parametrize("libyaml", [True, False], ids=["libyaml", "pure-python"])
@pytest.mark.parametrize("case", SYNTAX_ERRORS)
def test_yaml_error_is_one_line(tmp_path, capsys, monkeypatch, case, libyaml):
    """PyYAML's own message runs over two to four lines; the CLI prints its
    context and problem after the file and where in it, on one line. The two
    loaders word some problems differently but place them alike."""
    use_loader(monkeypatch, libyaml)
    text, place = SYNTAX_ERRORS[case]
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    where = f"{path}: {place}: "
    with pytest.raises(ConfigError, match=f"^{re.escape(where)}"):
        load_plan(path)
    assert main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: {where}")


@pytest.mark.parametrize("libyaml", [True, False], ids=["libyaml", "pure-python"])
def test_yaml_error_keeps_its_context(tmp_path, capsys, monkeypatch, libyaml):
    """A problem that reads only after its context gets the context first."""
    use_loader(monkeypatch, libyaml)
    path = tmp_path / "bad.yaml"
    path.write_text(TWO_DOCUMENTS)
    assert main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (f"error: {path}: line 2, column 1: expected a single "
                                       "document in the stream: but found another document\n")


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


# Floats with an exponent that YAML 1.1 would read as strings (all but the
# last), and their values.
EXPONENTS = {"5e-4": 5e-4, "1e-05": 1e-05, "2E3": 2e3, "1.5e2": 150.0, ".5e3": 500.0,
             "+1e+0": 1.0, "1.0e-8": 1e-8}


def load_and_build(path):
    return build_experiment(load_plan(path))


# Each case: (text in BASE_YAML, its replacement, the key the error must name).
WRONG_VALUES = [
    ("k: 2", 'k: "2"', "split.k"),
    ("k: 2", "k: true", "split.k"),
    ("patience: 5", 'patience: "5"', "schedule.patience"),
    ("batch_size: 16", 'batch_size: "16"', "training.batch_size"),
    ("frequency: 2", 'frequency: "2"', "heuristic.frequency"),
    ("n_patients: 120", 'n_patients: "120"', "dataset.n_patients"),
    ("batch_size: 16", 'batch_size: 16\n  top_k: "1"', "training.top_k"),
    ("batch_size: 16", "batch_size: 32.5", "training.batch_size"),
    ("seed: 3", "seed: 1.5", "dataset.seed"),
    ("learning_rate: 0.001", "learning_rate: true", "optimizer.learning_rate"),
    ("hidden: [16, 8]", 'hidden: [16, 8]\n  batchnorm: "yes"', "model.batchnorm"),
    ("hidden: [16, 8]", "hidden: 16", "model.hidden"),
    ("hidden: [16, 8]", "hidden: [16.5]", "model.hidden"),
    ("kind: cyclical", "kind: sweep\n  m_values: 3", "heuristic.m_values"),
    ("batch_size: 16", "batch_size: 16\n  max_epochs: null", "training.max_epochs"),
    ("output_dir: out", "output_dir: 5", "output_dir"),
    ("seed: 3", 'seed: 3\n  ring_gap: "big"', "dataset.ring_gap"),
    ("patience: 5", "kind: expo\n  patience: 5", "schedule.kind"),
    ("kind: adam", "kind: rmsprop", "optimizer.kind"),
    ("kind: cyclical", "kind: gossip", "heuristic.kind"),
]


# Values that pass every type check yet cannot run: each must fail at load
# (before any dataset is built) with one error line naming the key.
INVALID_AT_LOAD = [
    ("batch_size: 16", "batch_size: 16\n  max_epochs: 0", "training.max_epochs"),
    ("seed: 3", "seed: -3", "dataset.seed"),
    ("seed: 1", "seed: -3", "split.seed"),
    ("seeds: [1, 2]", "seeds: [-1]", "seeds[0]"),
    ("seeds: [1, 2]", "seeds: [0, 0]", "seeds"),
    ("seeds: [1, 2]", "seeds: []", "seeds"),
    ("max_decays: 2", "max_decays: 26", "schedule.max_decays"),
    ("learning_rate: 0.001", "learning_rate: 0.001\n  beta1: 1.0", "optimizer.beta1"),
    ("learning_rate: 0.001", "learning_rate: 0.001\n  beta2: -0.5", "optimizer.beta2"),
    ("learning_rate: 0.001", "learning_rate: 0.001\n  beta2: 0", "optimizer.beta2"),
    ("learning_rate: 0.001", "learning_rate: 0.001\n  epsilon: 0.0", "optimizer.epsilon"),
    # NaN compares false both ways, so each lower bound must reject it
    ("learning_rate: 0.001", "learning_rate: .nan", "optimizer.learning_rate"),
    ("learning_rate: 0.001", "learning_rate: 0.001\n  l2: .nan", "optimizer.l2"),
    ("learning_rate: 0.001", "learning_rate: 0.001\n  epsilon: .nan", "optimizer.epsilon"),
    ("augment_sigma: 0.1", "augment_sigma: .nan", "training.augment_sigma"),
    # inf passes every lower bound, so each float key must be finite
    ("learning_rate: 0.001", "learning_rate: .inf", "optimizer.learning_rate"),
    ("learning_rate: 0.001", "learning_rate: 0.001\n  l2: .inf", "optimizer.l2"),
    ("augment_sigma: 0.1", "augment_sigma: .inf", "training.augment_sigma"),
    ("learning_rate: 0.001", "learning_rate: 0.001\n  epsilon: .inf", "optimizer.epsilon"),
    # an empty path would write into the working directory
    ("output_dir: out", 'output_dir: ""', "output_dir"),
    # a key that only another kind reads would be dropped without a word
    ("learning_rate: 0.001", "learning_rate: 0.001\n  momentum: 0.5", "optimizer.momentum"),
    *(("kind: adam\n  learning_rate: 0.001",
       f"kind: sgd-momentum\n  learning_rate: 0.001\n  {key}: 0.5", f"optimizer.{key}")
      for key in ("beta1", "beta2", "epsilon")),
    ("patience: 5", "patience: 5\n  decay: 0.5", "schedule.decay"),
    ("patience: 5", "patience: 5\n  period: 3", "schedule.period"),
    ("frequency: 2", "frequency: 2\n  institution: 1", "heuristic.institution"),
    ("frequency: 2", "frequency: 2\n  m_values: [1, 2]", "heuristic.m_values"),
    ("batch_size: 16", "batch_size: 0", "training.batch_size"),
    ("batch_size: 16", "batch_size: 16\n  top_k: 0", "training.top_k"),
    ("learning_rate: 0.001", "learning_rate: 0", "optimizer.learning_rate"),
    ("learning_rate: 0.001", "learning_rate: 0.001\n  l2: -0.1", "optimizer.l2"),
]


@pytest.mark.parametrize("old,new,key", INVALID_AT_LOAD,
                         ids=[f"{key}={new.split(': ')[-1]}" for _, new, key in INVALID_AT_LOAD])
def test_invalid_value_rejected_at_load(tmp_path, capsys, old, new, key):
    assert BASE_YAML.count(old) == 1
    path = write_config(tmp_path, **{old: new})
    with pytest.raises(ConfigError, match=rf"^{re.escape(key)}: "):
        load_plan(path)
    assert main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: {key}: ")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


# Values that load yet that the dataset generator refuses: each must stop the
# run with one error line naming the key, before any output is written.
REFUSED_AT_BUILD = [
    ("seed: 3", "seed: 3\n  patient_spread: -1.0", "dataset.patient_spread"),
    ("seed: 3", "seed: 3\n  sample_jitter: -0.5", "dataset.sample_jitter"),
]


@pytest.mark.parametrize("old,new,key", REFUSED_AT_BUILD,
                         ids=[key for _, _, key in REFUSED_AT_BUILD])
def test_invalid_value_refused_at_build(tmp_path, capsys, old, new, key):
    path = write_config(tmp_path, **{old: new})
    assert main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {key}: must be >= 0\n"
    assert not (tmp_path / "out").exists()


# The quick demo run centrally under a schedule whose last learning rate
# underflows to 0: halved each epoch for 1,200 epochs, or decayed twice by 1e-300.
UNDERFLOW = {
    "exp": {"kind: cyclical": "kind: central", "max_epochs: 500": "max_epochs: 1200",
            "patience: 10\n  decay_factor: 0.25\n  max_decays: 2":
            "kind: exp\n  decay: 0.5\n  patience: 100000"},
    "plateau": {"kind: cyclical": "kind: central", "decay_factor: 0.25": "decay_factor: 1.0e-300"},
}


@pytest.mark.parametrize("schedule", UNDERFLOW)
def test_schedule_driving_rate_to_zero_rejected_at_load(tmp_path, capsys, schedule):
    """Such a run used to train until the rate reached 0 and then fail with
    exit 1; it now stops at load with one error line naming the schedule."""
    path = write_config(tmp_path, (ROOT / "configs" / "quick_demo.yaml").read_text(),
                        **UNDERFLOW[schedule])
    message = f"training: the {schedule} schedule drives the learning rate 0.0005 to 0"
    with pytest.raises(ConfigError, match=f"^{message}$"):
        load_plan(path)
    assert main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


# The quick demo with one key written twice (old text, new text), and the
# line of its second writing.
DUPLICATES = {
    "seeds": ("output_dir: out/demo\n", "output_dir: out/demo\nseeds: [3]\n", 35),
    "learning_rate": ("  momentum: 0.9\n", "  momentum: 0.9\n  learning_rate: 0.5\n", 23),
}


@pytest.mark.parametrize("key", DUPLICATES)
def test_duplicate_key_rejected_at_load(tmp_path, capsys, key):
    """A key written twice in one mapping used to keep its last value silently;
    it now stops the run at load with one error line naming the key and the
    line it is written twice at."""
    old, new, line = DUPLICATES[key]
    path = write_config(tmp_path, (ROOT / "configs" / "quick_demo.yaml").read_text(),
                        **{old: new})
    message = f"{path}: line {line}: duplicate key {key!r}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        load_plan(path)
    assert main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_merged_key_may_be_written_again(tmp_path):
    """A key that a merge (`<<`) brings in is not written twice: the mapping's own wins."""
    path = write_config(tmp_path, **{"  kind: adam\n": "  <<: {kind: sgd-momentum, "
                                     "learning_rate: 0.5}\n  kind: adam\n"})
    optimizer = load_plan(path).base_config.optimizer
    assert (optimizer.kind, optimizer.learning_rate) == ("adam", 0.001)


class TestSchema:
    @pytest.mark.parametrize("old,new,key", WRONG_VALUES,
                             ids=[f"{key}={new.split(': ')[-1]}"
                                  for _, new, key in WRONG_VALUES])
    def test_wrong_value_names_key(self, tmp_path, old, new, key):
        assert BASE_YAML.count(old) == 1
        path = write_config(tmp_path, **{old: new})
        with pytest.raises(ConfigError, match=rf"(^|\s){re.escape(key)}\b"):
            load_and_build(path)

    def test_int_accepted_for_float(self, tmp_path):
        path = write_config(tmp_path, **{"learning_rate: 0.001": "learning_rate: 1",
                                         "augment_sigma: 0.1": "augment_sigma: 0"})
        cfg = load_plan(path).base_config
        assert cfg.optimizer.learning_rate == 1.0
        assert type(cfg.optimizer.learning_rate) is float
        assert type(cfg.augment_sigma) is float

    def test_int_beyond_float_range(self, tmp_path):
        path = write_config(tmp_path, **{"learning_rate: 0.001": f"learning_rate: {10 ** 400}"})
        with pytest.raises(ConfigError, match=r"^optimizer\.learning_rate: must be finite"):
            load_plan(path)

    def test_renamed_keys(self, tmp_path):
        path = write_config(tmp_path, **{
            "learning_rate: 0.001": "learning_rate: 0.001\n  l2: 0.5",
            "patience: 5": "kind: exp\n  decay: 0.5\n  patience: 5",
            # 0.001 * 0.5 ** 4999 (the default max_epochs) underflows to 0
            "batch_size: 16": "batch_size: 16\n  max_epochs: 500"})
        cfg = load_plan(path).base_config
        assert cfg.optimizer.l2_coeff == 0.5
        assert cfg.exp_decay.decay_per_period == 0.5

    @pytest.mark.parametrize("anchor,key", [
        ("batch_size: 16", "transport"), ("batch_size: 16", "seed"),
        ("batch_size: 16", "carry_opt_state"), ("learning_rate: 0.001", "l2_coeff"),
        ("patience: 5", "decay_per_period")])
    def test_internal_names_are_not_keys(self, tmp_path, anchor, key):
        path = write_config(tmp_path, **{anchor: f"{anchor}\n  {key}: 1"})
        with pytest.raises(ConfigError, match=f"unknown key.*{key}"):
            load_plan(path)

    @pytest.mark.parametrize("old,new,key", [
        ("kind: cyclical", "kind: sweep\n  m_values: [1, 3]", "heuristic.m_values"),
        ("kind: cyclical", "kind: sweep\n  m_values: [0]", "heuristic.m_values"),
        ("kind: cyclical", "kind: single\n  institution: 2", "heuristic.institution"),
        ("frequency: 2", "frequency: 0", "frequency"),
        ("augment_sigma: 0.1", "augment_sigma: -0.1", "augment_sigma"),
        ("hidden: [16, 8]", "hidden: [16, 0]", "model"),
        ("hidden: [16, 8]", "hidden: [16]\n  dropout: 1.5", "model"),
        ("hidden: [16, 8]", "hidden: [16]\n  dropout: -0.1", "model"),
        ("n_patients: 120", "n_patients: 1", "dataset"),
    ])
    def test_invalid_value_fails_at_load(self, tmp_path, old, new, key):
        with pytest.raises(ConfigError, match=re.escape(key)):
            load_and_build(write_config(tmp_path, **{old: new}))

    @pytest.mark.parametrize("kind", ["central", "ensemble", "single_transfer", "cyclical"])
    def test_institution_refused_unless_single(self, tmp_path, kind):
        path = write_config(tmp_path, **{"kind: cyclical\n  frequency: 2":
                                         f"kind: {kind}\n  institution: 0"})
        with pytest.raises(ConfigError, match=rf"^heuristic\.institution: read by kind "
                                              rf"single only, not {kind}$"):
            load_plan(path)

    @pytest.mark.parametrize("kind", ["single", "central", "ensemble", "single_transfer"])
    def test_frequency_accepted_under_every_kind(self, tmp_path, kind):
        """The benchmark's documents set `frequency: 1` under every kind."""
        path = write_config(tmp_path, **{"kind: cyclical": f"kind: {kind}"})
        assert load_plan(path).heuristic.frequency == 2

    def test_top_k_above_class_count(self, tmp_path):
        path = write_config(tmp_path, **{"batch_size: 16": "batch_size: 16\n  top_k: 3"})
        plan = load_plan(path)
        with pytest.raises(ConfigError, match="training.top_k"):
            build_experiment(plan)

    def test_bad_csv_is_config_error(self, tmp_path):
        path = tmp_path / "cohort.csv"
        path.write_text("patient_id,label,f0\np0,x,1.0\n")
        with pytest.raises(ConfigError, match="dataset"):
            build_dataset({"kind": "csv", "path": str(path)})


ROOT = Path(__file__).resolve().parents[1]
FUZZ_VALUES = ("x", -1, 0, math.nan, math.inf, -math.inf, None)
# Keys the schema accepts that neither a shipped config nor a benchmark
# document sets.
OPTIONAL_KEYS = [
    *(("optimizer", k) for k in ("l2", "epsilon", "beta1", "beta2", "momentum")),
    ("training", "top_k"), ("training", "carry_optimizer_state"),
    *(("schedule", k) for k in ("kind", "decay", "period")),
    ("model", "batchnorm"), ("model", "dropout"),
    ("heuristic", "institution"), ("heuristic", "m_values"),
    ("dataset", "ring_gap"), ("dataset", "blob_radius"),
]


def _dump(doc) -> str:
    """``yaml.safe_dump``'s text, written by libyaml where PyYAML has it."""
    return yaml.dump(doc, Dumper=getattr(yaml, "CSafeDumper", yaml.SafeDumper))


def _fuzz_documents() -> dict:
    """The three shipped configs and the benchmark's workload documents."""
    docs = {p.name: yaml.safe_load(p.read_text()) for p in sorted(ROOT.glob("configs/*.yaml"))}
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  ROOT / "bench" / "workloads.py")
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for name in workloads.NAMES:
        for i, run in enumerate(workloads.build(name, 1).runs):
            docs[f"{name}[{i}]"] = run.doc
    return docs


def _key_paths(doc: dict, prefix=()):
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))
        else:
            yield prefix + (key,)


def _fuzz_cases(optional: bool, once: bool = False):
    """(document name, key path, value, YAML text, heuristic kind) per
    distinct document: each key of a document set to each fuzz value, or
    with `optional` each key of OPTIONAL_KEYS that the document leaves out;
    with `once`, only the first document of each (key, value) pair.
    Training stops after 2 epochs unless max_epochs is the key under test."""
    seen, pairs = set(), set()
    for name, base in _fuzz_documents().items():
        paths = [p for p in OPTIONAL_KEYS if p[1] not in base[p[0]]] if optional \
            else list(_key_paths(base))
        for path in paths:
            for value in FUZZ_VALUES:
                if once and (path, repr(value)) in pairs:
                    continue
                pairs.add((path, repr(value)))
                doc = copy.deepcopy(base)
                if path != ("training", "max_epochs"):
                    doc["training"]["max_epochs"] = min(doc["training"].get("max_epochs", 2), 2)
                section = doc
                for key in path[:-1]:
                    section = section[key]
                section[path[-1]] = value
                text = _dump(doc)
                if text not in seen:
                    seen.add(text)
                    yield name, ".".join(path), value, text, base["heuristic"]["kind"]


@pytest.mark.slow
@pytest.mark.parametrize("optional", [False, True], ids=["document-keys", "optional-keys"])
def test_fuzzed_key_exits_cleanly(tmp_path, capsys, optional):
    """A wrong type, a negative, zero, NaN, an infinity or null at any key
    either runs (exit 0) or stops with one `error:` line (exit 2); nothing
    raises and nothing fails mid-run."""
    failures, path, n = [], tmp_path / "experiment.yaml", 0
    for n, (name, key, value, text, kind) in enumerate(_fuzz_cases(optional), 1):
        path.write_text(text)
        argv = ["sweep" if kind == "sweep" else "run", str(path),
                "--output-dir", str(tmp_path / "out")]
        try:
            code = main(argv)
        except Exception as exc:  # an exception that escapes main is a failure
            code = repr(exc)
        out, err = capsys.readouterr()
        errors = (out + err).count("error:")
        if code not in (0, 2) or errors > 1:
            failures.append(f"{name} {key}={value!r}: exit {code}, {errors} error line(s)")
    assert n > (100 if optional else 1000)
    assert not failures, "\n".join(failures)


@pytest.mark.slow
def test_yaml_loaders_agree(tmp_path, monkeypatch):
    """load_plan parses with libyaml where PyYAML is built with it, and with
    PyYAML's own SafeLoader where it is not (here, once CSafeLoader is gone).
    Each shipped config as written, each fuzz document, each fuzz value at
    each key (its first fuzz case) and each quick demo with a key written
    twice (`DUPLICATES`) or with an exponent float (`EXPONENTS`), and two
    documents in one file (`TWO_DOCUMENTS`), loads to an equal plan under both, or
    fails under both with the same ConfigError, which the CLI prints as one
    `error:` line with exit 2 (the fuzz test checks that for every case)."""
    texts = [p.read_text() for p in sorted(ROOT.glob("configs/*.yaml"))]
    texts += [_dump(doc) for doc in _fuzz_documents().values()]
    texts += [case[3] for optional in (False, True) for case in _fuzz_cases(optional, once=True)]
    demo = (ROOT / "configs" / "quick_demo.yaml").read_text()
    texts += [demo.replace(old, new) for old, new, _ in DUPLICATES.values()]
    texts += [demo.replace("learning_rate: 0.0005", f"learning_rate: {text}")
              for text in EXPONENTS]
    texts.append(TWO_DOCUMENTS)
    path = tmp_path / "experiment.yaml"

    def outcomes():
        for text in texts:
            path.write_text(text)
            try:
                yield repr(load_plan(path))  # repr: a NaN in the dataset section is kept raw
            except ConfigError as exc:
                yield f"error: {exc}"

    with_libyaml = list(outcomes())
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    assert list(outcomes()) == with_libyaml
    errors = [o for o in with_libyaml if o.startswith("error: ")]
    assert len(texts) > 300 and 100 < len(errors) < len(texts) - 12
