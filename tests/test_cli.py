import csv
import gc
import hashlib
import json
import os
import subprocess
import sys
import textwrap
import weakref
from pathlib import Path

import numpy as np
import pytest

from fedcycle import cli
from fedcycle.cli import main
from fedcycle.heuristics import MetricsRow
from fedcycle.nn import LayerSpec, OptimizerConfig, init_model
from fedcycle.transport import serialize


def fresh_python(*args, **kwargs) -> subprocess.CompletedProcess:
    """`python *args` in a fresh interpreter that imports this checkout's package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          **kwargs)


CONFIG = """
dataset:
  kind: blobs
  n_patients: 160
  samples_per_patient: 2
  num_classes: 2
  noise_rate: 0.0
  feature_dim: 3
  seed: 5
split:
  k: 2
  patients_per_institution: 20
  patients_validation: 20
  patients_test: 20
  seed: 1
model:
  hidden: [8]
optimizer:
  kind: adam
  learning_rate: 0.001
schedule:
  patience: 3
  decay_factor: 0.25
  max_decays: 1
training:
  batch_size: 16
  max_epochs: 40
heuristic:
  kind: central
seeds: [1]
"""
DATASET = CONFIG[CONFIG.index("dataset:"):CONFIG.index("split:")]
DEMO = Path(__file__).resolve().parents[1] / "configs" / "quick_demo.yaml"


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "experiment.yaml"
    path.write_text(textwrap.dedent(CONFIG))
    return path


def patch_config(tmp_path, **replacements):
    text = textwrap.dedent(CONFIG)
    for old, new in replacements.items():
        assert old in text
        text = text.replace(old, new)
    path = tmp_path / "patched.yaml"
    path.write_text(text)
    return path


def csv_config(tmp_path, patients, scale=1.0, **replacements):
    """CONFIG over a CSV dataset: patient i has label patients[i][0] and
    patients[i][1] samples of three random features, times `scale`."""
    rng = np.random.default_rng(0)
    rows = ["patient_id,label,f0,f1,f2"]
    for i, (label, samples) in enumerate(patients):
        rows += [f"p{i},{label}," + ",".join(repr(float(v)) for v in rng.normal(size=3) * scale)
                 for _ in range(samples)]
    data = tmp_path / "cohort.csv"
    data.write_text("\n".join(rows) + "\n")
    return patch_config(tmp_path, **{DATASET: f"dataset:\n  kind: csv\n  path: {data}\n"},
                        **replacements)


class TestRun:
    def test_central_single_seed_outputs(self, config_path, tmp_path, capsys):
        outdir = tmp_path / "out"
        assert main(["run", str(config_path), "--output-dir", str(outdir)]) == 0
        assert (outdir / "metrics_seed1.csv").exists()
        assert (outdir / "split_manifest.json").exists()
        summary = json.loads((outdir / "summary_seed1.json").read_text())
        for key in ("train_accuracy", "validation_accuracy", "test_accuracy"):
            assert 0.0 <= summary[key] <= 1.0
        assert "test accuracy over 1 seed(s)" in capsys.readouterr().out

    def test_metrics_csv_schema(self, config_path, tmp_path):
        outdir = tmp_path / "out"
        main(["run", str(config_path), "--output-dir", str(outdir)])
        with open(outdir / "metrics_seed1.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(MetricsRow._fields)
        assert len(rows) > 1
        first = rows[1]
        assert first[0] == "1" and first[1] == "A"
        float(first[3]); float(first[4]); float(first[5]); float(first[6])

    def test_metrics_columns_one_per_field(self):
        """write_metrics_csv writes each MetricsRow as it is, and its field
        names as the header: the CSV columns, in the order the digests pin."""
        assert MetricsRow._fields == ("global_epoch", "phase", "institution", "learning_rate",
                                      "train_acc", "val_acc", "val_loss")

    def test_multi_seed_aggregate(self, tmp_path):
        path = patch_config(tmp_path, **{"seeds: [1]": "seeds: [1, 2, 3]"})
        outdir = tmp_path / "out"
        assert main(["run", str(path), "--output-dir", str(outdir)]) == 0
        agg = json.loads((outdir / "aggregate.json").read_text())
        assert agg["seeds"] == [1, 2, 3]
        accs = [json.loads((outdir / f"summary_seed{s}.json").read_text())
                ["test_accuracy"] for s in (1, 2, 3)]
        assert agg["test_accuracy"]["mean"] == pytest.approx(np.mean(accs))
        assert agg["test_accuracy"]["std"] == pytest.approx(np.std(accs))

    def test_seed_override_flag(self, config_path, tmp_path):
        outdir = tmp_path / "out"
        main(["run", str(config_path), "--output-dir", str(outdir),
              "--seed-override", "9"])
        assert (outdir / "metrics_seed9.csv").exists()
        assert not (outdir / "metrics_seed1.csv").exists()

    def test_exported_seed_variable_ignored(self, tmp_path, monkeypatch):
        """A run's only inputs are its experiment file and its flags: an
        exported FEDCYCLE_SEED does not replace the config's seeds."""
        monkeypatch.setenv("FEDCYCLE_SEED", "7")
        path = patch_config(tmp_path, **{"seeds: [1]": "seeds: [1, 2]"})
        outdir = tmp_path / "out"
        assert main(["run", str(path), "--output-dir", str(outdir)]) == 0
        assert sorted(p.name for p in outdir.glob("metrics_seed*.csv")) == \
            ["metrics_seed1.csv", "metrics_seed2.csv"]
        assert json.loads((outdir / "aggregate.json").read_text())["seeds"] == [1, 2]

    @pytest.mark.parametrize("flag,message", [
        ("-2", "--seed-override: must be >= 0, got -2"),
    ], ids=["flag-negative"])
    def test_bad_seed_override_refused_before_any_work(self, config_path, tmp_path, capsys,
                                                       flag, message):
        outdir = tmp_path / "out"
        assert main(["run", str(config_path), "--output-dir", str(outdir),
                     "--seed-override", flag]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"
        assert not outdir.exists()

    @pytest.mark.parametrize("command", ["run", "partition"])
    def test_empty_output_dir_flag_refused(self, config_path, tmp_path, capsys,
                                           monkeypatch, command):
        """An empty --output-dir is refused, not read as "no flag", so a run
        never writes to the config's output_dir in its place."""
        monkeypatch.chdir(tmp_path)
        assert main([command, str(config_path), "--output-dir", ""]) == 2
        assert capsys.readouterr().err == "error: --output-dir: must name a directory, got ''\n"
        assert [p.name for p in tmp_path.iterdir()] == [config_path.name]

    def test_deterministic_metrics_bytes(self, config_path, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", str(config_path), "--output-dir", str(out1)])
        main(["run", str(config_path), "--output-dir", str(out2)])
        assert (out1 / "metrics_seed1.csv").read_bytes() == \
            (out2 / "metrics_seed1.csv").read_bytes()

    def test_memory_run_loads_no_socket_code(self, config_path, tmp_path):
        # a fresh interpreter: the test process has socket loaded already
        code = ("import sys; from fedcycle.cli import main; "
                f"assert main(['run', {str(config_path)!r}, '--output-dir', "
                f"{str(tmp_path / 'out')!r}]) == 0; "
                "print(sorted({'socket', 'select', 'selectors'} & set(sys.modules)))")
        out = fresh_python("-c", code, check=True).stdout
        assert out.splitlines()[-1] == "[]"

    def test_generated_dataset_dropped_once_split(self, tmp_path, monkeypatch):
        """Set-up keeps no reference to the generated dataset once the split has
        copied its cohorts out, so its rows are freed before they are scaled."""
        build, scale, refs, alive = cli.build_experiment, cli.scale_split, [], []

        def keep_ref(plan):
            dataset, cfg = build(plan)
            refs.append(weakref.ref(dataset))
            return dataset, cfg

        def check_ref(split, kind):
            gc.collect()
            alive.append(refs[0]() is not None)
            return scale(split, kind)
        monkeypatch.setattr(cli, "build_experiment", keep_ref)
        monkeypatch.setattr(cli, "scale_split", check_ref)
        assert main(["run", str(DEMO), "--output-dir", str(tmp_path / "out")]) == 0
        assert alive == [False]

    def test_config_error_exits_2(self, tmp_path, capsys):
        path = patch_config(tmp_path, **{"kind: central": "kind: gossip"})
        assert main(["run", str(path)]) == 2
        assert "gossip" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.yaml")]) == 2

    def test_runtime_error_names_heuristic_and_seed(self, config_path, tmp_path,
                                                    capsys, monkeypatch):
        def failing(*args, **kwargs):
            raise RuntimeError("diverged")
        monkeypatch.setattr(cli, "run_heuristic", failing)
        assert main(["run", str(config_path), "--output-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "central" in err and "seed 1" in err and "diverged" in err

    @pytest.mark.parametrize("old,new,key", [
        ("patience: 3", 'patience: "10"', "schedule.patience"),
        ("hidden: [8]", "hidden: 16", "model.hidden"),
        ("learning_rate: 0.001", "learning_rate: true", "optimizer.learning_rate"),
        ("max_epochs: 40", "max_epochs: 40\n  top_k: 5", "training.top_k"),
        ("kind: central", "kind: single\n  institution: 2", "heuristic.institution"),
        ("kind: central", "kind: sweep\n  m_values: [1, 1]", "heuristic.m_values"),
        # sizes past the 128 TiB user address space, so no overcommit setting lets them allocate
        ("feature_dim: 3", "feature_dim: 1000000000000000", "dataset"),
        ("hidden: [8]", "hidden: [1000000000000000]", "model"),
        ("hidden: [8]", "hidden: [1000000000000000000]", "model"),
    ])
    def test_bad_value_exits_2_with_one_line(self, tmp_path, capsys, old, new, key):
        path = patch_config(tmp_path, **{old: new})
        assert main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: {key}: ")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case,code", [
        ("config is a directory", 2), ("packet is a directory", 2),
        ("output dir is a file", 2), ("output dir under a file", 2),
        ("heuristic raises OSError", 1),
    ])
    def test_os_error_exits_with_one_line(self, config_path, tmp_path, capsys,
                                          monkeypatch, case, code):
        """An input or output path the OS refuses exits 2 with one line; an
        OSError inside a heuristic is a failed run and exits 1."""
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        run = ["run", str(config_path), "--output-dir"]
        argv = {"config is a directory": ["run", str(tmp_path)],
                "packet is a directory": ["inspect", str(tmp_path)],
                "output dir is a file": [*run, str(blocker)],
                "output dir under a file": [*run, str(blocker / "out")],
                "heuristic raises OSError": [*run, str(tmp_path / "out")]}[case]

        def failing(*args, **kwargs):
            raise ConnectionResetError("peer went away")
        monkeypatch.setattr(cli, "run_heuristic", failing)
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")

    def test_bad_freq_flag_exits_2(self, tmp_path, capsys):
        path = patch_config(tmp_path, **{"kind: central": "kind: cyclical"})
        assert main(["run", str(path), "--freq", "0"]) == 2
        assert capsys.readouterr().err == "error: --freq: frequency must be >= 1\n"

    def test_freq_flag_refused_unless_kind_reads_it(self, config_path, tmp_path, capsys):
        """Under central no visit length is read, so the flag would change nothing."""
        argv = ["run", str(config_path), "--freq", "2", "--output-dir", str(tmp_path / "out")]
        assert main(argv) == 2
        assert capsys.readouterr().err == ("error: --freq: read by kinds cyclical and sweep "
                                           "only, not central\n")
        assert not (tmp_path / "out").exists()

    def test_sweep_config_refused_before_any_work(self, tmp_path, capsys, monkeypatch):
        """`run` on a sweep config exits 2 before it builds a dataset or
        creates the output directory."""
        path = patch_config(tmp_path, **{
            "kind: central": "kind: sweep\n  m_values: [1, 2]"})
        monkeypatch.setattr(cli, "build_experiment",
                            lambda plan: pytest.fail("built the dataset of a sweep config"))
        assert main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err == "error: use the `sweep` subcommand for sweep configs\n"
        assert not (tmp_path / "out").exists()

    def test_unfillable_split_exits_2(self, tmp_path, capsys):
        path = patch_config(tmp_path, **{"n_patients: 160": "n_patients: 60"})
        assert main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("command,case", [
        ("run", "test"), ("sweep", "test"), ("partition", "test"),
        ("run", "demo"), ("sweep", "demo"), ("partition", "demo"),
        ("run", "other"), ("sweep", "other"), ("run", "wide"), ("run", "wide-csv"),
    ], ids=["run", "sweep", "partition", "run-demo", "sweep-demo", "partition-demo",
            "single-other", "sweep-other", "run-wide", "run-wide-csv"])
    def test_degenerate_test_cohort_refused_at_set_up(self, tmp_path, capsys, command, case):
        """A cohort with a zero-variance feature, or one whose spread
        overflows float64, has no spread to scale by: `run` and `sweep` exit
        2 naming it as split_manifest.json does and write nothing, whichever
        cohorts the kind trains on; `partition` needs no scaling and writes
        its manifest. Cases: a one-sample test cohort; the quick demo with
        one one-sample patient per institution; only institution 1
        degenerate, under `single` on institution 0 and a sweep of m = 1;
        the quick demo with blobs 1e200 from the origin; CSV features of
        about 1e307."""
        sweep = "kind: sweep\n  m_values: [1, 2]"
        problem = "zero-variance"
        if case == "test":
            edits = {"samples_per_patient: 2": "samples_per_patient: 1",
                     "patients_test: 20": "patients_test: 1"}
            if command == "sweep":
                edits["kind: central"] = sweep
            path = patch_config(tmp_path, **edits)
            cohort, features = "test", "f0, f1, f2"
        elif case == "demo":
            text = DEMO.read_text().replace("samples_per_patient: 2", "samples_per_patient: 1")
            text = text.replace("patients_per_institution: 40", "patients_per_institution: 1")
            if command == "sweep":
                text = text.replace("kind: cyclical", sweep)
            path = tmp_path / "demo.yaml"
            path.write_text(text)
            cohort, features = "institution_0", "f0, f1, f2, f3"
        elif case == "other":
            # class-0 patients have two samples, class-1 patients one, and a
            # one-patient institution i draws a class-i patient
            kind = "kind: sweep\n  m_values: [1]" if command == "sweep" else \
                "kind: single\n  institution: 0"
            path = csv_config(tmp_path, [(c, 2 - c) for c in (0, 1) * 4], **{
                "kind: central": kind,
                "patients_per_institution: 20": "patients_per_institution: 1",
                "patients_validation: 20": "patients_validation: 2",
                "patients_test: 20": "patients_test: 2"})
            cohort, features = "institution_1", "f0, f1, f2"
        elif case == "wide":
            path = tmp_path / "demo.yaml"
            path.write_text(DEMO.read_text().replace(
                "feature_dim: 4", "feature_dim: 4\n  blob_radius: 1.0e+200"))
            cohort, features = "institution_0", "f0, f1"
        else:
            path = csv_config(tmp_path, [(c, 2) for c in (0, 1) * 40], scale=1e307)
            cohort, features = "institution_0", "f0, f1, f2"
        if case.startswith("wide"):
            problem = "a mean or std that overflows float64 in"
        code = main([command, str(path), "--output-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        if command == "partition":
            assert code == 0 and (tmp_path / "out" / "split_manifest.json").exists()
        else:
            assert code == 2 and not (tmp_path / "out").exists()
            assert err == f"error: split: the {cohort} cohort has {problem} feature(s): " \
                          f"{features}\n"

    @pytest.mark.parametrize("labels,problem", [
        ((0,), "2 classes"), ((0, 1000000000), "0..C-1"), ((0, 2), "0..C-1"),
    ], ids=["one-class", "0-and-1e9", "0-and-2"])
    def test_single_class_csv_refused_at_load(self, tmp_path, capsys, labels, problem):
        """A CSV dataset whose labels are all one class, or are not 0..C-1,
        cannot train a C-class classifier: exit 2 with one line, before any
        output."""
        path = csv_config(tmp_path, [(c, 2) for c in labels * 8])
        assert main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: dataset: ")
        assert problem in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()


class TestSweep:
    def test_sweep_outputs_curve(self, tmp_path):
        path = patch_config(tmp_path, **{
            "kind: central": "kind: sweep\n  m_values: [1, 2]"})
        outdir = tmp_path / "out"
        assert main(["sweep", str(path), "--output-dir", str(outdir)]) == 0
        payload = json.loads((outdir / "sweep.json").read_text())
        assert [row["m"] for row in payload["curve"]] == [1, 2]
        for row in payload["curve"]:
            assert 0.0 <= row["test_accuracy_mean"] <= 1.0


    def test_failing_seed_exits_1(self, tmp_path, capsys, monkeypatch):
        path = patch_config(tmp_path, **{
            "kind: central": "kind: sweep\n  m_values: [1, 2]",
            "seeds: [1]": "seeds: [1, 2]"})
        real = cli.run_scaling_sweep

        def failing_at_2(cfg, *args, **kwargs):
            if cfg.seed == 2:
                raise ValueError("diverged")
            return real(cfg, *args, **kwargs)
        monkeypatch.setattr(cli, "run_scaling_sweep", failing_at_2)
        assert main(["sweep", str(path), "--output-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "error: sweep failed at seed 2: diverged\n"

    def test_non_sweep_config_refused_before_any_work(self, tmp_path, capsys, monkeypatch):
        """`sweep` on a config of another heuristic exits 2 before it builds
        a dataset or creates the output directory."""
        path = patch_config(tmp_path)
        monkeypatch.setattr(cli, "build_experiment",
                            lambda plan: pytest.fail("built the dataset of a central config"))
        assert main(["sweep", str(path), "--output-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err == ("error: heuristic.kind: the `sweep` subcommand needs kind: sweep, "
                       "got 'central'; use the `run` subcommand\n")
        assert not (tmp_path / "out").exists()

    def test_m_values_above_k_exits_2(self, tmp_path, capsys):
        path = patch_config(tmp_path, **{
            "kind: central": "kind: sweep\n  m_values: [1, 3]"})
        assert main(["sweep", str(path), "--output-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: heuristic.m_values: ")


class TestGradcheck:
    def test_passes_at_default_tolerance(self, capsys):
        assert main(["gradcheck", "--seeds", "3"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_fails_at_absurd_tolerance(self, capsys):
        assert main(["gradcheck", "--seeds", "1", "--tolerance", "1e-18"]) == 1
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("args", ["--seeds 0", "--seeds -3", "--tolerance inf",
                                      "--tolerance nan", "--tolerance 0",
                                      "--tolerance -0.5"])
    def test_bad_argument_exits_2_with_one_line(self, capsys, args):
        """A check over no seeds, or against a tolerance that is not a finite
        positive number, says nothing: it is refused before any check runs."""
        args = args.split()
        assert main(["gradcheck", *args]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and err.startswith(f"error: {args[0]}: ")


class TestModuleEntryPoint:
    """`python -m fedcycle.cli` exits with the code `main` returns."""

    def test_gradcheck_passes(self):
        done = fresh_python("-m", "fedcycle.cli", "gradcheck", "--seeds", "1")
        assert done.returncode == 0 and "PASS" in done.stdout

    def test_missing_config_exits_2_with_one_line(self, tmp_path):
        done = fresh_python("-m", "fedcycle.cli", "run", str(tmp_path / "missing.yaml"),
                            cwd=tmp_path)
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.count("\n") == 1 and done.stderr.startswith("error: ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("warnings", [[], ["-W", "error::RuntimeWarning"]],
                             ids=["default", "warnings-as-errors"])
    def test_diverging_run_prints_one_line(self, tmp_path, warnings):
        """A learning rate that overflows the parameters stops the run at
        `opt_step`'s finiteness check, which names the epoch; the passes'
        overflow warns nothing on the way, so stderr is that one line."""
        text = DEMO.read_text().replace("learning_rate: 0.0005", "learning_rate: 1e300")
        path = tmp_path / "diverging.yaml"
        path.write_text(text.replace("max_epochs: 500", "max_epochs: 3"))
        done = fresh_python(*warnings, "-m", "fedcycle.cli", "run", str(path),
                            "--output-dir", str(tmp_path / "out"))
        assert done.returncode == 1
        assert done.stderr == ("error: heuristic 'cyclical' failed at seed 0: in epoch 1, "
                               "non-finite parameter after update (layer 0, W)\n")


class TestPartition:
    def test_manifest_only(self, config_path, tmp_path):
        outdir = tmp_path / "out"
        assert main(["partition", str(config_path), "--output-dir", str(outdir)]) == 0
        manifest = json.loads((outdir / "split_manifest.json").read_text())
        assert sorted(manifest) == ["institution_0", "institution_1", "test",
                                    "validation"]

    def test_unallocatable_dataset_exits_2(self, tmp_path, capsys):
        """As for `run`: a dataset past the user address space stops set-up
        with one line and writes nothing."""
        path = patch_config(tmp_path, **{"feature_dim: 3": "feature_dim: 1000000000000000"})
        assert main(["partition", str(path), "--output-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: dataset: Unable to allocate")
        assert not (tmp_path / "out").exists()


class TestInspect:
    def test_prints_header_fields(self, tmp_path, capsys):
        specs = [LayerSpec("affine", 2, 3), LayerSpec("relu", 3, 3),
                 LayerSpec("sigmoid-head", 3, 1)]
        model = init_model(specs, OptimizerConfig("adam", 1e-3),
                           np.random.default_rng(0))
        path = tmp_path / "model.fwt"
        path.write_bytes(serialize(model, global_epoch=12, origin=2))
        assert main(["inspect", str(path)]) == 0
        out = capsys.readouterr().out
        assert "format_version: 1" in out
        assert "global_epoch: 12" in out
        assert "origin_institution: 2" in out
        assert "optimizer_state: adam" in out

    def test_corrupt_packet_exits_1(self, tmp_path):
        specs = [LayerSpec("sigmoid-head", 2, 1)]
        model = init_model(specs, OptimizerConfig("adam", 1e-3),
                           np.random.default_rng(0))
        data = bytearray(serialize(model))
        data[10] ^= 0xFF
        path = tmp_path / "bad.fwt"
        path.write_bytes(data)
        assert main(["inspect", str(path)]) == 1


def _run_digests(tmp_path, kind, transport, edits=()):
    """sha256 of the files one seed-0 run of configs/quick_demo.yaml writes,
    with each (old, new) line of `edits` replaced first."""
    text = DEMO.read_text()
    for old, new in (("kind: cyclical", f"kind: {kind}"), *edits):
        assert text.count(old) == 1
        text = text.replace(old, new)
    path = tmp_path / "demo.yaml"
    path.write_text(text)
    outdir = tmp_path / "out"
    assert main(["run", str(path), "--output-dir", str(outdir),
                 "--transport", transport]) == 0
    return [hashlib.sha256((outdir / name).read_bytes()).hexdigest()[:16]
            for name in ("metrics_seed0.csv", "summary_seed0.json", "aggregate.json",
                         "split_manifest.json")]


# The first 16 hex digits of the sha256 of metrics_seed0.csv,
# summary_seed0.json, aggregate.json and split_manifest.json: a refactor
# must leave every byte a run writes as it was. Single transfer never
# plateaus at institution 0 within the demo's 500 epochs, so it writes what
# single writes; the hand-off test below raises the learning rate to reach one.
DEMO_MANIFEST = "f36892503a58297a"
SINGLE = ["cc3d09fa18924278", "ac77cb12ad34fafa", "cb1b7518147cb699"]
CYCLICAL = ["af2b051bee5d9613", "380ee8dff114317a", "585f9003ebec50b4"]


@pytest.mark.parametrize("kind, transport, digests", [
    ("single", "memory", SINGLE),
    ("central", "memory", ["36ad44b8bae55279", "4cab50692542cd90", "a40d780b90f9b249"]),
    ("ensemble", "memory", ["2b0d70b675a6d736", "7edc86e6207346e1", "a40d780b90f9b249"]),
    ("single_transfer", "memory", SINGLE),
    ("cyclical", "memory", CYCLICAL),
    ("cyclical", "socket", CYCLICAL),
])
def test_run_digest(tmp_path, kind, transport, digests):
    assert _run_digests(tmp_path, kind, transport) == digests + [DEMO_MANIFEST]


@pytest.mark.parametrize("edits, digests", [
    pytest.param([("schedule:\n", "schedule:\n  kind: exp\n  decay: 0.99\n")],
                 ["4aba0fbe9a092177", "3e207023a595554b", "033a65674591a007",
                  DEMO_MANIFEST], id="exp_decay"),
    pytest.param([("kind: sgd-momentum", "kind: adam"), ("\n  momentum: 0.9", ""),
                  ("max_epochs: 500", "max_epochs: 500\n  carry_optimizer_state: false")],
                 ["3f8ee51c28e7fbb6", "3e7a24bbed94d5a8", "585f9003ebec50b4",
                  DEMO_MANIFEST], id="adam_state_reset"),
    pytest.param([("num_classes: 2", "num_classes: 3"),
                  ("hidden: [16]", "hidden: [16]\n  batchnorm: true\n  dropout: 0.2"),
                  ("batch_size: 32", "batch_size: 32\n  top_k: 2")],
                 ["9938e8356556d854", "c497c3ec3c5c24b4", "eadc6a88b7e9a68c",
                  "fe80100721846c7a"], id="softmax_batchnorm_dropout_top2"),
])
def test_run_digest_edited(tmp_path, edits, digests):
    """Cyclical runs down paths the demo does not take: the exponential
    learning rate, an optimizer state reset at each hand-off, and a softmax
    head behind batch norm and dropout, scored top-2."""
    assert _run_digests(tmp_path, "cyclical", "memory", edits) == digests


def test_run_digest_single_transfer_handoff(tmp_path):
    # at ten times the demo's learning rate single transfer plateaus at
    # institution 0 and hands the model to institution 1 once
    edits = [("learning_rate: 0.0005", "learning_rate: 0.005")]
    digests = _run_digests(tmp_path, "single_transfer", "memory", edits)
    assert digests == ["5a91cf0cfe08fa83", "8720ca36d437b653", "585f9003ebec50b4",
                       DEMO_MANIFEST]
    summary = json.loads((tmp_path / "out" / "summary_seed0.json").read_text())
    assert (summary["epochs"], summary["transfers"]) == (71, 1)
