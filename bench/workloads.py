"""Benchmark workloads: seeded experiment files and the CLI runs made on them.

The base experiments are fixed here, not read from ``configs/``, so that a
later edit of a shipped config does not silently change the benchmark.
``ORDERING`` is ``configs/ordering.yaml`` and ``QUICK_DEMO`` is
``configs/quick_demo.yaml`` as they stood when the benchmark was defined.
The workload seed goes into the dataset, split and training seeds.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass

ORDERING = {
    "dataset": {"kind": "rings", "n_patients": 3200, "samples_per_patient": 2,
                "num_classes": 2, "noise_rate": 0.1, "feature_dim": 32,
                "patient_spread": 0.25, "sample_jitter": 0.2, "seed": 1},
    "split": {"k": 4, "patients_per_institution": 400, "patients_validation": 400,
              "patients_test": 400, "seed": 1},
    "model": {"hidden": [32, 32]},
    "optimizer": {"kind": "adam", "learning_rate": 0.001},
    "schedule": {"patience": 20, "decay_factor": 0.25, "max_decays": 3},
    "training": {"batch_size": 32, "augment_sigma": 0.1},
    "heuristic": {"kind": "cyclical", "frequency": 1},
    "seeds": [1],
}

QUICK_DEMO = {
    "dataset": {"kind": "blobs", "n_patients": 240, "samples_per_patient": 2,
                "num_classes": 2, "noise_rate": 0.05, "feature_dim": 4, "seed": 0},
    "split": {"k": 2, "patients_per_institution": 40, "patients_validation": 40,
              "patients_test": 40, "seed": 0},
    "model": {"hidden": [16]},
    "optimizer": {"kind": "sgd-momentum", "learning_rate": 0.0005, "momentum": 0.9},
    "schedule": {"patience": 10, "decay_factor": 0.25, "max_decays": 2},
    "training": {"batch_size": 32, "max_epochs": 500},
    "heuristic": {"kind": "cyclical", "frequency": 1},
    "seeds": [0],
}

# Each workload caps training.max_epochs at or below the earliest epoch at
# which its plateau schedule can stop, (max_decays + 1) * patience *
# patience_scale (fedcycle.schedule.observe), so every seed trains the same
# number of epochs and takes the same number of optimizer steps, and one
# repetition is short enough that a run holds many of them.
# Cyclical on ORDERING: the schedule cannot stop before 4 * 20 * 4 = 320
# epochs; 48 epochs are 12 visits per institution and 47 hand-offs.
CYCLICAL_MAX_EPOCHS = 48
# cyclical_mem also runs its experiment once with every hand-off over a
# loopback socket, untimed, and checks that both write the same metrics.
# The socket run is not a timed workload: over a few dozen hand-offs, whether
# a connection falls into 40 ms delayed-ACK stalls after its first 5 to 50
# hand-offs or never does varies from run to run, so its wall time swings
# between about 0.3 s and 3.5 s on the same seed.
# plateau_mix lowers the patience to 5, so the decay ladder is still climbed
# within 20 epochs: no single-cohort run can stop before 4 * 5 = 20 epochs, and
# single transfer spends at least 5 epochs at each of its 4 institutions.
PLATEAU_MIX_PATIENCE = 5
PLATEAU_MIX_MAX_EPOCHS = 20
PLATEAU_MIX_KINDS = ("single", "central", "ensemble", "single_transfer")
# Cyclical on QUICK_DEMO cannot stop before 3 * 10 * 2 = 60 epochs.
DEMO_MAX_EPOCHS = 60
DEMO_SEEDS = 16


@dataclass(frozen=True)
class Invocation:
    """One ``fedcycle run`` call: an experiment document and its transport."""
    doc: dict
    transport: str = "memory"

    @property
    def kind(self) -> str:
        return self.doc["heuristic"]["kind"]

    @property
    def seeds(self) -> list:
        return self.doc["seeds"]


@dataclass(frozen=True)
class Workload:
    runs: tuple            # Invocation, run in order in one process
    reference: tuple = ()  # untimed twins whose metric CSVs must match the runs' ones


def _seeded(base: dict, seed: int, kind: str, seeds, max_epochs: int,
            tiny: bool) -> dict:
    doc = copy.deepcopy(base)
    doc["dataset"]["seed"] = seed
    doc["split"]["seed"] = seed
    doc["seeds"] = list(seeds)
    doc["heuristic"] = {"kind": kind, "frequency": 1}
    doc["training"]["max_epochs"] = max_epochs
    if tiny:
        ds, sp = doc["dataset"], doc["split"]
        ds["n_patients"] = min(ds["n_patients"], 240)
        for key in ("patients_per_institution", "patients_validation", "patients_test"):
            sp[key] = min(sp[key], 30)
        doc["training"]["max_epochs"] = 4
    return doc


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    """The workload ``name`` for workload seed ``seed``; ``tiny`` shrinks it
    to a few epochs on a small dataset for the smoke test."""
    if name == "cyclical_mem":
        doc = _seeded(ORDERING, seed, "cyclical", [seed], CYCLICAL_MAX_EPOCHS, tiny)
        return Workload((Invocation(doc),), reference=(Invocation(doc, "socket"),))
    if name == "plateau_mix":
        runs = []
        for kind in PLATEAU_MIX_KINDS:
            doc = _seeded(ORDERING, seed, kind, [seed], PLATEAU_MIX_MAX_EPOCHS, tiny)
            doc["schedule"]["patience"] = PLATEAU_MIX_PATIENCE
            runs.append(Invocation(doc))
        return Workload(tuple(runs))
    if name == "demo_sgd":
        n_seeds = 2 if tiny else DEMO_SEEDS
        doc = _seeded(QUICK_DEMO, seed, "cyclical", range(seed, seed + n_seeds),
                      DEMO_MAX_EPOCHS, tiny)
        return Workload((Invocation(doc),))
    raise KeyError(name)


NAMES = ("cyclical_mem", "plateau_mix", "demo_sgd")
