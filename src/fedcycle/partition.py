"""Patient-level stratified partitioning into institutional silos."""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .data import Dataset, concat


class CapacityError(ValueError):
    pass


@dataclass(frozen=True)
class SplitPlan:
    k: int
    patients_per_institution: int
    patients_validation: int
    patients_test: int
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("need at least one institution")
        for name in ("patients_per_institution", "patients_validation", "patients_test"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True)
class Split:
    institutions: list
    validation: Dataset
    test: Dataset

    def cohorts(self):
        for i, inst in enumerate(self.institutions):
            yield f"institution_{i}", inst
        yield "validation", self.validation
        yield "test", self.test


def _patient_table(dataset: Dataset):
    """First-appearance-ordered patients with index lists and majority label."""
    order, index_lists = [], {}
    for i, pid in enumerate(dataset.patient_ids):
        if pid not in index_lists:
            index_lists[pid] = []
            order.append(pid)
        index_lists[pid].append(i)
    labels = {}
    for pid in order:
        counts = np.bincount(dataset.labels[index_lists[pid]],
                             minlength=dataset.num_classes)
        labels[pid] = int(np.argmax(counts))  # argmax ties -> lowest class
    return order, index_lists, labels


def _cohort_class_counts(n_patients: int, num_classes: int, cursor: int):
    """Per-class patient counts for one cohort; remainder rotates via cursor."""
    counts = [n_patients // num_classes] * num_classes
    for _ in range(n_patients % num_classes):
        counts[cursor % num_classes] += 1
        cursor += 1
    return counts, cursor


def stratified_split(dataset: Dataset, plan: SplitPlan) -> Split:
    """Sample K institutions + validation + test, patient-disjoint and
    class-stratified, without replacement. Deterministic given plan.seed.

    A patient's stratification label is the majority class of its samples,
    ties going to the lowest class index.
    """
    order, index_lists, plabels = _patient_table(dataset)
    num_classes = dataset.num_classes
    per_class = [[pid for pid in order if plabels[pid] == c] for c in range(num_classes)]

    rng = np.random.default_rng(plan.seed)
    for pool_ in per_class:
        rng.shuffle(pool_)

    cohort_sizes = [plan.patients_per_institution] * plan.k \
        + [plan.patients_validation, plan.patients_test]
    cursor = 0
    allocations = []
    for size in cohort_sizes:
        counts, cursor = _cohort_class_counts(size, num_classes, cursor)
        allocations.append(counts)

    need = [sum(a[c] for a in allocations) for c in range(num_classes)]
    short = {c: need[c] - len(per_class[c]) for c in range(num_classes)
             if need[c] > len(per_class[c])}
    if short:
        detail = ", ".join(
            f"class {c}: need {need[c]}, have {len(per_class[c])} (short {d})"
            for c, d in sorted(short.items()))
        raise CapacityError(f"not enough patients per class: {detail}")

    taken = [0] * num_classes
    cohorts = []
    for counts in allocations:
        chosen = []
        for c in range(num_classes):
            chosen.extend(per_class[c][taken[c]:taken[c] + counts[c]])
            taken[c] += counts[c]
        idx = np.array(sorted(i for pid in chosen for i in index_lists[pid]), dtype=np.intp)
        cohorts.append(dataset.subset(idx))

    return Split(institutions=cohorts[:plan.k], validation=cohorts[plan.k],
                 test=cohorts[plan.k + 1])


def pool(split: Split) -> Dataset:
    """All institutional data concatenated; validation/test excluded."""
    return concat(split.institutions)


def split_manifest(split: Split) -> dict:
    manifest = {}
    for name, cohort in split.cohorts():
        manifest[name] = sorted(set(cohort.patient_ids.tolist()))
    return manifest


def write_manifest(split: Split, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(split_manifest(split), fh, indent=2)
        fh.write("\n")
