"""Patient-level stratified partitioning into institutional silos."""
from __future__ import annotations

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
    """Each sample's patient rank, patients ranked by first appearance, and
    each patient's majority label, ties going to the lowest class."""
    _, first, inverse = np.unique(dataset.patient_ids, return_index=True,
                                  return_inverse=True)
    rank_of = np.empty(len(first), dtype=np.intp)
    rank_of[np.argsort(first)] = np.arange(len(first))
    rank = rank_of[inverse]
    num_classes = dataset.num_classes
    counts = np.bincount(rank * num_classes + dataset.labels,
                         minlength=len(first) * num_classes)
    return rank, counts.reshape(len(first), num_classes).argmax(axis=1)


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
    rank, plabels = _patient_table(dataset)
    num_classes = dataset.num_classes
    per_class = [np.flatnonzero(plabels == c) for c in range(num_classes)]

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

    owner = np.full(len(plabels), -1)  # each patient's cohort
    taken = [0] * num_classes
    for j, counts in enumerate(allocations):
        for c in range(num_classes):
            owner[per_class[c][taken[c]:taken[c] + counts[c]]] = j
            taken[c] += counts[c]
    sample_owner = owner[rank]
    cohorts = [dataset.subset(np.flatnonzero(sample_owner == j))
               for j in range(len(allocations))]

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
