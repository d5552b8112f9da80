"""Synthetic patient-grouped datasets, CSV I/O, normalization, augmentation."""
from __future__ import annotations

import csv
import os
from dataclasses import dataclass

import numpy as np


class DegenerateFeatureError(ValueError):
    pass


class CsvParseError(ValueError):
    pass


@dataclass(frozen=True)
class Dataset:
    patient_ids: np.ndarray  # (n,) str
    features: np.ndarray     # (n, d) float64
    labels: np.ndarray       # (n,) int
    num_classes: int

    def __post_init__(self):
        n = len(self.patient_ids)
        if self.features.shape[0] != n or self.labels.shape[0] != n:
            raise ValueError("patient_ids, features, labels must align")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features must be finite")
        if n and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ValueError("label index out of range")

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def subset(self, idx) -> "Dataset":
        return Dataset(self.patient_ids[idx], self.features[idx],
                       self.labels[idx], self.num_classes)


def concat(datasets) -> Dataset:
    datasets = list(datasets)
    if not datasets:
        raise ValueError("nothing to concatenate")
    num_classes = datasets[0].num_classes
    if any(d.num_classes != num_classes for d in datasets):
        raise ValueError("datasets disagree on num_classes")
    return Dataset(
        np.concatenate([d.patient_ids for d in datasets]),
        np.concatenate([d.features for d in datasets]),
        np.concatenate([d.labels for d in datasets]),
        num_classes,
    )


def gen_synthetic(kind: str, n_patients: int, samples_per_patient: int = 2,
                  num_classes: int = 2, noise_rate: float = 0.0, feature_dim: int = 2, *,
                  rng: np.random.Generator,
                  patient_spread: float = 0.35, sample_jitter: float = 0.25,
                  ring_gap: float = 1.0, blob_radius: float = 3.0) -> Dataset:
    """Generate a patient-grouped classification task.

    * ``blobs``: class clusters on a circle, linearly separable at zero noise.
    * ``rings``: concentric annuli (class c at radius ``(c+1)*ring_gap``),
      not linearly separable.

    Each patient owns a shared center; its samples jitter around it, so
    within-patient variance stays below between-patient variance. Only the
    first two feature dimensions are informative; the rest are unit noise.
    A ``noise_rate`` fraction of sample labels is flipped, balanced per
    class so overall class counts are preserved.
    """
    if kind not in ("rings", "blobs"):
        raise ValueError(f"unknown synthetic kind {kind!r}")
    if not (0.0 <= noise_rate < 0.5):
        raise ValueError("noise_rate must be in [0, 0.5)")
    if n_patients < num_classes:
        raise ValueError("need at least one patient per class")
    if feature_dim < 2:
        raise ValueError("feature_dim must be >= 2")
    if samples_per_patient < 1 or num_classes < 2:
        raise ValueError("samples_per_patient >= 1 and num_classes >= 2 required")
    for name, scale in (("patient_spread", patient_spread), ("sample_jitter", sample_jitter)):
        if not scale >= 0:  # a NaN fails it too
            raise ValueError(f"{name} must be >= 0")

    patient_class = np.arange(n_patients) % num_classes
    if kind == "blobs":
        angles = 2.0 * np.pi * patient_class / num_classes
        centers = blob_radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        centers = centers + rng.normal(0.0, patient_spread, size=(n_patients, 2))
    else:
        radius = (patient_class + 1.0) * ring_gap \
            + rng.normal(0.0, patient_spread, size=n_patients)
        theta = rng.uniform(0.0, 2.0 * np.pi, size=n_patients)
        centers = np.stack([radius * np.cos(theta), radius * np.sin(theta)], axis=1)

    n = n_patients * samples_per_patient
    pid_width = len(str(max(n_patients - 1, 1)))
    patient_ids = np.repeat(
        np.array([f"p{i:0{pid_width}d}" for i in range(n_patients)]), samples_per_patient)
    informative = np.repeat(centers, samples_per_patient, axis=0) \
        + rng.normal(0.0, sample_jitter, size=(n, 2))
    features = np.empty((n, feature_dim))
    features[:, :2] = informative
    if feature_dim > 2:
        features[:, 2:] = rng.normal(0.0, 1.0, size=(n, feature_dim - 2))
    labels = np.repeat(patient_class, samples_per_patient)

    # Balanced label flips: equal counts per class, targets cycled over the
    # other classes, so per-class totals are unchanged.
    flips_per_class = int(round(noise_rate * n)) // num_classes
    if flips_per_class > 0:
        new_labels = labels.copy()
        for c in range(num_classes):
            (members,) = np.nonzero(labels == c)
            chosen = rng.choice(members, size=flips_per_class, replace=False)
            offsets = 1 + (np.arange(flips_per_class) % (num_classes - 1))
            new_labels[chosen] = (c + offsets) % num_classes
        labels = new_labels

    return Dataset(patient_ids, features, labels.astype(np.int64), num_classes)


def normalize(cohort: Dataset) -> Dataset:
    """The cohort scaled to zero-mean unit-std features by its own
    statistics; population std (divide by n). A spread of 0 or one that
    overflows float64 leaves nothing to scale by."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean = cohort.features.mean(axis=0)
        std = cohort.features.std(axis=0)
    overflow = ~(np.isfinite(mean) & np.isfinite(std))
    for problem, bad in (("a mean or std that overflows float64 in", overflow),
                         ("zero-variance", std <= 0.0)):
        if bad.any():
            raise DegenerateFeatureError(
                f"{problem} feature(s): {', '.join(f'f{i}' for i in np.nonzero(bad)[0])}")
    return Dataset(cohort.patient_ids, (cohort.features - mean) / std,
                   cohort.labels, cohort.num_classes)


def augment(features: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Additive per-feature Gaussian jitter."""
    if not sigma >= 0:
        raise ValueError("sigma must be >= 0")
    if sigma == 0.0:
        return features
    noise = rng.normal(0.0, sigma, size=features.shape)
    noise += features  # bitwise features + noise, as IEEE addition commutes
    return noise


def load_csv(path: str | os.PathLike) -> Dataset:
    """Read the ``patient_id,label,f0..f{d-1}`` schema written by export_csv."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvParseError(f"{path}: empty file") from None
        if len(header) < 3 or header[0] != "patient_id" or header[1] != "label":
            raise CsvParseError(f"{path}: header must be patient_id,label,f0,...")
        expected = ["f%d" % i for i in range(len(header) - 2)]
        if header[2:] != expected:
            raise CsvParseError(f"{path}: feature columns must be f0..f{len(header) - 3}")
        dim = len(expected)
        pids, feats, labels = [], [], []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != dim + 2:
                raise CsvParseError(f"{path}:{lineno}: expected {dim + 2} fields, got {len(row)}")
            pids.append(row[0])
            try:
                labels.append(int(row[1]))
            except ValueError:
                raise CsvParseError(f"{path}:{lineno}: bad label {row[1]!r}") from None
            try:
                feats.append([float(v) for v in row[2:]])
            except ValueError:
                raise CsvParseError(f"{path}:{lineno}: non-numeric feature") from None
    if not pids:
        raise CsvParseError(f"{path}: no data rows")
    if min(labels) < 0:
        raise CsvParseError(f"{path}: negative label")
    classes = len(set(labels))  # counted, so nothing is sized by the largest label
    if classes == 1:
        raise CsvParseError(f"{path}: every label is {labels[0]}; a classifier needs 2 classes")
    if max(labels) != classes - 1:
        raise CsvParseError(f"{path}: labels must be 0..C-1 with every class present; got "
                            f"{classes} distinct labels up to {max(labels)}")
    return Dataset(np.array(pids), np.array(feats, dtype=np.float64),
                   np.array(labels, dtype=np.int64), classes)


def export_csv(dataset: Dataset, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["patient_id", "label"] + [f"f{i}" for i in range(dataset.feature_dim)])
        for pid, label, row in zip(dataset.patient_ids, dataset.labels, dataset.features):
            writer.writerow([pid, int(label)] + [repr(float(v)) for v in row])
