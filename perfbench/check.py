"""Checks on the output directory of one `spc run`.

``check_run`` returns the problems it finds, an empty list for a good run:
every artifact the manifest lists exists, ``labels.csv`` holds N labels in
{0..C-1}, and the accuracy in ``metrics.json`` equals ``spc.consensus.accuracy``
recomputed from ``labels.csv`` and the generated truth.  ``fingerprints``
hashes the files of the determinism contract, which must be identical across
every run of one set of inputs, whatever the worker count.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os

import numpy as np

from spc.clustering import Labelling
from spc.consensus import accuracy

DETERMINISTIC = ("history.csv", "labels.csv", "metrics.json")


def _manifest_artifacts(manifest: dict) -> list:
    paths = []
    for value in manifest.get("artifacts", {}).values():
        paths.extend(value if isinstance(value, list) else [value])
    return paths


def read_labels(path: str) -> np.ndarray:
    """labels.csv as a vector; raises ValueError unless rows are 0..N-1 in order."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if not rows or rows[0] != ["index", "label"]:
        raise ValueError("missing 'index,label' header")
    body = rows[1:]
    if [r[0] for r in body] != [str(i) for i in range(len(body))]:
        raise ValueError("indices are not 0..N-1 in order")
    return np.array([int(r[1]) for r in body], dtype=np.int64)


def check_run(out_dir: str, truth: np.ndarray, n_clusters: int) -> list:
    """Problems with one run's outputs; the empty list means the run is good."""
    try:
        with open(os.path.join(out_dir, "manifest.json")) as f:
            manifest = json.load(f)
    except (OSError, ValueError) as exc:
        return [f"manifest.json unreadable: {exc}"]
    problems = [
        f"artifact listed in the manifest is missing: {rel}"
        for rel in _manifest_artifacts(manifest)
        if not os.path.isfile(os.path.join(out_dir, rel))
    ]
    if problems:
        return problems
    try:
        labels = read_labels(os.path.join(out_dir, "labels.csv"))
    except (OSError, ValueError, IndexError) as exc:
        return [f"labels.csv malformed: {exc}"]
    if labels.shape != truth.shape:
        return [f"labels.csv has {labels.shape[0]} labels, expected {truth.shape[0]}"]
    if labels.min() < 0 or labels.max() >= n_clusters:
        return [f"labels.csv has a label outside 0..{n_clusters - 1}"]
    with open(os.path.join(out_dir, "metrics.json")) as f:
        reported = json.load(f).get("accuracy")
    expected = accuracy(
        Labelling(labels=labels, n_clusters=n_clusters),
        Labelling(labels=truth, n_clusters=n_clusters),
    )
    # metrics.json keeps floats at 10 significant digits
    if reported != float(f"{expected:.10g}"):
        problems.append(f"metrics.json accuracy {reported} != recomputed {expected:.10g}")
    return problems


def fingerprints(out_dir: str) -> dict:
    """{file name: sha256} of the files the determinism contract covers."""
    out = {}
    for name in DETERMINISTIC:
        with open(os.path.join(out_dir, name), "rb") as f:
            out[name] = hashlib.sha256(f.read()).hexdigest()
    return out


def fingerprint_problems(reference: dict | None, other: dict) -> list:
    """Problems if ``other`` does not reproduce the reference run's files."""
    if reference is None:
        return ["no --workers 1 reference to compare against"]
    differ = sorted(name for name in DETERMINISTIC if other.get(name) != reference.get(name))
    return [f"differs from the --workers 1 run in {', '.join(differ)}"] if differ else []
