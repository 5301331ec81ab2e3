"""The benchmark's workloads and the generator of their input files.

A workload is a seeded `spc run` configuration plus, for the IDX workload,
its input files.  ``generate`` derives everything from one seed: the seed
feeds ``[blobs] seed`` (or the blobs behind the IDX files) and
``[spc] master_seed``, so the same seed gives byte-identical inputs.  The
program only ever sees the generated files.

Every workload fixes its iteration count (``plateau_patience`` is larger
than ``max_iterations``, so the plateau rule cannot fire): the work per run
is then the same for every seed, and run time compares across seeds.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass

import numpy as np

from spc.data import BlobSpec, make_blobs, write_idx_images, write_idx_labels

IMAGE_SIDE = 28  # IDX images are IMAGE_SIDE x IMAGE_SIDE, as in MNIST


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; BENCHMARK.json records why each was chosen.

    dataset : "blobs" (the program generates them from the INI) or "idx"
        (the benchmark writes quantised blobs as IDX files)
    blobs : BlobSpec fields except ``seed``
    spc : [spc] overrides except ``master_seed``
    """

    name: str
    dataset: str
    blobs: dict
    spc: dict

    @property
    def n_points(self) -> int:
        return self.blobs["n_clusters"] * self.blobs["points_per_cluster"]

    @property
    def n_clusters(self) -> int:
        return self.blobs["n_clusters"]


WORKLOADS = {
    w.name: w
    for w in (
        # The canonical run's data shape and model on a shortened schedule:
        # network-bound, with BLAS threads inside the worker threads.
        Workload(
            name="blobs-canonical",
            dataset="blobs",
            blobs={
                "n_clusters": 4,
                "points_per_cluster": 200,
                "ambient_dim": 50,
                "centroid_separation": 16.0,
                "within_cluster_stddev": 1.0,
            },
            spc={
                "pretrain_epochs": 6,
                "loop_epochs": 1,
                "max_iterations": 3,
                "plateau_patience": 4,
            },
        ),
        # A scaled stand-in for MNIST: Lloyd fits and 784-wide full-batch
        # passes dominate, and the IDX reader sits on set-up.
        Workload(
            name="mnist-shaped",
            dataset="idx",
            blobs={
                "n_clusters": 10,
                "points_per_cluster": 80,
                "ambient_dim": IMAGE_SIDE * IMAGE_SIDE,
                "centroid_separation": 100.0,
                "within_cluster_stddev": 1.0,
            },
            spc={
                "pretrain_epochs": 1,
                "loop_epochs": 1,
                "max_iterations": 2,
                "plateau_patience": 3,
            },
        ),
        # EM instead of Lloyd, the concatenated member, and enough clusters
        # for Hungarian alignment to be a visible share.  BENCHMARK.json
        # leaves it out: its time is mostly interpreter-bound, and on a
        # two-core host whose speed drifts its run time spread across seeds
        # by more than the largest bound allowed.  Run it by name, traced,
        # for the consensus and EM layers.
        Workload(
            name="many-clusters-gmm",
            dataset="blobs",
            blobs={
                "n_clusters": 24,
                "points_per_cluster": 20,
                "ambient_dim": 50,
                "centroid_separation": 60.0,
                "within_cluster_stddev": 1.0,
            },
            spc={
                "pretrain_epochs": 6,
                "loop_epochs": 1,
                "max_iterations": 2,
                "plateau_patience": 3,
                "clusterer": "gmm",
                "concat_member": "true",
            },
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    """Generated files and the `spc run` arguments that use them."""

    config: str
    truth: str
    spc_args: list


def _ini_text(sections: dict) -> str:
    lines = []
    for section, values in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in sorted(values.items()))
        lines.append("")
    return "\n".join(lines)


def _quantise(points: np.ndarray) -> np.ndarray:
    """Map the global value range of ``points`` onto 0..255."""
    lo, hi = points.min(), points.max()
    return np.rint((points - lo) / (hi - lo) * 255.0).astype(np.uint8)


def _write_truth(path: str, labels: np.ndarray) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["index", "label"])
        for i, label in enumerate(labels):
            writer.writerow([i, int(label)])


def read_truth(path: str) -> np.ndarray:
    with open(path, newline="") as f:
        rows = list(csv.reader(f))[1:]
    return np.array([int(label) for _, label in rows], dtype=np.int64)


def generate(workload: Workload, seed: int, directory: str) -> Inputs:
    """Write the workload's inputs for ``seed`` into ``directory``."""
    os.makedirs(directory, exist_ok=True)
    blobs = make_blobs(BlobSpec(seed=seed, **workload.blobs))
    sections = {"spc": {**workload.spc, "master_seed": seed}}
    config = os.path.join(directory, "config.ini")
    truth = os.path.join(directory, "truth.csv")
    spc_args = ["--config", config]
    if workload.dataset == "blobs":
        sections["blobs"] = {**workload.blobs, "seed": seed}
    else:
        images = os.path.join(directory, "images.idx")
        labels = os.path.join(directory, "labels.idx")
        side = IMAGE_SIDE
        write_idx_images(images, _quantise(blobs.points).reshape(-1, side, side))
        write_idx_labels(labels, blobs.labels.astype(np.uint8))
        sections["idx"] = {"n_clusters": workload.n_clusters}
        spc_args += ["--dataset", "idx", "--images", images, "--labels", labels]
    with open(config, "w") as f:
        f.write(_ini_text(sections))
    _write_truth(truth, blobs.labels)
    return Inputs(config=config, truth=truth, spc_args=spc_args)
