"""Dataset loading, synthetic blob generation, and input normalization.

Inputs are kept as float64 matrices of shape (N, n).  ``normalize`` maps the
global value range onto [-1, 1] so reconstruction targets sit inside the
range of a tanh output layer.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import DataError

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

CENTROID_ATTEMPTS = 10_000


@dataclass(frozen=True)
class Dataset:
    """A point matrix with an optional ground-truth labelling.

    points : (N, n) float64
    labels : (N,) int64 in {0..C-1}, or None when no ground truth exists
    n_clusters : C, the number of true clusters
    """

    points: np.ndarray
    labels: np.ndarray | None
    n_clusters: int

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise DataError(f"points must be a non-empty 2-d matrix, got shape {pts.shape}")
        if self.n_clusters < 2:
            raise DataError(f"n_clusters must be >= 2, got {self.n_clusters}")
        if pts.shape[0] < self.n_clusters:
            raise DataError(
                f"need at least as many points ({pts.shape[0]}) as clusters ({self.n_clusters})"
            )
        if self.labels is not None:
            lab = np.asarray(self.labels, dtype=np.int64)
            object.__setattr__(self, "labels", lab)
            if lab.shape != (pts.shape[0],):
                raise DataError(
                    f"labels shape {lab.shape} does not match point count {pts.shape[0]}"
                )
            if lab.min() < 0 or lab.max() >= self.n_clusters:
                raise DataError("labels must lie in {0..C-1}")
            if np.unique(lab).size != self.n_clusters:
                raise DataError("every cluster id in {0..C-1} must occur at least once")

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class BlobSpec:
    """Parameters of an isotropic Gaussian blob mixture."""

    n_clusters: int
    points_per_cluster: int
    ambient_dim: int
    centroid_separation: float
    within_cluster_stddev: float
    seed: int

    def __post_init__(self):
        if self.n_clusters < 2:
            raise DataError(f"n_clusters must be >= 2, got {self.n_clusters}")
        if self.points_per_cluster < 1:
            raise DataError("points_per_cluster must be positive")
        if self.ambient_dim < 1:
            raise DataError("ambient_dim must be positive")
        if not self.centroid_separation > 0:
            raise DataError("centroid_separation must be strictly positive")
        if not self.within_cluster_stddev > 0:
            raise DataError("within_cluster_stddev must be strictly positive")
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")


def _read_u32(buf: bytes, offset: int, path: str) -> int:
    if offset + 4 > len(buf):
        raise DataError(f"{path}: truncated header at byte offset {offset}")
    return struct.unpack_from(">I", buf, offset)[0]


def read_idx_images(path) -> np.ndarray:
    """Read an IDX image file into a uint8 array of shape (N, rows, cols)."""
    with open(path, "rb") as f:
        buf = f.read()
    magic = _read_u32(buf, 0, str(path))
    if magic != IDX_IMAGE_MAGIC:
        raise DataError(
            f"{path}: bad magic 0x{magic:08x} at byte offset 0, expected 0x{IDX_IMAGE_MAGIC:08x}"
        )
    count = _read_u32(buf, 4, str(path))
    rows = _read_u32(buf, 8, str(path))
    cols = _read_u32(buf, 12, str(path))
    expected = 16 + count * rows * cols
    if len(buf) != expected:
        raise DataError(
            f"{path}: payload length {len(buf)} does not match declared counts "
            f"(expected {expected} bytes; mismatch from byte offset {min(len(buf), expected)})"
        )
    return np.frombuffer(buf, dtype=np.uint8, offset=16).reshape(count, rows, cols).copy()


def read_idx_labels(path) -> np.ndarray:
    """Read an IDX label file into a uint8 vector of shape (N,)."""
    with open(path, "rb") as f:
        buf = f.read()
    magic = _read_u32(buf, 0, str(path))
    if magic != IDX_LABEL_MAGIC:
        raise DataError(
            f"{path}: bad magic 0x{magic:08x} at byte offset 0, expected 0x{IDX_LABEL_MAGIC:08x}"
        )
    count = _read_u32(buf, 4, str(path))
    expected = 8 + count
    if len(buf) != expected:
        raise DataError(
            f"{path}: payload length {len(buf)} does not match declared count "
            f"(expected {expected} bytes; mismatch from byte offset {min(len(buf), expected)})"
        )
    return np.frombuffer(buf, dtype=np.uint8, offset=8).copy()


def write_idx_images(path, images: np.ndarray) -> None:
    """Write a (N, rows, cols) uint8 array in IDX image format."""
    images = np.ascontiguousarray(images, dtype=np.uint8)
    if images.ndim != 3:
        raise DataError(f"images must have shape (N, rows, cols), got {images.shape}")
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, *images.shape))
        f.write(images.tobytes())


def write_idx_labels(path, labels: np.ndarray) -> None:
    """Write a (N,) uint8 vector in IDX label format."""
    labels = np.ascontiguousarray(labels, dtype=np.uint8)
    if labels.ndim != 1:
        raise DataError(f"labels must be a vector, got shape {labels.shape}")
    with open(path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABEL_MAGIC, labels.shape[0]))
        f.write(labels.tobytes())


def load_idx(images_path, labels_path=None, n_clusters: int | None = None) -> Dataset:
    """Load an IDX image file (and optional label file) as a flattened Dataset.

    Pixels stay in [0, 255] as float64; call ``normalize`` before training.
    ``n_clusters`` defaults to the number of distinct label values, or must be
    given when no label file is supplied.
    """
    images = read_idx_images(images_path)
    points = images.reshape(images.shape[0], -1).astype(np.float64)
    labels = None
    if labels_path is not None:
        raw = read_idx_labels(labels_path)
        if raw.shape[0] != images.shape[0]:
            raise DataError(
                f"label count {raw.shape[0]} does not match image count {images.shape[0]}"
            )
        labels = raw.astype(np.int64)
    if n_clusters is None:
        if labels is None:
            raise DataError("n_clusters is required when no label file is given")
        n_clusters = int(labels.max()) + 1
    return Dataset(points=points, labels=labels, n_clusters=n_clusters)


def make_blobs(spec: BlobSpec) -> Dataset:
    """Generate labelled Gaussian blobs, deterministic in ``spec.seed``.

    Centroid candidates are drawn so their typical pairwise distance is a
    small multiple of ``centroid_separation``; whole configurations violating
    the pairwise floor are rejected and redrawn, up to a fixed attempt cap.
    """
    rng = np.random.default_rng(spec.seed)
    C, dim, sep = spec.n_clusters, spec.ambient_dim, spec.centroid_separation
    scale = 1.25 * sep / np.sqrt(2.0 * dim)
    for _ in range(CENTROID_ATTEMPTS):
        centroids = scale * rng.standard_normal((C, dim))
        diff = centroids[:, None, :] - centroids[None, :, :]
        dist = np.sqrt((diff**2).sum(axis=2))
        dist[np.diag_indices(C)] = np.inf
        if dist.min() >= sep:
            break
    else:
        raise DataError(
            f"could not place {C} centroids at pairwise separation {sep} "
            f"within {CENTROID_ATTEMPTS} attempts"
        )
    per = spec.points_per_cluster
    points = np.repeat(centroids, per, axis=0) + spec.within_cluster_stddev * rng.standard_normal(
        (C * per, dim)
    )
    labels = np.repeat(np.arange(C, dtype=np.int64), per)
    return Dataset(points=points, labels=labels, n_clusters=C)


def normalize(dataset: Dataset) -> Dataset:
    """Affinely map the global [min, max] of the points onto [-1, 1].

    A constant dataset maps to all zeros.  (x - lo) / (hi - lo) hits 0 and 1
    exactly at the endpoints, so the output range is exactly [-1, 1] and a
    second application is the identity.
    """
    pts = dataset.points
    if not np.isfinite(pts).all():
        raise DataError("dataset contains non-finite entries")
    lo = pts.min()
    hi = pts.max()
    if hi == lo:
        scaled = np.zeros_like(pts)
    elif lo == -1.0 and hi == 1.0:
        scaled = pts.copy()
    else:
        scaled = 2.0 * ((pts - lo) / (hi - lo)) - 1.0
    return Dataset(points=scaled, labels=dataset.labels, n_clusters=dataset.n_clusters)
