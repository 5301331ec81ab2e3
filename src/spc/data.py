"""Dataset loading, synthetic blob generation, and input normalization.

Inputs are kept as float64 matrices of shape (N, n).  ``normalize`` maps the
global value range onto [-1, 1] so reconstruction targets sit inside the
range of a tanh output layer.
"""

from __future__ import annotations

import math
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
    """Parameters of an isotropic Gaussian blob mixture.

    The defaults describe the canonical blob experiment; the CLI's [blobs]
    section takes its defaults from here.
    """

    n_clusters: int = 4
    points_per_cluster: int = 200
    ambient_dim: int = 50
    centroid_separation: float = 8.0
    within_cluster_stddev: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n_clusters < 2:
            raise DataError(f"n_clusters must be >= 2, got {self.n_clusters}")
        if self.points_per_cluster < 1:
            raise DataError("points_per_cluster must be positive")
        if self.ambient_dim < 1:
            raise DataError("ambient_dim must be positive")
        if not self.centroid_separation > 0:
            raise DataError("centroid_separation must be strictly positive")
        # make_blobs scales its centroids by 1.25 * centroid_separation
        if not math.isfinite(1.25 * float(self.centroid_separation)):
            raise DataError(
                f"centroid_separation {self.centroid_separation} is past float64's range: "
                "1.25 * centroid_separation must be finite"
            )
        if not self.within_cluster_stddev > 0:
            raise DataError("within_cluster_stddev must be strictly positive")
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")


def _read_idx(path, magic: int) -> np.ndarray:
    """The uint8 array of an IDX file starting with ``magic``, whose low byte is the rank.

    Big-endian u32 dimensions follow the magic, then exactly their product of
    bytes.  The magic is checked first, so a file of another kind fails on it.
    """
    try:
        with open(path, "rb") as f:
            buf = f.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    rank = magic & 0xFF
    words = struct.unpack_from(f">{min(len(buf) // 4, rank + 1)}I", buf)
    if words and words[0] != magic:
        raise DataError(
            f"{path}: bad magic 0x{words[0]:08x} at byte offset 0, expected 0x{magic:08x}"
        )
    if len(words) <= rank:
        raise DataError(f"{path}: truncated header at byte offset {4 * len(words)}")
    header = 4 * (rank + 1)
    expected = header + math.prod(words[1:])
    if len(buf) != expected:
        raise DataError(
            f"{path}: payload length {len(buf)} does not match declared counts "
            f"(expected {expected} bytes; mismatch from byte offset {min(len(buf), expected)})"
        )
    return np.frombuffer(buf, dtype=np.uint8, offset=header).reshape(words[1:]).copy()


def _write_idx(path, magic: int, array: np.ndarray) -> None:
    """Write ``array`` as uint8 in the IDX format of ``magic``, whose low byte is the rank."""
    array = np.asarray(array, dtype=np.uint8)  # not ascontiguousarray: it lifts 0-d to 1-d
    if array.ndim != magic & 0xFF:
        raise DataError(f"IDX rank {magic & 0xFF} array expected, got shape {array.shape}")
    with open(path, "wb") as f:
        f.write(struct.pack(f">{array.ndim + 1}I", magic, *array.shape))
        f.write(array.tobytes())


def read_idx_images(path) -> np.ndarray:
    """Read an IDX image file into a uint8 array of shape (N, rows, cols)."""
    return _read_idx(path, IDX_IMAGE_MAGIC)


def read_idx_labels(path) -> np.ndarray:
    """Read an IDX label file into a uint8 vector of shape (N,)."""
    return _read_idx(path, IDX_LABEL_MAGIC)


def write_idx_images(path, images: np.ndarray) -> None:
    """Write a (N, rows, cols) uint8 array in IDX image format.

    The program only reads IDX; this stays here because perfbench/workloads.py
    imports it and changes only with the benchmark, and the IDX round-trip tests use it.
    """
    _write_idx(path, IDX_IMAGE_MAGIC, images)


def write_idx_labels(path, labels: np.ndarray) -> None:
    """Write a (N,) uint8 vector in IDX label format; kept for the same users as write_idx_images."""
    _write_idx(path, IDX_LABEL_MAGIC, labels)


def load_idx(images_path, labels_path=None, n_clusters: int | None = None) -> Dataset:
    """Load an IDX image file (and optional label file) as a flattened Dataset.

    Pixels stay in [0, 255] as float64; call ``normalize`` before training.
    ``n_clusters`` defaults to the number of distinct label values, or must be
    given when no label file is supplied.
    """
    images = read_idx_images(images_path)
    if images.shape[0] == 0:
        raise DataError(f"{images_path}: no images")
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
    Raises MemoryError before allocating anything when the larger float64
    array (the points, or the centroid differences) needs more bytes than an
    address space holds.  Huge separations or spreads may overflow without a
    warning: an infinite distance passes the separation floor, a NaN one
    (infinite centroids) fails it, and ``normalize`` refuses infinite points.
    """
    C, dim, sep = spec.n_clusters, spec.ambient_dim, spec.centroid_separation
    per = spec.points_per_cluster
    n_bytes = 8 * max(C * per, C * C) * dim
    if n_bytes > np.iinfo(np.intp).max:
        raise MemoryError(f"{C} blobs of {per} points in {dim} dimensions need {n_bytes} bytes")
    rng = np.random.default_rng(spec.seed)
    scale = 1.25 * sep / np.sqrt(2.0 * dim)
    with np.errstate(over="ignore", invalid="ignore"):
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
        noise = spec.within_cluster_stddev * rng.standard_normal((C * per, dim))
        points = np.repeat(centroids, per, axis=0) + noise
    labels = np.repeat(np.arange(C, dtype=np.int64), per)
    return Dataset(points=points, labels=labels, n_clusters=C)


def normalize(dataset: Dataset, copy: bool = True) -> Dataset:
    """Affinely map the global [min, max] of the points onto [-1, 1].

    Returns a new Dataset; with copy=False the points are scaled over
    themselves and ``dataset`` is returned, so only one float64 copy of them
    is ever held.  A constant dataset maps to all zeros.  (x - lo) / (hi - lo)
    hits 0 and 1 exactly at the endpoints, so the output range is exactly
    [-1, 1] and a second application is the identity.  Non-finite points, and
    a range hi - lo too wide for float64, are a DataError, raised before any
    point is written.
    """
    pts = dataset.points
    lo = pts.min()
    hi = pts.max()
    # a NaN makes min NaN, and an infinity shows in min or max, so no N x n mask is needed
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise DataError("dataset contains non-finite entries")
    with np.errstate(over="ignore"):
        span = hi - lo
    if not np.isfinite(span):
        raise DataError(f"point range [{lo:.6g}, {hi:.6g}] is wider than float64 can hold")
    if copy:
        dataset = Dataset(points=pts.copy(), labels=dataset.labels, n_clusters=dataset.n_clusters)
        pts = dataset.points
    if hi == lo:
        pts.fill(0.0)
    elif not (lo == -1.0 and hi == 1.0):
        # 2.0 * ((x - lo) / span) - 1.0, one operation at a time
        pts -= lo
        pts /= span
        pts *= 2.0
        pts -= 1.0
    return dataset
