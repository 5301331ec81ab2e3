"""Cluster models fit on latent vectors: k-means and a diagonal-covariance GMM.

k-means (k-means++ seeding, Lloyd iterations) doubles as the GMM initializer
and as the ensemble-free baseline.  The GMM is fit by EM with log-space
responsibilities; each ensemble member's latents get their own fit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, NumericError

LOG_2PI = np.log(2.0 * np.pi)
KMEANS_MAX_ITERS = 100  # Lloyd iterations per restart
KMEANS_N_INIT = 10  # k-means++ seeded restarts per fit
GMM_MAX_ITERS = 100  # EM steps
GMM_TOL = 1e-6  # EM stops once the log-likelihood gains less than this
GMM_REG_EPSILON = 1e-6  # floor on every variance


@dataclass(frozen=True)
class Labelling:
    """A hard assignment of N points to clusters {0..C-1}."""

    labels: np.ndarray
    n_clusters: int

    def __post_init__(self):
        lab = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "labels", lab)
        if lab.ndim != 1 or lab.shape[0] < 1:
            raise DataError(f"labels must be a non-empty vector, got shape {lab.shape}")
        if self.n_clusters < 1:
            raise DataError("n_clusters must be positive")
        if lab.min() < 0 or lab.max() >= self.n_clusters:
            raise DataError("labels must lie in {0..C-1}")

    @property
    def n_points(self) -> int:
        return self.labels.shape[0]


@dataclass
class GmmModel:
    """Diagonal-covariance Gaussian mixture with its EM log-likelihood trace."""

    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray
    log_likelihood_trace: list = field(default_factory=list)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.means = np.asarray(self.means, dtype=np.float64)
        self.covariances = np.asarray(self.covariances, dtype=np.float64)
        C = self.weights.shape[0]
        if self.means.shape[0] != C or self.covariances.shape != self.means.shape:
            raise DataError("component count mismatch between weights, means, covariances")
        if abs(self.weights.sum() - 1.0) > 1e-9:
            raise DataError("mixture weights must sum to 1")
        if (self.covariances <= 0).any():
            raise DataError("covariance entries must be positive")

    @property
    def n_components(self) -> int:
        return self.weights.shape[0]


def _sq_dists(x: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    diff = x[:, None, :] - centroids[None, :, :]
    return (diff**2).sum(axis=2)


def _kmeanspp_seed(x: np.ndarray, C: int, rng: np.random.Generator) -> np.ndarray:
    N = x.shape[0]
    centroids = np.empty((C, x.shape[1]))
    centroids[0] = x[rng.integers(N)]
    d2 = ((x - centroids[0]) ** 2).sum(axis=1)
    for c in range(1, C):
        total = d2.sum()
        if total <= 0:
            # all remaining mass at distance zero: any point will do
            centroids[c] = x[rng.integers(N)]
        else:
            centroids[c] = x[rng.choice(N, p=d2 / total)]
        d2 = np.minimum(d2, ((x - centroids[c]) ** 2).sum(axis=1))
    return centroids


def _lloyd(x: np.ndarray, C: int, rng: np.random.Generator):
    """One k-means++ seeded Lloyd run to an assignment fixpoint.

    Returns (trace, centroids, assign); trace holds the inertia after each
    assignment step, so trace[-1] is that of the returned assignment.
    """
    N = x.shape[0]
    centroids = _kmeanspp_seed(x, C, rng)
    prev = None
    assign = None
    trace = []
    for _ in range(KMEANS_MAX_ITERS):
        d2 = _sq_dists(x, centroids)
        assign = d2.argmin(axis=1)
        own = d2[np.arange(N), assign]
        for c in range(C):
            if not (assign == c).any():
                far = own.argmax()
                centroids[c] = x[far]
                d2[:, c] = ((x - centroids[c]) ** 2).sum(axis=1)
                assign = d2.argmin(axis=1)
                own = d2[np.arange(N), assign]
        trace.append(float(own.sum()))
        if prev is not None and np.array_equal(assign, prev):
            break
        prev = assign
        for c in range(C):
            members = assign == c
            if members.any():
                centroids[c] = x[members].mean(axis=0)
    return trace, centroids, assign


def kmeans_fit(latents: np.ndarray, C: int, seed: int):
    """Lloyd's algorithm, best of KMEANS_N_INIT k-means++ seeded restarts.

    Each restart runs to an assignment fixpoint or KMEANS_MAX_ITERS and the
    solution with the lowest inertia wins (first found on ties).  Clusters
    left empty by an assignment step are reseeded to the point currently
    farthest from its own centroid, which strictly lowers inertia.
    """
    x = np.asarray(latents, dtype=np.float64)
    if x.ndim != 2:
        raise DataError(f"latents must be 2-d, got shape {x.shape}")
    N = x.shape[0]
    if N < C:
        raise DataError(f"need at least {C} points, got {N}")
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(KMEANS_N_INIT):
        trace, centroids, assign = _lloyd(x, C, rng)
        if best is None or trace[-1] < best[0]:
            best = (trace[-1], centroids, assign)
    return best[1], Labelling(labels=best[2], n_clusters=C)


def _log_prob(x: np.ndarray, model_weights, means, covariances) -> np.ndarray:
    """Per-point, per-component log(weight * N(x | mean, diag cov))."""
    m = x.shape[1]
    log_det = np.log(covariances).sum(axis=1)
    mahal = (
        (x**2) @ (1.0 / covariances).T
        - 2.0 * x @ (means / covariances).T
        + ((means**2) / covariances).sum(axis=1)
    )
    return np.log(model_weights) - 0.5 * (m * LOG_2PI + log_det + mahal)


def gmm_fit(latents: np.ndarray, C: int, seed: int) -> GmmModel:
    """EM for a diagonal-covariance mixture, initialized from k-means.

    Stops when the log-likelihood gain drops below GMM_TOL or after
    GMM_MAX_ITERS EM steps.  Variances are floored at GMM_REG_EPSILON at
    initialization and in every M step.
    """
    x = np.asarray(latents, dtype=np.float64)
    if x.ndim != 2:
        raise DataError(f"latents must be 2-d, got shape {x.shape}")
    N, m = x.shape
    if N < C:
        raise DataError(f"need at least {C} points, got {N}")

    centroids, labelling = kmeans_fit(x, C, seed)
    weights = np.empty(C)
    means = centroids.copy()
    covariances = np.empty((C, m))
    for c in range(C):
        mask = labelling.labels == c
        weights[c] = mask.mean()
        covariances[c] = (
            np.maximum(x[mask].var(axis=0), GMM_REG_EPSILON) if mask.any() else GMM_REG_EPSILON
        )
    weights = np.maximum(weights, 1e-12)
    weights /= weights.sum()

    trace: list = []
    for it in range(GMM_MAX_ITERS):
        log_joint = _log_prob(x, weights, means, covariances)
        lse = np.logaddexp.reduce(log_joint, axis=1)
        resp = np.exp(log_joint - lse[:, None])
        if not np.isfinite(resp).all():
            raise NumericError("non-finite responsibility", iteration=it)
        ll = float(lse.sum())
        trace.append(ll)
        if len(trace) >= 2 and ll - trace[-2] < GMM_TOL:
            break
        nc = resp.sum(axis=0)
        if (nc <= 0).any() or not np.isfinite(nc).all():
            raise NumericError("component collapsed to zero responsibility", iteration=it)
        weights = nc / N
        means = (resp.T @ x) / nc[:, None]
        second = (resp.T @ (x**2)) / nc[:, None]
        covariances = np.maximum(second - means**2, GMM_REG_EPSILON)
    return GmmModel(
        weights=weights, means=means, covariances=covariances, log_likelihood_trace=trace
    )


def gmm_predict(model: GmmModel, latents: np.ndarray) -> Labelling:
    """Hard assignment by maximum responsibility; ties go to the lowest id."""
    x = np.asarray(latents, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.means.shape[1]:
        raise DataError(
            f"latents of dim {x.shape[1] if x.ndim == 2 else '?'} do not match "
            f"model dim {model.means.shape[1]}"
        )
    log_joint = _log_prob(x, model.weights, model.means, model.covariances)
    return Labelling(labels=log_joint.argmax(axis=1), n_clusters=model.n_components)
