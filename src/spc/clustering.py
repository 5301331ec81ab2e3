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


def _sq_dists(x: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    diff = x[:, None, :] - centroids[None, :, :]
    return (diff**2).sum(axis=2)


# Unit roundoff and the smallest subnormal of float64, for _nearest's bound.
_U = np.finfo(np.float64).eps / 2
_ETA = np.finfo(np.float64).smallest_subnormal


def _nearest(x: np.ndarray, xx: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest centroid per row, equal to _sq_dists(x, centroids).argmin(axis=1).

    xx holds the rows' squared norms.  One GEMM gives d~ = ||c||^2 - 2 x.c,
    the expansion of the squared distance less ||x||^2, which every entry of
    a row shares.  d~ only proposes a label: a row whose runner-up lies
    within tau of its best entry gets its exact _sq_dists row instead, so
    the result equals the direct formula bit for bit (ties to the lowest id)
    and a BLAS rounding never decides a label.

    Why tau suffices (Higham, Accuracy and Stability, 3.1: every dot product
    or sum of n terms, in any order and with or without FMA, errs by at most
    gamma_n = n*u/(1 - n*u) times the sum of its terms' magnitudes; each
    product that underflows adds at most eta/2).  With S = ||x||^2 + ||c||^2
    and D the exact squared distance, D <= 2S and 2|x.c| <= S:
      - d~: gamma_m for each of 2 x.c and ||c||^2, plus one addition of
        size <= 2S, give |d~ + ||x||^2 - D| <= 2 gamma_{m+2} S;
      - _sq_dists: a difference, a square and a sum of m terms give
        |d - D| <= gamma_{m+2} D <= 2 gamma_{m+2} S;
      - underflow adds at most 2.5 m eta to the two together.
    So d~ + ||x||^2 is within E = 4 (gamma_{m+2} S + m eta) of d in every
    entry of a row, and a row whose runner-up trails its best by more than
    2E has the same strict minimiser under d.  tau = 8.08 (gamma_{m+2} S_max
    + m eta), with S_max = ||x||^2 + max_c ||c||^2, is 2E with a 1% margin
    that covers the rounding of tau and of the gaps themselves.  A NaN or an
    infinite tau (overflow) fails the comparison, so its row is always
    rechecked.
    """
    N, m = x.shape
    rows = np.arange(N)
    gamma = (m + 2) * _U / (1 - (m + 2) * _U)
    with np.errstate(over="ignore", invalid="ignore"):
        cc = (centroids * centroids).sum(axis=1)
        d = x @ (-2.0 * centroids).T
        d += cc
        assign = d.argmin(axis=1)
        d -= d[rows, assign][:, None]
        tau = (8.08 * gamma) * xx + 8.08 * (gamma * cc.max() + m * _ETA)
        near = ~(d > tau[:, None])
    near[rows, assign] = False
    if near.any():
        ties = near.any(axis=1)
        assign[ties] = _sq_dists(x[ties], centroids).argmin(axis=1)
    return assign


def _cluster_means(x: np.ndarray, assign: np.ndarray, counts: np.ndarray, out: np.ndarray):
    """Write x[assign == c].mean(axis=0) into out[c], bit for bit, for each c with points.

    counts is bincount(assign); rows of out whose cluster is empty stay as
    they are.  bincount adds each cluster's rows in index order, which is
    how numpy reduces over the rows of a C-ordered block of two or more
    columns.  A single column is one contiguous run, which numpy sums
    pairwise, so that case keeps the per-cluster reductions.
    """
    m = x.shape[1]
    C = out.shape[0]
    if m == 1:
        sums = np.stack([x[assign == c].sum(axis=0) for c in range(C)])
    else:
        keys = (assign * m)[:, None] + np.arange(m)
        sums = np.bincount(keys.ravel(), weights=x.ravel(), minlength=C * m).reshape(C, m)
    return np.divide(sums, counts[:, None], out=out, where=counts[:, None] > 0)


def _kmeanspp_seed(x: np.ndarray, C: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ centroids; NumericError when the squared distances overflow."""
    N = x.shape[0]
    centroids = np.empty((C, x.shape[1]))
    centroids[0] = x[rng.integers(N)]
    with np.errstate(over="ignore"):  # an overflow shows up as a non-finite total
        d2 = ((x - centroids[0]) ** 2).sum(axis=1)
        for c in range(1, C):
            total = d2.sum()
            if not np.isfinite(total):
                raise NumericError("squared distances overflow in k-means++ seeding")
            if total <= 0:
                # all remaining mass at distance zero: any point will do
                centroids[c] = x[rng.integers(N)]
            else:
                centroids[c] = x[rng.choice(N, p=d2 / total)]
            d2 = np.minimum(d2, ((x - centroids[c]) ** 2).sum(axis=1))
    return centroids


def _lloyd(x: np.ndarray, C: int, rng: np.random.Generator):
    """One k-means++ seeded Lloyd run to an assignment fixpoint or KMEANS_MAX_ITERS.

    Returns (inertia, centroids, assign).  The inertia pairs the final
    assignment with the centroids that produced it, which at the
    KMEANS_MAX_ITERS exit are those before the last update.  _nearest (the
    GEMM expansion with every near tie recomputed exactly) is the one
    assignment routine: each step assigns through it, and so does every
    empty-cluster reseed.  Each step updates the centroids from one
    bincount; the reseed and the inertia take each point's own distance by
    the direct formula.  So labels, inertia and centroids equal those of
    the direct per-pair, per-cluster formulas bit for bit.
    """
    with np.errstate(over="ignore"):
        xx = (x * x).sum(axis=1)
    centroids = _kmeanspp_seed(x, C, rng)
    prev = None
    for _ in range(KMEANS_MAX_ITERS):
        used = centroids
        assign = _nearest(x, xx, centroids)
        counts = np.bincount(assign, minlength=C)
        if not counts.all():
            # rare: reseed empty clusters one by one, each to the point
            # farthest from its own centroid, and reassign
            for c in range(C):
                if not (assign == c).any():
                    own = ((x - centroids.take(assign, axis=0)) ** 2).sum(axis=1)
                    centroids[c] = x[own.argmax()]
                    assign = _nearest(x, xx, centroids)
            counts = np.bincount(assign, minlength=C)
        if prev is not None and (assign == prev).all():
            break
        prev = assign
        # a cluster emptied by a later reseed keeps its centroid
        centroids = _cluster_means(x, assign, counts, out=centroids.copy())
    own = ((x - used.take(assign, axis=0)) ** 2).sum(axis=1)
    return float(own.sum()), centroids, assign


def kmeans_fit(latents: np.ndarray, C: int, seed: int):
    """Lloyd's algorithm, best of KMEANS_N_INIT k-means++ seeded restarts.

    Each restart runs to an assignment fixpoint or KMEANS_MAX_ITERS and the
    solution with the lowest inertia wins (first found on ties).  Clusters
    left empty by an assignment step are reseeded to the point currently
    farthest from its own centroid, which strictly lowers inertia unless
    every point already sits on a centroid (then the cluster may stay
    empty, as with fewer distinct points than C).  Assignment uses the GEMM
    expansion and recomputes every near tie with the direct formula, so
    labels equal those of the direct squared distances bit for bit and BLAS
    never decides a label.  The latents must be finite and at least C, as
    every member's encoding of a Dataset is.
    """
    x = np.asarray(latents, dtype=np.float64)
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(KMEANS_N_INIT):
        inertia, centroids, assign = _lloyd(x, C, rng)
        if best is None or inertia < best[0]:
            best = (inertia, centroids, assign)
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
    N, m = x.shape

    centroids, labelling = kmeans_fit(x, C, seed)
    labels = labelling.labels
    # each cluster's share of the points and x[labels == c].var(axis=0),
    # bit for bit: the mean, then the mean squared deviation; an empty
    # cluster's variance stays 0 and so lands on the floor
    counts = np.bincount(labels, minlength=C)
    dev = x - _cluster_means(x, labels, counts, out=np.zeros((C, m)))[labels]
    variances = _cluster_means(dev * dev, labels, counts, out=np.zeros((C, m)))
    covariances = np.maximum(variances, GMM_REG_EPSILON)
    weights = np.maximum(counts / N, 1e-12)
    means = centroids.copy()
    weights /= weights.sum()

    trace: list = []
    for it in range(GMM_MAX_ITERS):
        log_joint = _log_prob(x, weights, means, covariances)
        lse = np.logaddexp.reduce(log_joint, axis=1)
        resp = np.exp(log_joint - lse[:, None])
        if not np.isfinite(resp).all():
            raise NumericError(f"non-finite responsibility (iteration {it})")
        ll = float(lse.sum())
        trace.append(ll)
        if len(trace) >= 2 and ll - trace[-2] < GMM_TOL:
            break
        nc = resp.sum(axis=0)
        if (nc <= 0).any() or not np.isfinite(nc).all():
            raise NumericError(f"component collapsed to zero responsibility (iteration {it})")
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
    log_joint = _log_prob(x, model.weights, model.means, model.covariances)
    return Labelling(labels=log_joint.argmax(axis=1), n_clusters=model.weights.shape[0])
