import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spc.clustering as clustering
from spc.clustering import (
    GmmModel,
    Labelling,
    gmm_fit,
    gmm_predict,
    kmeans_fit,
)
from spc.errors import DataError, NumericError


def two_blobs(rng, n_per=100, sep=10.0, std=0.1, dim=3):
    mu = np.zeros(dim)
    mu[0] = sep
    a = rng.standard_normal((n_per, dim)) * std
    b = mu + rng.standard_normal((n_per, dim)) * std
    x = np.vstack([a, b])
    y = np.repeat([0, 1], n_per)
    return x, y


def perm_match_rate(pred, truth, C):
    from itertools import permutations

    best = 0.0
    for perm in permutations(range(C)):
        mapped = np.array(perm)[pred]
        best = max(best, (mapped == truth).mean())
    return best


def test_labelling_validation():
    with pytest.raises(DataError):
        Labelling(labels=np.array([0, 1, 2]), n_clusters=2)
    with pytest.raises(DataError):
        Labelling(labels=np.array([-1, 0]), n_clusters=2)
    lab = Labelling(labels=np.array([0, 1, 1]), n_clusters=2)
    assert lab.n_points == 3


def test_kmeans_singleton_clusters():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 2)) * 5
    centroids, lab = kmeans_fit(x, 4, seed=1)
    assert sorted(lab.labels.tolist()) == [0, 1, 2, 3]
    inertia = ((x - centroids[lab.labels]) ** 2).sum()
    assert inertia == pytest.approx(0.0, abs=1e-20)


def test_kmeans_recovers_separated_blobs():
    rng = np.random.default_rng(1)
    x, y = two_blobs(rng)
    _, lab = kmeans_fit(x, 2, seed=2)
    assert perm_match_rate(lab.labels, y, 2) == 1.0


def test_kmeans_beats_random_assignments():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((60, 4))
    centroids, lab = kmeans_fit(x, 3, seed=3)
    fitted = ((x - centroids[lab.labels]) ** 2).sum()
    for s in range(50):
        r = np.random.default_rng(100 + s)
        assign = r.integers(0, 3, size=60)
        while np.unique(assign).size < 3:
            assign = r.integers(0, 3, size=60)
        cents = np.stack([x[assign == c].mean(axis=0) for c in range(3)])
        rand_inertia = ((x - cents[assign]) ** 2).sum()
        assert fitted <= rand_inertia + 1e-9


def spy_on_nearest(monkeypatch):
    """Record (centroids, assignment) of every assignment step of _lloyd."""
    seen = []
    nearest = clustering._nearest

    def spy(x, xx, centroids):
        assign = nearest(x, xx, centroids)
        seen.append((centroids.copy(), assign.copy()))
        return assign

    monkeypatch.setattr(clustering, "_nearest", spy)
    return seen


def step_inertia(x, centroids, assign):
    """The exact inertia of one (centroids, assignment) pair, by the direct formula."""
    return clustering._sq_dists(x, centroids)[np.arange(len(x)), assign].sum()


def test_kmeans_inertia_non_increasing(monkeypatch):
    seen = spy_on_nearest(monkeypatch)
    for s in range(20):
        rng = np.random.default_rng(s)
        x = rng.standard_normal((80, 5))
        seen.clear()
        inertia, centroids, assign = clustering._lloyd(x, 4, np.random.default_rng(s))
        assert inertia == pytest.approx(((x - centroids[assign]) ** 2).sum(), rel=1e-12)
        steps = [step_inertia(x, c, a) for c, a in seen] + [inertia]
        for a, b in zip(steps, steps[1:]):
            assert b <= a + 1e-9


def test_kmeans_trace_is_exact_inertia_bitwise(monkeypatch):
    seen = spy_on_nearest(monkeypatch)
    for s in range(10):
        rng = np.random.default_rng(s)
        x = rng.standard_normal((120, 6)) * 10.0 ** rng.integers(-3, 4)
        seen.clear()
        inertia, centroids, assign = clustering._lloyd(x, 5, np.random.default_rng(s))
        # no empty cluster, so the last step's labels are _nearest's and, at
        # the fixpoint, its centroids are the returned ones
        last_centroids, last_assign = seen[-1]
        assert np.array_equal(assign, last_assign)
        assert centroids.tobytes() == last_centroids.tobytes()
        assert np.float64(inertia).tobytes() == step_inertia(x, *seen[-1]).tobytes()


def test_lloyd_at_the_iteration_cap_pairs_inertia_with_the_last_assigning_centroids(monkeypatch):
    monkeypatch.setattr(clustering, "KMEANS_MAX_ITERS", 2)
    seen = spy_on_nearest(monkeypatch)
    x = np.random.default_rng(3).standard_normal((300, 4))
    inertia, centroids, assign = clustering._lloyd(x, 6, np.random.default_rng(3))
    assert len(seen) == 2
    (_, first), (last_centroids, last_assign) = seen
    assert not np.array_equal(first, last_assign)  # stopped by the cap, not at a fixpoint
    assert np.array_equal(assign, last_assign)
    assert np.float64(inertia).tobytes() == step_inertia(x, last_centroids, last_assign).tobytes()
    counts = np.bincount(last_assign, minlength=6)
    means = clustering._cluster_means(x, last_assign, counts, out=last_centroids.copy())
    assert centroids.tobytes() == means.tobytes()


def grid_with_symmetric_centroids(rng, n, m, C, offset, scale):
    """Decimal-grid points with duplicates, and centroid pairs mirrored
    through a grid point, so many points tie exactly between a pair."""
    x = offset + rng.integers(-9, 10, (n, m)) / scale
    x = np.ascontiguousarray(x[rng.integers(0, n, n)])
    centre = offset + rng.integers(-3, 4, m) / scale
    v = rng.integers(-3, 4, ((C + 1) // 2, m)) / scale
    centroids = np.concatenate([centre + v, centre - v])[:C]
    return x, centroids


def plain_expansion_labels(x, centroids):
    d = (x * x).sum(axis=1)[:, None] - 2.0 * x @ centroids.T + (centroids * centroids).sum(axis=1)
    return d.argmin(axis=1)


def test_lloyd_breaks_distance_ties_like_direct_formula(monkeypatch):
    x, start = grid_with_symmetric_centroids(np.random.default_rng(0), 2000, 3, 6, 5e3, 10)
    direct = clustering._sq_dists(x, start).argmin(axis=1)
    # the expansion alone decides some tie differently, so the recheck runs
    assert (plain_expansion_labels(x, start) != direct).any()

    monkeypatch.setattr(clustering, "_kmeanspp_seed", lambda data, C, _rng: start.copy())
    seen = spy_on_nearest(monkeypatch)
    clustering._lloyd(x, 6, np.random.default_rng(1))
    assert np.array_equal(seen[0][1], direct)
    for centroids, assign in seen:
        assert np.array_equal(assign, clustering._sq_dists(x, centroids).argmin(axis=1))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 6),
    C=st.integers(1, 8),
    offset=st.sampled_from([0.0, -0.35, 5e3, -1.25e4, 3e7]),
    scale=st.sampled_from([10.0, 100.0]),
)
def test_lloyd_labels_equal_direct_argmin_on_grids(seed, m, C, offset, scale):
    rng = np.random.default_rng(seed)
    x, start = grid_with_symmetric_centroids(rng, 300, m, C, offset, scale)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(clustering, "_kmeanspp_seed", lambda data, C, _rng: start.copy())
        seen = spy_on_nearest(mp)
        clustering._lloyd(x, C, rng)
    for centroids, assign in seen:
        assert np.array_equal(assign, clustering._sq_dists(x, centroids).argmin(axis=1))


def test_nearest_rechecks_rows_whose_expansion_overflows():
    # 2 x.c overflows, so a row's first two entries are both -inf and the
    # expansion cannot tell them apart; the direct distances stay finite
    x = np.array([[1.19e154, 0.0], [1.26e154, 0.0], [-1.2e154, 0.0]])
    centroids = np.array([[1.2e154, 0.0], [1.25e154, 0.0], [-1.2e154, 0.0]])
    with np.errstate(over="ignore"):
        got = clustering._nearest(x, (x * x).sum(axis=1), centroids)
        assert got.tolist() == clustering._sq_dists(x, centroids).argmin(axis=1).tolist()
    assert got.tolist() == [0, 1, 2]


@pytest.mark.parametrize("m", [1, 2, 7])
def test_cluster_means_equal_per_cluster_mean_bitwise(m):
    rng = np.random.default_rng(m)
    x = 5e3 + rng.standard_normal((3000, m)) * 10.0 ** rng.integers(-4, 4, m)
    assign = rng.integers(0, 4, 3000)
    assign[assign == 2] = 3  # cluster 2 empty
    out = rng.standard_normal((4, m))
    kept = out[2].copy()
    means = clustering._cluster_means(x, assign, np.bincount(assign, minlength=4), out=out)
    assert means is out
    for c in (0, 1, 3):
        assert means[c].tobytes() == x[assign == c].mean(axis=0).tobytes()
    assert means[2].tobytes() == kept.tobytes()


@pytest.mark.parametrize("fit", [kmeans_fit, gmm_fit])
def test_fits_report_overflowing_seeding_distances_as_numeric(fit):
    # finite latents whose squared distances overflow: the k-means++ draw has
    # no finite weights, which the pipeline's member-failure rule must see
    x = np.array([[1.2e154, 0.0], [-1.2e154, 0.0], [1.1e154, 0.0], [-1.3e154, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="overflow"):
            fit(x, 2, seed=0)


def reference_lloyd(x, C, rng):
    """A Lloyd restart whose empty-cluster reseed reads an exact N x C distance table.

    The reseed spelled out on the full table _nearest stands for: every
    empty cluster in id order moves to the point farthest from its own
    centroid, the table's column is recomputed and the labels are its
    argmin.  Returns (inertia, centroids, assign, the most clusters
    reseeded in one step).
    """
    N = x.shape[0]
    with np.errstate(over="ignore"):
        xx = (x * x).sum(axis=1)
    centroids = clustering._kmeanspp_seed(x, C, rng)
    prev = None
    most = 0
    for _ in range(clustering.KMEANS_MAX_ITERS):
        used = centroids
        assign = clustering._nearest(x, xx, centroids)
        counts = np.bincount(assign, minlength=C)
        if not counts.all():
            d2 = clustering._sq_dists(x, centroids)
            own = d2[np.arange(N), assign]
            reseeded = 0
            for c in range(C):
                if not (assign == c).any():
                    reseeded += 1
                    centroids[c] = x[own.argmax()]
                    d2[:, c] = ((x - centroids[c]) ** 2).sum(axis=1)
                    assign = d2.argmin(axis=1)
                    own = d2[np.arange(N), assign]
            most = max(most, reseeded)
            counts = np.bincount(assign, minlength=C)
        if prev is not None and (assign == prev).all():
            break
        prev = assign
        centroids = clustering._cluster_means(x, assign, counts, out=centroids.copy())
    own = ((x - used.take(assign, axis=0)) ** 2).sum(axis=1)
    return float(own.sum()), centroids, assign, most


def test_lloyd_reseed_equals_the_exact_table_reference_bitwise():
    # duplicate-heavy integer grids: with fewer distinct points than
    # clusters, k-means++ repeats centroids and whole groups of clusters
    # start empty
    most = []
    for seed in range(300):
        rng = np.random.default_rng(seed)
        m, C = int(rng.integers(1, 12)), int(rng.integers(2, 25))
        scale = 10.0 ** int(rng.integers(-6, 7))
        distinct = rng.integers(-4, 5, (int(rng.integers(1, 2 * C)), m)) * scale
        x = distinct[rng.integers(0, len(distinct), int(rng.integers(C, 4 * C + 40)))]
        inertia, centroids, assign = clustering._lloyd(x, C, np.random.default_rng(seed))
        ref_inertia, ref_centroids, ref_assign, reseeded = reference_lloyd(
            x, C, np.random.default_rng(seed)
        )
        assert np.float64(inertia).tobytes() == np.float64(ref_inertia).tobytes()
        assert centroids.tobytes() == ref_centroids.tobytes()
        assert np.array_equal(assign, ref_assign)
        most.append(reseeded)
    assert sum(r >= 2 for r in most) >= 10


def test_kmeans_empty_cluster_reseeded(monkeypatch):
    # force both initial centroids onto the same point so one cluster starts
    # empty; the reseed must still produce a 2-cluster solution
    rng = np.random.default_rng(3)
    x, y = two_blobs(rng, n_per=30)

    def degenerate_seed(data, C, _rng):
        return np.repeat(data[:1], C, axis=0)

    monkeypatch.setattr(clustering, "_kmeanspp_seed", degenerate_seed)
    _, lab = kmeans_fit(x, 2, seed=4)
    assert np.unique(lab.labels).size == 2
    assert perm_match_rate(lab.labels, y, 2) == 1.0


def test_kmeans_determinism():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((50, 3))
    c1, l1 = kmeans_fit(x, 3, seed=9)
    c2, l2 = kmeans_fit(x, 3, seed=9)
    assert np.array_equal(c1, c2)
    assert np.array_equal(l1.labels, l2.labels)


# ---- GMM ----


def test_gmm_recovers_mixture_parameters():
    rng = np.random.default_rng(5)
    dim = 3
    mu0 = np.zeros(dim)
    mu1 = np.zeros(dim)
    mu1[0] = 10.0
    x = np.vstack(
        [
            mu0 + rng.standard_normal((1000, dim)),
            mu1 + rng.standard_normal((1000, dim)),
        ]
    )
    model = gmm_fit(x, 2, seed=6)
    err_direct = max(
        np.abs(model.means[0] - mu0).max(), np.abs(model.means[1] - mu1).max()
    )
    err_swapped = max(
        np.abs(model.means[0] - mu1).max(), np.abs(model.means[1] - mu0).max()
    )
    assert min(err_direct, err_swapped) < 0.2
    assert model.weights.sum() == pytest.approx(1.0, abs=1e-9)


def test_gmm_loglik_trace_non_decreasing():
    for s in range(10):
        rng = np.random.default_rng(s)
        x = np.vstack(
            [rng.standard_normal((100, 4)), 4.0 + rng.standard_normal((100, 4))]
        )
        model = gmm_fit(x, 2, seed=s)
        trace = model.log_likelihood_trace
        assert len(trace) >= 2
        for a, b in zip(trace, trace[1:]):
            assert b >= a - 1e-7


def test_gmm_single_component_moments():
    rng = np.random.default_rng(7)
    x = 3.0 + 2.0 * rng.standard_normal((500, 4))
    model = gmm_fit(x, 1, seed=8)
    assert np.abs(model.means[0] - x.mean(axis=0)).max() < 1e-9
    assert np.abs(model.covariances[0] - x.var(axis=0)).max() < 1e-9
    assert model.weights[0] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("m", [1, 4])
def test_gmm_initialisation_equals_per_cluster_moments_bitwise(monkeypatch, m):
    rng = np.random.default_rng(m)
    x = 3.0 + rng.standard_normal((400, m)) * 10.0 ** rng.integers(-3, 3, m)
    C = 4
    centroids, labelling = kmeans_fit(x, C, seed=1)
    labels = labelling.labels.copy()
    labels[labels == 2] = 0  # cluster 2 empty
    monkeypatch.setattr(
        clustering, "kmeans_fit", lambda *_: (centroids, Labelling(labels=labels, n_clusters=C))
    )
    monkeypatch.setattr(clustering, "GMM_MAX_ITERS", 0)  # return the initial model
    model = gmm_fit(x, C, seed=1)

    weights = np.empty(C)
    covariances = np.empty((C, m))
    for c in range(C):
        mask = labels == c
        weights[c] = mask.mean()
        covariances[c] = (
            np.maximum(x[mask].var(axis=0), clustering.GMM_REG_EPSILON)
            if mask.any()
            else clustering.GMM_REG_EPSILON
        )
    weights = np.maximum(weights, 1e-12)
    weights /= weights.sum()
    assert model.weights.tobytes() == weights.tobytes()
    assert model.means.tobytes() == centroids.tobytes()
    assert model.covariances.tobytes() == covariances.tobytes()


def test_gmm_covariances_floored():
    # exact duplicates give zero variance; the floor must hold
    x = np.repeat(np.array([[0.0, 0.0], [5.0, 5.0]]), 20, axis=0)
    model = gmm_fit(x, 2, seed=9)
    assert (model.covariances >= clustering.GMM_REG_EPSILON).all()


def test_gmm_numeric_failure_reports_iteration():
    # offsets are tiny relative to 1e200, so k-means survives but the
    # density's x^2 term overflows in the E step
    x = 1e200 + np.array([[0.0, 0.0], [1.0, 0.0], [1000.0, 0.0], [1001.0, 0.0]])
    with np.errstate(all="ignore"), pytest.raises(NumericError) as info:
        gmm_fit(x, 2, seed=10)
    assert "iteration" in str(info.value)


def test_gmm_determinism():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((150, 3))
    m1 = gmm_fit(x, 3, seed=12)
    m2 = gmm_fit(x, 3, seed=12)
    assert np.array_equal(m1.means, m2.means)
    assert np.array_equal(m1.covariances, m2.covariances)
    assert m1.log_likelihood_trace == m2.log_likelihood_trace


def test_gmm_predict_component_means():
    means = np.array([[0.0, 0.0], [8.0, 0.0], [0.0, 8.0]])
    model = GmmModel(
        weights=np.full(3, 1 / 3),
        means=means,
        covariances=np.ones((3, 2)),
        log_likelihood_trace=[],
    )
    lab = gmm_predict(model, means)
    assert lab.labels.tolist() == [0, 1, 2]


def test_gmm_predict_tie_breaks_low():
    model = GmmModel(
        weights=np.array([0.5, 0.5]),
        means=np.array([[1.0, 0.0], [-1.0, 0.0]]),
        covariances=np.ones((2, 2)),
        log_likelihood_trace=[],
    )
    lab = gmm_predict(model, np.zeros((3, 2)))
    assert lab.labels.tolist() == [0, 0, 0]


def test_gmm_predict_matches_scalar_densities():
    rng = np.random.default_rng(13)
    C, m = 3, 2
    model = GmmModel(
        weights=np.array([0.2, 0.5, 0.3]),
        means=rng.standard_normal((C, m)) * 3,
        covariances=0.5 + rng.random((C, m)),
        log_likelihood_trace=[],
    )
    pts = rng.standard_normal((20, m)) * 3
    lab = gmm_predict(model, pts)
    for i in range(20):
        dens = []
        for c in range(C):
            d = model.weights[c]
            for j in range(m):
                var = model.covariances[c, j]
                d *= np.exp(-((pts[i, j] - model.means[c, j]) ** 2) / (2 * var)) / np.sqrt(
                    2 * np.pi * var
                )
            dens.append(d)
        assert lab.labels[i] == int(np.argmax(dens))

