import numpy as np
import pytest

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


def test_kmeans_inertia_non_increasing():
    for s in range(20):
        rng = np.random.default_rng(s)
        x = rng.standard_normal((80, 5))
        trace, centroids, assign = clustering._lloyd(x, 4, np.random.default_rng(s))
        assert len(trace) >= 1
        assert trace[-1] == pytest.approx(((x - centroids[assign]) ** 2).sum(), rel=1e-12)
        for a, b in zip(trace, trace[1:]):
            assert b <= a + 1e-9


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


def test_kmeans_rejects_too_few_points():
    with pytest.raises(DataError):
        kmeans_fit(np.zeros((2, 2)), 3, seed=0)


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
    assert info.value.iteration is not None
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


def test_gmm_predict_dim_mismatch():
    model = GmmModel(
        weights=np.array([1.0]),
        means=np.zeros((1, 3)),
        covariances=np.ones((1, 3)),
        log_likelihood_trace=[],
    )
    with pytest.raises(DataError):
        gmm_predict(model, np.zeros((4, 2)))


def test_gmm_model_validation():
    with pytest.raises(DataError):
        GmmModel(
            weights=np.array([0.6, 0.6]),
            means=np.zeros((2, 2)),
            covariances=np.ones((2, 2)),
        )
    with pytest.raises(DataError):
        GmmModel(
            weights=np.array([0.5, 0.5]),
            means=np.zeros((2, 2)),
            covariances=np.zeros((2, 2)),
        )

