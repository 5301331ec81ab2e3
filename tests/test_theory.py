"""Tests for the linear-encoder theory checks.

The Monte Carlo experiments are compared against exact enumeration oracles
built on finite samplers: a two-valued sampler makes every expectation a
small average that the tests compute longhand.
"""

import functools
import itertools

import numpy as np
import pytest

from spc.errors import ConfigError
from spc.theory import (
    LinearModel,
    TheoryDataset,
    SAMPLERS,
    entropy_curve,
    lemma1_experiment,
    lemma2_experiment,
    lemma3_check,
    run_theory_suite,
    separable_two_cluster_dataset,
    theorem_experiment,
)


# ---- model and dataset construction ---------------------------------------


def test_linear_model_validation():
    m = LinearModel(w=np.ones(3), w_prime=2.0, eta=0.0)
    assert m.w.shape == (3,)


def test_theory_dataset_recentres():
    pts = np.array([[1.0, 5.0], [3.0, 5.0], [1.0, 7.0], [3.0, 7.0]])
    ds = TheoryDataset(points=pts, labels=np.array([0, 0, 1, 1]), n_clusters=2)
    assert np.abs(ds.points.mean(axis=0)).max() <= 1e-12


# ---- entropy curve --------------------------------------------------------


def test_entropy_uniform_endpoint():
    # at t = 1/C every class has probability 1/C, so H = ln C
    for C in (2, 3, 7, 20):
        curve = entropy_curve(C, np.array([1.0 / C]))
        assert curve[0][1] == pytest.approx(np.log(C), rel=1e-12)


def test_entropy_certain_endpoint():
    for C in (2, 5):
        curve = entropy_curve(C, np.array([1.0]))
        assert curve[0][1] == 0.0


def test_entropy_interior_value_matches_direct_sum():
    # oracle: entropy of the explicit distribution [t, (1-t)/(C-1), ...]
    C, t = 4, 0.5
    p = np.array([t] + [(1.0 - t) / (C - 1)] * (C - 1))
    expected = float(-(p * np.log(p)).sum())
    curve = entropy_curve(C, np.array([t]))
    assert curve[0][1] == pytest.approx(expected, rel=1e-12)


def test_entropy_strictly_decreasing():
    for C in (2, 3, 10, 20):
        h = np.array([p[1] for p in entropy_curve(C, np.linspace(1.0 / C, 1.0, 200))])
        assert (np.diff(h) < 0).all()


# ---- first update comparison (u statistics) -------------------------------


def _enum_u_stats(v: np.ndarray, model: LinearModel):
    """Exact u_same, u_diff, gap, bound for the two-valued sampler at +-v.

    (x, x') ranges over four equally likely sign combinations; expectations
    become four-term averages.
    """
    ew = model.eta * model.w_prime
    same_vals, diff_vals, sq_dists = [], [], []
    for sx, sxp in itertools.product((1.0, -1.0), repeat=2):
        x, xp = sx * v, sxp * v
        diff = x - xp
        w_dot = float(model.w @ diff)
        same_vals.append((w_dot - ew * float((x + xp) @ diff)) ** 2)
        diff_vals.append((w_dot - ew * float(diff @ diff)) ** 2)
        sq_dists.append(float(diff @ diff))
    u_same = float(np.mean(same_vals))
    u_diff = float(np.mean(diff_vals))
    bound = ew**2 * float(np.mean(sq_dists)) ** 2
    return u_same, u_diff, u_diff - u_same, bound


def _two_point(v: np.ndarray):
    """Symmetric sampler over {-v, +v} with equal probability."""

    def sample(rng, size):
        return rng.choice([-1.0, 1.0], size=size)[:, None] * v

    return sample


def _named(name: str, dim: int):
    """SAMPLERS[name] with its dimension bound, as the suite builds it."""
    return functools.partial(SAMPLERS[name], dim=dim)


def test_lemma1_matches_enumeration():
    v = np.array([1.0, -0.5, 2.0])
    model = LinearModel(w=np.array([0.3, 1.1, -0.7]), w_prime=1.3, eta=0.05)
    exact_same, exact_diff, exact_gap, exact_bound = _enum_u_stats(v, model)
    # the enumerated values themselves must satisfy the claimed inequality
    assert exact_gap >= exact_bound > 0.0
    res = lemma1_experiment(_two_point(v), model, 100_000, seed=5)
    assert res["u_same"] == pytest.approx(exact_same, abs=6 * res["u_same_stderr"])
    assert res["u_diff"] == pytest.approx(exact_diff, abs=6 * res["u_diff_stderr"])
    assert res["gap"] == pytest.approx(exact_gap, abs=6 * res["gap_stderr"])
    assert res["applicable"] and res["passed"]


def test_lemma1_eta_zero_exact_equality():
    model = LinearModel(w=np.array([0.4, -0.9]), w_prime=1.0, eta=0.0)
    res = lemma1_experiment(_named("uniform_cube", 2), model, 10_000, seed=0)
    assert res["gap"] == 0.0
    assert res["bound"] == 0.0
    assert not res["applicable"]
    assert res["passed"]


def test_lemma1_deterministic_in_seed():
    model = LinearModel(w=np.array([0.2, -0.4]), w_prime=0.7, eta=0.05)
    a = lemma1_experiment(_named("rademacher", 2), model, 10_000, seed=9)
    b = lemma1_experiment(_named("rademacher", 2), model, 10_000, seed=9)
    assert a == b


def test_lemma1_holds_for_default_samplers():
    model = LinearModel(w=np.array([0.1, -0.2, 0.15, 0.05]), w_prime=1.0, eta=0.05)
    for name in SAMPLERS:
        res = lemma1_experiment(_named(name, 4), model, 50_000, seed=11)
        assert res["passed"], name


# ---- third-point comparison (v statistics) --------------------------------


def _three_point(v: np.ndarray):
    """Symmetric sampler over {-v, 0, +v} with equal probability."""
    opts = np.stack([-v, np.zeros_like(v), v])

    def sample(rng, size):
        return opts[rng.integers(0, 3, size=size)]

    return sample


def _enum_v_stats(v: np.ndarray, model: LinearModel):
    """Exact v_same and v_diff over all 27 (x, x', z) triples in {-v, 0, v}^3."""
    ew = model.eta * model.w_prime
    same_vals, diff_vals = [], []
    for sx, sxp, sz in itertools.product((-1.0, 0.0, 1.0), repeat=3):
        x, xp, z = sx * v, sxp * v, sz * v
        xz = x - z
        w_dot = float(model.w @ xz)
        same_vals.append((w_dot - ew * float((x + xp) @ xz)) ** 2)
        diff_vals.append((w_dot - ew * float((x - xp) @ xz)) ** 2)
    return float(np.mean(same_vals)), float(np.mean(diff_vals))


def test_lemma2_matches_enumeration():
    v = np.array([0.8, -1.2])
    model = LinearModel(w=np.array([0.6, 0.3]), w_prime=1.1, eta=0.07)
    exact_same, exact_diff = _enum_v_stats(v, model)
    # flipping the sign of x' swaps the two statistics, so symmetry forces
    # exact equality in expectation
    assert exact_same == pytest.approx(exact_diff, rel=1e-12)
    res = lemma2_experiment(_three_point(v), model, 100_000, seed=21)
    assert res["v_same"] == pytest.approx(exact_same, abs=6 * res["v_same_stderr"])
    assert res["v_diff"] == pytest.approx(exact_diff, abs=6 * res["v_diff_stderr"])
    assert res["applicable"] and res["passed"]


def test_lemma2_eta_zero_exact_equality():
    model = LinearModel(w=np.array([0.4, -0.9]), w_prime=1.0, eta=0.0)
    res = lemma2_experiment(_named("sphere_shell", 2), model, 10_000, seed=3)
    assert res["delta"] == 0.0
    assert not res["applicable"]
    assert res["passed"]


def test_lemma2_holds_for_default_samplers():
    model = LinearModel(w=np.array([0.1, -0.2, 0.15, 0.05]), w_prime=1.0, eta=0.05)
    for name in SAMPLERS:
        res = lemma2_experiment(_named(name, 4), model, 50_000, seed=13)
        assert res["passed"], name


# ---- variance decomposition identity --------------------------------------


def test_lemma3_coefficients_c2():
    pts = np.array([[0.0], [2.0], [-1.0], [-1.0]])
    ds = TheoryDataset(points=pts, labels=np.array([0, 0, 1, 1]), n_clusters=2)
    _, _, lam1, lam2 = lemma3_check(ds, np.eye(1))
    assert lam1 == pytest.approx(0.25)
    assert lam2 == pytest.approx(0.75)


def test_lemma3_hand_example():
    # 1-D dataset 0, 2 | -1, -1 with the identity encoder:
    #   cluster means 1 and -1, within variances 1 and 0, so d = 1 - 0.5 = 0.5
    #   r = (4*1 + 4*9)/8 = 5 over ordered cross pairs
    #   s = (0+4+4+0 + 0+0+0+0)/8 = 1 over ordered within pairs (with identity)
    #   r/4 - 3s/4 = 5/4 - 3/4 = 0.5
    pts = np.array([[0.0], [2.0], [-1.0], [-1.0]])
    ds = TheoryDataset(points=pts, labels=np.array([0, 0, 1, 1]), n_clusters=2)
    d, combo, _, _ = lemma3_check(ds, np.eye(1))
    assert d == pytest.approx(0.5, abs=1e-12)
    assert combo == pytest.approx(0.5, abs=1e-12)


def test_lemma3_identity_on_random_datasets():
    rng = np.random.default_rng(77)
    for _ in range(20):
        C = int(rng.integers(2, 5))
        per = int(rng.integers(3, 9))
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 5))
        pts = rng.standard_normal((C * per, n)) * 3.0
        ds = TheoryDataset(points=pts, labels=np.repeat(np.arange(C), per), n_clusters=C)
        d, combo, _, _ = lemma3_check(ds, rng.standard_normal((m, n)))
        assert abs(d - combo) <= 1e-9


def test_lemma3_identical_points_give_zero():
    pts = np.tile(np.array([2.0, -1.0]), (6, 1))
    ds = TheoryDataset(points=pts, labels=np.repeat([0, 1, 2], 2), n_clusters=3)
    d, combo, _, _ = lemma3_check(ds, np.eye(2))
    assert d == 0.0 and combo == 0.0


# ---- pairwise update sign result ------------------------------------------


def _enum_theorem(ds: TheoryDataset, model: LinearModel):
    """Exact E[d_T] and E[d_F] over all distinct ordered pairs."""
    X, y = ds.points, ds.labels
    N = X.shape[0]
    ew = model.eta * model.w_prime

    def d_of(w):
        enc = X @ w
        means = np.array([enc[y == c].mean() for c in range(2)])
        var_b = ((means - means.mean()) ** 2).mean()
        var_w = np.mean([enc[y == c].var() for c in range(2)])
        return var_b - var_w

    d_t_vals, d_f_vals = [], []
    for i in range(N):
        for j in range(N):
            if i == j:
                continue
            sum_upd = model.w - ew * (X[i] + X[j])
            diff_upd = model.w - ew * (X[i] - X[j])
            if y[i] == y[j]:
                d_t_vals.append(d_of(sum_upd))
                d_f_vals.append(d_of(diff_upd))
            else:
                d_t_vals.append(d_of(diff_upd))
                d_f_vals.append(d_of(sum_upd))
    return float(np.mean(d_t_vals)), float(np.mean(d_f_vals))


def test_theorem_matches_enumeration():
    pts = np.array([[-1.0, 0.0], [-2.0, 1.0], [1.0, 0.0], [2.0, -1.0]])
    ds = TheoryDataset(points=pts, labels=np.array([0, 0, 1, 1]), n_clusters=2)
    model = LinearModel(w=np.array([0.4, -0.3]), w_prime=1.0, eta=0.05)
    exact_t, exact_f = _enum_theorem(ds, model)
    res = theorem_experiment(ds, model, 50_000, seed=17)
    assert res["d_t"] == pytest.approx(exact_t, abs=6 * res["d_t_stderr"])
    assert res["d_f"] == pytest.approx(exact_f, abs=6 * res["d_f_stderr"])
    assert res["diff"] == pytest.approx(exact_t - exact_f, abs=6 * res["diff_stderr"])


def test_theorem_separable_dataset_passes():
    ds = separable_two_cluster_dataset(n_per=30, dim=4, separation=4.0, seed=2)
    model = LinearModel(
        w=0.3 * np.random.default_rng(2).standard_normal(4), w_prime=1.0, eta=0.05
    )
    res = theorem_experiment(ds, model, 10_000, seed=2)
    assert res["passed"]
    assert res["diff"] > 0.0


def test_theorem_eta_zero_exact_equality():
    ds = separable_two_cluster_dataset(n_per=10, dim=3, separation=3.0, seed=0)
    model = LinearModel(w=np.ones(3), w_prime=1.0, eta=0.0)
    res = theorem_experiment(ds, model, 1_000, seed=0)
    assert res["diff"] == 0.0
    assert not res["applicable"]
    assert res["passed"]


def test_theorem_deterministic_in_seed():
    ds = separable_two_cluster_dataset(n_per=8, dim=2, separation=3.0, seed=4)
    model = LinearModel(w=np.array([0.2, -0.1]), w_prime=1.0, eta=0.05)
    a = theorem_experiment(ds, model, 5_000, seed=6)
    b = theorem_experiment(ds, model, 5_000, seed=6)
    assert a == b


def test_separable_dataset_is_symmetric():
    ds = separable_two_cluster_dataset(n_per=12, dim=3, separation=5.0, seed=1)
    assert ds.points.shape == (24, 3)
    # cluster 1 is the reflection of cluster 0; recentring subtracts the
    # numerically computed mean, so allow one rounding step of slack
    a = np.sort(-ds.points[ds.labels == 0], axis=0)
    b = np.sort(ds.points[ds.labels == 1], axis=0)
    np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-12)


# ---- samplers -------------------------------------------------------------


def test_samplers_shapes_and_support():
    rng = np.random.default_rng(0)
    x = SAMPLERS["two_point"](rng, 100, 2)
    assert x.shape == (100, 2)
    assert set(np.unique(x[:, 0])) == {-1.0, 1.0} and (x[:, 1] == 0.0).all()
    x = SAMPLERS["rademacher"](rng, 50, 3)
    assert x.shape == (50, 3) and set(np.unique(x)) <= {-1.0, 1.0}
    x = SAMPLERS["uniform_cube"](rng, 200, 2)
    assert x.shape == (200, 2) and np.abs(x).max() <= 1.0
    x = SAMPLERS["sphere_shell"](rng, 200, 4)
    np.testing.assert_allclose(np.linalg.norm(x, axis=1), 1.0, rtol=1e-12)
    x = SAMPLERS["gauss_pair"](rng, 500, 2)
    assert x.shape == (500, 2)


# ---- full suite -----------------------------------------------------------


def test_suite_all_pass():
    report = run_theory_suite(seed=0)
    assert report.all_passed()
    assert report.entropy["passed"]
    assert set(report.lemma1) == set(SAMPLERS)
    assert set(report.lemma2) == set(SAMPLERS)
    assert report.lemma3["max_residual"] <= 1e-9
    assert report.theorem["passed"]


def test_suite_deterministic():
    a = run_theory_suite(seed=3).to_json_dict()
    b = run_theory_suite(seed=3).to_json_dict()
    assert a == b


def test_suite_json_shape():
    d = run_theory_suite(seed=1).to_json_dict()
    assert set(d) == {"entropy", "lemma1", "lemma2", "lemma3", "theorem", "all_passed"}
    assert d["all_passed"] is True


def test_suite_rejects_a_negative_seed():
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        run_theory_suite(seed=-1)
