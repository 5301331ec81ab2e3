"""Numerical checks of the linear-encoder analysis behind selective training.

The object of study is one latent coordinate of a linear autoencoder: w maps
the input to that coordinate and the scalar w' maps it to the output, so a
gradient step on a pair (x, x') with equal labels updates w by -eta*w'*(x+x')
and with different labels by -eta*w'*(x-x').  The checks cover:

  - the entropy curve H(t) of a C-class distribution with one class at
    probability t and the rest uniform (strictly decreasing on [1/C, 1]);
  - u_same < u_diff with the explicit gap bound (eta*w')^2 E[|x-x'|^2]^2,
    by Monte Carlo over symmetric samplers;
  - v_same = v_diff for the distance to an uninvolved third point;
  - the exact identity d = (C-1)/(2C) r - (2C-1)/(2C) s on equal-cluster-size
    datasets, where d = Var(E[X|Y]) - E[Var(X|Y)];
  - the sign result d_T > d_F for pairwise correct vs incorrect updates.

The u/v inequalities hold as stated for distributions with vanishing odd
third moments; all built-in samplers are symmetric (x ~ -x), which is
sufficient.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError

MIN_MC_SAMPLES = 10_000


@dataclass(frozen=True)
class LinearModel:
    """One latent coordinate of a linear autoencoder: scalar path w, w'."""

    w: np.ndarray
    w_prime: float
    eta: float

    def __post_init__(self):
        w = np.asarray(self.w, dtype=np.float64)
        object.__setattr__(self, "w", w)
        if w.ndim != 1 or not np.isfinite(w).all():
            raise ConfigError("w must be a finite vector")
        if not np.isfinite(self.w_prime):
            raise ConfigError("w_prime must be finite")
        # eta = 0 is the documented degenerate mode where the inequality
        # claims collapse to equalities
        if not self.eta >= 0:
            raise ConfigError("eta must be non-negative")

    @property
    def dim(self) -> int:
        return self.w.shape[0]


@dataclass(frozen=True)
class TheoryDataset:
    """Finite dataset with zero empirical mean and equal cluster sizes."""

    points: np.ndarray
    labels: np.ndarray
    n_clusters: int

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        lab = np.asarray(self.labels, dtype=np.int64)
        pts = pts - pts.mean(axis=0)  # recentre: E[T] = 0 is assumed throughout
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "labels", lab)
        if pts.ndim != 2 or lab.shape != (pts.shape[0],):
            raise DataError("points must be N x n with one label per point")
        if np.abs(pts.mean(axis=0)).max() > 1e-12:
            raise DataError("recentred column means exceed tolerance")
        counts = np.bincount(lab, minlength=self.n_clusters)
        if lab.min() < 0 or lab.max() >= self.n_clusters:
            raise DataError("labels out of range")
        if np.unique(counts).size != 1:
            raise DataError(f"clusters must be equally sized, got counts {counts.tolist()}")

    @property
    def n_points(self) -> int:
        return self.points.shape[0]


def entropy_curve(C: int, t_grid) -> list:
    """Pairs (t, H) of the C-class entropy with one class at probability t.

    H(t) = -t ln t - (1-t) ln((1-t)/(C-1)), with 0 ln 0 := 0 at t = 1.
    """
    if C < 2:
        raise ConfigError("need C >= 2")
    t = np.asarray(t_grid, dtype=np.float64)
    if t.ndim != 1 or t.shape[0] < 1:
        raise ConfigError("t_grid must be a non-empty vector")
    if (np.diff(t) < 0).any():
        raise ConfigError("t_grid must be sorted ascending")
    lo = 1.0 / C
    if t.min() < lo - 1e-12 or t.max() > 1.0 + 1e-12:
        raise ConfigError(f"t values must lie in [1/C, 1] = [{lo}, 1]")
    out = []
    for ti in t:
        ti = min(max(ti, lo), 1.0)
        h = -ti * np.log(ti) if ti > 0 else 0.0
        rest = 1.0 - ti
        if rest > 0:
            h -= rest * np.log(rest / (C - 1))
        out.append((float(ti), float(h)))
    return out


def gd_update_same(model: LinearModel, x: np.ndarray, x_prime: np.ndarray) -> LinearModel:
    """w <- w - eta * w' * (x + x'), the equal-labels gradient step."""
    x = np.asarray(x, dtype=np.float64)
    x_prime = np.asarray(x_prime, dtype=np.float64)
    if x.shape != (model.dim,) or x_prime.shape != (model.dim,):
        raise DataError("points must match the model dimension")
    return LinearModel(
        w=model.w - model.eta * model.w_prime * (x + x_prime),
        w_prime=model.w_prime,
        eta=model.eta,
    )


def gd_update_diff(model: LinearModel, x: np.ndarray, x_prime: np.ndarray) -> LinearModel:
    """w <- w - eta * w' * (x - x'), the different-labels gradient step."""
    x = np.asarray(x, dtype=np.float64)
    x_prime = np.asarray(x_prime, dtype=np.float64)
    if x.shape != (model.dim,) or x_prime.shape != (model.dim,):
        raise DataError("points must match the model dimension")
    return LinearModel(
        w=model.w - model.eta * model.w_prime * (x - x_prime),
        w_prime=model.w_prime,
        eta=model.eta,
    )


# ---- samplers -------------------------------------------------------------
# All built-ins are symmetric about the origin so the odd-moment terms in the
# u_same / u_diff expansion vanish and the stated bound applies.


def two_point(v) -> callable:
    v = np.asarray(v, dtype=np.float64)

    def sample(rng: np.random.Generator, size: int) -> np.ndarray:
        signs = rng.choice([-1.0, 1.0], size=size)
        return signs[:, None] * v

    return sample


def gauss_pair(mu, sigma: float) -> callable:
    mu = np.asarray(mu, dtype=np.float64)

    def sample(rng, size):
        signs = rng.choice([-1.0, 1.0], size=size)
        return signs[:, None] * mu + sigma * rng.standard_normal((size, mu.shape[0]))

    return sample


def uniform_cube(dim: int, half_width: float = 1.0) -> callable:
    def sample(rng, size):
        return rng.uniform(-half_width, half_width, size=(size, dim))

    return sample


def rademacher(dim: int) -> callable:
    def sample(rng, size):
        return rng.choice([-1.0, 1.0], size=(size, dim))

    return sample


def sphere_shell(dim: int, radius: float = 1.0) -> callable:
    def sample(rng, size):
        g = rng.standard_normal((size, dim))
        norms = np.sqrt((g**2).sum(axis=1, keepdims=True))
        return radius * g / norms

    return sample


def constant_point(v) -> callable:
    """Degenerate single-point sampler; experiments must reject it."""
    v = np.asarray(v, dtype=np.float64)

    def sample(rng, size):
        return np.tile(v, (size, 1))

    return sample


def _draw(sampler, rng, size, dim):
    x = np.asarray(sampler(rng, size), dtype=np.float64)
    if x.shape != (size, dim):
        raise DataError(f"sampler produced shape {x.shape}, expected ({size}, {dim})")
    return x


def _mean_stderr(values: np.ndarray):
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / np.sqrt(values.shape[0])) if values.shape[0] > 1 else 0.0
    return mean, stderr


def lemma1_experiment(sampler, model: LinearModel, n_samples: int, seed: int) -> dict:
    """Monte Carlo check that u_diff - u_same >= (eta w')^2 E[|x-x'|^2]^2.

    u_same = E[((w - eta w'(x+x'))^T (x-x'))^2]
    u_diff = E[((w - eta w'(x-x'))^T (x-x'))^2]

    Sampling is paired: both statistics use the same draws, so the gap
    estimate's standard error reflects the paired difference.
    """
    if n_samples < MIN_MC_SAMPLES:
        raise ConfigError(f"need at least {MIN_MC_SAMPLES} samples, got {n_samples}")
    rng = np.random.default_rng(seed)
    x = _draw(sampler, rng, n_samples, model.dim)
    xp = _draw(sampler, rng, n_samples, model.dim)
    if np.ptp(x, axis=0).max() == 0.0 and np.ptp(xp, axis=0).max() == 0.0:
        raise DataError("degenerate sampler: all drawn points identical")
    diff = x - xp
    w_dot = diff @ model.w
    ew = model.eta * model.w_prime
    sq_norm_gap = (x**2).sum(axis=1) - (xp**2).sum(axis=1)  # (x+x')^T (x-x')
    sq_dist = (diff**2).sum(axis=1)
    same_vals = (w_dot - ew * sq_norm_gap) ** 2
    diff_vals = (w_dot - ew * sq_dist) ** 2
    u_same, u_same_se = _mean_stderr(same_vals)
    u_diff, u_diff_se = _mean_stderr(diff_vals)
    gap, gap_se = _mean_stderr(diff_vals - same_vals)
    bound = ew**2 * float(sq_dist.mean()) ** 2
    applicable = ew != 0.0
    if applicable:
        passed = gap >= bound - 3.0 * gap_se
    else:
        passed = gap == 0.0
    return {
        "u_same": u_same,
        "u_same_stderr": u_same_se,
        "u_diff": u_diff,
        "u_diff_stderr": u_diff_se,
        "gap": gap,
        "gap_stderr": gap_se,
        "bound": bound,
        "n_samples": n_samples,
        "applicable": applicable,
        "passed": bool(passed),
    }


def lemma2_experiment(sampler, model: LinearModel, n_samples: int, seed: int) -> dict:
    """Monte Carlo check that v_same = v_diff for an independent third point.

    v_same = E[((w - eta w'(x+x'))^T (x-z))^2]
    v_diff = E[((w - eta w'(x-x'))^T (x-z))^2]
    """
    if n_samples < MIN_MC_SAMPLES:
        raise ConfigError(f"need at least {MIN_MC_SAMPLES} samples, got {n_samples}")
    rng = np.random.default_rng(seed)
    x = _draw(sampler, rng, n_samples, model.dim)
    xp = _draw(sampler, rng, n_samples, model.dim)
    z = _draw(sampler, rng, n_samples, model.dim)
    if np.ptp(x, axis=0).max() == 0.0 and np.ptp(xp, axis=0).max() == 0.0:
        raise DataError("degenerate sampler: all drawn points identical")
    xz = x - z
    w_dot = xz @ model.w
    ew = model.eta * model.w_prime
    same_vals = (w_dot - ew * ((x + xp) * xz).sum(axis=1)) ** 2
    diff_vals = (w_dot - ew * ((x - xp) * xz).sum(axis=1)) ** 2
    v_same, v_same_se = _mean_stderr(same_vals)
    v_diff, v_diff_se = _mean_stderr(diff_vals)
    delta, delta_se = _mean_stderr(diff_vals - same_vals)
    applicable = ew != 0.0
    if applicable:
        passed = abs(delta) <= 4.0 * delta_se
    else:
        passed = delta == 0.0
    return {
        "v_same": v_same,
        "v_same_stderr": v_same_se,
        "v_diff": v_diff,
        "v_diff_stderr": v_diff_se,
        "delta": delta,
        "delta_stderr": delta_se,
        "n_samples": n_samples,
        "applicable": applicable,
        "passed": bool(passed),
    }


def _variance_d(encoded: np.ndarray, labels: np.ndarray, C: int) -> float:
    """d = Var(E[X|Y]) - E[Var(X|Y)], coordinates summed, population variances.

    Assumes equal cluster sizes, so Y is uniform over the C clusters.
    """
    means = np.stack([encoded[labels == c].mean(axis=0) for c in range(C)])
    grand = means.mean(axis=0)
    var_between = ((means - grand) ** 2).mean(axis=0)
    var_within = np.stack([encoded[labels == c].var(axis=0) for c in range(C)]).mean(axis=0)
    return float((var_between - var_within).sum())


def lemma3_check(dataset: TheoryDataset, encoder: np.ndarray):
    """Both sides of d = (C-1)/(2C) r - (2C-1)/(2C) s, computed exactly.

    r and s are mean squared encoded distances over ordered pairs drawn with
    replacement (the identity pair counts toward s), matching the
    Var(T) = (1/2) E[(x-x')^2] convention.  Returns (d, lam1*r - lam2*s,
    lam1, lam2).
    """
    A = np.atleast_2d(np.asarray(encoder, dtype=np.float64))
    if A.shape[1] != dataset.points.shape[1]:
        raise DataError("encoder input dimension does not match the dataset")
    C = dataset.n_clusters
    encoded = dataset.points @ A.T
    d = _variance_d(encoded, dataset.labels, C)
    sq = ((encoded[:, None, :] - encoded[None, :, :]) ** 2).sum(axis=2)
    same = dataset.labels[:, None] == dataset.labels[None, :]
    s = float(sq[same].mean())
    r = float(sq[~same].mean())
    lam1 = (C - 1) / (2.0 * C)
    lam2 = (2.0 * C - 1) / (2.0 * C)
    return d, lam1 * r - lam2 * s, lam1, lam2


def theorem_experiment(dataset: TheoryDataset, model: LinearModel, n_trials: int, seed: int) -> dict:
    """Paired Monte Carlo check that d_T > d_F on a C=2 dataset.

    Each trial draws a distinct ordered pair (x, x'); the pairwise-correct
    update is the same-labels step when the points share a true cluster and
    the different-labels step otherwise, and the pairwise-incorrect update is
    the opposite.  d is evaluated on the whole dataset after each update.
    """
    if dataset.n_clusters != 2:
        raise DataError("theorem check requires C = 2")
    if n_trials < 2:
        raise ConfigError("need at least 2 trials")
    if model.dim != dataset.points.shape[1]:
        raise DataError("model dimension does not match the dataset")
    rng = np.random.default_rng(seed)
    X = dataset.points
    y = dataset.labels
    N = X.shape[0]
    i = rng.integers(0, N, size=n_trials)
    j = rng.integers(0, N, size=n_trials)
    clash = i == j
    while clash.any():
        j[clash] = rng.integers(0, N, size=int(clash.sum()))
        clash = i == j
    xi, xj = X[i], X[j]
    same_cluster = y[i] == y[j]
    ew = model.eta * model.w_prime
    sum_upd = model.w[None, :] - ew * (xi + xj)
    diff_upd = model.w[None, :] - ew * (xi - xj)
    w_correct = np.where(same_cluster[:, None], sum_upd, diff_upd)
    w_incorrect = np.where(same_cluster[:, None], diff_upd, sum_upd)

    def d_rows(W):
        enc = W @ X.T  # (trials, N) scalar encodings
        m0 = enc[:, y == 0].mean(axis=1)
        m1 = enc[:, y == 1].mean(axis=1)
        grand = (m0 + m1) / 2.0
        var_b = ((m0 - grand) ** 2 + (m1 - grand) ** 2) / 2.0
        var_w = (enc[:, y == 0].var(axis=1) + enc[:, y == 1].var(axis=1)) / 2.0
        return var_b - var_w

    d_t = d_rows(w_correct)
    d_f = d_rows(w_incorrect)
    d_t_mean, d_t_se = _mean_stderr(d_t)
    d_f_mean, d_f_se = _mean_stderr(d_f)
    diff_mean, diff_se = _mean_stderr(d_t - d_f)
    applicable = ew != 0.0
    if applicable:
        passed = diff_mean > 3.0 * diff_se
    else:
        passed = diff_mean == 0.0
    return {
        "d_t": d_t_mean,
        "d_t_stderr": d_t_se,
        "d_f": d_f_mean,
        "d_f_stderr": d_f_se,
        "diff": diff_mean,
        "diff_stderr": diff_se,
        "n_trials": n_trials,
        "applicable": applicable,
        "passed": bool(passed),
    }


# ---- full suite -----------------------------------------------------------


def default_samplers(dim: int) -> dict:
    v = np.zeros(dim)
    v[0] = 1.0
    mu = np.full(dim, 0.5)
    return {
        "two_point": two_point(v),
        "gauss_pair": gauss_pair(mu, 0.5),
        "uniform_cube": uniform_cube(dim),
        "rademacher": rademacher(dim),
        "sphere_shell": sphere_shell(dim),
    }


@dataclass
class TheoryReport:
    """Results of the full verification suite, one entry dict per claim."""

    entropy: dict = field(default_factory=dict)
    lemma1: dict = field(default_factory=dict)
    lemma2: dict = field(default_factory=dict)
    lemma3: dict = field(default_factory=dict)
    theorem: dict = field(default_factory=dict)

    def all_passed(self) -> bool:
        claims = [self.entropy, self.lemma3, self.theorem]
        claims += list(self.lemma1.values()) + list(self.lemma2.values())
        return all(c.get("passed", False) for c in claims)

    def to_json_dict(self) -> dict:
        return {
            "entropy": self.entropy,
            "lemma1": self.lemma1,
            "lemma2": self.lemma2,
            "lemma3": self.lemma3,
            "theorem": self.theorem,
            "all_passed": self.all_passed(),
        }


def separable_two_cluster_dataset(n_per: int, dim: int, separation: float, seed: int) -> TheoryDataset:
    """Equal-size two-cluster blobs for the theorem check.

    Cluster 0 is built as the reflection of cluster 1 through the origin, so
    the empirical distribution is symmetric and its odd moments vanish to
    rounding error, matching the conditions of the pair-update inequalities.
    """
    rng = np.random.default_rng(seed)
    offset = np.zeros(dim)
    offset[0] = separation / 2.0
    z = offset + 0.25 * rng.standard_normal((n_per, dim))
    pts = np.vstack([-z, z])
    labels = np.repeat([0, 1], n_per)
    return TheoryDataset(points=pts, labels=labels, n_clusters=2)


def run_theory_suite(
    dim: int = 4,
    eta: float = 0.05,
    w_prime: float = 1.0,
    n_samples: int = 100_000,
    n_trials: int = 10_000,
    seed: int = 0,
    samplers: dict | None = None,
) -> TheoryReport:
    """Run every check and collect a TheoryReport.

    Claims that are vacuous at eta*w' = 0 are marked not applicable and pass
    as exact equalities.
    """
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    root = np.random.SeedSequence(seed)
    report = TheoryReport()

    # entropy monotonicity across C, via finite differences on a dense grid
    worst = -np.inf
    for C in range(2, 21):
        curve = entropy_curve(C, np.linspace(1.0 / C, 1.0, 100))
        h = np.array([p[1] for p in curve])
        worst = max(worst, float(np.diff(h).max()))
    report.entropy = {
        "c_values": "2..20",
        "grid_size": 100,
        "max_slope": worst,
        "passed": bool(worst < 0.0),
    }

    model_rng = np.random.default_rng(root.spawn(1)[0])
    # Keep |w| modest: the separation signal in the update comparisons grows
    # like eta^2 while the per-sample spread grows like eta*|w|, so a small
    # weight vector buys Monte Carlo resolution at fixed sample counts.
    model = LinearModel(
        w=0.3 * model_rng.standard_normal(dim), w_prime=float(w_prime), eta=float(eta)
    )
    if samplers is None:
        samplers = default_samplers(dim)
    seeds = root.spawn(2 * len(samplers) + 2)
    k = 0
    for name, sampler in samplers.items():
        s1 = int(seeds[k].generate_state(1, dtype=np.uint64)[0])
        s2 = int(seeds[k + 1].generate_state(1, dtype=np.uint64)[0])
        k += 2
        report.lemma1[name] = lemma1_experiment(sampler, model, n_samples, s1)
        report.lemma2[name] = lemma2_experiment(sampler, model, n_samples, s2)

    # exact identity on random equal-size datasets
    id_rng = np.random.default_rng(seeds[k].generate_state(1, dtype=np.uint64)[0])
    max_residual = 0.0
    n_datasets = 100
    for t in range(n_datasets):
        C = int(id_rng.integers(2, 5))
        per = int(id_rng.integers(3, 11))
        n = int(id_rng.integers(2, 6))
        m = int(id_rng.integers(1, 5))
        pts = id_rng.standard_normal((C * per, n)) * 2.0
        labels = np.repeat(np.arange(C), per)
        ds = TheoryDataset(points=pts, labels=labels, n_clusters=C)
        A = id_rng.standard_normal((m, n))
        d, combo, _, _ = lemma3_check(ds, A)
        max_residual = max(max_residual, abs(d - combo))
    report.lemma3 = {
        "n_datasets": n_datasets,
        "max_residual": max_residual,
        "tolerance": 1e-9,
        "passed": bool(max_residual <= 1e-9),
    }

    th_seed = int(seeds[k + 1].generate_state(1, dtype=np.uint64)[0])
    ds = separable_two_cluster_dataset(n_per=30, dim=dim, separation=4.0, seed=th_seed)
    report.theorem = theorem_experiment(ds, model, n_trials, th_seed + 1)
    return report
