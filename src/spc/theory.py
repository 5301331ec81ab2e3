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
third moments; every sampler is symmetric (x ~ -x), which is sufficient.
``run_theory_suite`` runs them all at one setting, the module constants
below, and takes only a seed.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConfigError

# the suite's one setting: the model's width and step, the Monte Carlo draws
# per u/v check and the theorem's trials
DIM = 4
ETA = 0.05
W_PRIME = 1.0
N_SAMPLES = 100_000
N_TRIALS = 10_000
ENTROPY_CLASS_COUNTS = range(2, 21)
ENTROPY_GRID_POINTS = 100


@dataclass(frozen=True)
class LinearModel:
    """One latent coordinate of a linear autoencoder: scalar path w, w'."""

    w: np.ndarray
    w_prime: float
    eta: float


@dataclass(frozen=True)
class TheoryDataset:
    """Finite dataset with equal cluster sizes, recentred to zero empirical mean."""

    points: np.ndarray
    labels: np.ndarray
    n_clusters: int

    def __post_init__(self):
        # recentre: E[T] = 0 is assumed throughout
        object.__setattr__(self, "points", self.points - self.points.mean(axis=0))


def entropy_curve(C: int, t_grid) -> list:
    """Pairs (t, H) of the C-class entropy with one class at probability t.

    H(t) = -t ln t - (1-t) ln((1-t)/(C-1)), with 0 ln 0 := 0 at t = 1.  C is
    at least 2 and every t lies in [1/C, 1].
    """
    out = []
    for ti in np.asarray(t_grid, dtype=np.float64):
        h = -ti * np.log(ti)
        rest = 1.0 - ti
        if rest > 0:
            h -= rest * np.log(rest / (C - 1))
        out.append((float(ti), float(h)))
    return out


def entropy_grid() -> list:
    """(C, entropy_curve) for every C in ENTROPY_CLASS_COUNTS on [1/C, 1].

    The one grid behind the entropy claim and the entropy_curve.csv artifact.
    """
    return [
        (C, entropy_curve(C, np.linspace(1.0 / C, 1.0, ENTROPY_GRID_POINTS)))
        for C in ENTROPY_CLASS_COUNTS
    ]


# ---- samplers -------------------------------------------------------------
# Each draws ``size`` points in ``dim`` dimensions.  All are symmetric about
# the origin, so the odd-moment terms in the u_same / u_diff expansion vanish
# and the stated bound applies.


def _two_point(rng: np.random.Generator, size: int, dim: int) -> np.ndarray:
    signs = rng.choice([-1.0, 1.0], size=size)
    return signs[:, None] * np.eye(1, dim)[0]


def _gauss_pair(rng, size, dim):
    signs = rng.choice([-1.0, 1.0], size=size)
    return signs[:, None] * np.full(dim, 0.5) + 0.5 * rng.standard_normal((size, dim))


def _uniform_cube(rng, size, dim):
    return rng.uniform(-1.0, 1.0, size=(size, dim))


def _rademacher(rng, size, dim):
    return rng.choice([-1.0, 1.0], size=(size, dim))


def _sphere_shell(rng, size, dim):
    g = rng.standard_normal((size, dim))
    norms = np.sqrt((g**2).sum(axis=1, keepdims=True))
    return g / norms


def _draw_sets(sampler, n_samples: int, seed: int, n_sets: int) -> list:
    """n_sets independent (n_samples, dim) draws from one seeded stream, in order."""
    rng = np.random.default_rng(seed)
    return [np.asarray(sampler(rng, n_samples), dtype=np.float64) for _ in range(n_sets)]


def _mean_stderr(values: np.ndarray):
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / np.sqrt(values.shape[0])) if values.shape[0] > 1 else 0.0
    return mean, stderr


def _paired_claim(ew: float, first, second, diff_key: str, holds, **extra) -> dict:
    """Summarise two paired samples and judge a claim on their difference.

    ``first`` and ``second`` are (key, values) over the same draws; the
    paired difference is first - second, so its standard error reflects the
    pairing.  ``holds(mean, stderr)`` judges that difference.  At
    eta*w' = 0 the claim is vacuous: it is marked not applicable and passes
    only as an exact equality.
    """
    out = dict(extra)
    for key, values in (first, second, (diff_key, first[1] - second[1])):
        out[key], out[key + "_stderr"] = _mean_stderr(values)
    mean, stderr = out[diff_key], out[diff_key + "_stderr"]
    out["applicable"] = ew != 0.0
    out["passed"] = bool(holds(mean, stderr) if out["applicable"] else mean == 0.0)
    return out


def lemma1_experiment(sampler, model: LinearModel, n_samples: int, seed: int) -> dict:
    """Monte Carlo check that u_diff - u_same >= (eta w')^2 E[|x-x'|^2]^2.

    u_same = E[((w - eta w'(x+x'))^T (x-x'))^2]
    u_diff = E[((w - eta w'(x-x'))^T (x-x'))^2]
    """
    x, xp = _draw_sets(sampler, n_samples, seed, 2)
    diff = x - xp
    w_dot = diff @ model.w
    ew = model.eta * model.w_prime
    sq_norm_gap = (x**2).sum(axis=1) - (xp**2).sum(axis=1)  # (x+x')^T (x-x')
    sq_dist = (diff**2).sum(axis=1)
    same_vals = (w_dot - ew * sq_norm_gap) ** 2
    diff_vals = (w_dot - ew * sq_dist) ** 2
    bound = ew**2 * float(sq_dist.mean()) ** 2
    return _paired_claim(
        ew,
        ("u_diff", diff_vals),
        ("u_same", same_vals),
        "gap",
        lambda gap, se: gap >= bound - 3.0 * se,
        bound=bound,
        n_samples=n_samples,
    )


def lemma2_experiment(sampler, model: LinearModel, n_samples: int, seed: int) -> dict:
    """Monte Carlo check that v_same = v_diff for an independent third point.

    v_same = E[((w - eta w'(x+x'))^T (x-z))^2]
    v_diff = E[((w - eta w'(x-x'))^T (x-z))^2]
    """
    x, xp, z = _draw_sets(sampler, n_samples, seed, 3)
    xz = x - z
    w_dot = xz @ model.w
    ew = model.eta * model.w_prime
    same_vals = (w_dot - ew * ((x + xp) * xz).sum(axis=1)) ** 2
    diff_vals = (w_dot - ew * ((x - xp) * xz).sum(axis=1)) ** 2
    return _paired_claim(
        ew,
        ("v_diff", diff_vals),
        ("v_same", same_vals),
        "delta",
        lambda delta, se: abs(delta) <= 4.0 * se,
        n_samples=n_samples,
    )


def _variance_d(encoded: np.ndarray, labels: np.ndarray, C: int) -> np.ndarray:
    """d = Var(E[X|Y]) - E[Var(X|Y)] per column of ``encoded``, population variances.

    Assumes equal cluster sizes, so Y is uniform over the C clusters.
    """
    means = np.stack([encoded[labels == c].mean(axis=0) for c in range(C)])
    grand = means.mean(axis=0)
    var_between = ((means - grand) ** 2).mean(axis=0)
    var_within = np.stack([encoded[labels == c].var(axis=0) for c in range(C)]).mean(axis=0)
    return var_between - var_within


def lemma3_check(dataset: TheoryDataset, encoder: np.ndarray):
    """Both sides of d = (C-1)/(2C) r - (2C-1)/(2C) s, computed exactly.

    d sums the per-coordinate statistic over the encoded coordinates.  r and
    s are mean squared encoded distances over ordered pairs drawn with
    replacement (the identity pair counts toward s), matching the
    Var(T) = (1/2) E[(x-x')^2] convention.  ``encoder`` is an (m, n) matrix
    over the dataset's n coordinates.  Returns (d, lam1*r - lam2*s, lam1,
    lam2).
    """
    C = dataset.n_clusters
    encoded = dataset.points @ np.asarray(encoder, dtype=np.float64).T
    d = float(_variance_d(encoded, dataset.labels, C).sum())
    sq = ((encoded[:, None, :] - encoded[None, :, :]) ** 2).sum(axis=2)
    same = dataset.labels[:, None] == dataset.labels[None, :]
    s = float(sq[same].mean())
    r = float(sq[~same].mean())
    lam1 = (C - 1) / (2.0 * C)
    lam2 = (2.0 * C - 1) / (2.0 * C)
    return d, lam1 * r - lam2 * s, lam1, lam2


def theorem_experiment(dataset: TheoryDataset, model: LinearModel, n_trials: int, seed: int) -> dict:
    """Paired Monte Carlo check that d_T > d_F on a C=2 dataset of the model's width.

    Each trial draws a distinct ordered pair (x, x'); the pairwise-correct
    update is the same-labels step when the points share a true cluster and
    the different-labels step otherwise, and the pairwise-incorrect update is
    the opposite.  d is evaluated on the whole dataset after each update.
    """
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
    # one column of scalar encodings per trial
    d_t = _variance_d((w_correct @ X.T).T, y, 2)
    d_f = _variance_d((w_incorrect @ X.T).T, y, 2)
    return _paired_claim(
        ew,
        ("d_t", d_t),
        ("d_f", d_f),
        "diff",
        lambda diff, se: diff > 3.0 * se,
        n_trials=n_trials,
    )


# ---- full suite -----------------------------------------------------------


# the samplers of the u/v checks, as sample(rng, size, dim)
SAMPLERS = {
    "two_point": _two_point,
    "gauss_pair": _gauss_pair,
    "uniform_cube": _uniform_cube,
    "rademacher": _rademacher,
    "sphere_shell": _sphere_shell,
}


@dataclass
class TheoryReport:
    """Results of the full verification suite, one entry dict per claim."""

    entropy: dict = field(default_factory=dict)
    lemma1: dict = field(default_factory=dict)
    lemma2: dict = field(default_factory=dict)
    lemma3: dict = field(default_factory=dict)
    theorem: dict = field(default_factory=dict)

    def claims(self) -> list:
        """(name, passed) for every claim, in report order."""
        lines = [("entropy", self.entropy.get("passed", False))]
        for lemma in ("lemma1", "lemma2"):
            for name, entry in sorted(getattr(self, lemma).items()):
                lines.append((f"{lemma}[{name}]", entry.get("passed", False)))
        lines.append(("lemma3", self.lemma3.get("passed", False)))
        lines.append(("theorem", self.theorem.get("passed", False)))
        return lines

    def all_passed(self) -> bool:
        return all(passed for _, passed in self.claims())

    def to_json_dict(self) -> dict:
        return {**asdict(self), "all_passed": self.all_passed()}


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


def run_theory_suite(seed: int = 0) -> TheoryReport:
    """Run every check at the module's one setting and collect a TheoryReport."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    root = np.random.SeedSequence(seed)
    report = TheoryReport()

    # entropy monotonicity across C, via finite differences on a dense grid
    worst = -np.inf
    for _, curve in entropy_grid():
        h = np.array([p[1] for p in curve])
        worst = max(worst, float(np.diff(h).max()))
    report.entropy = {
        "c_values": f"{ENTROPY_CLASS_COUNTS[0]}..{ENTROPY_CLASS_COUNTS[-1]}",
        "grid_size": ENTROPY_GRID_POINTS,
        "max_slope": worst,
        "passed": bool(worst < 0.0),
    }

    model_rng = np.random.default_rng(root.spawn(1)[0])
    # Keep |w| modest: the separation signal in the update comparisons grows
    # like eta^2 while the per-sample spread grows like eta*|w|, so a small
    # weight vector buys Monte Carlo resolution at fixed sample counts.
    model = LinearModel(w=0.3 * model_rng.standard_normal(DIM), w_prime=W_PRIME, eta=ETA)
    built = {name: functools.partial(sampler, dim=DIM) for name, sampler in SAMPLERS.items()}
    # two seeds per sampler, then one for lemma 3 and one for the theorem
    seeds = [
        int(child.generate_state(1, dtype=np.uint64)[0])
        for child in root.spawn(2 * len(built) + 2)
    ]
    for k, (name, sampler) in enumerate(built.items()):
        report.lemma1[name] = lemma1_experiment(sampler, model, N_SAMPLES, seeds[2 * k])
        report.lemma2[name] = lemma2_experiment(sampler, model, N_SAMPLES, seeds[2 * k + 1])

    # exact identity on random equal-size datasets
    id_rng = np.random.default_rng(seeds[-2])
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

    th_seed = seeds[-1]
    ds = separable_two_cluster_dataset(n_per=30, dim=DIM, separation=4.0, seed=th_seed)
    report.theorem = theorem_experiment(ds, model, N_TRIALS, th_seed + 1)
    return report
