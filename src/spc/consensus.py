"""Labelling alignment, unanimity consensus, and clustering metrics.

Cluster ids coming out of independent fits are arbitrary, so ensemble members
are aligned to member 0 by solving an assignment problem on co-occurrence
counts.  The consensus label of a point is the mode of its aligned labels and
the point is flagged as agreed when the ensemble is unanimous:

    c_i = mode_j aligned_j[i],    a_i = 1 iff all aligned_j[i] equal.

Accuracy against ground truth uses the same assignment machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clustering import Labelling
from .errors import DataError


def _assignment_cost(cost: np.ndarray, perm) -> float:
    return float(sum(cost[r, perm[r]] for r in range(len(perm))))


def _solve_assignment(cost: np.ndarray):
    """Minimum-cost perfect matching on a square matrix, O(n^3).

    Potentials u, v and matching p over 1-indexed arrays; p[j] is the row
    matched to column j.  Returns perm with perm[row] = column.
    """
    n = cost.shape[0]
    INF = np.inf
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    p = np.zeros(n + 1, dtype=np.int64)
    way = np.zeros(n + 1, dtype=np.int64)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = np.full(n + 1, INF)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = INF
            j1 = -1
            for j in range(1, n + 1):
                if not used[j]:
                    cur = cost[i0 - 1, j - 1] - u[i0] - v[j]
                    if cur < minv[j]:
                        minv[j] = cur
                        way[j] = j0
                    if minv[j] < delta:
                        delta = minv[j]
                        j1 = j
            u[p[used]] += delta
            v[used] -= delta
            minv[~used] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    perm = np.zeros(n, dtype=np.int64)
    for j in range(1, n + 1):
        perm[p[j] - 1] = j - 1
    return perm


def hungarian(cost: np.ndarray) -> np.ndarray:
    """Permutation perm minimizing sum_r cost[r, perm[r]].

    Among all optimal permutations, returns the lexicographically smallest:
    row by row, the smallest column is kept whenever fixing it still allows
    completing the matching at optimal total cost.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise DataError(f"cost matrix must be square, got shape {cost.shape}")
    if not np.isfinite(cost).all():
        raise DataError("cost matrix must be finite")
    n = cost.shape[0]
    if n == 1:
        return np.zeros(1, dtype=np.int64)
    best = _assignment_cost(cost, _solve_assignment(cost))
    eps = 1e-9 * (1.0 + abs(best))
    perm = np.zeros(n, dtype=np.int64)
    free_cols = list(range(n))
    prefix = 0.0
    for r in range(n):
        for ci, c in enumerate(free_cols):
            rest_rows = [i for i in range(r + 1, n)]
            rest_cols = [x for x in free_cols if x != c]
            if rest_rows:
                sub = cost[np.ix_(rest_rows, rest_cols)]
                completion = _assignment_cost(sub, _solve_assignment(sub))
            else:
                completion = 0.0
            if prefix + cost[r, c] + completion <= best + eps:
                perm[r] = c
                prefix += cost[r, c]
                free_cols.pop(ci)
                break
        else:
            raise DataError("assignment refinement failed to complete")  # unreachable
    return perm


def _cooccurrence(rows: np.ndarray, cols: np.ndarray, n_rows: int, n_cols: int) -> np.ndarray:
    """Float64 table t[r, c] = #{i : rows[i] = r and cols[i] = c}."""
    counts = np.bincount(rows * n_cols + cols, minlength=n_rows * n_cols)
    return counts.reshape(n_rows, n_cols).astype(np.float64)


def _matching(labels: np.ndarray, reference: np.ndarray, n_clusters: int) -> np.ndarray:
    """Permutation perm of the ids {0..C-1} maximizing #{i : perm[labels[i]] = reference[i]}.

    Ties go to the lexicographically smallest perm (see ``hungarian``).
    """
    return hungarian(-_cooccurrence(labels, reference, n_clusters, n_clusters))


@dataclass(frozen=True)
class ConsensusResult:
    """Aligned ensemble labels with per-point unanimity flags."""

    consensus_labels: np.ndarray
    agreement: np.ndarray
    aligned_labellings: np.ndarray
    n_agreed: int

    def __post_init__(self):
        if self.aligned_labellings.ndim != 2:
            raise DataError("aligned_labellings must be K x N")
        K, N = self.aligned_labellings.shape
        if self.consensus_labels.shape != (N,) or self.agreement.shape != (N,):
            raise DataError("consensus fields must have length N")
        if self.n_agreed != int(self.agreement.sum()):
            raise DataError("n_agreed must equal the number of set agreement flags")


def align(reference: Labelling, other: Labelling) -> Labelling:
    """Relabel ``other`` to maximize pointwise agreement with ``reference``."""
    if other.n_points != reference.n_points:
        raise DataError("labellings must cover the same points")
    if other.n_clusters != reference.n_clusters:
        raise DataError("labellings must use the same number of clusters")
    C = reference.n_clusters
    perm = _matching(other.labels, reference.labels, C)
    return Labelling(labels=perm[other.labels], n_clusters=C)


def consensus(labellings: list, n_clusters: int) -> ConsensusResult:
    """Align all labellings to the first and take unanimity and mode votes."""
    if not labellings:
        raise DataError("need at least one labelling")
    N = labellings[0].n_points
    for lab in labellings:
        if lab.n_points != N or lab.n_clusters != n_clusters:
            raise DataError("labellings must share N and n_clusters")
    ref = labellings[0]
    aligned = [ref.labels.copy()]
    for lab in labellings[1:]:
        aligned.append(align(ref, lab).labels)
    matrix = np.stack(aligned)
    agreement = (matrix == matrix[0]).all(axis=0)
    counts = np.zeros((n_clusters, N), dtype=np.int64)
    idx = np.arange(N)
    for row in matrix:
        np.add.at(counts, (row, idx), 1)
    modes = counts.argmax(axis=0)  # argmax takes the lowest id on ties
    return ConsensusResult(
        consensus_labels=modes.astype(np.int64),
        agreement=agreement,
        aligned_labellings=matrix,
        n_agreed=int(agreement.sum()),
    )


def accuracy(predicted: Labelling, truth: Labelling) -> float:
    """Best-permutation agreement rate between two labellings."""
    if predicted.n_points != truth.n_points:
        raise DataError("labellings must cover the same points")
    C = max(predicted.n_clusters, truth.n_clusters)
    perm = _matching(predicted.labels, truth.labels, C)
    return float((perm[predicted.labels] == truth.labels).mean())


def _entropy(counts: np.ndarray) -> float:
    p = counts[counts > 0] / counts.sum()
    return float(-(p * np.log(p)).sum())


def nmi(predicted: Labelling, truth: Labelling) -> float:
    """Normalized mutual information 2 I(P;T) / (H(P) + H(T)), natural log.

    Defined as 1 when both entropies vanish (both labellings constant).
    """
    if predicted.n_points != truth.n_points:
        raise DataError("labellings must cover the same points")
    N = predicted.n_points
    joint = _cooccurrence(predicted.labels, truth.labels, predicted.n_clusters, truth.n_clusters)
    hp = _entropy(joint.sum(axis=1))
    ht = _entropy(joint.sum(axis=0))
    if hp + ht == 0.0:
        return 1.0
    pj = joint / N
    pp = pj.sum(axis=1, keepdims=True)
    pt = pj.sum(axis=0, keepdims=True)
    mask = pj > 0
    mi = float((pj[mask] * np.log(pj[mask] / (pp @ pt)[mask])).sum())
    return float(min(max(2.0 * mi / (hp + ht), 0.0), 1.0))


def rand_index(predicted: Labelling, truth: Labelling) -> float:
    """Fraction of unordered point pairs on which the labellings agree
    (both together or both apart), by pair counting."""
    if predicted.n_points != truth.n_points:
        raise DataError("labellings must cover the same points")
    N = predicted.n_points
    if N < 2:
        raise DataError("rand index needs at least 2 points")
    joint = _cooccurrence(predicted.labels, truth.labels, predicted.n_clusters, truth.n_clusters)

    def pairs(v):
        return float((v * (v - 1) / 2).sum())

    total = N * (N - 1) / 2.0
    s = pairs(joint)
    a = pairs(joint.sum(axis=1))
    b = pairs(joint.sum(axis=0))
    return float((total - a - b + 2.0 * s) / total)


def cluster_size_report(labelling: Labelling) -> dict:
    """Histogram {cluster id: count} over all ids {0..C-1}."""
    counts = np.bincount(labelling.labels, minlength=labelling.n_clusters)
    return {int(c): int(counts[c]) for c in range(labelling.n_clusters)}


@dataclass(frozen=True)
class Metrics:
    """Evaluation summary for one labelling against ground truth."""

    accuracy: float
    nmi: float
    rand_index: float
    cluster_sizes: dict

    def __post_init__(self):
        for name in ("accuracy", "nmi", "rand_index"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise DataError(f"{name} out of range: {v}")


def evaluate(predicted: Labelling, truth: Labelling) -> Metrics:
    return Metrics(
        accuracy=accuracy(predicted, truth),
        nmi=nmi(predicted, truth),
        rand_index=rand_index(predicted, truth),
        cluster_sizes=cluster_size_report(predicted),
    )
