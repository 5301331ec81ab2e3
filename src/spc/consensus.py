"""Labelling alignment, unanimity consensus, and clustering metrics.

Cluster ids coming out of independent fits are arbitrary, so ensemble members
are aligned to member 0 by solving an assignment problem on co-occurrence
counts, with ids renumbered by first appearance so that the alignment, ties
included, depends on the partitions alone.  The consensus label of a point
is the mode of its aligned labels and the point is flagged as agreed when
the ensemble is unanimous:

    c_i = mode_j aligned_j[i],    a_i = 1 iff all aligned_j[i] equal.

Accuracy against ground truth is the mean correctness under the same matching.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clustering import Labelling
from .errors import DataError


def hungarian(cost: np.ndarray) -> np.ndarray:
    """Permutation perm minimizing sum_r cost[r, perm[r]] over a square, finite cost, O(n^3).

    Rows join one at a time, in order, along shortest augmenting paths
    (potentials u, v over 1-indexed arrays; p[j] is the row matched to column
    j).  On a tie the result is the first optimum found, each step taking the
    first minimum column; integer costs keep that choice exact.
    """
    cost = np.asarray(cost, dtype=np.float64)
    n = cost.shape[0]
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    p = np.zeros(n + 1, dtype=np.int64)
    way = np.zeros(n + 1, dtype=np.int64)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = np.full(n + 1, np.inf)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = p[j0]
            free = np.flatnonzero(~used)
            cur = cost[i0 - 1, free - 1] - u[i0] - v[free]
            lower = cur < minv[free]
            minv[free[lower]] = cur[lower]
            way[free[lower]] = j0
            j1 = free[minv[free].argmin()]  # the first minimum, as a strict < scan takes
            delta = minv[j1]
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
    perm[p[1:] - 1] = np.arange(n)
    return perm


def _cooccurrence(rows: np.ndarray, cols: np.ndarray, n_rows: int, n_cols: int) -> np.ndarray:
    """Float64 table t[r, c] = #{i : rows[i] = r and cols[i] = c}; DataError on unequal lengths."""
    if rows.shape != cols.shape:
        raise DataError("labellings must cover the same points")
    counts = np.bincount(rows * n_cols + cols, minlength=n_rows * n_cols)
    return counts.reshape(n_rows, n_cols).astype(np.float64)


def _first_appearance(labels: np.ndarray, n_clusters: int):
    """(ranks, ids) of the ids {0..C-1} renumbered in the order they first occur.

    ids[r] is the raw id of rank r, so ids[ranks] == labels; ids absent from
    labels come last, in raw order.  Relabelling labels leaves ranks unchanged.
    """
    present, first_point = np.unique(labels, return_index=True)
    first = np.full(n_clusters, labels.shape[0])
    first[present] = first_point
    ids = np.argsort(first, kind="stable")
    return np.argsort(ids)[labels], ids  # argsort inverts the permutation ids


def _matching(labels: np.ndarray, reference: np.ndarray, n_clusters: int) -> np.ndarray:
    """Permutation perm of the ids {0..C-1} maximizing #{i : perm[labels[i]] = reference[i]}.

    Solved on labels' first-appearance ranks, so perm[labels] depends on the
    partition of labels, not on its ids, even when the matching ties.
    """
    ranks, ids = _first_appearance(labels, n_clusters)
    perm = np.empty(n_clusters, dtype=np.int64)
    perm[ids] = hungarian(-_cooccurrence(ranks, reference, n_clusters, n_clusters))
    return perm


def _aligned_correct(predicted: np.ndarray, truth: np.ndarray, n_clusters: int) -> np.ndarray:
    """Pointwise correctness under the accuracy-maximizing label permutation."""
    return _matching(predicted, truth, n_clusters)[predicted] == truth


@dataclass(frozen=True)
class ConsensusResult:
    """Consensus labels of the ensemble with per-point unanimity flags."""

    consensus_labels: np.ndarray
    agreement: np.ndarray

    def __post_init__(self):
        if self.consensus_labels.ndim != 1 or self.agreement.shape != self.consensus_labels.shape:
            raise DataError("consensus labels and agreement flags must be vectors of length N")

    @property
    def n_agreed(self) -> int:
        return int(self.agreement.sum())


def consensus(labellings: list, n_clusters: int) -> ConsensusResult:
    """Align all labellings to the first and take unanimity and mode votes.

    The labellings are one or more, all of the same points and n_clusters.
    Each is matched to member 0's first-appearance ids and then named by
    member 0's raw ids, so relabelling any member but 0 changes nothing, and
    relabelling member 0 renames the agreed points' consensus ids.  Mode
    ties go to member 0's lowest raw id.
    """
    ref, ids = _first_appearance(labellings[0].labels, n_clusters)
    N = ref.shape[0]
    aligned = [ids[_matching(lab.labels, ref, n_clusters)][lab.labels] for lab in labellings[1:]]
    matrix = np.stack([labellings[0].labels] + aligned)
    agreement = (matrix == matrix[0]).all(axis=0)
    counts = np.bincount((matrix * N + np.arange(N)).ravel(), minlength=n_clusters * N)
    modes = counts.reshape(n_clusters, N).argmax(axis=0)  # argmax takes the lowest id on ties
    return ConsensusResult(consensus_labels=modes.astype(np.int64), agreement=agreement)


def _joint(predicted: Labelling, truth: Labelling) -> np.ndarray:
    """The C x C co-occurrence table of two labellings of the same points.

    C is the larger of the two id counts; the rows or columns past the
    smaller one are zero, and every entry and margin is an exact integer.
    """
    C = max(predicted.n_clusters, truth.n_clusters)
    return _cooccurrence(predicted.labels, truth.labels, C, C)


def accuracy(predicted: Labelling, truth: Labelling) -> float:
    """Best-permutation agreement rate between two labellings of the same points."""
    C = max(predicted.n_clusters, truth.n_clusters)
    return float(_aligned_correct(predicted.labels, truth.labels, C).mean())


def _entropy(counts: np.ndarray) -> float:
    p = counts[counts > 0] / counts.sum()
    return float(-(p * np.log(p)).sum())


def nmi(predicted: Labelling, truth: Labelling) -> float:
    """Normalized mutual information 2 I(P;T) / (H(P) + H(T)), natural log.

    Defined as 1 when both entropies vanish (both labellings constant).
    """
    # unpadded: numpy sums a row of floats pairwise in an order set by its length
    joint = _joint(predicted, truth)[: predicted.n_clusters, : truth.n_clusters]
    N = predicted.n_points
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
    joint = _joint(predicted, truth)
    N = predicted.n_points
    if N < 2:
        raise DataError("rand index needs at least 2 points")

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


def evaluate(predicted: Labelling, truth: Labelling) -> dict:
    """{"accuracy", "nmi", "rand_index"} of ``predicted`` against ``truth``."""
    return {
        "accuracy": accuracy(predicted, truth),
        "nmi": nmi(predicted, truth),
        "rand_index": rand_index(predicted, truth),
    }
