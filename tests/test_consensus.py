from itertools import permutations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spc.clustering import Labelling
from spc.consensus import (
    Metrics,
    accuracy,
    align,
    cluster_size_report,
    consensus,
    evaluate,
    hungarian,
    nmi,
    rand_index,
)
from spc.consensus import _cooccurrence
from spc.errors import DataError


def brute_force_min(cost):
    n = cost.shape[0]
    best_cost = None
    best_perms = []
    for perm in permutations(range(n)):
        c = sum(cost[r, perm[r]] for r in range(n))
        if best_cost is None or c < best_cost - 1e-12:
            best_cost = c
            best_perms = [perm]
        elif abs(c - best_cost) <= 1e-12:
            best_perms.append(perm)
    return best_cost, best_perms


# ---- hungarian ----


def test_hungarian_identity():
    cost = np.ones((4, 4)) - np.eye(4)
    assert hungarian(cost).tolist() == [0, 1, 2, 3]


def test_hungarian_reversal():
    cost = np.ones((4, 4)) - np.eye(4)[::-1]
    assert hungarian(cost).tolist() == [3, 2, 1, 0]


def test_hungarian_matches_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(100):
        cost = rng.random((5, 5))
        perm = hungarian(cost)
        assert sorted(perm.tolist()) == [0, 1, 2, 3, 4]
        got = sum(cost[r, perm[r]] for r in range(5))
        best, _ = brute_force_min(cost)
        assert got == pytest.approx(best, abs=1e-9)


def test_hungarian_lexicographic_tie_break():
    assert hungarian(np.zeros((3, 3))).tolist() == [0, 1, 2]
    rng = np.random.default_rng(1)
    for _ in range(100):
        # few distinct values force plenty of optimal ties
        cost = rng.integers(0, 2, size=(4, 4)).astype(float)
        perm = tuple(hungarian(cost).tolist())
        _, best_perms = brute_force_min(cost)
        assert perm == min(best_perms)


def test_hungarian_input_validation():
    with pytest.raises(DataError):
        hungarian(np.zeros((2, 3)))
    bad = np.zeros((2, 2))
    bad[0, 0] = np.inf
    with pytest.raises(DataError):
        hungarian(bad)
    assert hungarian(np.zeros((1, 1))).tolist() == [0]


# ---- align ----


def rand_labelling(rng, n, C):
    lab = rng.integers(0, C, size=n)
    # ensure every id occurs so alignment is well-posed
    lab[:C] = np.arange(C)
    return Labelling(labels=lab, n_clusters=C)


def test_align_identity():
    rng = np.random.default_rng(2)
    ref = rand_labelling(rng, 20, 4)
    out = align(ref, ref)
    assert np.array_equal(out.labels, ref.labels)


def test_align_inverts_permutation():
    rng = np.random.default_rng(3)
    ref = rand_labelling(rng, 30, 4)
    perm = np.array([2, 0, 3, 1])
    other = Labelling(labels=perm[ref.labels], n_clusters=4)
    out = align(ref, other)
    assert np.array_equal(out.labels, ref.labels)


def test_align_maximizes_agreement():
    rng = np.random.default_rng(4)
    for _ in range(20):
        ref = rand_labelling(rng, 30, 4)
        other = rand_labelling(rng, 30, 4)
        out = align(ref, other)
        got = (out.labels == ref.labels).sum()
        for perm in permutations(range(4)):
            mapped = np.array(perm)[other.labels]
            assert got >= (mapped == ref.labels).sum()


def test_align_mismatch_errors():
    a = Labelling(labels=np.array([0, 1]), n_clusters=2)
    b = Labelling(labels=np.array([0, 1, 0]), n_clusters=2)
    with pytest.raises(DataError):
        align(a, b)
    c = Labelling(labels=np.array([0, 2, 1]), n_clusters=3)
    with pytest.raises(DataError):
        align(b, c)


# ---- consensus ----


def test_consensus_single_member():
    rng = np.random.default_rng(5)
    lab = rand_labelling(rng, 25, 3)
    res = consensus([lab], 3)
    assert np.array_equal(res.consensus_labels, lab.labels)
    assert res.agreement.all()
    assert res.n_agreed == 25


def test_consensus_permuted_members_fully_agree():
    rng = np.random.default_rng(6)
    base = rand_labelling(rng, 40, 4)
    members = [base]
    for perm in ([1, 2, 3, 0], [3, 2, 1, 0]):
        members.append(Labelling(labels=np.array(perm)[base.labels], n_clusters=4))
    res = consensus(members, 4)
    assert res.n_agreed == 40
    assert np.array_equal(res.consensus_labels, base.labels)


def test_consensus_hand_built_dissent():
    # 3 members over 6 points; member 2 dissents on point 4 only
    a = Labelling(labels=np.array([0, 0, 1, 1, 2, 2]), n_clusters=3)
    b = Labelling(labels=np.array([0, 0, 1, 1, 2, 2]), n_clusters=3)
    c = Labelling(labels=np.array([0, 0, 1, 1, 1, 2]), n_clusters=3)
    res = consensus([a, b, c], 3)
    assert res.agreement.tolist() == [True, True, True, True, False, True]
    assert res.n_agreed == 5
    # mode of (2, 2, 1) is 2
    assert res.consensus_labels[4] == 2
    assert np.array_equal(res.consensus_labels[:4], [0, 0, 1, 1])


def test_consensus_mode_tie_lowest_id():
    # co-occurrence favors the identity alignment, so the disagreeing points
    # keep their raw (0, 1) / (1, 0) votes, both ties resolved to 0
    a = Labelling(labels=np.array([0, 0, 1, 1, 0]), n_clusters=2)
    b = Labelling(labels=np.array([0, 1, 1, 0, 0]), n_clusters=2)
    res = consensus([a, b], 2)
    assert np.array_equal(res.aligned_labellings[1], b.labels)
    assert res.consensus_labels.tolist() == [0, 0, 1, 0, 0]
    assert res.agreement.tolist() == [True, False, True, False, True]


def test_consensus_monotone_in_ensemble_size():
    rng = np.random.default_rng(7)
    for _ in range(20):
        members = [rand_labelling(rng, 30, 3) for _ in range(4)]
        prev = None
        for k in range(1, 5):
            n = consensus(members[:k], 3).n_agreed
            if prev is not None:
                assert n <= prev
            prev = n


def test_consensus_flag_iff_constant_column():
    rng = np.random.default_rng(8)
    members = [rand_labelling(rng, 40, 4) for _ in range(3)]
    res = consensus(members, 4)
    for i in range(40):
        col = res.aligned_labellings[:, i]
        assert res.agreement[i] == (len(set(col.tolist())) == 1)
        counts = np.bincount(col, minlength=4)
        assert res.consensus_labels[i] == counts.argmax()


def test_consensus_empty_errors():
    with pytest.raises(DataError):
        consensus([], 3)


# ---- metrics ----


def test_accuracy_identity_and_permutation():
    rng = np.random.default_rng(9)
    truth = rand_labelling(rng, 30, 3)
    assert accuracy(truth, truth) == 1.0
    permuted = Labelling(labels=np.array([2, 0, 1])[truth.labels], n_clusters=3)
    assert accuracy(permuted, truth) == 1.0


def test_accuracy_matches_brute_force():
    rng = np.random.default_rng(10)
    for _ in range(20):
        pred = rand_labelling(rng, 12, 3)
        truth = rand_labelling(rng, 12, 3)
        best = max(
            (np.array(p)[pred.labels] == truth.labels).mean()
            for p in permutations(range(3))
        )
        assert accuracy(pred, truth) == pytest.approx(best, abs=1e-12)


def labelling_from_contingency(table):
    """Build (pred, truth) realizing the given contingency counts."""
    table = np.asarray(table)
    pred, truth = [], []
    for i in range(table.shape[0]):
        for j in range(table.shape[1]):
            pred += [i] * int(table[i, j])
            truth += [j] * int(table[i, j])
    return (
        Labelling(labels=np.array(pred), n_clusters=table.shape[0]),
        Labelling(labels=np.array(truth), n_clusters=table.shape[1]),
    )


def test_nmi_identity_and_independence():
    rng = np.random.default_rng(11)
    truth = rand_labelling(rng, 30, 3)
    assert nmi(truth, truth) == pytest.approx(1.0, abs=1e-12)
    pred, tr = labelling_from_contingency([[25, 25], [25, 25]])
    assert nmi(pred, tr) == pytest.approx(0.0, abs=1e-12)


def test_nmi_scalar_oracle():
    pred, truth = labelling_from_contingency([[30, 10], [10, 30]])
    n = 80.0
    pj = np.array([[30, 10], [10, 30]]) / n
    pp = pj.sum(axis=1)
    pt = pj.sum(axis=0)
    mi = sum(
        pj[i, j] * np.log(pj[i, j] / (pp[i] * pt[j]))
        for i in range(2)
        for j in range(2)
    )
    h = -sum(p * np.log(p) for p in pp)
    expect = 2 * mi / (2 * h)
    assert nmi(pred, truth) == pytest.approx(expect, abs=1e-12)


def test_nmi_permutation_invariance():
    rng = np.random.default_rng(12)
    pred = rand_labelling(rng, 40, 4)
    truth = rand_labelling(rng, 40, 4)
    base = nmi(pred, truth)
    for perm in ([1, 0, 3, 2], [3, 2, 1, 0]):
        mapped = Labelling(labels=np.array(perm)[pred.labels], n_clusters=4)
        assert nmi(mapped, truth) == pytest.approx(base, abs=1e-12)


def test_nmi_degenerate_constant_pair():
    a = Labelling(labels=np.zeros(5, dtype=int), n_clusters=1)
    assert nmi(a, a) == 1.0


def test_rand_index_identity_and_complement():
    rng = np.random.default_rng(13)
    truth = rand_labelling(rng, 20, 2)
    assert rand_index(truth, truth) == 1.0
    flipped = Labelling(labels=1 - truth.labels, n_clusters=2)
    assert rand_index(flipped, truth) == 1.0


def test_rand_index_pair_oracle():
    pred = Labelling(labels=np.array([0, 0, 1, 1, 2, 2]), n_clusters=3)
    truth = Labelling(labels=np.array([0, 0, 0, 1, 1, 2]), n_clusters=3)
    n = 6
    agree = 0
    for i in range(n):
        for j in range(i + 1, n):
            same_p = pred.labels[i] == pred.labels[j]
            same_t = truth.labels[i] == truth.labels[j]
            agree += same_p == same_t
    expect = agree / (n * (n - 1) / 2)
    assert rand_index(pred, truth) == pytest.approx(expect, abs=1e-12)


def test_rand_index_random_vs_pair_oracle():
    rng = np.random.default_rng(14)
    for _ in range(10):
        pred = rand_labelling(rng, 25, 3)
        truth = rand_labelling(rng, 25, 4)
        n = 25
        agree = sum(
            (pred.labels[i] == pred.labels[j]) == (truth.labels[i] == truth.labels[j])
            for i in range(n)
            for j in range(i + 1, n)
        )
        assert rand_index(pred, truth) == pytest.approx(agree / 300, abs=1e-12)


def test_rand_index_needs_two_points():
    a = Labelling(labels=np.array([0]), n_clusters=1)
    with pytest.raises(DataError):
        rand_index(a, a)


def test_cooccurrence_table_matches_add_at_build_bitwise():
    rng = np.random.default_rng(13)
    for rows_c, cols_c in ((1, 1), (3, 5), (10, 10)):
        rows = rng.integers(0, rows_c, size=200)
        cols = rng.integers(0, cols_c, size=200)
        expect = np.zeros((rows_c, cols_c))
        np.add.at(expect, (rows, cols), 1.0)
        got = _cooccurrence(rows, cols, rows_c, cols_c)
        assert got.dtype == np.float64 and got.tobytes() == expect.tobytes()


def test_cluster_size_report():
    lab = Labelling(labels=np.array([0, 0, 1, 1, 2, 2]), n_clusters=3)
    assert cluster_size_report(lab) == {0: 2, 1: 2, 2: 2}
    lab2 = Labelling(labels=np.array([0, 0, 2]), n_clusters=4)
    report = cluster_size_report(lab2)
    assert report == {0: 2, 1: 0, 2: 1, 3: 0}
    assert sum(report.values()) == 3


def test_evaluate_bundle():
    rng = np.random.default_rng(15)
    truth = rand_labelling(rng, 30, 3)
    m = evaluate(truth, truth)
    assert m.accuracy == 1.0
    assert m.nmi == pytest.approx(1.0, abs=1e-12)
    assert m.rand_index == 1.0
    assert sum(m.cluster_sizes.values()) == 30


def test_metrics_range_validation():
    with pytest.raises(DataError):
        Metrics(accuracy=1.2, nmi=0.5, rand_index=0.5, cluster_sizes={})


# ---- properties ----

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@st.composite
def labelling_pairs(draw):
    """(predicted, truth) over up to 5 ids each, on the same points."""
    n = draw(st.integers(1, 30))
    cp, ct = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    pred = draw(st.lists(st.integers(0, cp - 1), min_size=n, max_size=n))
    truth = draw(st.lists(st.integers(0, ct - 1), min_size=n, max_size=n))
    return Labelling(np.array(pred), cp), Labelling(np.array(truth), ct)


@SETTINGS
@given(labelling_pairs())
def test_accuracy_is_the_best_permutation_rate(pair):
    pred, truth = pair
    C = max(pred.n_clusters, truth.n_clusters)
    best = max((np.array(p)[pred.labels] == truth.labels).mean() for p in permutations(range(C)))
    assert accuracy(pred, truth) == best


def matching_is_unique(labels, reference, C):
    scores = [(np.array(p)[labels] == reference).sum() for p in permutations(range(C))]
    return scores.count(max(scores)) == 1


@st.composite
def ensembles(draw):
    """(member labellings, C, relabelled member, id permutation): noisy copies of one labelling."""
    C = draw(st.integers(2, 4))
    n = draw(st.integers(C, 24))
    base = np.array(draw(st.lists(st.integers(0, C - 1), min_size=n, max_size=n)))
    members = []
    for _ in range(draw(st.integers(2, 4))):
        labels = np.array(draw(st.permutations(range(C))))[base]
        for i in draw(st.lists(st.integers(0, n - 1), max_size=n // 3)):
            labels[i] = draw(st.integers(0, C - 1))
        members.append(Labelling(labels, C))
    j = draw(st.integers(0, len(members) - 1))
    perm = np.array(draw(st.permutations(range(C))))
    return members, C, j, perm


@SETTINGS
@given(ensembles())
def test_consensus_invariant_under_member_relabelling(ensemble):
    # a tied matching is broken by id order, which relabelling changes
    members, C, j, perm = ensemble
    ref = members[0].labels
    assume(all(matching_is_unique(m.labels, ref, C) for m in members[1:]))
    relabelled = list(members)
    relabelled[j] = Labelling(perm[members[j].labels], C)
    before, after = consensus(members, C), consensus(relabelled, C)
    assert np.array_equal(before.agreement, after.agreement)
    assert before.n_agreed == after.n_agreed
    agreed = before.agreement
    if j == 0:
        # the reference's ids name the consensus ids, so they follow perm
        assert np.array_equal(after.consensus_labels[agreed], perm[before.consensus_labels[agreed]])
    else:
        assert np.array_equal(after.consensus_labels, before.consensus_labels)
