from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spc.clustering import Labelling
from spc.consensus import (
    accuracy,
    cluster_size_report,
    consensus,
    evaluate,
    hungarian,
    nmi,
    rand_index,
)
from spc.consensus import _cooccurrence, _matching
from spc.errors import DataError


def brute_force_min(cost):
    n = cost.shape[0]
    return min(sum(cost[r, perm[r]] for r in range(n)) for perm in permutations(range(n)))


def scalar_loop_assignment(cost):
    """hungarian with its column scan as a scalar loop, as it was written
    before the scan became array operations: the first optimum it finds."""
    n = cost.shape[0]
    u, v = np.zeros(n + 1), np.zeros(n + 1)
    p, way = np.zeros(n + 1, dtype=np.int64), np.zeros(n + 1, dtype=np.int64)
    for i in range(1, n + 1):
        p[0], j0 = i, 0
        minv, used = np.full(n + 1, np.inf), np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0, delta, j1 = p[j0], np.inf, -1
            for j in range(1, n + 1):
                if not used[j]:
                    cur = cost[i0 - 1, j - 1] - u[i0] - v[j]
                    if cur < minv[j]:
                        minv[j], way[j] = cur, j0
                    if minv[j] < delta:
                        delta, j1 = minv[j], j
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
        best = brute_force_min(cost)
        assert got == pytest.approx(best, abs=1e-9)


def test_hungarian_equals_the_scalar_loop_bitwise():
    # the integer tables tie often, so this pins which optimum a tie keeps
    rng = np.random.default_rng(16)
    for n in (1, 2, 5, 9, 24):
        for cost in (rng.random((n, n)), rng.integers(-3, 3, (n, n)).astype(float)):
            assert hungarian(cost).tobytes() == scalar_loop_assignment(cost).tobytes()


# ---- align ----


def rand_labelling(rng, n, C):
    lab = rng.integers(0, C, size=n)
    # ensure every id occurs so alignment is well-posed
    lab[:C] = np.arange(C)
    return Labelling(labels=lab, n_clusters=C)


def aligned(reference, other):
    """other's labels renamed by its matching to reference, as consensus aligns them."""
    return _matching(other.labels, reference.labels, reference.n_clusters)[other.labels]


def test_align_identity():
    rng = np.random.default_rng(2)
    ref = rand_labelling(rng, 20, 4)
    assert np.array_equal(aligned(ref, ref), ref.labels)


def test_align_inverts_permutation():
    rng = np.random.default_rng(3)
    ref = rand_labelling(rng, 30, 4)
    perm = np.array([2, 0, 3, 1])
    other = Labelling(labels=perm[ref.labels], n_clusters=4)
    assert np.array_equal(aligned(ref, other), ref.labels)


def test_align_maximizes_agreement():
    rng = np.random.default_rng(4)
    for _ in range(20):
        ref = rand_labelling(rng, 30, 4)
        other = rand_labelling(rng, 30, 4)
        got = (aligned(ref, other) == ref.labels).sum()
        for perm in permutations(range(4)):
            mapped = np.array(perm)[other.labels]
            assert got >= (mapped == ref.labels).sum()


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
    assert np.array_equal(aligned(a, b), b.labels)
    assert res.consensus_labels.tolist() == [0, 0, 1, 0, 0]
    assert res.agreement.tolist() == [True, False, True, False, True]


def test_consensus_flags_survive_relabelling_the_reference():
    # member 1 ties between two matchings to member 0; the tie must not
    # follow member 0's ids
    member1 = Labelling(np.array([2, 0, 1]), 3)
    for member0 in ([1, 1, 0], [2, 2, 0]):  # the second is the first relabelled by (0 2 1)
        res = consensus([Labelling(np.array(member0), 3), member1], 3)
        assert res.agreement.tolist() == [True, False, True]


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
    matrix = np.stack([aligned(members[0], m) for m in members])
    for i in range(40):
        col = matrix[:, i]
        assert res.agreement[i] == (len(set(col.tolist())) == 1)
        counts = np.bincount(col, minlength=4)
        assert res.consensus_labels[i] == counts.argmax()


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


@pytest.mark.parametrize("metric", [accuracy, nmi, rand_index])
def test_metrics_refuse_labellings_of_different_lengths(metric):
    short = Labelling(labels=np.array([0, 1, 1]), n_clusters=2)
    long = Labelling(labels=np.array([0, 1, 1, 0]), n_clusters=2)
    for pred, truth in ((short, long), (long, short)):
        with pytest.raises(DataError, match="same points"):
            metric(pred, truth)


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
    assert m == {"accuracy": 1.0, "nmi": pytest.approx(1.0, abs=1e-12), "rand_index": 1.0}


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
    members, C, j, perm = ensemble
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


@st.composite
def integer_cost_tables(draw, max_n):
    """Tie-heavy integer tables: 0/1/2-valued costs, or negated co-occurrence
    counts of two labellings, as alignment builds them."""
    n = draw(st.integers(1, max_n))
    if draw(st.booleans()):
        cells = draw(st.lists(st.integers(0, 2), min_size=n * n, max_size=n * n))
        return np.array(cells, dtype=np.float64).reshape(n, n)
    N = draw(st.integers(1, 4 * n))
    labels = np.array(draw(st.lists(st.integers(0, n - 1), min_size=N, max_size=N)))
    reference = np.array(draw(st.lists(st.integers(0, n - 1), min_size=N, max_size=N)))
    return -_cooccurrence(labels, reference, n, n)


@SETTINGS
@given(integer_cost_tables(max_n=6))
def test_hungarian_is_optimal_on_tie_heavy_tables(cost):
    perm = hungarian(cost)
    assert sorted(perm.tolist()) == list(range(cost.shape[0]))
    assert cost[np.arange(cost.shape[0]), perm].sum() == brute_force_min(cost)


@SETTINGS
@given(labelling_pairs(), st.data())
def test_matching_ignores_the_ids_of_labels(pair, data):
    labels, reference = pair[0].labels, pair[1].labels
    C = max(pair[0].n_clusters, pair[1].n_clusters)
    perm = np.array(data.draw(st.permutations(range(C))))
    expect = _matching(labels, reference, C)[labels]
    assert np.array_equal(_matching(perm[labels], reference, C)[perm[labels]], expect)


@SETTINGS
@given(labelling_pairs(), st.data())
def test_nmi_and_rand_index_bounded_symmetric_and_id_blind(pair, data):
    pred, truth = pair
    p = np.array(data.draw(st.permutations(range(pred.n_clusters))))
    t = np.array(data.draw(st.permutations(range(truth.n_clusters))))
    pred_p = Labelling(p[pred.labels], pred.n_clusters)
    truth_t = Labelling(t[truth.labels], truth.n_clusters)
    for metric in [nmi] if pred.n_points < 2 else [nmi, rand_index]:
        value = metric(pred, truth)
        assert 0.0 <= value <= 1.0
        assert metric(truth, pred) == pytest.approx(value, abs=1e-12)
        assert metric(pred_p, truth) == pytest.approx(value, abs=1e-12)
        assert metric(pred, truth_t) == pytest.approx(value, abs=1e-12)
