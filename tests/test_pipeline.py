import sys
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spc.pipeline as pipeline
from spc.clustering import Labelling
from spc.consensus import ConsensusResult, accuracy, consensus
from spc.data import BlobSpec, Dataset, make_blobs, normalize
from spc.errors import ConfigError, DataError, NumericError, SpcError
from spc.pipeline import (
    SpcConfig,
    build_members,
    combined_loss,
    pretrain,
    spc_train,
    train_epoch,
    _fan_out,
    _member_streams,
    _openblas_threads,
    _rename_to_previous,
)


def small_config(**kw):
    """A config sized for tests: tiny networks, short schedules."""
    base = dict(
        n_members=2,
        latent_dim=4,
        pretrain_epochs=10,
        loop_epochs=2,
        max_iterations=3,
        hidden_widths=(16, 8),
        master_seed=0,
    )
    base.update(kw)
    return SpcConfig(**base)


def small_blobs(seed=0, n_clusters=3, points_per_cluster=40, sep=8.0, std=0.8, dim=8):
    spec = BlobSpec(
        n_clusters=n_clusters,
        points_per_cluster=points_per_cluster,
        ambient_dim=dim,
        centroid_separation=sep,
        within_cluster_stddev=std,
        seed=seed,
    )
    return normalize(make_blobs(spec))


def snapshot(member):
    out = []
    for mlp in (member.encoder, member.decoder, member.classifier):
        out.append([w.copy() for w in mlp.weights])
        out.append([b.copy() for b in mlp.biases])
    return out


def unchanged(member, snap):
    flat = []
    for mlp in (member.encoder, member.decoder, member.classifier):
        flat.append(mlp.weights)
        flat.append(mlp.biases)
    return all(
        np.array_equal(a, b) for group, saved in zip(flat, snap) for a, b in zip(group, saved)
    )


# ---- config validation ----


def test_config_defaults_valid():
    cfg = SpcConfig()
    assert cfg.n_members == 5
    assert cfg.clusterer == "kmeans"
    assert cfg.plateau_patience == 2


@pytest.mark.parametrize(
    "kw",
    [
        {"n_members": 0},
        {"latent_dim": 0},
        {"pretrain_epochs": -1},
        {"loop_epochs": 0},
        {"learning_rate": 0.0},
        {"learning_rate": float("nan")},
        {"loop_learning_rate": 0.0},
        {"loop_learning_rate": float("inf")},
        {"noise_stddev": -0.1},
        {"plateau_patience": 0},
        {"max_iterations": 0},
        {"clusterer": "spectral"},
        {"batch_size": 0},
        {"noise_stddev": float("nan")},
        {"hidden_widths": (16, 0)},
        {"master_seed": -1},
    ],
)
def test_config_rejects_bad_fields(kw):
    with pytest.raises(ConfigError):
        SpcConfig(**kw)


def test_hidden_widths_coerced_to_int_tuple():
    cfg = SpcConfig(hidden_widths=[32.0, 16.0])
    assert cfg.hidden_widths == (32, 16)
    assert all(isinstance(w, int) for w in cfg.hidden_widths)


# ---- seeding and member construction ----


def test_member_streams_deterministic():
    cfg = small_config()
    seed_a, _, _ = _member_streams(cfg, 0)
    seed_b, _, _ = _member_streams(cfg, 0)
    assert seed_a == seed_b
    seed_c, _, _ = _member_streams(cfg, 1)
    assert seed_a != seed_c


def test_build_members_reproducible_and_distinct():
    ds = small_blobs()
    cfg = small_config()
    m1 = build_members(ds, cfg)
    m2 = build_members(ds, cfg)
    for a, b in zip(m1, m2):
        assert np.array_equal(a.encoder.weights[0], b.encoder.weights[0])
    assert not np.array_equal(m1[0].encoder.weights[0], m1[1].encoder.weights[0])


def test_build_members_depend_on_master_seed():
    ds = small_blobs()
    m1 = build_members(ds, small_config(master_seed=0))
    m2 = build_members(ds, small_config(master_seed=1))
    assert not np.array_equal(m1[0].encoder.weights[0], m2[0].encoder.weights[0])


# ---- pretraining ----


def pretrain_all(members, ds, cfg):
    """Pretrain every member on its own training stream, as spc_train does."""
    for j, member in enumerate(members):
        pretrain(member, ds, cfg, _member_streams(cfg, j)[1])


def test_pretrain_zero_epochs_leaves_members_unchanged():
    ds = small_blobs()
    cfg = small_config(pretrain_epochs=0)
    members = build_members(ds, cfg)
    snaps = [snapshot(m) for m in members]
    pretrain_all(members, ds, cfg)
    assert all(unchanged(m, s) for m, s in zip(members, snaps))


def test_pretrain_reduces_reconstruction_loss():
    # blobs with N = 400, 20 epochs; the mean loss must drop for every seed
    for seed in range(5):
        spec = BlobSpec(
            n_clusters=4,
            points_per_cluster=100,
            ambient_dim=10,
            centroid_separation=6.0,
            within_cluster_stddev=1.0,
            seed=seed,
        )
        ds = normalize(make_blobs(spec))
        cfg = small_config(pretrain_epochs=20, latent_dim=4, hidden_widths=(32, 16), master_seed=seed)
        members = build_members(ds, cfg)
        zeros = np.zeros(ds.n_points, dtype=np.int64)

        def loss():
            return sum(combined_loss(m, m.encode(ds.points), ds.points, zeros, zeros) for m in members)

        before = loss()
        pretrain_all(members, ds, cfg)
        assert loss() < before


def test_pretrain_seeds_give_different_parameters():
    ds = small_blobs()
    cfg = small_config(pretrain_epochs=5)
    members = build_members(ds, cfg)
    pretrain_all(members, ds, cfg)
    assert not np.array_equal(members[0].encoder.weights[0], members[1].encoder.weights[0])


def test_pretrain_does_not_touch_classifier():
    ds = small_blobs()
    cfg = small_config(pretrain_epochs=5)
    members = build_members(ds, cfg)
    cls_before = [w.copy() for w in members[0].classifier.weights]
    pretrain_all(members, ds, cfg)
    for a, b in zip(cls_before, members[0].classifier.weights):
        assert np.array_equal(a, b)


def test_pretrain_advances_the_stream_it_is_given():
    ds = small_blobs()
    cfg = small_config(pretrain_epochs=2)
    members = build_members(ds, cfg)
    for j, member in enumerate(members):
        rng = _member_streams(cfg, j)[1]
        assert pretrain(member, ds, cfg, rng) is None
        fresh = _member_streams(cfg, j)[1]
        # each epoch draws one permutation, then one noise seed per batch
        for _ in range(cfg.pretrain_epochs):
            fresh.permutation(ds.n_points)
            for _ in range(0, ds.n_points, cfg.batch_size):
                fresh.integers(2**63)
        assert rng.integers(2**63) == fresh.integers(2**63)


# ---- selective training step ----


def test_train_epoch_freeze_keeps_decoder_fixed():
    ds = small_blobs()
    cfg = small_config()
    member = build_members(ds, cfg)[0]
    labels = np.asarray(ds.labels, dtype=np.int64)
    flags = np.ones(ds.n_points, dtype=np.int64)
    dec_before = [w.copy() for w in member.decoder.weights]
    cls_before = [w.copy() for w in member.classifier.weights]
    train_epoch(
        member, ds.points, labels, flags, np.random.default_rng(0), cfg, 0.05, freeze_decoder=True
    )
    for a, b in zip(dec_before, member.decoder.weights):
        assert np.array_equal(a, b)
    assert any(not np.array_equal(a, b) for a, b in zip(cls_before, member.classifier.weights))


def test_train_epoch_disagreed_points_leave_classifier_fixed():
    # flag 0 everywhere: the cross-entropy branch is off, so classifier
    # parameters must come out bit-identical
    ds = small_blobs()
    cfg = small_config()
    member = build_members(ds, cfg)[0]
    zeros = np.zeros(ds.n_points, dtype=np.int64)
    cls_before = [w.copy() for w in member.classifier.weights]
    enc_before = [w.copy() for w in member.encoder.weights]
    train_epoch(
        member, ds.points, zeros, zeros, np.random.default_rng(0), cfg, 0.05, freeze_decoder=False
    )
    for a, b in zip(cls_before, member.classifier.weights):
        assert np.array_equal(a, b)
    assert any(not np.array_equal(a, b) for a, b in zip(enc_before, member.encoder.weights))


# ---- consensus bookkeeping ----


def test_final_labelling_is_last_consensus(monkeypatch):
    # the final labelling is the last (renamed) consensus over all C ids
    results = []

    def recording(fn):
        def wrapped(*args):
            results.append(fn(*args))
            return results[-1]

        return wrapped

    monkeypatch.setattr(pipeline, "consensus", recording(pipeline.consensus))
    monkeypatch.setattr(pipeline, "_rename_to_previous", recording(pipeline._rename_to_previous))
    ds = small_blobs()
    final, history, _ = spc_train(ds, small_config(max_iterations=2, plateau_patience=5))
    assert len(history) == 2 and len(results) == 3  # consensus, consensus, rename
    assert isinstance(final, Labelling)
    assert final.n_clusters == ds.n_clusters
    assert np.array_equal(final.labels, results[-1].consensus_labels)
    assert final.labels is not results[-1].consensus_labels


def test_rename_to_previous_matches_previous_ids():
    current = ConsensusResult(
        consensus_labels=np.array([1, 1, 0, 0, 2, 2]),
        agreement=np.array([True, False, True, True, True, False]),
    )
    previous = np.array([0, 0, 1, 1, 2, 2])
    renamed = _rename_to_previous(current, previous, 3)
    assert np.array_equal(renamed.consensus_labels, previous)
    assert np.array_equal(renamed.agreement, current.agreement)
    assert renamed.n_agreed == 4


def test_rename_to_previous_preserves_partition():
    rng = np.random.default_rng(3)
    labels = rng.integers(0, 4, size=50)
    perm = np.array([2, 3, 1, 0])
    agreement = rng.random(50) < 0.5
    current = ConsensusResult(consensus_labels=perm[labels], agreement=agreement)
    renamed = _rename_to_previous(current, labels, 4)
    assert np.array_equal(renamed.consensus_labels, labels)


@st.composite
def renamings(draw):
    """(consensus of random labellings, previous labels, C)."""
    C = draw(st.integers(1, 5))
    n = draw(st.integers(1, 30))
    labels = st.lists(st.integers(0, C - 1), min_size=n, max_size=n)
    members = [Labelling(np.array(draw(labels)), C) for _ in range(draw(st.integers(1, 4)))]
    return consensus(members, C), np.array(draw(labels)), C


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(renamings())
def test_rename_to_previous_keeps_flags_and_relabels_by_a_permutation(case):
    result, previous, C = case
    renamed = _rename_to_previous(result, previous, C)
    assert np.array_equal(renamed.agreement, result.agreement)
    assert renamed.n_agreed == result.n_agreed
    # one id map, a bijection, carries every old label to its new one
    ids = np.full(C, -1)
    ids[result.consensus_labels] = renamed.consensus_labels
    assert sorted(ids[ids >= 0]) == sorted(set(ids[ids >= 0]))
    assert np.array_equal(ids[result.consensus_labels], renamed.consensus_labels)


# ---- the full loop ----


def test_spc_train_recovers_easy_blobs():
    # well separated blobs; at most one of five seeds may miss a perfect score
    hits = 0
    for seed in range(5):
        spec = BlobSpec(
            n_clusters=4,
            points_per_cluster=50,
            ambient_dim=10,
            centroid_separation=10.0,
            within_cluster_stddev=0.5,
            seed=seed,
        )
        ds = normalize(make_blobs(spec))
        truth = Labelling(labels=ds.labels, n_clusters=4)
        cfg = SpcConfig(
            n_members=3,
            latent_dim=5,
            pretrain_epochs=30,
            loop_epochs=3,
            max_iterations=4,
            hidden_widths=(32, 16),
            master_seed=seed,
        )
        final, _, _ = spc_train(ds, cfg)
        hits += accuracy(final, truth) == 1.0
    assert hits >= 4


def test_spc_train_single_member_agrees_everywhere():
    # K = 1 degenerates to pseudo-label training on every point: a single
    # labelling is unanimous with itself
    ds = small_blobs()
    final, history, members = spc_train(ds, small_config(n_members=1))
    assert len(members) == 1
    assert all(record.n_agreed == ds.n_points for record in history)
    assert final.n_points == ds.n_points


def test_spc_train_history_contract():
    ds = small_blobs()
    cfg = small_config(max_iterations=3)
    final, history, members = spc_train(ds, cfg)
    assert 1 <= len(history) <= cfg.max_iterations
    for i, record in enumerate(history):
        assert record.iteration == i
        assert 0 <= record.n_agreed <= ds.n_points
        assert np.isfinite(record.mean_loss)
        assert record.overall_accuracy is not None
    assert len(members) == cfg.n_members
    assert final.n_clusters == ds.n_clusters


def test_spc_train_plateau_stops_before_cap():
    # trivially separable data saturates agreement immediately, so the stall
    # counter must end the loop well before max_iterations
    ds = small_blobs(sep=12.0, std=0.3)
    cfg = small_config(max_iterations=10, plateau_patience=2)
    _, history, _ = spc_train(ds, cfg)
    assert len(history) < cfg.max_iterations
    best = history[0].n_agreed
    tail = 0
    for record in history[1:]:
        if record.n_agreed > best:
            best = record.n_agreed
            tail = 0
        else:
            tail += 1
    assert tail >= cfg.plateau_patience


def test_spc_train_takes_each_iterations_loss_before_training():
    # the selective phase's step size can only move losses taken after it
    ds = small_blobs()
    runs = [
        spc_train(ds, small_config(max_iterations=2, plateau_patience=5, loop_learning_rate=lr))[1]
        for lr in (0.01, 0.05)
    ]
    assert [len(history) for history in runs] == [2, 2]
    assert runs[0][0].mean_loss == runs[1][0].mean_loss
    assert runs[0][1].mean_loss != runs[1][1].mean_loss


def test_spc_train_last_iteration_does_not_train():
    ds = small_blobs()
    cfg = small_config(max_iterations=1)
    pretrained = build_members(ds, cfg)
    pretrain_all(pretrained, ds, cfg)
    _, history, members = spc_train(ds, cfg, workers=2)
    assert len(history) == 1
    assert all(unchanged(m, snapshot(p)) for m, p in zip(members, pretrained))


def test_spc_train_makes_one_fan_out_per_iteration(monkeypatch):
    # pretraining with the encode and vote for iteration 0, then one per
    # iteration, each with one task per member
    calls = []
    fan_out = pipeline._fan_out

    def counted(tasks, workers):
        calls.append(len(tasks))
        return fan_out(tasks, workers)

    monkeypatch.setattr(pipeline, "_fan_out", counted)
    cfg = small_config(n_members=3, max_iterations=3, plateau_patience=5)
    _, history, _ = spc_train(small_blobs(), cfg, workers=2)
    assert len(history) == 3
    assert calls == [3] * (len(history) + 1)


def test_at_most_one_fit_runs_at_a_time(monkeypatch):
    # two fits in two threads run slower than one after the other, so a free
    # worker trains the next member instead of starting a second fit
    ds = small_blobs()
    cfg = small_config(n_members=5, max_iterations=3, plateau_patience=5)
    final_serial, hist_serial, members_serial = spc_train(ds, cfg, workers=1)
    cluster = pipeline._cluster
    lock = threading.Lock()
    in_flight = []
    peak = [0]

    def counted(*args):
        with lock:
            in_flight.append(None)
            peak[0] = max(peak[0], len(in_flight))
        try:
            time.sleep(0.01)
            return cluster(*args)
        finally:
            with lock:
                in_flight.pop()

    monkeypatch.setattr(pipeline, "_cluster", counted)
    for workers in (2, 3, 5):
        final, history, members = spc_train(ds, cfg, workers=workers)
        assert peak == [1]
        assert np.array_equal(final.labels, final_serial.labels)
        assert history == hist_serial
        assert all(unchanged(m, snapshot(s)) for m, s in zip(members, members_serial))


def records(n):
    """n stand-ins for member records, each knowing only its index j."""
    return [SimpleNamespace(j=j) for j in range(n)]


def test_member_round_under_a_short_switch_interval():
    # more workers than cores, switching threads every microsecond: each fit
    # sees its own member's work, and no two fits overlap
    lock = threading.Lock()
    in_flight = []
    peak = [0]

    def work(m):
        m.work = m.j * m.j

    def fit(m):
        with lock:
            in_flight.append(m.j)
            peak[0] = max(peak[0], len(in_flight))
        time.sleep(0)
        m.fit = (m.j, m.work)
        with lock:
            in_flight.remove(m.j)

    members = records(40)
    out = []
    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(
            target=lambda: out.append(pipeline._member_round(members, work, fit, 8)), daemon=True
        )
        runner.start()
        runner.join(timeout=60)
    finally:
        sys.setswitchinterval(saved)
    assert not runner.is_alive()
    assert out == [None]
    assert [m.fit for m in members] == [(j, j * j) for j in range(40)]
    assert peak == [1]


def test_a_finished_member_trains_the_next_while_a_fit_runs():
    # member 1 finishes its work while member 0's fit runs; its thread must
    # start member 2's work instead of waiting for the fit slot
    first_fit_started, third_started = threading.Event(), threading.Event()
    fitted = []

    def work(m):
        if m.j == 1:
            assert first_fit_started.wait(timeout=5)
        if m.j == 2:
            third_started.set()
        m.work = 10 * m.j

    def fit(m):
        if m.j == 0:
            first_fit_started.set()
            assert third_started.wait(timeout=5)
        fitted.append(m.j)
        m.fit = (m.j, m.work)

    members = records(3)
    assert pipeline._member_round(members, work, fit, 2) is None
    assert [m.fit for m in members] == [(j, 10 * j) for j in range(3)]
    assert fitted == [0, 1, 2]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_member_round_raises_the_lowest_failing_members_error_after_the_round(workers):
    worked, fitted = [], []

    def work(m):
        worked.append(m.j)
        if m.j in (3, 1):
            raise NumericError("diverged")

    def fit(m):
        fitted.append(m.j)

    with pytest.raises(NumericError, match=r"^diverged \(member 1\)$"):
        pipeline._member_round(records(5), work, fit, workers)
    assert sorted(worked) == [0, 1, 2, 3, 4]
    assert sorted(fitted) == [0, 2, 4]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_member_round_raises_the_lowest_failing_fits_error_after_the_round(workers):
    # a fit that raises stops neither another member's work nor its fit
    worked, fitted = [], []

    def work(m):
        worked.append(m.j)

    def fit(m):
        fitted.append(m.j)
        if m.j in (4, 2):
            raise SpcError(f"fit {m.j} failed")

    with pytest.raises(SpcError, match=r"^fit 2 failed \(member 2\)$"):
        pipeline._member_round(records(5), work, fit, workers)
    assert sorted(worked) == [0, 1, 2, 3, 4]
    assert sorted(fitted) == [0, 1, 2, 3, 4]


def test_spc_train_without_truth_labels():
    ds = small_blobs()
    unlabeled = Dataset(points=ds.points, labels=None, n_clusters=ds.n_clusters)
    final, history, _ = spc_train(unlabeled, small_config())
    assert all(r.overall_accuracy is None and r.agreed_accuracy is None for r in history)
    assert final.n_points == ds.n_points


@pytest.mark.parametrize(
    "concat_member, dim", [(False, 8), (True, 8), (False, 784)], ids=["False", "True", "784-wide"]
)
def test_spc_train_reproducible_across_worker_counts(request, concat_member, dim):
    # each voter, the concatenated one included, draws its clusterer seed from
    # its own stream, so the seeds cannot follow the thread schedule.  At 784
    # wide, two-thread BLAS rounds some products otherwise than one thread, so
    # the checkpoints match only because every run computes at one BLAS thread
    if dim == 784:
        request.getfixturevalue("blas_at_two_threads")
    ds = small_blobs(sep=100.0 if dim == 784 else 8.0, dim=dim)
    cfg = small_config(concat_member=concat_member)
    final_serial, hist_serial, members_serial = spc_train(ds, cfg, workers=1)
    assert 0 < hist_serial[-1].n_agreed < ds.n_points  # both loss branches run
    for workers in (2, 3):
        final, history, members = spc_train(ds, cfg, workers=workers)
        assert np.array_equal(final.labels, final_serial.labels)
        assert history == hist_serial
        assert all(unchanged(m, snapshot(s)) for m, s in zip(members, members_serial))


def test_concurrent_multi_worker_runs_match_runs_one_after_another():
    # two callers' two-worker fan-outs take turns on one lock under real work
    runs = [(small_blobs(seed=0), small_config()), (small_blobs(seed=1), small_config(master_seed=3))]
    serial = [spc_train(ds, cfg, workers=2) for ds, cfg in runs]
    threaded = [None, None]

    def caller(i):
        threaded[i] = spc_train(*runs[i], workers=2)

    callers = [threading.Thread(target=caller, args=(i,)) for i in range(2)]
    for t in callers:
        t.start()
    for t in callers:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in callers)
    for (final_a, hist_a, _), (final_b, hist_b, _) in zip(serial, threaded):
        assert np.array_equal(final_a.labels, final_b.labels)
        assert hist_a == hist_b


def test_spc_train_ignores_the_ids_voters_pick(monkeypatch):
    # many clusters and the GMM make tied matchings common; a tie must not
    # follow the ids a voter other than member 0 happens to give its clusters
    seed = 2
    spec = BlobSpec(
        n_clusters=12, points_per_cluster=10, ambient_dim=20,
        centroid_separation=30.0, within_cluster_stddev=1.0, seed=seed,
    )
    ds = normalize(make_blobs(spec))
    cfg = small_config(
        n_members=3, concat_member=True, clusterer="gmm",
        pretrain_epochs=2, max_iterations=2, master_seed=seed,
    )
    final, history, _ = spc_train(ds, cfg, workers=1)

    stream = _member_streams(cfg, 0)[2]
    member0_seeds = {int(stream.integers(2**63)) for _ in range(cfg.max_iterations)}
    cluster = pipeline._cluster

    def relabelled(latents, n_clusters, fit_seed, kind):
        labelling = cluster(latents, n_clusters, fit_seed, kind)
        if fit_seed in member0_seeds:
            return labelling
        perm = np.random.default_rng(fit_seed).permutation(n_clusters)
        return Labelling(perm[labelling.labels], n_clusters)

    monkeypatch.setattr(pipeline, "_cluster", relabelled)
    final_relabelled, history_relabelled, _ = spc_train(ds, cfg, workers=1)
    assert history_relabelled == history
    assert np.array_equal(final_relabelled.labels, final.labels)


# ---- voters whose clusterer fails ----


def failing_cluster(monkeypatch, fails):
    """Make pipeline._cluster raise NumericError on the calls fails(latents, seed) picks."""
    cluster = pipeline._cluster

    def flaky(latents, n_clusters, seed, kind):
        if fails(latents, seed):
            raise NumericError("injected clustering failure")
        return cluster(latents, n_clusters, seed, kind)

    monkeypatch.setattr(pipeline, "_cluster", flaky)


def counting_consensus(monkeypatch):
    """The number of labellings each consensus call receives, in call order."""
    counts = []
    vote = pipeline.consensus

    def counted(labellings, n_clusters):
        counts.append(len(labellings))
        return vote(labellings, n_clusters)

    monkeypatch.setattr(pipeline, "consensus", counted)
    return counts


def test_spc_train_drops_a_member_whose_clusterer_fails(monkeypatch, caplog):
    cfg = small_config(n_members=3, max_iterations=2, plateau_patience=5)
    # member 1's first clustering seed is the first draw of its cluster stream
    seed = int(_member_streams(cfg, 1)[2].integers(2**63))
    failing_cluster(monkeypatch, lambda latents, s: s == seed)
    counts = counting_consensus(monkeypatch)
    with caplog.at_level("WARNING", logger="spc"):
        _, history, _ = spc_train(small_blobs(), cfg)
    assert len(history) == 2
    assert counts == [2, 3]
    assert "member 1 clustering failed at iteration 0" in caplog.text


def test_spc_train_drops_a_member_from_the_later_vote_it_fails(monkeypatch, caplog):
    # iteration 1's vote is cast inside iteration 0's task, on the stream's second draw
    cfg = small_config(n_members=3, max_iterations=2, plateau_patience=5)
    stream = _member_streams(cfg, 1)[2]
    stream.integers(2**63)
    seed = int(stream.integers(2**63))
    failing_cluster(monkeypatch, lambda latents, s: s == seed)
    counts = counting_consensus(monkeypatch)
    with caplog.at_level("WARNING", logger="spc"):
        _, history, _ = spc_train(small_blobs(), cfg, workers=2)
    assert len(history) == 2
    assert counts == [3, 2]
    assert "member 1 clustering failed at iteration 1" in caplog.text
    assert "failed at iteration 0" not in caplog.text


def test_spc_train_drops_a_failing_concatenated_member(monkeypatch, caplog):
    cfg = small_config(n_members=2, max_iterations=2, plateau_patience=5, concat_member=True)
    width = cfg.n_members * cfg.latent_dim
    failing_cluster(monkeypatch, lambda latents, s: latents.shape[1] == width)
    counts = counting_consensus(monkeypatch)
    with caplog.at_level("WARNING", logger="spc"):
        _, history, _ = spc_train(small_blobs(), cfg)
    assert len(history) == 2
    assert counts == [2, 2]
    assert "concatenated member clustering failed at iteration 0" in caplog.text
    assert "concatenated member clustering failed at iteration 1" in caplog.text


def test_spc_train_fails_when_every_voter_fails(monkeypatch):
    failing_cluster(monkeypatch, lambda latents, s: True)
    with pytest.raises(NumericError, match="every ensemble member"):
        spc_train(small_blobs(), small_config(concat_member=True))


def poison_member(monkeypatch, stack):
    """Make spc_train's member 1 start with one NaN weight in the given stack."""
    build = pipeline.build_members

    def poisoned(dataset, config):
        members = build(dataset, config)
        getattr(members[1], stack).weights[0][0, 0] = np.nan
        return members

    monkeypatch.setattr(pipeline, "build_members", poisoned)


# one diverged member ends the run (a member-failure policy under which a
# failed member leaves the ensemble, and the run fails only when none is
# left, would drop it instead):
# a NaN encoder weight trips encode's check, a NaN decoder weight the heads'
DIVERGED = [
    ("encoder", "non-finite encoder activations"),
    ("decoder", "non-finite activations in forward pass"),
]


@pytest.mark.parametrize("stack, message", DIVERGED)
def test_spc_train_raises_when_a_member_diverges(monkeypatch, stack, message):
    poison_member(monkeypatch, stack)
    with pytest.raises(NumericError, match=message):
        spc_train(small_blobs(), small_config(pretrain_epochs=0))


@pytest.fixture
def blas_at_two_threads():
    """(get, set) of the bundled OpenBLAS thread count, set to 2 for the test."""
    blas = _openblas_threads()
    if blas is None:
        pytest.skip("numpy's bundled OpenBLAS not found")
    get, set_ = blas
    saved = get()
    set_(2)
    try:
        yield get, set_
    finally:
        set_(saved)


def record_blas(monkeypatch, get):
    """[(name, thread, BLAS thread count)] at each train_epoch, _cluster and consensus call.

    train_epoch runs in the work units, _cluster in the fit units and
    consensus in the calling thread.
    """
    seen = []
    for name in ("train_epoch", "_cluster", "consensus"):
        def recorded(*args, _name=name, _original=getattr(pipeline, name), **kwargs):
            seen.append((_name, threading.current_thread(), get()))
            return _original(*args, **kwargs)

        monkeypatch.setattr(pipeline, name, recorded)
    return seen


@pytest.mark.parametrize("workers", [1, 2])
def test_spc_train_holds_blas_at_one_thread_and_restores(monkeypatch, blas_at_two_threads, workers):
    get, _ = blas_at_two_threads
    seen = record_blas(monkeypatch, get)
    spc_train(small_blobs(), small_config(max_iterations=2, plateau_patience=5), workers=workers)
    assert {name for name, _, _ in seen} == {"train_epoch", "_cluster", "consensus"}
    assert {thread for name, thread, _ in seen if name == "consensus"} == {threading.current_thread()}
    assert {count for _, _, count in seen} == {1}
    assert get() == 2


@pytest.mark.parametrize("workers", [1, 2])
def test_spc_train_restores_blas_after_a_diverged_member(monkeypatch, blas_at_two_threads, workers):
    get, _ = blas_at_two_threads
    poison_member(monkeypatch, "encoder")
    with pytest.raises(NumericError):
        spc_train(small_blobs(), small_config(pretrain_epochs=0), workers=workers)
    assert get() == 2


def test_concurrent_runs_keep_blas_at_one_thread_until_the_last_ends(monkeypatch, blas_at_two_threads):
    # one-worker runs take their turn too
    get, _ = blas_at_two_threads
    seen = record_blas(monkeypatch, get)
    ds = small_blobs()
    cfg = small_config(pretrain_epochs=1, max_iterations=1)
    done = []

    def caller(workers):
        spc_train(ds, cfg, workers=workers)
        done.append(workers)

    callers = [threading.Thread(target=caller, args=(w,)) for w in (1, 2, 1, 2)]
    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(saved)
    assert not any(t.is_alive() for t in callers)
    assert sorted(done) == [1, 1, 2, 2]
    assert {count for _, _, count in seen} == {1}
    assert get() == 2


def test_worker_count_below_one_is_a_config_error():
    ds = small_blobs()
    cfg = small_config()
    for workers in (0, -2):
        with pytest.raises(ConfigError, match="workers"):
            spc_train(ds, cfg, workers=workers)


def test_spc_train_rejects_unnormalized_points(monkeypatch):
    def build(*args):
        raise AssertionError("members were built before the points were checked")

    monkeypatch.setattr(pipeline, "build_members", build)
    rng = np.random.default_rng(0)
    ds = Dataset(points=rng.uniform(-4, 4, size=(40, 6)), labels=None, n_clusters=2)
    with pytest.raises(DataError):
        spc_train(ds, small_config())


def test_fan_out_returns_results_in_task_order():
    # a pool returns results in task order even when the first task ends last
    release = threading.Event()

    def task(i):
        if i == 0:  # the first task ends last
            assert release.wait(timeout=60)
        else:
            release.set()
        return i

    assert _fan_out([lambda i=i: task(i) for i in range(2)], workers=2) == [0, 1]


def test_spc_train_without_openblas_matches_the_pinned_run(monkeypatch):
    ds = small_blobs()
    cfg = small_config(n_members=3)
    final, history, _ = spc_train(ds, cfg, workers=2)
    monkeypatch.setattr(pipeline, "_openblas_threads", lambda: None)
    final_unpinned, history_unpinned, _ = spc_train(ds, cfg, workers=2)
    assert history_unpinned == history
    assert np.array_equal(final_unpinned.labels, final.labels)


def test_spc_train_gmm_clusterer_runs():
    ds = small_blobs()
    final, history, _ = spc_train(ds, small_config(clusterer="gmm"))
    assert final.n_points == ds.n_points
    assert len(history) >= 1


def test_spc_train_concat_member_runs_and_is_reproducible():
    ds = small_blobs()
    cfg = small_config(concat_member=True)
    final_a, hist_a, _ = spc_train(ds, cfg)
    final_b, hist_b, _ = spc_train(ds, cfg)
    assert np.array_equal(final_a.labels, final_b.labels)
    assert [r.n_agreed for r in hist_a] == [r.n_agreed for r in hist_b]
