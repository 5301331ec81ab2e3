import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spc.pipeline as pipeline
from spc.clustering import Labelling
from spc.consensus import ConsensusResult, accuracy, consensus
from spc.data import BlobSpec, Dataset, make_blobs, normalize
from spc.errors import ConfigError, DataError, NumericError
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


def small_blobs(seed=0, n_clusters=3, points_per_cluster=40, sep=8.0, std=0.8):
    spec = BlobSpec(
        n_clusters=n_clusters,
        points_per_cluster=points_per_cluster,
        ambient_dim=8,
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


def test_pretrain_zero_epochs_leaves_members_unchanged():
    ds = small_blobs()
    cfg = small_config(pretrain_epochs=0)
    members = build_members(ds, cfg)
    snaps = [snapshot(m) for m in members]
    pretrain(members, ds, cfg)
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
            latents = [m.encode(ds.points) for m in members]
            return combined_loss(members, latents, ds.points, zeros, zeros)

        before = loss()
        pretrain(members, ds, cfg)
        assert loss() < before


def test_pretrain_seeds_give_different_parameters():
    ds = small_blobs()
    cfg = small_config(pretrain_epochs=5)
    members = build_members(ds, cfg)
    pretrain(members, ds, cfg)
    assert not np.array_equal(members[0].encoder.weights[0], members[1].encoder.weights[0])


def test_pretrain_does_not_touch_classifier():
    ds = small_blobs()
    cfg = small_config(pretrain_epochs=5)
    members = build_members(ds, cfg)
    cls_before = [w.copy() for w in members[0].classifier.weights]
    pretrain(members, ds, cfg)
    for a, b in zip(cls_before, members[0].classifier.weights):
        assert np.array_equal(a, b)


def test_pretrain_returns_each_members_advanced_training_stream():
    ds = small_blobs()
    cfg = small_config(pretrain_epochs=2)
    rngs = pretrain(build_members(ds, cfg), ds, cfg)
    assert len(rngs) == cfg.n_members
    for j, rng in enumerate(rngs):
        fresh = _member_streams(cfg, j)[1]
        # each epoch draws one permutation, then one noise seed per batch
        for _ in range(cfg.pretrain_epochs):
            fresh.permutation(ds.n_points)
            for _ in range(0, ds.n_points, cfg.batch_size):
                fresh.integers(2**63)
        assert rng.integers(2**63) == fresh.integers(2**63)


def test_pretrain_rejects_unnormalized_points():
    rng = np.random.default_rng(0)
    ds = Dataset(points=rng.uniform(-3, 3, size=(30, 4)), labels=None, n_clusters=2)
    cfg = small_config()
    with pytest.raises(DataError):
        pretrain(build_members(ds, cfg), ds, cfg)


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


def test_spc_train_without_truth_labels():
    ds = small_blobs()
    unlabeled = Dataset(points=ds.points, labels=None, n_clusters=ds.n_clusters)
    final, history, _ = spc_train(unlabeled, small_config())
    assert all(r.overall_accuracy is None and r.agreed_accuracy is None for r in history)
    assert final.n_points == ds.n_points


@pytest.mark.parametrize("concat_member", [False, True])
def test_spc_train_reproducible_across_worker_counts(concat_member):
    # each voter, the concatenated one included, draws its clusterer seed from
    # its own stream, so the seeds cannot follow the thread schedule
    ds = small_blobs()
    cfg = small_config(concat_member=concat_member)
    final_serial, hist_serial, _ = spc_train(ds, cfg, workers=1)
    final_pool, hist_pool, _ = spc_train(ds, cfg, workers=3)
    assert np.array_equal(final_serial.labels, final_pool.labels)
    assert len(hist_serial) == len(hist_pool)
    for a, b in zip(hist_serial, hist_pool):
        assert a.n_agreed == b.n_agreed
        assert a.mean_loss == b.mean_loss
        assert a.overall_accuracy == b.overall_accuracy


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


# one diverged member ends the run (ROADMAP item 3 would drop it instead):
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


def test_fan_out_pins_blas_to_one_thread_and_restores(blas_at_two_threads):
    get, _ = blas_at_two_threads
    assert get() == 2
    assert _fan_out([get, get, get], workers=2) == [1, 1, 1]
    assert get() == 2
    # a single worker runs inline and leaves BLAS alone
    assert _fan_out([get, get], workers=1) == [2, 2]


def test_fan_out_restores_blas_after_a_failing_task(blas_at_two_threads):
    get, _ = blas_at_two_threads

    def boom():
        raise DataError("task failed")

    with pytest.raises(DataError):
        _fan_out([get, boom], workers=2)
    assert get() == 2


def test_concurrent_fan_outs_keep_blas_pinned_until_the_last_ends(blas_at_two_threads):
    get, _ = blas_at_two_threads
    seen = []
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [
            threading.Thread(target=lambda: seen.extend(_fan_out([get] * 4, workers=3)))
            for _ in range(6)
        ]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in callers)
    finally:
        sys.setswitchinterval(old_interval)
    assert seen == [1] * 24
    assert get() == 2


def test_worker_count_below_one_is_a_config_error():
    ds = small_blobs()
    cfg = small_config()
    for workers in (0, -2):
        with pytest.raises(ConfigError, match="workers"):
            _fan_out([lambda: 1], workers)
        with pytest.raises(ConfigError, match="workers"):
            pretrain(build_members(ds, cfg), ds, cfg, workers=workers)
        with pytest.raises(ConfigError, match="workers"):
            spc_train(ds, cfg, workers=workers)


def test_spc_train_rejects_unnormalized_points():
    rng = np.random.default_rng(0)
    ds = Dataset(points=rng.uniform(-4, 4, size=(40, 6)), labels=None, n_clusters=2)
    with pytest.raises(DataError):
        spc_train(ds, small_config())


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
