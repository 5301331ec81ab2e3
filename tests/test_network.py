import numpy as np
import pytest

from spc.errors import DataError, NumericError
from spc.network import (
    CE_CLAMP,
    AutoencoderMember,
    Mlp,
    load_member,
    save_member,
)
from spc.network import _ACTIVATIONS
from spc.pipeline import combined_loss


def small_member(seed=0, noise=0.0):
    return AutoencoderMember(4, 3, 3, seed, noise_stddev=noise, hidden_widths=(6,))


def zero_grads(mlp):
    return [(np.zeros_like(w), np.zeros_like(b)) for w, b in zip(mlp.weights, mlp.biases)]


def member_loss(members, batch, labels, flags):
    """combined_loss with the latents encoded here."""
    latents = [m.encode(batch) for m in members]
    return combined_loss(members, latents, batch, labels, flags)


# ---- loss oracles ----


def cross_entropy(probs: np.ndarray, target: int) -> float:
    """-log of the probability assigned to the target id, clamped at 1e-12."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 1:
        raise DataError(f"probs must be a vector, got shape {probs.shape}")
    if not 0 <= target < probs.shape[0]:
        raise DataError(f"target {target} out of range for {probs.shape[0]} clusters")
    return float(-np.log(max(probs[target], CE_CLAMP)))


def l1_loss(reconstruction: np.ndarray, original: np.ndarray) -> float:
    """Mean absolute elementwise difference."""
    reconstruction = np.asarray(reconstruction, dtype=np.float64)
    original = np.asarray(original, dtype=np.float64)
    if reconstruction.shape != original.shape:
        raise DataError(f"shape mismatch: {reconstruction.shape} vs {original.shape}")
    return float(np.abs(reconstruction - original).mean())


def rand_batch(rng, b=4, n=4):
    return rng.uniform(-1, 1, size=(b, n))


# ---- initialization ----


def test_init_deterministic_and_distinct():
    m1 = AutoencoderMember(8, 3, 4, seed=11, noise_stddev=0.0, hidden_widths=(5,))
    m2 = AutoencoderMember(8, 3, 4, seed=11, noise_stddev=0.0, hidden_widths=(5,))
    for a, b in zip(m1.encoder.weights, m2.encoder.weights):
        assert np.array_equal(a, b)
    for a, b in zip(m1.classifier.weights, m2.classifier.weights):
        assert np.array_equal(a, b)
    m3 = AutoencoderMember(8, 3, 4, seed=12, noise_stddev=0.0, hidden_widths=(5,))
    assert any(
        not np.array_equal(a, b) for a, b in zip(m1.encoder.weights, m3.encoder.weights)
    )


def test_init_fan_in_bounds():
    m = AutoencoderMember(16, 4, 3, seed=0, noise_stddev=0.0, hidden_widths=(256, 128))
    for mlp in (m.encoder, m.decoder, m.classifier):
        for w in mlp.weights:
            assert np.abs(w).max() <= 1.0 / np.sqrt(w.shape[1])


def test_classifier_hidden_width_is_25():
    m = AutoencoderMember(784, 50, 10, seed=0, noise_stddev=0.0, hidden_widths=(256, 128))
    assert [w.shape for w in m.classifier.weights] == [(25, 50), (10, 25)]


def test_default_encoder_widths():
    m = AutoencoderMember(784, 50, 10, seed=0, noise_stddev=0.0, hidden_widths=(256, 128))
    assert [w.shape for w in m.encoder.weights] == [(256, 784), (128, 256), (50, 128)]
    assert [w.shape for w in m.decoder.weights] == [(128, 50), (256, 128), (784, 256)]


# ---- encode / decode / classify ----


def loss_and_grad_bits(member, batch, labels, flags, **kw):
    """(loss, bytes of every gradient) of one forward_loss and backward."""
    loss = member.forward_loss(batch, labels, flags, **kw)
    stacks = member.backward()
    return loss, [a.tobytes() for _, grads in stacks for dw_db in grads for a in dw_db]


def test_forward_loss_zero_noise_makes_train_mode_a_no_op():
    m = small_member(noise=0.0)
    rng = np.random.default_rng(0)
    batch = rand_batch(rng)
    labels, flags = np.array([0, 2, 1, 1]), np.array([1, 0, 1, 0])
    a = loss_and_grad_bits(m, batch, labels, flags, noise_seed=5)
    b = loss_and_grad_bits(m, batch, labels, flags)
    assert a == b


def test_encode_eval_mode_pure():
    m = small_member(noise=0.5)
    rng = np.random.default_rng(1)
    batch = rand_batch(rng)
    assert np.array_equal(m.encode(batch), m.encode(batch))


def test_forward_loss_noise_seeded():
    m = small_member(noise=0.5)
    rng = np.random.default_rng(2)
    batch = rand_batch(rng)
    labels, flags = np.array([0, 2, 1, 1]), np.array([1, 0, 1, 0])
    a = loss_and_grad_bits(m, batch, labels, flags, noise_seed=7)
    b = loss_and_grad_bits(m, batch, labels, flags, noise_seed=7)
    c = loss_and_grad_bits(m, batch, labels, flags, noise_seed=8)
    d = loss_and_grad_bits(m, batch, labels, flags)
    assert a == b
    assert a[0] != c[0] and a[1] != c[1]
    assert a[0] != d[0] and a[1] != d[1]


def test_leaky_relu_layer_oracle():
    rng = np.random.default_rng(4)
    mlp = Mlp([3, 2], "leaky_relu", rng)
    x = rng.standard_normal((6, 3))
    z = x @ mlp.weights[0].T + mlp.biases[0]
    expect = np.where(z > 0, z, 0.01 * z)
    assert np.allclose(mlp.forward(x), expect, atol=1e-14)


def test_decode_range_and_tanh_oracle():
    m = small_member(seed=5)
    rng = np.random.default_rng(5)
    latent = rng.standard_normal((10, 3)) * 3
    rec = m.decoder.forward(latent)
    assert rec.shape == (10, 4)
    assert np.all(rec > -1) and np.all(rec < 1)
    # zero parameters give tanh(0) = 0
    z = small_member(seed=6)
    for l in range(z.decoder.n_layers):
        z.decoder.weights[l][:] = 0
        z.decoder.biases[l][:] = 0
    assert np.all(z.decoder.forward(latent) == 0)
    # single linear layer then tanh matches the elementwise oracle
    mlp = Mlp([3, 4], "tanh", rng)
    x = rng.standard_normal((5, 3))
    assert np.allclose(mlp.forward(x), np.tanh(x @ mlp.weights[0].T + mlp.biases[0]), atol=1e-14)


def test_classify_probability_rows():
    m = AutoencoderMember(6, 4, 5, seed=9, noise_stddev=0.0, hidden_widths=(7,))
    rng = np.random.default_rng(9)
    probs = m.classifier.forward(rng.standard_normal((20, 4)))
    assert probs.shape == (20, 5)
    assert np.all(probs > 0) and np.all(probs <= 1)
    assert np.abs(probs.sum(axis=1) - 1).max() < 1e-9


def test_softmax_uniform_and_shift_invariance():
    rng = np.random.default_rng(10)
    mlp = Mlp([2, 4], "softmax", rng)
    mlp.weights[0][:] = 0
    mlp.biases[0][:] = 0
    out = mlp.forward(np.zeros((3, 2)))
    assert np.allclose(out, 0.25, atol=1e-14)
    # shifting logits by a per-row constant leaves probabilities unchanged
    softmax, _ = _ACTIVATIONS["softmax"]
    z = rng.standard_normal((6, 4))
    shifted = z + rng.standard_normal((6, 1)) * 10
    assert np.allclose(softmax(z), softmax(shifted), atol=1e-12)


def test_softmax_two_logit_oracle():
    softmax, _ = _ACTIVATIONS["softmax"]
    z = np.array([[np.log(1.0), np.log(3.0)]])
    p = softmax(z)
    assert np.allclose(p, [[0.25, 0.75]], atol=1e-12)


# ---- losses ----


def test_cross_entropy_values():
    assert cross_entropy(np.array([0.0, 1.0]), 1) == 0.0
    assert cross_entropy(np.array([0.5, 0.5]), 0) == pytest.approx(np.log(2), rel=1e-12)
    assert cross_entropy(np.array([0.25, 0.75]), 0) == pytest.approx(np.log(4), rel=1e-12)
    # clamp keeps the value finite on a zero probability
    assert cross_entropy(np.array([0.0, 1.0]), 0) == pytest.approx(-np.log(1e-12))
    with pytest.raises(DataError):
        cross_entropy(np.array([0.5, 0.5]), 2)


def test_l1_loss_values_and_oracle():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((5, 7))
    assert l1_loss(a, a) == 0.0
    assert l1_loss(a + 0.5, a) == pytest.approx(0.5, rel=1e-12)
    b = rng.standard_normal((5, 7))
    total = 0.0
    for i in range(5):
        for j in range(7):
            total += abs(a[i, j] - b[i, j])
    assert l1_loss(a, b) == pytest.approx(total / 35, abs=1e-12)
    with pytest.raises(DataError):
        l1_loss(a, b[:4])


def test_combined_loss_single_branch_reductions():
    rng = np.random.default_rng(12)
    members = [small_member(seed=s) for s in (1, 2)]
    batch = rand_batch(rng, b=6)
    labels = rng.integers(0, 3, size=6)
    zeros = np.zeros(6, dtype=int)
    ones = np.ones(6, dtype=int)
    # all reconstruction: sum of per-member l1 means
    expect = sum(l1_loss(m.decoder.forward(m.encode(batch)), batch) for m in members)
    assert member_loss(members, batch, labels, zeros) == pytest.approx(expect, rel=1e-12)
    # all cross-entropy: sum of per-member CE means
    expect = sum(
        np.mean([cross_entropy(p, t) for p, t in zip(m.classifier.forward(m.encode(batch)), labels)])
        for m in members
    )
    assert member_loss(members, batch, labels, ones) == pytest.approx(expect, rel=1e-12)


def test_combined_loss_mixed_hand_oracle():
    rng = np.random.default_rng(13)
    members = [small_member(seed=s) for s in (3, 4)]
    batch = rand_batch(rng, b=4)
    labels = np.array([2, 0, 1, 1])
    flags = np.array([1, 0, 1, 0])
    total = 0.0
    for m in members:
        latent = m.encode(batch)
        for i in range(4):
            if flags[i] == 1:
                total += cross_entropy(m.classifier.forward(latent[i : i + 1])[0], labels[i])
            else:
                rec = m.decoder.forward(latent[i : i + 1])[0]
                total += np.abs(rec - batch[i]).sum() / 4
    assert member_loss(members, batch, labels, flags) == pytest.approx(total / 4, abs=1e-10)


def test_branch_exclusivity():
    # agreed points ignore the decoder; non-agreed points ignore the classifier
    rng = np.random.default_rng(15)
    batch = rand_batch(rng, b=4)
    labels = np.array([0, 1, 2, 0])
    flags = np.array([1, 1, 0, 0])

    def loss_of(member):
        return member.forward_loss(batch, labels, flags)

    m = small_member(seed=20)
    base_agreed = m.forward_loss(batch, labels, np.array([1, 1, 0, 0]))
    m.decoder.weights[0] += rng.standard_normal(m.decoder.weights[0].shape)
    # decoder perturbation changes only the reconstruction share
    per_point_before = []
    m2 = small_member(seed=20)
    lat = m2.encode(batch)
    ce_before = [cross_entropy(m2.classifier.forward(lat)[i], labels[i]) for i in range(2)]
    lat_p = m.encode(batch)
    ce_after = [cross_entropy(m.classifier.forward(lat_p)[i], labels[i]) for i in range(2)]
    assert ce_before == ce_after
    m3 = small_member(seed=20)
    rec_before = m3.decoder.forward(m3.encode(batch))[2:]
    m3.classifier.weights[0] += rng.standard_normal(m3.classifier.weights[0].shape)
    rec_after = m3.decoder.forward(m3.encode(batch))[2:]
    assert np.array_equal(rec_before, rec_after)


# ---- gradients ----


def fd_check(member, batch, labels, flags, noise_seed=None):
    """Assert every analytic gradient matches central finite differences."""

    def loss():
        return member.forward_loss(batch, labels, flags, noise_seed=noise_seed)

    loss()
    stepped = dict(member.backward())
    step = 1e-5
    for mlp in (member.encoder, member.decoder, member.classifier):
        # a stack that does not step has exactly zero gradient
        grads = stepped.get(mlp) or zero_grads(mlp)
        for l in range(mlp.n_layers):
            for arr, g in ((mlp.weights[l], grads[l][0]), (mlp.biases[l], grads[l][1])):
                flat = arr.reshape(-1)
                gflat = g.reshape(-1)
                for idx in range(flat.size):
                    orig = flat[idx]
                    flat[idx] = orig + step
                    lp = loss()
                    flat[idx] = orig - step
                    lm = loss()
                    flat[idx] = orig
                    fd = (lp - lm) / (2 * step)
                    err = abs(gflat[idx] - fd)
                    tol = 1e-4 * max(abs(gflat[idx]), abs(fd)) + 1e-8
                    assert err <= tol, f"grad mismatch {gflat[idx]} vs fd {fd}"
    # restore a clean cache state
    loss()


def test_backward_matches_finite_differences_recon():
    rng = np.random.default_rng(16)
    m = small_member(seed=30)
    batch = rand_batch(rng, b=3)
    fd_check(m, batch, np.zeros(3, dtype=int), np.zeros(3, dtype=int))


def test_backward_matches_finite_differences_ce():
    rng = np.random.default_rng(17)
    m = small_member(seed=31)
    batch = rand_batch(rng, b=3)
    labels = np.array([0, 2, 1])
    fd_check(m, batch, labels, np.ones(3, dtype=int))


def test_backward_matches_finite_differences_mixed():
    rng = np.random.default_rng(18)
    m = small_member(seed=32)
    batch = rand_batch(rng, b=5)
    labels = np.array([0, 2, 1, 1, 0])
    flags = np.array([1, 0, 1, 0, 1])
    fd_check(m, batch, labels, flags)


def test_backward_matches_finite_differences_with_noise():
    rng = np.random.default_rng(19)
    m = small_member(seed=33, noise=0.2)
    batch = rand_batch(rng, b=4)
    labels = np.array([1, 0, 2, 2])
    flags = np.array([0, 1, 0, 1])
    fd_check(m, batch, labels, flags, noise_seed=99)


def test_zero_loss_configuration_zero_gradients():
    m = small_member(seed=40)
    # zero input reconstructs exactly through zeroed decoder; a huge correct
    # logit makes the softmax one-hot to machine precision
    for l in range(m.decoder.n_layers):
        m.decoder.weights[l][:] = 0
        m.decoder.biases[l][:] = 0
    m.classifier.weights[-1][:] = 0
    m.classifier.biases[-1][:] = 0
    m.classifier.biases[-1][0] = 60.0
    batch = np.zeros((3, 4))
    labels = np.zeros(3, dtype=int)
    flags = np.array([1, 0, 1])
    loss = m.forward_loss(batch, labels, flags)
    assert loss == pytest.approx(0.0, abs=1e-12)
    stacks = m.backward()
    assert [mlp for mlp, _ in stacks] == [m.encoder, m.decoder, m.classifier]
    for _, grads in stacks:
        for dw, db in grads:
            assert np.abs(dw).max() < 1e-9
            assert np.abs(db).max() < 1e-9


def test_duplicated_batch_same_gradients():
    rng = np.random.default_rng(21)
    m = small_member(seed=41)
    batch = rand_batch(rng, b=3)
    labels = np.array([0, 1, 2])
    flags = np.array([1, 0, 1])
    m.forward_loss(batch, labels, flags)
    u1 = dict(m.backward())
    m.forward_loss(
        np.repeat(batch, 2, axis=0), np.repeat(labels, 2), np.repeat(flags, 2)
    )
    u2 = dict(m.backward())
    for g1, g2 in zip(u1[m.encoder], u2[m.encoder]):
        assert np.allclose(g1[0], g2[0], atol=1e-12)
        assert np.allclose(g1[1], g2[1], atol=1e-12)


def test_sgd_step_invalidates_cache():
    rng = np.random.default_rng(22)
    m = small_member(seed=43)
    batch = rand_batch(rng, b=2)
    m.forward_loss(batch, np.zeros(2, dtype=int), np.zeros(2, dtype=int))
    m.sgd_step(m.backward(), 1e-3)
    assert m._cache is None


# ---- sgd ----


def test_sgd_zero_rate_no_change():
    rng = np.random.default_rng(23)
    m = small_member(seed=44)
    before = [w.copy() for w in m.encoder.weights]
    batch = rand_batch(rng, b=2)
    m.forward_loss(batch, np.zeros(2, dtype=int), np.zeros(2, dtype=int))
    m.sgd_step(m.backward(), 0.0)
    for a, b in zip(before, m.encoder.weights):
        assert np.array_equal(a, b)


def test_sgd_scalar_arithmetic():
    m = small_member(seed=45)
    m.encoder.weights[0][0, 0] = 1.0
    grads = zero_grads(m.encoder)
    grads[0][0][0, 0] = 2.0
    m.sgd_step([(m.encoder, grads)], 0.1)
    assert m.encoder.weights[0][0, 0] == pytest.approx(0.8, abs=1e-15)


def test_sgd_descends_on_smooth_batch():
    # statistical check: one small step decreases the loss nearly always
    decreased = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        m = small_member(seed=seed)
        batch = rand_batch(rng, b=6)
        labels = rng.integers(0, 3, size=6)
        flags = rng.integers(0, 2, size=6)
        before = m.forward_loss(batch, labels, flags)
        m.sgd_step(m.backward(), 1e-3)
        after = m.forward_loss(batch, labels, flags)
        if after <= before:
            decreased += 1
    assert decreased >= 95


def test_backward_rejects_non_finite_gradients():
    # a NaN planted in the cached reconstruction difference, after forward_loss
    # has passed its activation checks, reaches backward's gradient scan first
    rng = np.random.default_rng(30)
    m = small_member(seed=46)
    batch = rand_batch(rng, b=3)
    m.forward_loss(batch, np.array([0, 2, 1]), np.array([1, 0, 0]))
    m._cache["diff"][0, 0] = np.nan
    with pytest.raises(NumericError, match="non-finite gradient"):
        m.backward()


def test_frozen_decoder_backward_skips_decoder_only():
    rng = np.random.default_rng(24)
    m = small_member(seed=47)
    batch = rand_batch(rng, b=4)
    m.forward_loss(batch, np.zeros(4, dtype=int), np.zeros(4, dtype=int))
    full = m.backward()
    frozen = m.backward(train_decoder=False)
    assert [mlp for mlp, _ in full] == [m.encoder, m.decoder]
    assert [mlp for mlp, _ in frozen] == [m.encoder]
    for g1, g2 in zip(full[0][1], frozen[0][1]):
        assert np.array_equal(g1[0], g2[0])
        assert np.array_equal(g1[1], g2[1])


def params(mlp):
    return [a.copy() for a in mlp.weights + mlp.biases]


def same_bits(xs, ys):
    return len(xs) == len(ys) and all(x.tobytes() == y.tobytes() for x, y in zip(xs, ys))


def test_frozen_decoder_step_matches_full_step_without_decoder_update():
    rng = np.random.default_rng(26)
    batch = rand_batch(rng, b=6)
    labels = np.array([0, 2, 1, 1, 0, 2])
    flags = np.array([1, 0, 1, 0, 0, 1])
    frozen, full = small_member(seed=49, noise=0.2), small_member(seed=49, noise=0.2)
    decoder_before = params(frozen.decoder)
    for m in (frozen, full):
        m.forward_loss(batch, labels, flags, noise_seed=3)
    frozen.sgd_step(frozen.backward(train_decoder=False), 0.05)
    full.sgd_step([(mlp, g) for mlp, g in full.backward() if mlp is not full.decoder], 0.05)
    assert same_bits(params(frozen.decoder), decoder_before)
    assert same_bits(params(frozen.decoder), params(full.decoder))
    assert same_bits(params(frozen.encoder), params(full.encoder))
    assert same_bits(params(frozen.classifier), params(full.classifier))


@pytest.mark.parametrize("train_decoder", [True, False])
def test_step_without_agreed_points_leaves_classifier_untouched(train_decoder):
    rng = np.random.default_rng(27)
    m = small_member(seed=50)
    before = params(m.classifier)
    batch = rand_batch(rng, b=5)
    m.forward_loss(batch, rng.integers(0, 3, size=5), np.zeros(5, dtype=int))
    grads = m.backward(train_decoder=train_decoder)
    assert m.classifier not in [mlp for mlp, _ in grads]
    m.sgd_step(grads, 0.1)
    assert same_bits(params(m.classifier), before)


def test_zero_gradient_step_equals_no_step_bitwise():
    # backward leaves out an exactly-zero classifier gradient;
    # w - eta * 0.0 == w bit for bit, signed zeros, infinities and NaN included
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-310, -1e-310, 3.5])
    for eta in (0.0, 1e-3, 0.3, 1e300):
        stepped, skipped = small_member(seed=54), small_member(seed=54)
        for m in (stepped, skipped):
            m.classifier.weights[0].reshape(-1)[: special.size] = special
            m.classifier.biases[0][: special.size] = special
        stepped.sgd_step([(stepped.classifier, zero_grads(stepped.classifier))], eta)
        skipped.sgd_step([], eta)
        assert same_bits(params(stepped.classifier), params(skipped.classifier))


def test_leaky_relu_matches_select_oracle_bitwise():
    rng = np.random.default_rng(28)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-310, -1e-310])
    z = np.concatenate([special, rng.standard_normal(200) * 10])
    grid_z, grid_g = (a.reshape(-1) for a in np.meshgrid(z, z))
    leaky_relu, leaky_relu_backward = _ACTIVATIONS["leaky_relu"]
    assert leaky_relu(z).tobytes() == np.where(z > 0.0, z, 0.01 * z).tobytes()
    backward = leaky_relu_backward(grid_g, grid_z, None)
    oracle = grid_g * np.where(grid_z > 0.0, 1.0, 0.01)
    assert backward.tobytes() == oracle.tobytes()


def test_latent_loss_equals_forward_loss_and_caches_nothing():
    rng = np.random.default_rng(29)
    members = [small_member(seed=s) for s in (51, 52, 53)]
    batch = rand_batch(rng, b=7)
    labels = rng.integers(0, 3, size=7)
    for flags in (np.zeros(7, dtype=int), np.ones(7, dtype=int), rng.integers(0, 2, size=7)):
        latents = [m.encode(batch) for m in members]
        for m, z in zip(members, latents):
            assert m.latent_loss(z, batch, labels, flags) == m.forward_loss(batch, labels, flags)
            m.sgd_step(m.backward(), 0.0)
        expect = sum(m.latent_loss(z, batch, labels, flags) for m, z in zip(members, latents))
        for workers in (1, 3):
            assert combined_loss(members, latents, batch, labels, flags, workers) == expect
        assert all(m._cache is None for m in members)


# ---- checkpointing ----


def test_member_checkpoint_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(25)
    m = small_member(seed=48, noise=0.3)
    batch = rand_batch(rng, b=4)
    m.forward_loss(batch, np.zeros(4, dtype=int), np.zeros(4, dtype=int))
    m.sgd_step(m.backward(), 1e-2)
    path = tmp_path / "member.npz"
    save_member(path, m)
    m2 = load_member(path)
    assert m2.input_dim == m.input_dim
    assert m2.noise_stddev == m.noise_stddev
    assert m2.hidden_widths == m.hidden_widths
    for name in ("encoder", "decoder", "classifier"):
        a, b = getattr(m, name), getattr(m2, name)
        for w1, w2 in zip(a.weights, b.weights):
            assert np.array_equal(w1, w2)
        for b1, b2 in zip(a.biases, b.biases):
            assert np.array_equal(b1, b2)


def test_load_member_rejects_garbage(tmp_path):
    path = tmp_path / "bad.npz"
    path.write_bytes(b"not a checkpoint")
    with pytest.raises(DataError):
        load_member(path)


def saved_state(tmp_path):
    """The arrays of a saved small member's checkpoint, in file order."""
    path = tmp_path / "member.npz"
    save_member(path, small_member(seed=55))
    with np.load(path) as data:
        return dict(data)


def test_checkpoint_keys_in_file_order(tmp_path):
    state = saved_state(tmp_path)
    layers = [f"{stack}_{p}{l}" for stack in ("encoder", "decoder") for l in range(2) for p in "wb"]
    layers += [f"classifier_{p}{l}" for l in range(2) for p in "wb"]
    assert list(state) == ["meta", "noise_stddev", "hidden_widths"] + layers


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("meta", np.array([2, 4, 3, 3, 55], dtype=np.uint64), "unsupported checkpoint version 2"),
        ("encoder_w1", np.zeros((3, 5)), "checkpoint shape mismatch in encoder layer 1"),
        ("noise_stddev", np.array(-1.0), "out of range: noise_stddev must be non-negative"),
        ("hidden_widths", np.array([0]), "out of range: need >= 2 positive layer widths"),
        ("noise_stddev", np.array(np.nan), "out of range: noise_stddev must be non-negative and finite"),
        ("noise_stddev", np.array(np.inf), "out of range: noise_stddev must be non-negative and finite"),
        ("meta", np.array([1, 0, 3, 3, 55], dtype=np.uint64), "out of range: need >= 2 positive layer widths"),
    ],
)
def test_load_member_rejects_a_foreign_checkpoint(tmp_path, key, value, message):
    state = saved_state(tmp_path)
    state[key] = value
    path = tmp_path / "foreign.npz"
    np.savez(path, **state)
    with pytest.raises(DataError, match=message):
        load_member(path)
