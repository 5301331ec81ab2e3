import tracemalloc

import numpy as np
import pytest

from spc.errors import DataError, NumericError, SpcError
from spc.network import (
    CE_CLAMP,
    LEAKY_SLOPE,
    ROW_BLOCK,
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
    """The members' combined_loss summed, with the latents encoded here."""
    return sum(combined_loss(m, m.encode(batch), batch, labels, flags) for m in members)


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
    # a NaN planted in the cached reconstruction sign of a disagreed row, after
    # forward_loss has passed its activation checks, reaches backward's
    # gradient scan first
    rng = np.random.default_rng(30)
    m = small_member(seed=46)
    batch = rand_batch(rng, b=3)
    m.forward_loss(batch, np.array([0, 2, 1]), np.array([1, 0, 0]))
    m._cache["sign"][1, 0] = np.nan
    with pytest.raises(NumericError, match="non-finite gradient"):
        m.backward()


def test_backward_without_a_live_forward_loss_raises():
    # backward consumes the cache, so it needs a forward_loss of its own:
    # called first, or again after a step, it names forward_loss
    rng = np.random.default_rng(31)
    batch = rand_batch(rng, b=3)
    labels, flags = np.array([0, 2, 1]), np.array([1, 0, 0])
    m = small_member(seed=56)
    with pytest.raises(SpcError, match="forward_loss"):
        m.backward()
    m.forward_loss(batch, labels, flags)
    m.sgd_step(m.backward(), 0.1)
    with pytest.raises(SpcError, match="forward_loss"):
        m.backward()
    m.forward_loss(batch, labels, flags)
    m.backward()
    with pytest.raises(SpcError, match="forward_loss"):
        m.backward(train_decoder=False)


def test_frozen_decoder_backward_skips_decoder_only():
    rng = np.random.default_rng(24)
    m = small_member(seed=47)
    batch = rand_batch(rng, b=4)
    m.forward_loss(batch, np.zeros(4, dtype=int), np.zeros(4, dtype=int))
    full = m.backward()
    m.forward_loss(batch, np.zeros(4, dtype=int), np.zeros(4, dtype=int))
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
    # both rules work in place, so each gets a copy
    assert leaky_relu(z.copy()).tobytes() == np.where(z > 0.0, z, 0.01 * z).tobytes()
    grid_a = leaky_relu(grid_z.copy())
    backward = leaky_relu_backward(grid_g, grid_a)
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
        for m, z in zip(members, latents):
            assert combined_loss(m, z, batch, labels, flags) == m.latent_loss(z, batch, labels, flags)
        assert all(m._cache is None for m in members)


# ---- the out-of-place formulas as oracles ----


def oracle_forward(mlp, x):
    """(output, [(input, z, activation) per layer]), each activation a new array."""
    layers, a = [], x
    for w, b, activation in zip(mlp.weights, mlp.biases, mlp.activations):
        z = a @ w.T
        z += b
        if activation is _ACTIVATIONS["leaky_relu"]:
            a_next = np.maximum(z, LEAKY_SLOPE * z)
        elif activation is _ACTIVATIONS["tanh"]:
            a_next = np.tanh(z)
        else:
            e = np.exp(z - z.max(axis=1, keepdims=True))
            a_next = e / e.sum(axis=1, keepdims=True)
        layers.append((a, z, a_next))
        a = a_next
    return a, layers


def oracle_backward(mlp, layers, g):
    """([(dW, db) per layer], dL/d(input)); the leaky slope is read from z."""
    grads = []
    for l in range(mlp.n_layers - 1, -1, -1):
        x_in, z, a = layers[l]
        if mlp.activations[l] is _ACTIVATIONS["leaky_relu"]:
            gz = g * np.where(z > 0.0, 1.0, LEAKY_SLOPE)
        elif mlp.activations[l] is _ACTIVATIONS["tanh"]:
            gz = g * (1.0 - a * a)
        else:
            gz = a * (g - (g * a).sum(axis=1, keepdims=True))
        grads.insert(0, (gz.T @ x_in, gz.sum(axis=0)))
        g = gz @ mlp.weights[l]
    return grads, g


def oracle_loss_and_grads(m, batch, labels, flags, noise_seed=None, train_decoder=True):
    """The objective and its (mlp, grads) pairs, out of place: the reconstruction
    error taken on the disagreed subset, dL/drec = (1/(B n)) sign(error)."""
    agreed = flags.astype(bool)
    B, n = batch.shape
    latent, enc = oracle_forward(m.encoder, batch)
    if noise_seed is not None:
        latent = latent + m.noise_stddev * np.random.default_rng(noise_seed).standard_normal(latent.shape)
    rec, dec = oracle_forward(m.decoder, latent)
    per_point = np.zeros(B)
    diff = rec[~agreed] - batch[~agreed]
    per_point[~agreed] = np.abs(diff).sum(axis=1) / n
    grad_rec = np.zeros((B, n))
    grad_rec[~agreed] = (1.0 / (B * n)) * np.sign(diff)
    dec_grads, grad_latent = oracle_backward(m.decoder, dec, grad_rec)
    grads = [(m.decoder, dec_grads)] if train_decoder else []
    if agreed.any():
        probs, cls = oracle_forward(m.classifier, latent)
        p_t = probs[agreed, labels[agreed]]
        per_point[agreed] = -np.log(np.maximum(p_t, CE_CLAMP))
        grad_probs = np.zeros_like(probs)
        live = p_t > CE_CLAMP
        rows = np.flatnonzero(agreed)[live]
        grad_probs[rows, labels[rows]] = -1.0 / (B * p_t[live])
        cls_grads, grad_latent_cls = oracle_backward(m.classifier, cls, grad_probs)
        grads.append((m.classifier, cls_grads))
        grad_latent = grad_latent_cls + grad_latent
    grads.insert(0, (m.encoder, oracle_backward(m.encoder, enc, grad_latent)[0]))
    return float(per_point.sum() / B), grads


def stack_names(m, grads):
    names = {id(m.encoder): "encoder", id(m.decoder): "decoder", id(m.classifier): "classifier"}
    return [names[id(mlp)] for mlp, _ in grads]


@pytest.mark.parametrize("n", [1, 7, 50, 784])
@pytest.mark.parametrize(
    "flags", [[1, 0, 0, 1, 1, 0, 1, 0, 0], [1] * 9, [0] * 9], ids=["mixed", "all-agreed", "none-agreed"]
)
@pytest.mark.parametrize("train_decoder", [True, False])
def test_step_matches_out_of_place_oracle_bitwise(n, flags, train_decoder):
    # the in-place passes give the bits of the out-of-place formulas: loss,
    # every gradient and the stepped weights W - eta dW; no pass writes
    # into its input
    rng = np.random.default_rng(n)
    batch = rng.uniform(-1, 1, size=(9, n))
    before = batch.copy()
    labels, flags = rng.integers(0, 4, size=9), np.array(flags)
    m, oracle = (AutoencoderMember(n, 3, 4, seed=n, noise_stddev=0.1, hidden_widths=(6, 5)) for _ in range(2))

    latent = m.encode(batch)
    latent_before = latent.copy()
    assert m.latent_loss(latent, batch, labels, flags) == oracle_loss_and_grads(oracle, batch, labels, flags)[0]
    assert latent.tobytes() == latent_before.tobytes()

    loss = m.forward_loss(batch, labels, flags, noise_seed=4)
    grads = m.backward(train_decoder=train_decoder)
    expect_loss, expect = oracle_loss_and_grads(oracle, batch, labels, flags, 4, train_decoder)
    assert loss == expect_loss
    assert stack_names(m, grads) == stack_names(oracle, expect)
    for (_, layers), (_, expect_layers) in zip(grads, expect):
        assert same_bits([a for pair in layers for a in pair], [a for pair in expect_layers for a in pair])
    assert batch.tobytes() == before.tobytes()

    m.sgd_step(grads, 0.05)
    for (mlp, _), (theirs, layers) in zip(grads, expect):
        stepped = [w - 0.05 * dw for w, (dw, _) in zip(theirs.weights, layers)]
        stepped += [b - 0.05 * db for b, (_, db) in zip(theirs.biases, layers)]
        assert same_bits(mlp.weights + mlp.biases, stepped)


# ---- memory footprint ----


def traced_peak(fn):
    """Peak bytes that tracemalloc sees while fn runs (numpy reports its data buffers)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def mnist_member():
    return AutoencoderMember(784, 10, 10, seed=3, noise_stddev=0.08, hidden_widths=(256, 128))


def test_encode_and_latent_loss_peak_the_same_at_2_and_16_blocks():
    # they walk ROW_BLOCK rows at a time, so beyond their N-sized outputs
    # (the latents, the per-point losses) 16 blocks of points peak within one
    # block's 784-wide array of 2 blocks
    rng = np.random.default_rng(32)
    m = mnist_member()
    beyond_outputs = {}
    for n_blocks in (2, 16):
        N = n_blocks * ROW_BLOCK
        batch = rng.uniform(-1, 1, size=(N, 784))
        latent = m.encode(batch)
        labels = rng.integers(0, 10, size=N)
        peaks = [traced_peak(lambda: m.encode(batch)) - latent.nbytes]
        for flags in (rng.random(N) < 0.6, np.zeros(N, dtype=bool)):
            peaks.append(traced_peak(lambda: m.latent_loss(latent, batch, labels, flags)) - 8 * N)
        beyond_outputs[n_blocks] = peaks
    for few, many in zip(beyond_outputs[2], beyond_outputs[16]):
        assert abs(many - few) < ROW_BLOCK * 784 * 8, (few, many)


def test_blocked_passes_cover_every_row_once():
    # two full blocks and a 26-row tail: each block's latents are those of
    # the block alone, and the loss is the mean over all N rows
    rng = np.random.default_rng(34)
    m = AutoencoderMember(9, 3, 4, seed=34, noise_stddev=0.1, hidden_widths=(6, 5))
    N = 2 * ROW_BLOCK + 26
    batch = rng.uniform(-1, 1, size=(N, 9))
    labels, flags = rng.integers(0, 4, size=N), rng.random(N) < 0.5
    latent = m.encode(batch)
    blocks = [m.encoder.forward(batch[s : s + ROW_BLOCK]) for s in range(0, N, ROW_BLOCK)]
    assert latent.tobytes() == np.concatenate(blocks).tobytes()
    expect = oracle_loss_and_grads(m, batch, labels, flags)[0]
    assert m.latent_loss(latent, batch, labels, flags) == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize(
    "agreed_share, train_decoder, limit",
    [(0.0, True, 7.5e6), (0.6, False, 5.5e6)],
    ids=["pretraining", "selective"],
)
def test_784_wide_step_footprint(agreed_share, train_decoder, limit):
    # B=128 at the default widths; the step cache keeps activations only and
    # the gradients are scaled in place (out of place: 9.4 MB and 7.1 MB)
    rng = np.random.default_rng(33)
    m = mnist_member()
    batch = rng.uniform(-1, 1, size=(128, 784))
    labels = rng.integers(0, 10, size=128)
    flags = np.arange(128) < int(agreed_share * 128)

    def step():
        m.forward_loss(batch, labels, flags, noise_seed=5)
        m.sgd_step(m.backward(train_decoder=train_decoder), 0.01)

    step()
    assert traced_peak(step) < limit


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
        # a latent width whose weight matrix has more bytes than an address space
        ("meta", np.array([1, 4, 2**62, 3, 55], dtype=np.uint64), "out of range: a 4611686018427387904 x "),
    ],
)
def test_load_member_rejects_a_foreign_checkpoint(tmp_path, key, value, message):
    state = saved_state(tmp_path)
    state[key] = value
    path = tmp_path / "foreign.npz"
    np.savez(path, **state)
    with pytest.raises(DataError, match=message):
        load_member(path)
