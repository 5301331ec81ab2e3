"""Dense MLP autoencoders with a classifier head and exact backpropagation.

Each ensemble member owns three small networks sharing a latent space of
dimension m: an encoder f (all layers leaky ReLU), a decoder g (tanh output,
so reconstruction targets must lie in [-1, 1]) and a classifier h (one hidden
layer, softmax output).  The combined objective averages, over points, a
cross-entropy term on points whose pseudo-label is trusted and an l1
reconstruction term on the rest.  The trust is a boolean agreement mask a:

    L = (1/N) sum_i sum_j [ a_i true:   CE(h_j(f_j(x_i)), c_i)
                            a_i false:  (1/n) |g_j(f_j(x_i)) - x_i|_1 ]

Gradients are computed analytically layer by layer; tests hold them to
central finite differences.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError, NumericError, SpcError

LEAKY_SLOPE = 0.01
CE_CLAMP = 1e-12
CLASSIFIER_HIDDEN = 25  # fixed width of the classifier's single hidden layer


def _leaky_relu(z: np.ndarray) -> np.ndarray:
    # max(z, s z) for 0 < s < 1 is z where z > 0 and s z elsewhere, bit for
    # bit (signed zeros, infinities and NaN too); in place to save a buffer
    a = LEAKY_SLOPE * z
    return np.maximum(z, a, out=a)


def _leaky_relu_backward(grad_a: np.ndarray, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    # the slope factor is exactly 1.0 or LEAKY_SLOPE: for 0 < s <= 1/2,
    # (1 - s) + s rounds to 1.0.  Arithmetic instead of a select on z > 0
    # gives the same bits several times faster.
    factor = (z > 0.0) * (1.0 - LEAKY_SLOPE)
    factor += LEAKY_SLOPE
    factor *= grad_a
    return factor


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _softmax_backward(grad_a: np.ndarray, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    # rows couple: dL/dz_k = p_k (dL/da_k - sum_i dL/da_i p_i)
    inner = (grad_a * a).sum(axis=1, keepdims=True)
    return a * (grad_a - inner)


# (forward a = act(z), backward (dL/da, z, a) -> dL/dz) per activation name
_ACTIVATIONS = {
    "leaky_relu": (_leaky_relu, _leaky_relu_backward),
    "tanh": (np.tanh, lambda grad_a, z, a: grad_a * (1.0 - a * a)),
    "softmax": (_softmax, _softmax_backward),
}


class Mlp:
    """Fully connected stack; hidden layers leaky ReLU, configurable output.

    weights[l] has shape (widths[l+1], widths[l]); forward computes
    a = act(x W^T + b) layer by layer.  Raises MemoryError before drawing a
    weight matrix whose float64 bytes pass what an address space holds.
    """

    def __init__(self, widths, output_activation: str, rng: np.random.Generator):
        widths = [int(w) for w in widths]
        if len(widths) < 2 or any(w < 1 for w in widths):
            raise SpcError(f"need >= 2 positive layer widths, got {widths}")
        # one (forward, backward) pair per layer
        hidden, output = _ACTIVATIONS["leaky_relu"], _ACTIVATIONS[output_activation]
        self.activations = [hidden] * (len(widths) - 2) + [output]
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for fan_in, fan_out in zip(widths[:-1], widths[1:]):
            n_bytes = 8 * fan_in * fan_out
            if n_bytes > np.iinfo(np.intp).max:
                raise MemoryError(f"a {fan_out} x {fan_in} weight matrix needs {n_bytes} bytes")
            bound = 1.0 / np.sqrt(fan_in)
            self.weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
            self.biases.append(np.zeros(fan_out))

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def forward(self, x: np.ndarray, cache: list | None = None) -> np.ndarray:
        a = x
        for l in range(self.n_layers):
            z = a @ self.weights[l].T
            z += self.biases[l]
            a_next = self.activations[l][0](z)
            if cache is not None:
                cache.append((a, z, a_next))
            a = a_next
        return a

    def backward(
        self, cache: list, grad_out: np.ndarray, param_grads: bool = True, input_grad: bool = True
    ):
        """Given dL/d(output), return ([(dW, db) per layer], dL/d(input)).

        param_grads=False skips the weight gradients and input_grad=False the
        gradient w.r.t. the input; each part skipped is returned as None.
        """
        grads = [None] * self.n_layers if param_grads else None
        g = grad_out
        for l in range(self.n_layers - 1, -1, -1):
            x_in, z, a = cache[l]
            gz = self.activations[l][1](g, z, a)
            if param_grads:
                grads[l] = (gz.T @ x_in, gz.sum(axis=0))
            g = gz @ self.weights[l] if l > 0 or input_grad else None
        return grads, g


class AutoencoderMember:
    """One ensemble member: encoder f, decoder g, classifier h over a shared latent."""

    def __init__(
        self,
        input_dim: int,
        latent_dim: int,
        n_clusters: int,
        seed: int,
        noise_stddev: float,
        hidden_widths,
    ):
        if not (np.isfinite(noise_stddev) and noise_stddev >= 0):
            raise SpcError("noise_stddev must be non-negative and finite")
        rng = np.random.default_rng(seed)
        hw = list(hidden_widths)
        self.input_dim = input_dim
        self.latent_dim = latent_dim
        self.n_clusters = n_clusters
        self.noise_stddev = float(noise_stddev)
        self.member_seed = int(seed)
        self.hidden_widths = tuple(hw)
        self.encoder = Mlp([input_dim] + hw + [latent_dim], "leaky_relu", rng)
        self.decoder = Mlp([latent_dim] + hw[::-1] + [input_dim], "tanh", rng)
        self.classifier = Mlp([latent_dim, CLASSIFIER_HIDDEN, n_clusters], "softmax", rng)
        self._cache = None

    # ---- forward ops ----

    def encode(self, batch: np.ndarray) -> np.ndarray:
        """Latent codes for a batch, without noise."""
        latent = self.encoder.forward(np.asarray(batch, dtype=np.float64))
        if not np.isfinite(latent).all():
            raise NumericError("non-finite encoder activations")
        return latent

    # ---- loss with cached forward ----

    def _head_loss(self, latent, batch, labels, agreed, dec_cache=None, cls_cache=None):
        """The loss of the decoder and classifier heads on given latent codes.

        Returns (loss, diff, p_t): diff = rec - batch on the rows that are not
        agreed and p_t the probability of the consensus label on the agreed
        rows, each None when it has no row.  The classifier only runs when
        some point is agreed.
        """
        rec = self.decoder.forward(latent, cache=dec_cache)
        probs = self.classifier.forward(latent, cache=cls_cache) if agreed.any() else None
        if not (np.isfinite(rec).all() and np.isfinite(latent if probs is None else probs).all()):
            raise NumericError("non-finite activations in forward pass")

        B, n = batch.shape[0], self.input_dim
        per_point = np.zeros(B)
        diff = p_t = None
        if probs is not None:
            p_t = probs[agreed, labels[agreed]]
            per_point[agreed] = -np.log(np.maximum(p_t, CE_CLAMP))
        if (~agreed).any():
            diff = rec[~agreed] - batch[~agreed]
            per_point[~agreed] = np.abs(diff).sum(axis=1) / n
        return float(per_point.sum() / B), diff, p_t

    def latent_loss(
        self,
        latent: np.ndarray,
        batch: np.ndarray,
        consensus_labels: np.ndarray,
        agreement_flags: np.ndarray,
    ) -> float:
        """forward_loss of a batch whose latent codes are given; caches nothing.

        With latent = encode(batch) this equals forward_loss(batch, ...) bitwise.
        """
        batch = np.asarray(batch, dtype=np.float64)
        latent = np.asarray(latent, dtype=np.float64)
        labels = np.asarray(consensus_labels, dtype=np.int64)
        agreed = np.asarray(agreement_flags, dtype=bool)
        return self._head_loss(latent, batch, labels, agreed)[0]

    def forward_loss(
        self,
        batch: np.ndarray,
        consensus_labels: np.ndarray,
        agreement_flags: np.ndarray,
        noise_seed: int | None = None,
    ) -> float:
        """This member's share of the combined objective; caches for backward.

        Returns (1/B) * [ sum_{a_i} CE_i + sum_{not a_i} (1/n) |rec_i - x_i|_1 ]
        over the boolean agreement mask a (0/1 integers read the same).  With
        a noise_seed, as in training, the latent codes get seeded Gaussian
        noise of the member's noise_stddev; None means no noise.
        """
        batch = np.asarray(batch, dtype=np.float64)
        labels = np.asarray(consensus_labels, dtype=np.int64)
        agreed = np.asarray(agreement_flags, dtype=bool)

        enc_cache: list = []
        latent = self.encoder.forward(batch, cache=enc_cache)
        if noise_seed is not None and self.noise_stddev > 0:
            noise_rng = np.random.default_rng(noise_seed)
            latent = latent + self.noise_stddev * noise_rng.standard_normal(latent.shape)
        dec_cache: list = []
        cls_cache: list = []
        loss, diff, p_t = self._head_loss(latent, batch, labels, agreed, dec_cache, cls_cache)

        self._cache = {
            "labels": labels,
            "agreed": agreed,
            "enc_cache": enc_cache,
            "dec_cache": dec_cache,
            "cls_cache": cls_cache,
            "diff": diff,
            "p_t": p_t,
        }
        return loss

    def backward(self, train_decoder: bool = True) -> list:
        """Exact gradients of the last forward_loss, as (mlp, [(dW, db) per layer]) pairs.

        One pair per stack that steps: the encoder always, the decoder
        unless train_decoder is False, and the classifier only when some
        point of the batch is agreed (otherwise its gradient is exactly
        zero and its backward is skipped).  Raises NumericError when any
        gradient entry is not finite.
        """
        c = self._cache
        labels, agreed, diff, p_t = c["labels"], c["agreed"], c["diff"], c["p_t"]
        B, n = agreed.shape[0], self.input_dim

        # decoder branch: dL/drec = sign(diff) / (B n), nonzero only on non-agreed rows
        grad_rec = np.zeros((B, n))
        if diff is not None:
            grad_rec[~agreed] = (1.0 / (B * n)) * np.sign(diff)
        dec_grads, grad_latent = self.decoder.backward(
            c["dec_cache"], grad_rec, param_grads=train_decoder
        )

        # classifier branch: dL/dprobs, nonzero only on agreed rows
        cls_grads = None
        if p_t is not None:
            grad_probs = np.zeros((B, self.n_clusters))
            live = p_t > CE_CLAMP  # clamped rows have locally constant loss
            rows = np.flatnonzero(agreed)[live]
            grad_probs[rows, labels[rows]] = -1.0 / (B * p_t[live])
            cls_grads, grad_latent_cls = self.classifier.backward(c["cls_cache"], grad_probs)
            grad_latent = grad_latent_cls + grad_latent

        # additive noise has zero jacobian w.r.t. parameters: gradients pass through
        enc_grads, _ = self.encoder.backward(c["enc_cache"], grad_latent, input_grad=False)
        stacks = (self.encoder, self.decoder, self.classifier)
        grads = [(mlp, g) for mlp, g in zip(stacks, (enc_grads, dec_grads, cls_grads)) if g]
        for _, layers in grads:
            for dw, db in layers:
                if not (np.isfinite(dw).all() and np.isfinite(db).all()):
                    raise NumericError("non-finite gradient entries")
        return grads

    def sgd_step(self, grads: list, learning_rate: float) -> None:
        """theta <- theta - eta * grad for each of backward's pairs, in place; clears the cache."""
        for mlp, layers in grads:
            for l, (dw, db) in enumerate(layers):
                mlp.weights[l] -= learning_rate * dw
                mlp.biases[l] -= learning_rate * db
        self._cache = None


CHECKPOINT_VERSION = 1

_STACKS = ("encoder", "decoder", "classifier")


def save_member(path, member: AutoencoderMember) -> None:
    """Write a member checkpoint; loading reproduces every matrix bitwise.

    The npz holds flat arrays: the meta header, the noise level, the hidden
    widths, then each stack's row-major weights and biases layer by layer.
    """
    state = {
        "meta": np.array(
            [
                CHECKPOINT_VERSION,
                member.input_dim,
                member.latent_dim,
                member.n_clusters,
                member.member_seed,
            ],
            dtype=np.uint64,
        ),
        "noise_stddev": np.array(member.noise_stddev),
        "hidden_widths": np.array(member.hidden_widths, dtype=np.int64),
    }
    for name in _STACKS:
        mlp = getattr(member, name)
        for l in range(mlp.n_layers):
            state[f"{name}_w{l}"] = np.ascontiguousarray(mlp.weights[l])
            state[f"{name}_b{l}"] = np.ascontiguousarray(mlp.biases[l])
    np.savez(path, **state)


def load_member(path) -> AutoencoderMember:
    try:
        with np.load(path) as state:
            meta = np.asarray(state["meta"], dtype=np.uint64)
            if meta[0] != CHECKPOINT_VERSION:
                raise DataError(f"unsupported checkpoint version {meta[0]}")
            try:
                member = AutoencoderMember(
                    int(meta[1]),
                    int(meta[2]),
                    int(meta[3]),
                    int(meta[4]),
                    noise_stddev=float(state["noise_stddev"]),
                    hidden_widths=tuple(int(w) for w in state["hidden_widths"]),
                )
            except (SpcError, MemoryError) as exc:
                raise DataError(f"checkpoint header out of range: {exc}") from exc
            for name in _STACKS:
                mlp = getattr(member, name)
                for l in range(mlp.n_layers):
                    w = np.asarray(state[f"{name}_w{l}"], dtype=np.float64)
                    b = np.asarray(state[f"{name}_b{l}"], dtype=np.float64)
                    if w.shape != mlp.weights[l].shape or b.shape != mlp.biases[l].shape:
                        raise DataError(f"checkpoint shape mismatch in {name} layer {l}")
                    mlp.weights[l] = w.copy()
                    mlp.biases[l] = b.copy()
            return member
    except (OSError, ValueError, KeyError) as exc:
        raise DataError(f"unreadable member checkpoint {path}: {exc}") from exc
