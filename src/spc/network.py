"""Dense MLP autoencoders with a classifier head and exact backpropagation.

Each ensemble member owns three small networks sharing a latent space of
dimension m: an encoder f (all layers leaky ReLU), a decoder g (tanh output,
so reconstruction targets must lie in [-1, 1]) and a classifier h (one hidden
layer, softmax output).  The combined objective averages, over points, a
cross-entropy term on points whose pseudo-label is trusted and an l1
reconstruction term on the rest:

    L = (1/N) sum_i sum_j [ a_i = 1:  CE(h_j(f_j(x_i)), c_i)
                            a_i = 0:  w * (1/n) |g_j(f_j(x_i)) - x_i|_1 ]

Gradients are computed analytically layer by layer; tests hold them to
central finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError, SpcError

LEAKY_SLOPE = 0.01
CE_CLAMP = 1e-12
CLASSIFIER_HIDDEN = 25  # fixed width of the classifier's single hidden layer

_ACTIVATIONS = ("leaky_relu", "tanh", "identity", "softmax")


def _apply_activation(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "leaky_relu":
        # max(z, s z) for 0 < s < 1 is z where z > 0 and s z elsewhere, bit for
        # bit (signed zeros, infinities and NaN too); in place to save a buffer
        a = LEAKY_SLOPE * z
        return np.maximum(z, a, out=a)
    if kind == "tanh":
        return np.tanh(z)
    if kind == "identity":
        return z
    if kind == "softmax":
        shifted = z - z.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        return e / e.sum(axis=1, keepdims=True)
    raise SpcError(f"unknown activation {kind!r}")


def _activation_backward(grad_a: np.ndarray, z: np.ndarray, a: np.ndarray, kind: str) -> np.ndarray:
    """Pull a gradient back through an activation: dL/da -> dL/dz."""
    if kind == "leaky_relu":
        # the slope factor is exactly 1.0 or LEAKY_SLOPE: for 0 < s <= 1/2,
        # (1 - s) + s rounds to 1.0.  Arithmetic instead of a select on z > 0
        # gives the same bits several times faster.
        factor = (z > 0.0) * (1.0 - LEAKY_SLOPE)
        factor += LEAKY_SLOPE
        factor *= grad_a
        return factor
    if kind == "tanh":
        return grad_a * (1.0 - a * a)
    if kind == "identity":
        return grad_a
    if kind == "softmax":
        # rows couple: dL/dz_k = p_k (dL/da_k - sum_i dL/da_i p_i)
        inner = (grad_a * a).sum(axis=1, keepdims=True)
        return a * (grad_a - inner)
    raise SpcError(f"unknown activation {kind!r}")


class Mlp:
    """Fully connected stack; hidden layers leaky ReLU, configurable output.

    weights[l] has shape (widths[l+1], widths[l]); forward computes
    a = act(x W^T + b) layer by layer.
    """

    def __init__(self, widths, output_activation: str, rng: np.random.Generator):
        widths = [int(w) for w in widths]
        if len(widths) < 2 or any(w < 1 for w in widths):
            raise SpcError(f"need >= 2 positive layer widths, got {widths}")
        if output_activation not in _ACTIVATIONS:
            raise SpcError(f"unknown activation {output_activation!r}")
        self.widths = widths
        self.output_activation = output_activation
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for fan_in, fan_out in zip(widths[:-1], widths[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            self.weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
            self.biases.append(np.zeros(fan_out))

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def _activation_of(self, layer: int) -> str:
        return self.output_activation if layer == self.n_layers - 1 else "leaky_relu"

    def forward(self, x: np.ndarray, cache: list | None = None) -> np.ndarray:
        a = x
        for l in range(self.n_layers):
            z = a @ self.weights[l].T
            z += self.biases[l]
            a_next = _apply_activation(z, self._activation_of(l))
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
            gz = _activation_backward(g, z, a, self._activation_of(l))
            if param_grads:
                grads[l] = (gz.T @ x_in, gz.sum(axis=0))
            g = gz @ self.weights[l] if l > 0 or input_grad else None
        return grads, g


@dataclass
class GradientUpdate:
    """Per-parameter gradients for one member, plus the step size to apply.

    A stack whose gradients are None gets no step: the decoder when it is
    frozen, the classifier when no point of the batch is agreed.
    """

    encoder_grads: list
    decoder_grads: list | None
    classifier_grads: list | None
    learning_rate: float

    def __post_init__(self):
        if not self.learning_rate >= 0:
            raise SpcError("learning_rate must be non-negative")
        for grads in (self.encoder_grads, self.decoder_grads or [], self.classifier_grads or []):
            for dw, db in grads:
                if not (np.isfinite(dw).all() and np.isfinite(db).all()):
                    raise NumericError("non-finite gradient entries")


class AutoencoderMember:
    """One ensemble member: encoder f, decoder g, classifier h over a shared latent."""

    def __init__(
        self,
        input_dim: int,
        latent_dim: int,
        n_clusters: int,
        seed: int,
        noise_stddev: float = 0.1,
        hidden_widths=(256, 128),
    ):
        if min(input_dim, latent_dim, n_clusters) < 1:
            raise SpcError("dims must be positive")
        if noise_stddev < 0:
            raise SpcError("noise_stddev must be non-negative")
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

    def encode(self, batch: np.ndarray, train_mode: bool = False, noise_seed: int = 0) -> np.ndarray:
        """Latent codes for a batch; train mode adds N(0, sigma^2 I) noise."""
        batch = np.asarray(batch, dtype=np.float64)
        if batch.ndim != 2 or batch.shape[1] != self.input_dim:
            raise DataError(f"batch must be (B, {self.input_dim}), got {batch.shape}")
        latent = self.encoder.forward(batch)
        if train_mode and self.noise_stddev > 0:
            noise_rng = np.random.default_rng(noise_seed)
            latent = latent + self.noise_stddev * noise_rng.standard_normal(latent.shape)
        if not np.isfinite(latent).all():
            raise NumericError("non-finite encoder activations")
        return latent

    # ---- loss with cached forward ----

    def _targets(self, consensus_labels, agreement_flags, n_rows: int):
        """Validated (labels, agreed mask) for a batch of n_rows points."""
        labels = np.asarray(consensus_labels, dtype=np.int64)
        flags = np.asarray(agreement_flags, dtype=np.int64)
        if labels.shape != (n_rows,) or flags.shape != (n_rows,):
            raise DataError("labels and flags must match the batch length")
        if not ((flags == 0) | (flags == 1)).all():
            raise DataError("agreement flags must be 0 or 1")
        agreed = flags == 1
        if agreed.any() and (labels[agreed].min() < 0 or labels[agreed].max() >= self.n_clusters):
            raise DataError("consensus labels of agreed points must lie in {0..C-1}")
        return labels, agreed

    def _head_loss(
        self, latent, batch, labels, agreed, recon_weight, dec_cache=None, cls_cache=None
    ):
        """The loss of the decoder and classifier heads on given latent codes.

        Returns (loss, rec, probs).  The classifier only runs when some point
        is agreed; otherwise probs is None.
        """
        rec = self.decoder.forward(latent, cache=dec_cache)
        probs = self.classifier.forward(latent, cache=cls_cache) if agreed.any() else None
        if not (np.isfinite(rec).all() and np.isfinite(latent if probs is None else probs).all()):
            raise NumericError("non-finite activations in forward pass")

        B, n = batch.shape[0], self.input_dim
        per_point = np.zeros(B)
        if probs is not None:
            p_t = probs[agreed, labels[agreed]]
            per_point[agreed] = -np.log(np.maximum(p_t, CE_CLAMP))
        if (~agreed).any():
            diff = rec[~agreed] - batch[~agreed]
            per_point[~agreed] = recon_weight * np.abs(diff).sum(axis=1) / n
        return float(per_point.sum() / B), rec, probs

    def latent_loss(
        self,
        latent: np.ndarray,
        batch: np.ndarray,
        consensus_labels: np.ndarray,
        agreement_flags: np.ndarray,
        recon_weight: float = 1.0,
    ) -> float:
        """forward_loss of a batch whose latent codes are given; caches nothing.

        With latent = encode(batch) this equals forward_loss(batch, ...) bitwise.
        """
        batch = np.asarray(batch, dtype=np.float64)
        latent = np.asarray(latent, dtype=np.float64)
        if batch.ndim != 2 or batch.shape[1] != self.input_dim:
            raise DataError(f"batch must be (B, {self.input_dim}), got {batch.shape}")
        B = batch.shape[0]
        if latent.shape != (B, self.latent_dim):
            raise DataError(f"latent must be ({B}, {self.latent_dim}), got {latent.shape}")
        labels, agreed = self._targets(consensus_labels, agreement_flags, batch.shape[0])
        return self._head_loss(latent, batch, labels, agreed, recon_weight)[0]

    def forward_loss(
        self,
        batch: np.ndarray,
        consensus_labels: np.ndarray,
        agreement_flags: np.ndarray,
        train_mode: bool = False,
        noise_seed: int = 0,
        recon_weight: float = 1.0,
    ) -> float:
        """This member's share of the combined objective; caches for backward.

        Returns (1/B) * [ sum_{a_i=1} CE_i + w * sum_{a_i=0} (1/n) |rec_i - x_i|_1 ].
        """
        batch = np.asarray(batch, dtype=np.float64)
        labels, agreed = self._targets(consensus_labels, agreement_flags, batch.shape[0])

        enc_cache: list = []
        latent = self.encoder.forward(batch, cache=enc_cache)
        if train_mode and self.noise_stddev > 0:
            noise_rng = np.random.default_rng(noise_seed)
            latent = latent + self.noise_stddev * noise_rng.standard_normal(latent.shape)
        dec_cache: list = []
        cls_cache: list = []
        loss, rec, probs = self._head_loss(
            latent, batch, labels, agreed, recon_weight, dec_cache, cls_cache
        )

        self._cache = {
            "batch": batch,
            "labels": labels,
            "agreed": agreed,
            "recon_weight": float(recon_weight),
            "enc_cache": enc_cache,
            "dec_cache": dec_cache,
            "cls_cache": cls_cache,
            "rec": rec,
            "probs": probs,
        }
        return loss

    def backward(self, learning_rate: float = 1e-3, train_decoder: bool = True) -> GradientUpdate:
        """Exact gradients of the last forward_loss w.r.t. every parameter.

        train_decoder=False computes no decoder gradients (decoder_grads is
        None), so sgd_step leaves the decoder as it is.  When no point of the
        batch is agreed the classifier gradients are exactly zero; the
        classifier backward is skipped and classifier_grads is None too.
        """
        if self._cache is None:
            raise SpcError("backward requires a cached forward pass; call forward_loss first")
        c = self._cache
        batch, labels, agreed = c["batch"], c["labels"], c["agreed"]
        B, n = batch.shape
        w = c["recon_weight"]

        # decoder branch: dL/drec = w/(B n) sign(diff), nonzero only on non-agreed rows
        grad_rec = np.zeros_like(c["rec"])
        if (~agreed).any():
            diff = c["rec"][~agreed] - batch[~agreed]
            grad_rec[~agreed] = (w / (B * n)) * np.sign(diff)
        dec_grads, grad_latent = self.decoder.backward(
            c["dec_cache"], grad_rec, param_grads=train_decoder
        )

        # classifier branch: dL/dprobs, nonzero only on agreed rows
        probs = c["probs"]
        cls_grads = None
        if probs is not None:
            grad_probs = np.zeros_like(probs)
            p_t = probs[agreed, labels[agreed]]
            live = p_t > CE_CLAMP  # clamped rows have locally constant loss
            rows = np.flatnonzero(agreed)[live]
            grad_probs[rows, labels[rows]] = -1.0 / (B * probs[rows, labels[rows]])
            cls_grads, grad_latent_cls = self.classifier.backward(c["cls_cache"], grad_probs)
            grad_latent = grad_latent_cls + grad_latent

        # additive noise has zero jacobian w.r.t. parameters: gradients pass through
        enc_grads, _ = self.encoder.backward(c["enc_cache"], grad_latent, input_grad=False)
        return GradientUpdate(enc_grads, dec_grads, cls_grads, learning_rate)

    def sgd_step(self, update: GradientUpdate) -> None:
        """theta <- theta - eta * grad, in place. Invalidates the forward cache."""
        eta = update.learning_rate
        for mlp, grads in (
            (self.encoder, update.encoder_grads),
            (self.decoder, update.decoder_grads),
            (self.classifier, update.classifier_grads),
        ):
            if grads is None:
                continue
            if len(grads) != mlp.n_layers:
                raise SpcError("gradient layer count does not match member")
            for l, (dw, db) in enumerate(grads):
                if dw.shape != mlp.weights[l].shape or db.shape != mlp.biases[l].shape:
                    raise SpcError("gradient shapes do not match member parameters")
                mlp.weights[l] -= eta * dw
                mlp.biases[l] -= eta * db
        self._cache = None


CHECKPOINT_VERSION = 1

_STACKS = ("encoder", "decoder", "classifier")


def member_state(member: AutoencoderMember, prefix: str = "") -> dict:
    """Flat array dict describing a member; row-major matrices with shapes."""
    state = {
        prefix + "meta": np.array(
            [
                CHECKPOINT_VERSION,
                member.input_dim,
                member.latent_dim,
                member.n_clusters,
                member.member_seed,
            ],
            dtype=np.uint64,
        ),
        prefix + "noise_stddev": np.array(member.noise_stddev),
        prefix + "hidden_widths": np.array(member.hidden_widths, dtype=np.int64),
    }
    for name in _STACKS:
        mlp = getattr(member, name)
        for l in range(mlp.n_layers):
            state[f"{prefix}{name}_w{l}"] = np.ascontiguousarray(mlp.weights[l])
            state[f"{prefix}{name}_b{l}"] = np.ascontiguousarray(mlp.biases[l])
    return state


def member_from_state(state, prefix: str = "") -> AutoencoderMember:
    meta = np.asarray(state[prefix + "meta"], dtype=np.uint64)
    if meta[0] != CHECKPOINT_VERSION:
        raise DataError(f"unsupported checkpoint version {meta[0]}")
    member = AutoencoderMember(
        int(meta[1]),
        int(meta[2]),
        int(meta[3]),
        int(meta[4]),
        noise_stddev=float(state[prefix + "noise_stddev"]),
        hidden_widths=tuple(int(w) for w in state[prefix + "hidden_widths"]),
    )
    for name in _STACKS:
        mlp = getattr(member, name)
        for l in range(mlp.n_layers):
            w = np.asarray(state[f"{prefix}{name}_w{l}"], dtype=np.float64)
            b = np.asarray(state[f"{prefix}{name}_b{l}"], dtype=np.float64)
            if w.shape != mlp.weights[l].shape or b.shape != mlp.biases[l].shape:
                raise DataError(f"checkpoint shape mismatch in {name} layer {l}")
            mlp.weights[l] = w.copy()
            mlp.biases[l] = b.copy()
    return member


def save_member(path, member: AutoencoderMember) -> None:
    """Write a member checkpoint; loading reproduces every matrix bitwise."""
    np.savez(path, **member_state(member))


def load_member(path) -> AutoencoderMember:
    try:
        with np.load(path) as data:
            return member_from_state(data)
    except (OSError, ValueError, KeyError) as exc:
        raise DataError(f"unreadable member checkpoint {path}: {exc}") from exc
