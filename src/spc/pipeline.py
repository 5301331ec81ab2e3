"""Selective pseudo-label training over an autoencoder ensemble.

The driver pretrains K independent autoencoders on l1 reconstruction, then
iterates: encode every point without noise, cluster each member's latents,
align the labellings and form a consensus with unanimity flags, and train
each member selectively (cross-entropy against the consensus label on agreed
points, reconstruction on the rest, decoder frozen).  The loop stops when
the number of agreed points has gone plateau_patience consecutive iterations
without a strict improvement or after max_iterations, whichever comes first,
and the last consensus becomes the final labelling.  The canonical run (every
default) stops at max_iterations = 12 with agreement still rising, from 427
to 566 of 800 points.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import logging
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .clustering import Labelling, gmm_fit, gmm_predict, kmeans_fit
from .consensus import ConsensusResult, _aligned_correct, _matching, consensus
# unused here, but perfbench/trace.py wraps pipeline.hungarian, so the name must resolve
from .consensus import hungarian  # noqa: F401
from .data import Dataset
from .errors import ConfigError, DataError, NumericError
from .network import AutoencoderMember

logger = logging.getLogger("spc")

CLUSTERERS = ("gmm", "kmeans")
NORMALIZED_SLACK = 1e-9


@dataclass(frozen=True)
class SpcConfig:
    """Hyperparameters of the full training loop.

    n_members is the ensemble size; one member degenerates to plain
    pseudo-label training because a single labelling always agrees with
    itself everywhere.
    """

    n_members: int = 5
    latent_dim: int = 10
    pretrain_epochs: int = 60
    loop_epochs: int = 10
    learning_rate: float = 0.3
    # reconstruction needs a large step to leave the small-gradient regime
    # around the init scale; the selective phase must move gently, or
    # consecutive clusterings decohere
    loop_learning_rate: float = 0.01
    noise_stddev: float = 0.08
    plateau_patience: int = 2
    max_iterations: int = 12
    master_seed: int = 0
    clusterer: str = "kmeans"
    batch_size: int = 128
    concat_member: bool = False
    hidden_widths: tuple = (256, 128)

    def __post_init__(self):
        if self.n_members < 1:
            raise ConfigError("n_members must be >= 1")
        if self.latent_dim < 1:
            raise ConfigError("latent_dim must be >= 1")
        if self.pretrain_epochs < 0:
            raise ConfigError("pretrain_epochs must be >= 0")
        if self.loop_epochs < 1:
            raise ConfigError("loop_epochs must be >= 1")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError("learning_rate must be positive and finite")
        if not (np.isfinite(self.loop_learning_rate) and self.loop_learning_rate > 0):
            raise ConfigError("loop_learning_rate must be positive and finite")
        if not (np.isfinite(self.noise_stddev) and self.noise_stddev >= 0):
            raise ConfigError("noise_stddev must be non-negative and finite")
        if self.plateau_patience < 1:
            raise ConfigError("plateau_patience must be >= 1")
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be >= 1")
        if self.master_seed < 0:
            raise ConfigError(f"master_seed must be >= 0, got {self.master_seed}")
        if self.clusterer not in CLUSTERERS:
            raise ConfigError(f"clusterer must be one of {CLUSTERERS}, got {self.clusterer!r}")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        object.__setattr__(self, "hidden_widths", tuple(int(w) for w in self.hidden_widths))
        if any(w < 1 for w in self.hidden_widths):
            raise ConfigError("hidden widths must be positive")


@dataclass(frozen=True)
class IterationRecord:
    """One row of the training dynamics: agreement counts and accuracies.

    The accuracy fields are None when the dataset carries no ground truth;
    agreed_accuracy is also None when no point is agreed.
    """

    iteration: int
    n_agreed: int
    agreed_accuracy: float | None
    overall_accuracy: float | None
    mean_loss: float

    def __post_init__(self):
        if self.iteration < 0 or self.n_agreed < 0:
            raise DataError("iteration and n_agreed must be non-negative")


# ---- seeding --------------------------------------------------------------
# Every member owns three independent streams derived from the master seed:
# parameter init, training-time shuffling and noise, and clusterer seeding.
# Streams are keyed by member index only, so results do not depend on how
# work is scheduled across threads.


def _member_streams(config: SpcConfig, j: int):
    ss = np.random.SeedSequence(config.master_seed, spawn_key=(j,))
    init_ss, train_ss, cluster_ss = ss.spawn(3)
    init_seed = int(init_ss.generate_state(1, dtype=np.uint64)[0])
    return init_seed, np.random.default_rng(train_ss), np.random.default_rng(cluster_ss)


def build_members(dataset: Dataset, config: SpcConfig) -> list:
    """Construct the ensemble with per-member derived init seeds."""
    members = []
    for j in range(config.n_members):
        init_seed, _, _ = _member_streams(config, j)
        members.append(
            AutoencoderMember(
                input_dim=dataset.dim,
                latent_dim=config.latent_dim,
                n_clusters=dataset.n_clusters,
                seed=init_seed,
                noise_stddev=config.noise_stddev,
                hidden_widths=config.hidden_widths,
            )
        )
    return members


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None.

    numpy has already loaded the library, so opening it again by path returns
    the same handle and the calls act on the BLAS that numpy uses.
    """
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "")):
            try:
                get = getattr(lib, f"{prefix}get_num_threads{suffix}")
                set_ = getattr(lib, f"{prefix}set_num_threads{suffix}")
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


class _SingleBlasThread:
    """Context manager that holds BLAS at one thread while any holder is inside.

    BLAS threads started inside each of the fan-out's worker threads
    oversubscribe the cores; the worker threads are the parallelism.  The
    thread count is process-wide, so concurrent holders share one count: the
    first to enter saves the old count and the last to leave restores it.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._holders = 0
        self._saved = None

    def __enter__(self):
        blas = _openblas_threads()
        if blas is not None:
            with self._lock:
                if self._holders == 0:
                    self._saved = blas[0]()
                    blas[1](1)
                self._holders += 1
        return self

    def __exit__(self, *exc):
        blas = _openblas_threads()
        if blas is not None:
            with self._lock:
                self._holders -= 1
                if self._holders == 0:
                    blas[1](self._saved)
        return False


_single_blas_thread = _SingleBlasThread()


def _fan_out(tasks: list, workers: int | None) -> list:
    """Run the closures, possibly in a thread pool; results in task order.

    workers None means one thread per core.  With more than one worker thread
    BLAS runs single-threaded meanwhile.  Outputs do not depend on either
    thread count; the tests compare runs at different worker counts byte for
    byte.
    """
    if workers is None:
        workers = os.cpu_count() or 1
    elif workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    workers = min(workers, len(tasks))
    if workers <= 1:
        return [task() for task in tasks]
    with _single_blas_thread, ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(task) for task in tasks]
        return [f.result() for f in futures]


def _check_normalized(points: np.ndarray) -> None:
    lo, hi = float(points.min()), float(points.max())
    if lo < -1.0 - NORMALIZED_SLACK or hi > 1.0 + NORMALIZED_SLACK:
        raise DataError(
            f"points must be normalized to [-1, 1], found range [{lo:.6g}, {hi:.6g}]"
        )


# ---- training steps -------------------------------------------------------


def train_epoch(
    member: AutoencoderMember,
    points: np.ndarray,
    labels: np.ndarray,
    flags: np.ndarray,
    rng: np.random.Generator,
    config: SpcConfig,
    learning_rate: float,
    freeze_decoder: bool,
) -> None:
    """One shuffled pass of mini-batch SGD over the points, in place."""
    n = points.shape[0]
    order = rng.permutation(n)
    for start in range(0, n, config.batch_size):
        idx = order[start : start + config.batch_size]
        noise_seed = int(rng.integers(2**63))
        member.forward_loss(points[idx], labels[idx], flags[idx], noise_seed=noise_seed)
        member.sgd_step(member.backward(train_decoder=not freeze_decoder), learning_rate)


def _train_members(
    members: list, rngs: list, points, labels, flags, config: SpcConfig, workers: int | None, *,
    epochs: int, learning_rate: float, freeze_decoder: bool,
) -> None:
    """Train member j for ``epochs`` epochs on its own stream rngs[j], all in one fan-out."""

    def job(member, rng):
        for _ in range(epochs):
            train_epoch(member, points, labels, flags, rng, config, learning_rate, freeze_decoder)

    _fan_out([functools.partial(job, m, r) for m, r in zip(members, rngs)], workers)


def pretrain(members: list, dataset: Dataset, config: SpcConfig, workers: int | None = None) -> list:
    """Reconstruction-only training of every member, in place.

    With all agreement flags at zero the objective reduces to l1
    reconstruction, and the classifier receives exactly zero gradient, so the
    selective loss machinery doubles as the pretraining objective.  Returns
    member j's training stream, which the selective phase continues.
    """
    _check_normalized(dataset.points)
    rngs = [_member_streams(config, j)[1] for j in range(len(members))]
    zeros = np.zeros(dataset.n_points, dtype=np.int64)
    _train_members(
        members, rngs, dataset.points, zeros, zeros, config, workers,
        epochs=config.pretrain_epochs, learning_rate=config.learning_rate, freeze_decoder=False,
    )
    return rngs


# ---- clustering and consensus ---------------------------------------------


def _cluster(latents: np.ndarray, n_clusters: int, seed: int, kind: str) -> Labelling:
    if kind == "kmeans":
        _, labelling = kmeans_fit(latents, n_clusters, seed=seed)
        return labelling
    model = gmm_fit(latents, n_clusters, seed=seed)
    return gmm_predict(model, latents)


def _rename_to_previous(result: ConsensusResult, previous: np.ndarray, n_clusters: int) -> ConsensusResult:
    """Permute cluster ids to best match the previous iteration's consensus.

    Ids are arbitrary within an iteration (clusterers are reseeded), so
    without renaming the classifier targets would permute between iterations
    and every head would have to relearn a shuffled output map.  Renaming
    changes neither the partition nor the agreement flags.
    """
    perm = _matching(result.consensus_labels, previous, n_clusters)
    return ConsensusResult(consensus_labels=perm[result.consensus_labels], agreement=result.agreement)


def combined_loss(
    members: list,
    latents: list,
    batch: np.ndarray,
    consensus_labels: np.ndarray,
    agreement_flags: np.ndarray,
    workers: int | None = None,
) -> float:
    """The objective summed over members, evaluated noise-free.

    latents[j] must be members[j].encode(batch).  Equals the sum over members
    of each member's forward_loss, so with all flags zero it reduces to the
    sum of per-member l1 reconstruction losses.  The members run in a
    fan-out; the sum is taken in member order.
    """
    tasks = [
        lambda m=m, z=z: m.latent_loss(z, batch, consensus_labels, agreement_flags)
        for m, z in zip(members, latents)
    ]
    return float(sum(_fan_out(tasks, workers)))


# ---- the full loop --------------------------------------------------------


def spc_train(
    dataset: Dataset,
    config: SpcConfig,
    workers: int | None = None,
):
    """Run the complete selective pseudo-label loop.

    Returns (final labelling, per-iteration history, trained members).  Each
    iteration encodes without noise, clusters each member's latents, records
    the consensus before any training, and then trains every member for
    loop_epochs on the selective objective with the decoder frozen.  The
    voters are the K members and, with concat_member, voter K, which clusters
    the members' latents side by side.  A voter whose clusterer fails is
    dropped from that iteration's vote; the run only fails when every voter
    does.
    """
    C = dataset.n_clusters
    K = config.n_members
    points = dataset.points
    members = build_members(dataset, config)
    # voter K takes the next stream index, so its stream never collides with
    # a real member's
    cluster_rngs = [_member_streams(config, j)[2] for j in range(K + config.concat_member)]

    train_rngs = pretrain(members, dataset, config, workers=workers)

    history: list = []
    result = None
    best_agreed = -1
    stall = 0
    for iteration in range(config.max_iterations):
        def vote(j, latents):
            """Voter j's labelling, or None when its clusterer fails."""
            # voter j's own stream, so neither voter order nor thread schedule moves the seed
            seed = int(cluster_rngs[j].integers(2**63))
            try:
                return _cluster(latents, C, seed, config.clusterer)
            except NumericError as exc:
                voter = f"member {j}" if j < K else "concatenated member"
                logger.warning("%s clustering failed at iteration %d: %s", voter, iteration, exc)
                return None

        def member_task(j):
            latents = members[j].encode(points)
            return latents, vote(j, latents)

        outcomes = _fan_out([lambda j=j: member_task(j) for j in range(K)], workers)
        latents = [lat for lat, _ in outcomes]
        labellings = [lab for _, lab in outcomes]
        if config.concat_member:
            labellings.append(vote(K, np.concatenate(latents, axis=1)))
        labellings = [lab for lab in labellings if lab is not None]
        if not labellings:
            raise NumericError(
                f"clustering failed for every ensemble member at iteration {iteration}"
            )

        previous = result
        result = consensus(labellings, C)
        if previous is not None:
            result = _rename_to_previous(result, previous.consensus_labels, C)
        mean_loss = combined_loss(
            members,
            latents,
            points,
            result.consensus_labels,
            result.agreement,
            workers,
        ) / len(members)
        agreed_acc = overall_acc = None
        if dataset.labels is not None:
            correct = _aligned_correct(result.consensus_labels, dataset.labels, C)
            overall_acc = float(correct.mean())
            if result.n_agreed > 0:
                agreed_acc = float(correct[result.agreement].mean())
        history.append(
            IterationRecord(
                iteration=iteration,
                n_agreed=result.n_agreed,
                agreed_accuracy=agreed_acc,
                overall_accuracy=overall_acc,
                mean_loss=mean_loss,
            )
        )

        if result.n_agreed > best_agreed:
            best_agreed = result.n_agreed
            stall = 0
        else:
            stall += 1
        if stall >= config.plateau_patience or iteration == config.max_iterations - 1:
            break

        _train_members(
            members, train_rngs, points, result.consensus_labels, result.agreement, config, workers,
            epochs=config.loop_epochs, learning_rate=config.loop_learning_rate, freeze_decoder=True,
        )

    final = Labelling(labels=result.consensus_labels.copy(), n_clusters=C)
    return final, history, members
