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

Each voter owns one record (_Voter): its network, its training and
clustering streams, and the latents, labelling and loss its units write.
A run of I iterations makes I + 1 rounds, each one fan-out in which every
member has a work unit and then a fit unit, both writing into its record.
The first round's work unit pretrains the member, each later one takes its
loss on the iteration's consensus and trains it; either way it then encodes
the member, and the fit unit clusters those latents for the next vote.  The
last round only takes the losses.  A task that finds no fit running runs
the queued fits, so at most one runs at a time (see _member_round).  Between
rounds the calling thread reads the records: it clusters the concatenated
voter, forms the consensus, applies the stopping rule and sums the losses.
The whole run, in every thread, computes at one BLAS thread (see
_one_blas_thread).
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import logging
import os
import queue
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .clustering import Labelling, gmm_fit, gmm_predict, kmeans_fit
from .consensus import ConsensusResult, _aligned_correct, _matching, consensus
# unused here, but perfbench/trace.py wraps pipeline.hungarian, so the name must resolve
from .consensus import hungarian  # noqa: F401
from .data import Dataset
from .errors import ConfigError, DataError, NumericError, SpcError
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


@dataclass
class _Voter:
    """One voter's state across rounds, written by its units; net is None for the concatenated voter."""

    name: str
    net: AutoencoderMember | None
    train_rng: np.random.Generator
    cluster_rng: np.random.Generator
    latents: np.ndarray | None = None
    labelling: Labelling | None = None
    loss: float | None = None


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


# held by spc_train for its whole run, with numpy's bundled OpenBLAS at one
# thread: BLAS threads inside each worker thread would only compete for the
# cores, and one count makes every product round the same at any worker
# count, the calling thread's included.  Concurrent runs take turns, and each
# restores the process-wide BLAS thread count it found.
_fan_out_lock = threading.Lock()


def _worker_count(workers: int | None) -> int:
    """workers, or one per core for None; below one is a ConfigError."""
    if workers is None:
        return os.cpu_count() or 1
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    return workers


@contextlib.contextmanager
def _one_blas_thread():
    """Hold _fan_out_lock and numpy's bundled OpenBLAS at one thread; any other BLAS is left alone."""
    get_threads, set_threads = _openblas_threads() or (lambda: None, lambda n: None)
    with _fan_out_lock:
        saved = get_threads()
        set_threads(1)
        try:
            yield
        finally:
            set_threads(saved)


def _fan_out(tasks: list, workers: int) -> list:
    """Run the closures, inline for one worker, else in a pool of workers threads; results in task order."""
    if workers <= 1:
        return [task() for task in tasks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(task) for task in tasks]
        return [f.result() for f in futures]


def _member_round(members: list, work, fit, workers: int) -> None:
    """One round of member units: work(m), then fit(m), each writing into member record m.

    fit None means the round has no fit units.  Each member is one task of
    one fan-out on min(workers, len(members)) threads.  A task runs its
    member's work, queues its fit and runs the queued fits, lowest member
    first, unless another task is running them; then it ends, and its thread
    starts the next member's work.  So at most one fit runs at a time and no
    thread waits for one: a k-means fit holds the interpreter lock for most of
    its run, so two fits in two threads take longer than one after the other.
    One worker runs each member's work and then its fit, in member order.  A
    member whose unit raises gets no further unit; once the round ends, the
    lowest failing member's error is raised, naming that member.
    """
    errors = [None] * len(members)
    ready = queue.PriorityQueue()  # members whose work is done and whose fit has not started
    fitting = threading.Lock()

    def task(j):
        try:
            work(members[j])
        except Exception as exc:  # raised for the lowest failing member after the round
            errors[j] = exc
            return
        if fit is None:
            return
        ready.put(j)
        # No fit is stranded: a task queues its member before it tries the
        # lock, so if the try fails, the holder's check after it releases
        # sees that member, and if it succeeds, the task fits it itself.
        # Only the holder takes from the queue, so ready.get never waits.
        while not ready.empty() and fitting.acquire(blocking=False):
            while not ready.empty():
                i = ready.get()
                try:
                    fit(members[i])
                except Exception as exc:
                    errors[i] = exc
            fitting.release()

    _fan_out([functools.partial(task, j) for j in range(len(members))], min(workers, len(members)))
    for j, exc in enumerate(errors):
        if isinstance(exc, SpcError):
            raise type(exc)(f"{exc} (member {j})") from exc
        if exc is not None:
            raise exc


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


def pretrain(member: AutoencoderMember, dataset: Dataset, config: SpcConfig, rng: np.random.Generator) -> None:
    """Reconstruction-only training of one member, in place, on its training stream rng.

    With all agreement flags at zero the objective reduces to l1
    reconstruction, and the classifier receives exactly zero gradient, so the
    selective loss machinery doubles as the pretraining objective.  The
    selective phase continues rng where pretraining leaves it.
    """
    zeros = np.zeros(dataset.n_points, dtype=np.int64)
    for _ in range(config.pretrain_epochs):
        train_epoch(
            member, dataset.points, zeros, zeros, rng, config, config.learning_rate, freeze_decoder=False
        )


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
    member: AutoencoderMember, latents: np.ndarray, batch: np.ndarray, labels: np.ndarray, flags: np.ndarray
) -> float:
    """One member's objective, evaluated noise-free; latents must be member.encode(batch).

    On a batch of at most network.ROW_BLOCK rows it equals the member's
    forward_loss bitwise, and on any batch with all flags zero it reduces to
    the member's l1 reconstruction loss.  spc_train calls it in the member's
    work unit and sums the members' losses in member order.
    """
    return float(member.latent_loss(latents, batch, labels, flags))


# ---- the full loop --------------------------------------------------------


def spc_train(
    dataset: Dataset,
    config: SpcConfig,
    workers: int | None = None,
):
    """Run the complete selective pseudo-label loop.

    Returns (final labelling, per-iteration history, trained members).  The
    points must lie in [-1, 1].  The voters are the K members and, with
    concat_member, voter K, which clusters the members' latents side by side
    in the calling thread; each has the record and streams the module
    docstring describes.  workers threads (None: one per core) run a round's
    member tasks (see _member_round).  From the first round to the last loss
    the run holds numpy's bundled OpenBLAS at one thread and then restores
    its count, so no output or checkpoint byte depends on workers; calls
    from several threads take turns, one run at a time.  A voter whose
    clusterer fails is dropped from that iteration's vote; the run only
    fails when every voter does.  A member whose unit raises ends the run
    after its round, with the lowest failing member's error, naming it.
    """
    workers = _worker_count(workers)
    C = dataset.n_clusters
    K = config.n_members
    points = dataset.points
    _check_normalized(points)
    # voter K takes the next stream index, so its streams never collide with
    # a real member's; its training stream goes unused
    nets = build_members(dataset, config) + [None] * config.concat_member
    voters = [
        _Voter(f"member {j}" if j < K else "concatenated member", net, *_member_streams(config, j)[1:])
        for j, net in enumerate(nets)
    ]
    members = voters[:K]

    def vote(v, iteration):
        """Voter v's labelling of its latents for the iteration, None when its clusterer fails."""
        # the voter's own stream, so neither voter order nor thread schedule moves the seed
        seed = int(v.cluster_rng.integers(2**63))
        try:
            v.labelling = _cluster(v.latents, C, seed, config.clusterer)
        except NumericError as exc:
            logger.warning("%s clustering failed at iteration %d: %s", v.name, iteration, exc)
            v.labelling = None

    def work(m, result=None, last=False):
        """Pretrain member m (no result), or take its loss on result and train it; then encode it."""
        if result is None:
            pretrain(m.net, dataset, config, m.train_rng)
        else:
            labels, flags = result.consensus_labels, result.agreement
            m.loss = combined_loss(m.net, m.latents, points, labels, flags)
            if last:
                return
            for _ in range(config.loop_epochs):
                train_epoch(
                    m.net, points, labels, flags, m.train_rng, config, config.loop_learning_rate,
                    freeze_decoder=True,
                )
        m.latents = m.net.encode(points)

    with _one_blas_thread():
        _member_round(members, work, functools.partial(vote, iteration=0), workers)
        history: list = []
        result = None
        best_agreed = -1
        stall = 0
        for iteration in range(config.max_iterations):
            if config.concat_member:
                voters[K].latents = np.concatenate([m.latents for m in members], axis=1)
                vote(voters[K], iteration)
            labellings = [v.labelling for v in voters if v.labelling is not None]
            if not labellings:
                raise NumericError(f"clustering failed for every ensemble member at iteration {iteration}")

            previous = result
            result = consensus(labellings, C)
            if previous is not None:
                result = _rename_to_previous(result, previous.consensus_labels, C)
            agreed_acc = overall_acc = None
            if dataset.labels is not None:
                correct = _aligned_correct(result.consensus_labels, dataset.labels, C)
                overall_acc = float(correct.mean())
                if result.n_agreed > 0:
                    agreed_acc = float(correct[result.agreement].mean())

            if result.n_agreed > best_agreed:
                best_agreed = result.n_agreed
                stall = 0
            else:
                stall += 1
            last = stall >= config.plateau_patience or iteration == config.max_iterations - 1

            fit = None if last else functools.partial(vote, iteration=iteration + 1)
            _member_round(members, functools.partial(work, result=result, last=last), fit, workers)
            history.append(
                IterationRecord(
                    iteration=iteration,
                    n_agreed=result.n_agreed,
                    agreed_accuracy=agreed_acc,
                    overall_accuracy=overall_acc,
                    mean_loss=sum(m.loss for m in members) / K,
                )
            )
            if last:
                break

    final = Labelling(labels=result.consensus_labels.copy(), n_clusters=C)
    return final, history, [m.net for m in members]
