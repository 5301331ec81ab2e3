"""End-to-end acceptance checks, one test per shipped claim.

Each test prints a single pass/fail line naming the claim it guards, so a
verbose run reads as a checklist.  The expensive blob campaign is shared by
the two dynamics criteria through a module-scoped fixture.
"""

import itertools
import math
import os
import time

import numpy as np
import pytest

from spc.clustering import Labelling, gmm_fit, gmm_predict
from spc.consensus import accuracy, hungarian, nmi, rand_index
from spc.data import BlobSpec, Dataset, load_idx, make_blobs, normalize
from spc.network import AutoencoderMember
from spc.pipeline import SpcConfig, _member_streams, build_members, pretrain, spc_train
from spc.theory import (
    LinearModel,
    TheoryDataset,
    lemma3_check,
    run_theory_suite,
)


def report(number: int, name: str, passed: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number:2d} {name}: {'PASS' if passed else 'FAIL'}{suffix}")
    assert passed, f"criterion {number} {name}{suffix}"


@pytest.fixture(scope="module")
def theory_report():
    return run_theory_suite(seed=0)


@pytest.fixture(scope="module")
def blob_campaign():
    """Five seeded ensemble runs plus matched single-member baselines."""
    t_start = time.perf_counter()
    runs = []
    for seed in range(5):
        spec = BlobSpec(
            n_clusters=4,
            points_per_cluster=200,
            ambient_dim=50,
            centroid_separation=8.0,
            within_cluster_stddev=1.0,
            seed=seed,
        )
        ds = normalize(make_blobs(spec))
        truth = Labelling(labels=ds.labels, n_clusters=4)
        ensemble_cfg = SpcConfig(n_members=5, master_seed=seed)
        baseline_cfg = SpcConfig(n_members=1, master_seed=seed)
        final, history, _ = spc_train(ds, ensemble_cfg)
        solo, _, _ = spc_train(ds, baseline_cfg)
        runs.append(
            {
                "seed": seed,
                "n_points": ds.n_points,
                "accuracy": accuracy(final, truth),
                "baseline_accuracy": accuracy(solo, truth),
                "history": history,
            }
        )
    return {"runs": runs, "seconds": time.perf_counter() - t_start}


# ---- assignment and gradients ----


def test_criterion_01_hungarian_matches_exhaustive_minimum():
    rng = np.random.default_rng(0)
    t_start = time.perf_counter()
    worst = 0.0
    for size in range(2, 6):
        for _ in range(100):
            cost = rng.uniform(-1.0, 1.0, size=(size, size))
            perm = hungarian(cost)
            got = cost[np.arange(size), perm].sum()
            best = min(
                cost[np.arange(size), list(p)].sum()
                for p in itertools.permutations(range(size))
            )
            worst = max(worst, abs(got - best))
    elapsed = time.perf_counter() - t_start
    report(
        1,
        "hungarian optimal on 400 random cost matrices",
        worst <= 1e-12 and elapsed < 5.0,
        f"max deviation {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_gradients_match_finite_differences():
    rng = np.random.default_rng(1)
    t_start = time.perf_counter()
    worst_rel = 0.0
    for trial in range(50):
        input_dim = int(rng.integers(3, 6))
        latent_dim = int(rng.integers(2, 4))
        n_clusters = int(rng.integers(2, 4))
        hidden = (int(rng.integers(4, 7)),)
        noisy = bool(trial % 2)
        member = AutoencoderMember(
            input_dim,
            latent_dim,
            n_clusters,
            seed=int(rng.integers(2**31)),
            noise_stddev=0.05 if noisy else 0.0,
            hidden_widths=hidden,
        )
        batch = rng.uniform(-1, 1, size=(3, input_dim))
        labels = rng.integers(0, n_clusters, size=3)
        flags = rng.integers(0, 2, size=3)
        noise_seed = int(rng.integers(2**31))

        def loss():
            return member.forward_loss(batch, labels, flags, noise_seed=noise_seed)

        loss()
        stepped = dict(member.backward())
        # small enough that the symmetric difference never straddles a
        # leaky-relu or l1 kink for this frozen trial set (the closest
        # pre-activation sits 3.7e-7 from zero), while losses of order one
        # keep the subtraction far above double-precision roundoff
        step = 1e-7
        for mlp in (member.encoder, member.decoder, member.classifier):
            grads = stepped.get(mlp)
            if grads is None:  # no agreed point: the classifier's gradient is exactly zero
                grads = [
                    (np.zeros_like(w), np.zeros_like(b)) for w, b in zip(mlp.weights, mlp.biases)
                ]
            for layer in range(mlp.n_layers):
                for arr, grad in (
                    (mlp.weights[layer], grads[layer][0]),
                    (mlp.biases[layer], grads[layer][1]),
                ):
                    flat, gflat = arr.reshape(-1), grad.reshape(-1)
                    for k in range(flat.size):
                        orig = flat[k]
                        flat[k] = orig + step
                        up = loss()
                        flat[k] = orig - step
                        down = loss()
                        flat[k] = orig
                        fd = (up - down) / (2 * step)
                        err = abs(gflat[k] - fd)
                        scale = max(abs(gflat[k]), abs(fd), 1e-4)
                        worst_rel = max(worst_rel, err / scale)
    elapsed = time.perf_counter() - t_start
    report(
        2,
        "analytic gradients within 1e-4 of central differences",
        worst_rel <= 1e-4 and elapsed < 30.0,
        f"worst relative error {worst_rel:.2e}, {elapsed:.1f}s",
    )


# ---- theory ----


def test_criterion_03_variance_identity_exact():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        C = int(rng.choice([2, 3, 4]))
        per = int(rng.integers(3, 8))
        ambient = int(rng.integers(2, 5))
        encoded_dim = int(rng.integers(1, 4))
        ds = TheoryDataset(
            points=rng.standard_normal((C * per, ambient)),
            labels=np.repeat(np.arange(C), per),
            n_clusters=C,
        )
        encoder = rng.standard_normal((encoded_dim, ambient))
        d, combo, lam1, lam2 = lemma3_check(ds, encoder)
        worst = max(worst, abs(d - combo))
        if C == 2:
            assert lam1 == pytest.approx(0.25) and lam2 == pytest.approx(0.75)
    report(
        3,
        "variance decomposition identity to 1e-9 on 100 datasets",
        worst <= 1e-9,
        f"max |d - combination| {worst:.2e}",
    )


def test_criterion_04_update_gap_beats_stated_bound(theory_report):
    entries = theory_report.lemma1
    ok = len(entries) == 5 and all(e["passed"] for e in entries.values())
    worst = min(e["gap"] - e["bound"] for e in entries.values())
    report(
        4,
        "same/different update gap clears its lower bound on 5 samplers",
        ok,
        f"min gap minus bound {worst:.3e}",
    )


def test_criterion_05_third_point_distances_equal(theory_report):
    entries = theory_report.lemma2
    ok = len(entries) == 5 and all(e["passed"] for e in entries.values())
    worst = max(abs(e["delta"]) / max(e["delta_stderr"], 1e-300) for e in entries.values())
    report(
        5,
        "third-point distance equality within 4 standard errors",
        ok,
        f"worst |delta|/stderr {worst:.2f}",
    )


def test_criterion_06_true_labels_separate_more(theory_report):
    entry = theory_report.theorem
    sigma = entry["diff"] / max(entry["diff_stderr"], 1e-300)
    report(
        6,
        "pairwise-correct updates beat incorrect ones at 3 sigma",
        entry["passed"] and entry["n_trials"] == 10_000,
        f"margin {sigma:.1f} sigma",
    )


def test_criterion_07_entropy_strictly_decreasing(theory_report):
    entry = theory_report.entropy
    report(
        7,
        "consensus entropy decreases on every grid, C = 2..20",
        entry["passed"],
        f"worst finite-difference slope {entry['max_slope']:.3e}",
    )


# ---- end-to-end dynamics ----


def test_criterion_08_blob_ensemble_beats_threshold_and_baseline(blob_campaign):
    runs = blob_campaign["runs"]
    good_seeds = sum(
        r["accuracy"] >= 0.95 and r["accuracy"] >= r["baseline_accuracy"] for r in runs
    )
    ups = downs = 0
    for r in runs:
        agreed = [rec.n_agreed for rec in r["history"]]
        for a, b in zip(agreed, agreed[1:]):
            ups += b >= a
            downs += b < a
    nondecreasing = ups / max(ups + downs, 1)
    elapsed = blob_campaign["seconds"]
    accs = ", ".join(f"{r['accuracy']:.3f}" for r in runs)
    report(
        8,
        "blob ensemble accurate, above baseline, agreement grows",
        good_seeds >= 4 and nondecreasing >= 0.80 and elapsed < 600.0,
        f"accs [{accs}], {good_seeds}/5 seeds, "
        f"nondecreasing {nondecreasing:.2f}, {elapsed:.0f}s",
    )


def test_criterion_09_agreed_points_more_accurate(blob_campaign):
    favourable = total = 0
    for r in blob_campaign["runs"]:
        for rec in r["history"]:
            if 0 < rec.n_agreed < r["n_points"]:
                total += 1
                favourable += rec.agreed_accuracy >= rec.overall_accuracy
    ratio = favourable / max(total, 1)
    report(
        9,
        "agreed subset at least as accurate as the full set",
        total > 0 and ratio >= 0.90,
        f"{favourable}/{total} iterations",
    )


def test_criterion_10_mnist_smoke():
    images = os.environ.get("SPC_MNIST_IMAGES")
    labels = os.environ.get("SPC_MNIST_LABELS")
    if not images or not labels:
        pytest.skip("set SPC_MNIST_IMAGES and SPC_MNIST_LABELS to run the real-data smoke test")
    t_start = time.perf_counter()
    full = load_idx(images, labels)
    subset = normalize(
        Dataset(
            points=full.points[:10_000],
            labels=full.labels[:10_000],
            n_clusters=full.n_clusters,
        )
    )
    truth = Labelling(labels=subset.labels, n_clusters=subset.n_clusters)
    config = SpcConfig(
        n_members=3,
        latent_dim=10,
        pretrain_epochs=30,
        loop_epochs=5,
        max_iterations=8,
        clusterer="gmm",
        batch_size=256,
        master_seed=0,
    )
    final, _, _ = spc_train(subset, config)
    spc_acc = accuracy(final, truth)

    base_cfg = SpcConfig(
        n_members=1,
        latent_dim=10,
        pretrain_epochs=30,
        clusterer="gmm",
        batch_size=256,
        master_seed=0,
    )
    member = build_members(subset, base_cfg)[0]
    pretrain(member, subset, base_cfg, _member_streams(base_cfg, 0)[1])
    latents = member.encode(subset.points)
    base_labels = gmm_predict(gmm_fit(latents, subset.n_clusters, seed=0), latents)
    base_acc = accuracy(base_labels, truth)
    elapsed = time.perf_counter() - t_start
    report(
        10,
        "MNIST subset beats 0.70 and the lone-autoencoder baseline",
        spc_acc >= 0.70 and spc_acc > base_acc and elapsed < 1800.0,
        f"spc {spc_acc:.3f} vs baseline {base_acc:.3f}, {elapsed:.0f}s",
    )


# ---- metric oracles ----


def _scalar_accuracy(pred, truth):
    ids = range(max(max(pred), max(truth)) + 1)
    best = 0
    for perm in itertools.permutations(ids):
        best = max(best, sum(perm[p] == t for p, t in zip(pred, truth)))
    return best / len(pred)


def _scalar_nmi(pred, truth):
    n = len(pred)

    def entropy(labels):
        h = 0.0
        for c in set(labels):
            p = sum(l == c for l in labels) / n
            h -= p * math.log(p)
        return h

    mutual = 0.0
    for a in set(pred):
        for b in set(truth):
            joint = sum(p == a and t == b for p, t in zip(pred, truth)) / n
            if joint > 0:
                pa = sum(p == a for p in pred) / n
                pb = sum(t == b for t in truth) / n
                mutual += joint * math.log(joint / (pa * pb))
    hp, ht = entropy(pred), entropy(truth)
    if hp + ht == 0.0:
        return 1.0
    return 2.0 * mutual / (hp + ht)


def _scalar_rand(pred, truth):
    n = len(pred)
    agreeing = total = 0
    for i in range(n):
        for j in range(i + 1, n):
            total += 1
            agreeing += (pred[i] == pred[j]) == (truth[i] == truth[j])
    return agreeing / total


def test_criterion_11_metrics_match_scalar_oracles():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(5, 13))
        C = int(rng.integers(2, 5))
        pred = rng.integers(0, C, size=n)
        truth = rng.integers(0, C, size=n)
        a = Labelling(labels=pred, n_clusters=C)
        b = Labelling(labels=truth, n_clusters=C)
        worst = max(
            worst,
            abs(accuracy(a, b) - _scalar_accuracy(pred.tolist(), truth.tolist())),
            abs(nmi(a, b) - _scalar_nmi(pred.tolist(), truth.tolist())),
            abs(rand_index(a, b) - _scalar_rand(pred.tolist(), truth.tolist())),
        )
    report(
        11,
        "accuracy, NMI and Rand match brute-force scalar oracles",
        worst <= 1e-10,
        f"max deviation {worst:.2e}",
    )
