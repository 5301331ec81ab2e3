"""Runs pinned by digest: the canonical `spc run` (blobs, K=5, seed 0, every
default), the default `spc verify-theory`, a 784-wide run and a GMM run with
the concatenated voter at C=24.

The determinism contract says a fixed config and seed give the same bytes.
These tests check that the trajectories themselves have not moved: the full
sha256 of history.csv, labels.csv, metrics.json and every member checkpoint
must equal the pinned values, and so must those of entropy_curve.csv and
theory_report.json.  A change that moves the outputs on purpose updates the
pins in the same commit.

Those bytes follow the BLAS's GEMM rounding, which may differ across CPUs
and BLAS builds.  So each test first hashes the products of every GEMM shape
its run computes, on fixed inputs, and skips, naming that fingerprint, when
it differs from the one recorded with the pins.  CI's runners will likely
skip them; there the comparisons across worker counts remain the
determinism check.
"""

import hashlib

import numpy as np
import pytest

from spc.cli import EXIT_OK, main
from spc.pipeline import _openblas_threads

BLAS_FINGERPRINT = "86c7b353ad8f607974451ad18566f3ddcd531be3dd9ed2532113bdf267e9184e"

GOLDEN = {
    "history.csv": "31e2e2bf0187cf272f62781a61121513ecba1ec0ef584248e853d6982ae42a58",
    "labels.csv": "1f7985837a8a14db4bd017915bacba3a3dbe419ea26afa0ea0912ef7a5c5e6cd",
    "metrics.json": "999dd495a7eecb97d09b41c7e6d61b0c0d4df23acdf036a86d45b0ca8125ed89",
    "members/member_00.npz": "2aec6650f37d0b294fb54a89e06c5b3daf04cb8610319b733b5c7a2972afc7ec",
    "members/member_01.npz": "bc6ad27e0a8d716d203de8583f0b8383c0beb46f010ed447750ec7147be0c9ab",
    "members/member_02.npz": "932522e1c6c483d544da0fee5045339b4575d2ff0702f48081098cfcbdb2bdbd",
    "members/member_03.npz": "525ad51fe80783b480a771c90453542d75c6ac1720c82d6261c50c5768f1feeb",
    "members/member_04.npz": "72dd3eedcf5a13bc15e123f6257572b702a946dfdf7ba1a388cdf81d319fdbd3",
}

THEORY_GOLDEN = {
    "entropy_curve.csv": "ca716a900c38054d130063231690bfc9613f0e9473a1dd0bcc5fa50aeeab0e2f",
    "theory_report.json": "5e67f6ab573a3ad20f090c59125a01965a6a9e1eb5c10a2ddffd799a530fdda6",
}

# CI's 784-wide run: 400 points in 10 clusters, so about two thirds agree and
# both loss branches run
WIDE_CONFIG = """\
[blobs]
ambient_dim = 784
centroid_separation = 100.0
n_clusters = 10
points_per_cluster = 40

[spc]
pretrain_epochs = 1
max_iterations = 2
"""

WIDE_GOLDEN = {
    "history.csv": "acf5b26291ba2bf25e2bc0a802ca78176103ed259600ade0046eb2d1e521ab41",
    "labels.csv": "1bcabfb8de114c38979590788b3f38ca0ba798f55356d9b3b405f29629bf82e4",
    "metrics.json": "ab643fa985523fdd3bbe36af30aa6863aaa644c94e0979f42120613fd03085c0",
    "members/member_00.npz": "a42f0f4aedcf4998ac0b8d786da8a4395cd26d783f52a2c1cc59c579c7eb4b70",
    "members/member_01.npz": "cdd1b449c43bb4f97378f3a8d8bb1e87a130dff837c2eac6060b17d7b7f7638d",
    "members/member_02.npz": "f02e64ff27377b68ac1ee15492f6339006d93f552ea09f404ad2bef272dcd6ee",
    "members/member_03.npz": "9f838dc57011944a8ee3460bd0be5952836d0e18572d56c032ceedf9e1ef98c6",
    "members/member_04.npz": "26c5926b654f1ed3637b4fed4bbcffea63aa9132fd221582fa70c896c9218c4e",
}

# the benchmark's many-clusters-gmm workload at seed 1: the GMM clusterer, the
# concatenated voter and C=24 matchings
GMM_CONFIG = """\
[blobs]
ambient_dim = 50
centroid_separation = 60.0
n_clusters = 24
points_per_cluster = 20
seed = 1
within_cluster_stddev = 1.0

[spc]
clusterer = gmm
concat_member = true
loop_epochs = 1
master_seed = 1
max_iterations = 2
plateau_patience = 3
pretrain_epochs = 6
"""

GMM_GOLDEN = {
    "history.csv": "c5eee35deabb492b2d6320ee4fdeb9eb764044f65ea0ef772d8746c1f06c50c6",
    "labels.csv": "31d7334251af699b726f596ffa2b3f2cfc95de81fd6d5b16aae95ed21126cec6",
    "metrics.json": "4f3d308af546dd37b1f35b56bb9cd18d98fcd94ab4ba3bb943530af6b549b33f",
    "members/member_00.npz": "20e38496c7cd84e9d3d2845eb97bf2a59c88009419b680a601d0cc6217513798",
    "members/member_01.npz": "83fbe4a7a80471f8373cc7c04a3904902bb8d52d0b421971d817e42105d7fc2b",
    "members/member_02.npz": "a386d27519688493ba01f67b31d4dcf90ff7432923c6d4026c4a9c9d2cd5596a",
    "members/member_03.npz": "8fbf04ee776c2f84f1007124f9251374161fee57fea360c8ae3f4a2debf3508b",
    "members/member_04.npz": "789bcc57ca9bd6c2959c4a448ec2e6132264d48cc058262565d7196756d066a7",
}

# the fingerprint of the products below at one BLAS thread, the count every
# run computes at; the 784-wide and GMM pins are gated on it
PINNED_RUNS_FINGERPRINT = "ef2c22981d3429b85987f272cf2edea65a4a7e9a402123d79fb834bbe755b874"

# (stacks, row counts) of a run's GEMMs.  The canonical run's stacks: encoder
# 50-256-128-10, decoder 10-128-256-50 and classifier 10-25-4; a batch of 128
# rows and the last batch of 800 points (32 rows), which are also the row
# blocks of encode and the loss evaluation.  Each shape's last row count, all
# the points, is computed by no run now that those passes go by blocks; it
# stays so that the recorded fingerprints keep matching
CANONICAL_SHAPES = (([50, 256, 128, 10], [10, 128, 256, 50], [10, 25, 4]), (128, 32, 800))
# the 784-wide run: 784-d stacks, 10 classes, 400 points (a last batch of 16)
WIDE_SHAPES = (([784, 256, 128, 10], [10, 128, 256, 784], [10, 25, 10]), (128, 16, 400))
# the GMM run: 24 classes, 480 points (a last batch of 96), and the fits'
# products of 480 latents, a member's 10 wide or the voter's 50, with 24 means
GMM_SHAPES = (
    ([50, 256, 128, 10], [10, 128, 256, 50], [10, 25, 24], [10, 24], [50, 24]),
    (128, 96, 480),
)


def blas_fingerprint(get_threads, set_threads, shapes, thread_counts) -> str:
    """sha256 of x @ W.T, gz.T @ x and gz @ W for every layer shape and row count.

    shapes is a list of (stacks, row counts); a thread count None is BLAS's
    default.  A run computes at one BLAS thread only.  BLAS_FINGERPRINT was
    recorded at one thread and at the default count, so it is still taken at
    both.  k-means needs no probe: _nearest makes its labels independent of
    BLAS rounding.
    """
    rng = np.random.default_rng(0)
    operands = []
    for stacks, row_counts in shapes:
        for widths in stacks:
            for fan_in, fan_out in zip(widths[:-1], widths[1:]):
                for rows in row_counts:
                    x = rng.standard_normal((rows, fan_in))
                    w = rng.uniform(-1, 1, (fan_out, fan_in))
                    gz = rng.standard_normal((rows, fan_out))
                    operands.append((x, w, gz))
    digest = hashlib.sha256()
    default = get_threads()
    try:
        for threads in thread_counts:
            set_threads(threads or default)
            for x, w, gz in operands:
                for product in (x @ w.T, gz.T @ x, gz @ w):
                    digest.update(product.tobytes())
    finally:
        set_threads(default)
    return digest.hexdigest()


def sha256_of(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def skip_unless_recorded_blas(shapes, thread_counts, recorded) -> None:
    blas = _openblas_threads()
    if blas is None:
        pytest.skip("numpy's bundled OpenBLAS not found, so there is no BLAS fingerprint")
    fingerprint = blas_fingerprint(*blas, shapes, thread_counts)
    if fingerprint != recorded:
        pytest.skip(f"BLAS fingerprint {fingerprint} differs from the recorded one")


def skip_unless_canonical_blas() -> None:
    skip_unless_recorded_blas([CANONICAL_SHAPES], (1, None), BLAS_FINGERPRINT)


def test_canonical_run_matches_the_golden_digests(tmp_path):
    skip_unless_canonical_blas()
    out = tmp_path / "canonical"
    assert main(["run", "--out", str(out)]) == EXIT_OK
    digests = {name: sha256_of(out / name) for name in GOLDEN}
    assert digests == GOLDEN


@pytest.mark.parametrize(
    "config, golden",
    [(WIDE_CONFIG, WIDE_GOLDEN), (GMM_CONFIG, GMM_GOLDEN)],
    ids=["784-wide", "many-clusters-gmm"],
)
def test_pinned_run_matches_the_golden_digests(tmp_path, config, golden):
    skip_unless_recorded_blas(
        [CANONICAL_SHAPES, WIDE_SHAPES, GMM_SHAPES], (1,), PINNED_RUNS_FINGERPRINT
    )
    path = tmp_path / "config.ini"
    path.write_text(config)
    out = tmp_path / "run"
    assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_OK
    digests = {name: sha256_of(out / name) for name in golden}
    assert digests == golden


def test_default_verify_theory_matches_the_golden_digests(tmp_path):
    skip_unless_canonical_blas()
    out = tmp_path / "theory"
    assert main(["verify-theory", "--out", str(out)]) == EXIT_OK
    digests = {name: sha256_of(out / name) for name in THEORY_GOLDEN}
    assert digests == THEORY_GOLDEN
