"""The canonical `spc run` (blobs, K=5, seed 0, every default) and the default
`spc verify-theory`, pinned by digest.

The determinism contract says a fixed config and seed give the same bytes.
These tests check that the canonical trajectory itself has not moved: the
full sha256 of history.csv, labels.csv, metrics.json and the five member
checkpoints must equal the pinned values, and so must those of
entropy_curve.csv and theory_report.json.  A change that moves the outputs
on purpose updates the pins in the same commit.

Those bytes follow the BLAS's GEMM rounding, which may differ across CPUs
and BLAS builds.  So the test first hashes the products of every GEMM shape
the canonical run computes, on fixed inputs, and skips, naming that
fingerprint, when it differs from the one recorded with the pins.  CI's
runners will likely skip it; there the benchmark's workers=1 comparison
remains the determinism check.
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

# the canonical run's stacks: encoder 50-256-128-10, decoder 10-128-256-50
# and classifier 10-25-4; a batch of 128 rows, the last batch of 800 points
# (32 rows), and all 800 rows in encode and the loss evaluation
STACKS = ([50, 256, 128, 10], [10, 128, 256, 50], [10, 25, 4])
ROWS = (128, 32, 800)


def blas_fingerprint(get_threads, set_threads) -> str:
    """sha256 of x @ W.T, gz.T @ x and gz @ W for every layer shape and row count.

    A run now computes at one BLAS thread only.  The products are still
    taken at the default count too, so that BLAS_FINGERPRINT, recorded with
    both, keeps matching.  k-means needs no probe: _nearest makes its labels
    independent of BLAS rounding.
    """
    rng = np.random.default_rng(0)
    operands = []
    for widths in STACKS:
        for fan_in, fan_out in zip(widths[:-1], widths[1:]):
            for rows in ROWS:
                x = rng.standard_normal((rows, fan_in))
                w = rng.uniform(-1, 1, (fan_out, fan_in))
                gz = rng.standard_normal((rows, fan_out))
                operands.append((x, w, gz))
    digest = hashlib.sha256()
    default = get_threads()
    try:
        for threads in (1, default):
            set_threads(threads)
            for x, w, gz in operands:
                for product in (x @ w.T, gz.T @ x, gz @ w):
                    digest.update(product.tobytes())
    finally:
        set_threads(default)
    return digest.hexdigest()


def sha256_of(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def skip_unless_recorded_blas() -> None:
    blas = _openblas_threads()
    if blas is None:
        pytest.skip("numpy's bundled OpenBLAS not found, so there is no BLAS fingerprint")
    fingerprint = blas_fingerprint(*blas)
    if fingerprint != BLAS_FINGERPRINT:
        pytest.skip(f"BLAS fingerprint {fingerprint} differs from the recorded one")


def test_canonical_run_matches_the_golden_digests(tmp_path):
    skip_unless_recorded_blas()
    out = tmp_path / "canonical"
    assert main(["run", "--out", str(out)]) == EXIT_OK
    digests = {name: sha256_of(out / name) for name in GOLDEN}
    assert digests == GOLDEN


def test_default_verify_theory_matches_the_golden_digests(tmp_path):
    skip_unless_recorded_blas()
    out = tmp_path / "theory"
    assert main(["verify-theory", "--out", str(out)]) == EXIT_OK
    digests = {name: sha256_of(out / name) for name in THEORY_GOLDEN}
    assert digests == THEORY_GOLDEN
