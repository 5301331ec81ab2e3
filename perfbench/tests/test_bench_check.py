import json
import os
import shutil

import numpy as np
import pytest

from perfbench.check import check_run, fingerprint_problems, fingerprints, read_labels
from spc.cli import main as spc_main
from spc.data import BlobSpec, make_blobs

BLOBS = dict(n_clusters=3, points_per_cluster=20, ambient_dim=6, centroid_separation=12.0,
             within_cluster_stddev=1.0, seed=2)


@pytest.fixture(scope="module")
def good_run(tmp_path_factory):
    """A small real `spc run` and the truth its inputs were generated with."""
    base = tmp_path_factory.mktemp("run")
    config = base / "config.ini"
    config.write_text(
        "[spc]\nn_members = 2\npretrain_epochs = 2\nmax_iterations = 2\nloop_epochs = 1\n"
        "hidden_widths = 8 4\nlatent_dim = 3\n[blobs]\n"
        + "".join(f"{k} = {v}\n" for k, v in BLOBS.items())
    )
    out = base / "out"
    assert spc_main(["run", "--config", str(config), "--out", str(out), "--workers", "1"]) == 0
    return str(out), make_blobs(BlobSpec(**BLOBS)).labels


@pytest.fixture
def run_copy(good_run, tmp_path):
    out, truth = good_run
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    return str(copy), truth


def test_good_run_passes(good_run):
    out, truth = good_run
    assert check_run(out, truth, 3) == []


def _rewrite_labels(out, labels):
    with open(os.path.join(out, "labels.csv"), "w") as f:
        f.write("index,label\n" + "".join(f"{i},{v}\n" for i, v in enumerate(labels)))


def test_label_out_of_range_is_rejected(run_copy):
    out, truth = run_copy
    labels = read_labels(os.path.join(out, "labels.csv"))
    labels[5] = 3
    _rewrite_labels(out, labels)
    assert any("outside 0..2" in p for p in check_run(out, truth, 3))


def test_truncated_labels_are_rejected(run_copy):
    out, truth = run_copy
    _rewrite_labels(out, read_labels(os.path.join(out, "labels.csv"))[:-1])
    assert any("expected 60" in p for p in check_run(out, truth, 3))


def test_garbled_labels_are_rejected(run_copy):
    out, truth = run_copy
    with open(os.path.join(out, "labels.csv"), "a") as f:
        f.write("oops\n")
    assert any("malformed" in p for p in check_run(out, truth, 3))


def test_labels_disagreeing_with_reported_accuracy_are_rejected(run_copy):
    out, truth = run_copy
    labels = read_labels(os.path.join(out, "labels.csv"))
    labels[: truth.shape[0] // 2] = 0
    _rewrite_labels(out, labels)
    assert any("accuracy" in p for p in check_run(out, truth, 3))


def test_missing_manifest_artifact_is_rejected(run_copy):
    out, truth = run_copy
    with open(os.path.join(out, "manifest.json")) as f:
        member = json.load(f)["artifacts"]["members"][0]
    os.remove(os.path.join(out, member))
    assert any(member in p for p in check_run(out, truth, 3))


def test_fingerprint_mismatch_is_reported(run_copy, good_run):
    out, _ = run_copy
    reference = fingerprints(good_run[0])
    assert fingerprint_problems(reference, fingerprints(out)) == []
    with open(os.path.join(out, "history.csv"), "a") as f:
        f.write("\n")
    assert fingerprint_problems(reference, fingerprints(out)) == [
        "differs from the --workers 1 run in history.csv"
    ]
    assert fingerprint_problems(None, fingerprints(out))
