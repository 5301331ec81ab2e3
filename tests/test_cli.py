import csv
import itertools
import json
import math
import os

import numpy as np
import pytest

from spc.cli import (
    EXIT_CLAIM,
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_OK,
    _read_label_csv,
    coerce_section,
    json_text,
    main,
    read_config,
    BLOBS_DEFAULTS,
    THEORY_DEFAULTS,
)
from spc.data import write_idx_images, write_idx_labels
from spc.errors import ConfigError, DataError


SMALL_INI = """
[spc]
n_members = 2
latent_dim = 4
pretrain_epochs = 10
loop_epochs = 2
max_iterations = 3
hidden_widths = 16, 8

[blobs]
n_clusters = 3
points_per_cluster = 30
ambient_dim = 8
centroid_separation = 9.0
within_cluster_stddev = 0.7
"""

FAST_THEORY_INI = """
[theory]
n_samples = 20000
n_trials = 2000
"""


def write(path, text):
    path.write_text(text)
    return str(path)


def run_dir(tmp_path, name="out"):
    return str(tmp_path / name)


def no_stage_leftovers(tmp_path):
    return not [p for p in os.listdir(tmp_path) if p.startswith(".stage-")]


# ---- config parsing ----


def test_read_config_missing_file():
    with pytest.raises(ConfigError):
        read_config("/nonexistent/config.ini")


def test_read_config_none_is_empty():
    assert read_config(None) == {}


def test_read_config_unknown_section(tmp_path):
    path = write(tmp_path / "c.ini", "[typo]\nx = 1\n")
    with pytest.raises(ConfigError):
        read_config(path)


def test_coerce_section_unknown_key():
    with pytest.raises(ConfigError):
        coerce_section("blobs", {"dimension": "3"}, BLOBS_DEFAULTS)


def test_coerce_section_bad_int():
    with pytest.raises(ConfigError):
        coerce_section("blobs", {"n_clusters": "four"}, BLOBS_DEFAULTS)


def test_coerce_section_types():
    from spc.cli import _spc_defaults

    out = coerce_section(
        "spc",
        {
            "loop_learning_rate": "none",
            "hidden_widths": "32, 16",
            "concat_member": "yes",
            "learning_rate": "0.25",
            "n_members": "3",
        },
        _spc_defaults(),
    )
    assert out["loop_learning_rate"] is None
    assert out["hidden_widths"] == (32, 16)
    assert out["concat_member"] is True
    assert out["learning_rate"] == 0.25
    assert out["n_members"] == 3


def test_coerce_section_loop_rate_number():
    from spc.cli import _spc_defaults

    out = coerce_section("spc", {"loop_learning_rate": "0.02"}, _spc_defaults())
    assert out["loop_learning_rate"] == 0.02


def test_coerce_section_bad_bool():
    from spc.cli import _spc_defaults

    with pytest.raises(ConfigError):
        coerce_section("spc", {"concat_member": "maybe"}, _spc_defaults())


def test_json_text_formatting():
    text = json_text({"b": 1 / 3, "a": True, "c": np.float64(2.0) / 3.0, "n": np.int64(7)})
    assert text.endswith("\n")
    obj = json.loads(text)
    assert obj["b"] == 0.3333333333
    assert obj["c"] == 0.6666666667
    assert obj["a"] is True
    assert obj["n"] == 7
    assert list(obj) == sorted(obj)


# ---- label CSV parsing ----


def test_read_label_csv_single_column(tmp_path):
    path = write(tmp_path / "a.csv", "0\n1\n2\n1\n")
    assert np.array_equal(_read_label_csv(path), [0, 1, 2, 1])


def test_read_label_csv_indexed_with_header(tmp_path):
    path = write(tmp_path / "a.csv", "index,label\n2,1\n0,0\n1,2\n")
    assert np.array_equal(_read_label_csv(path), [0, 2, 1])


def test_read_label_csv_rejects_negative(tmp_path):
    path = write(tmp_path / "a.csv", "0\n-1\n")
    with pytest.raises(DataError):
        _read_label_csv(path)


def test_read_label_csv_rejects_empty(tmp_path):
    path = write(tmp_path / "a.csv", "label\n")
    with pytest.raises(DataError):
        _read_label_csv(path)


def test_read_label_csv_rejects_garbage(tmp_path):
    path = write(tmp_path / "a.csv", "0\nbanana\n")
    with pytest.raises(DataError):
        _read_label_csv(path)


# ---- run ----


def test_run_writes_complete_artifact_set(tmp_path):
    cfg = write(tmp_path / "c.ini", SMALL_INI)
    out = run_dir(tmp_path)
    assert main(["run", "--config", cfg, "--out", out, "--workers", "1"]) == EXIT_OK
    for rel in ("manifest.json", "history.csv", "labels.csv", "metrics.json"):
        assert os.path.isfile(os.path.join(out, rel))
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    for rel in manifest["artifacts"]["members"]:
        assert os.path.isfile(os.path.join(out, rel))
    assert manifest["config"]["n_members"] == 2
    assert len(manifest["seeds"]["member_init_seeds"]) == 2
    assert manifest["dataset"]["source"] == "blobs"
    assert manifest["dataset"]["n_points"] == 90
    labels = (tmp_path / "out" / "labels.csv").read_text().strip().splitlines()
    assert labels[0] == "index,label"
    assert len(labels) == 91
    history = (tmp_path / "out" / "history.csv").read_text().strip().splitlines()
    assert history[0] == "iteration,n_agreed,agreed_accuracy,overall_accuracy,mean_loss"
    assert 2 <= len(history) <= 4
    assert no_stage_leftovers(tmp_path)


def test_run_metrics_identical_across_reruns_and_workers(tmp_path):
    cfg = write(tmp_path / "c.ini", SMALL_INI)
    out1, out2 = run_dir(tmp_path, "r1"), run_dir(tmp_path, "r2")
    assert main(["run", "--config", cfg, "--out", out1, "--workers", "1"]) == EXIT_OK
    assert main(["run", "--config", cfg, "--out", out2, "--workers", "2"]) == EXIT_OK
    m1 = (tmp_path / "r1" / "metrics.json").read_bytes()
    m2 = (tmp_path / "r2" / "metrics.json").read_bytes()
    assert m1 == m2
    h1 = (tmp_path / "r1" / "history.csv").read_bytes()
    h2 = (tmp_path / "r2" / "history.csv").read_bytes()
    assert h1 == h2


def test_run_seed_flag_overrides_master_seed(tmp_path):
    cfg = write(tmp_path / "c.ini", SMALL_INI)
    out = run_dir(tmp_path)
    assert main(["run", "--config", cfg, "--out", out, "--seed", "17"]) == EXIT_OK
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["config"]["master_seed"] == 17
    assert manifest["seeds"]["master_seed"] == 17


def test_run_malformed_config_leaves_nothing(tmp_path):
    cfg = write(tmp_path / "c.ini", "[spc]\nn_memberz = 2\n")
    out = run_dir(tmp_path)
    assert main(["run", "--config", cfg, "--out", out]) == EXIT_CONFIG
    assert not os.path.exists(out)
    assert no_stage_leftovers(tmp_path)


def test_run_invalid_config_value_exits_1(tmp_path):
    cfg = write(tmp_path / "c.ini", "[spc]\nn_members = 0\n")
    assert main(["run", "--config", cfg, "--out", run_dir(tmp_path)]) == EXIT_CONFIG


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_run_workers_below_one_exits_1(tmp_path, workers):
    cfg = write(tmp_path / "c.ini", SMALL_INI)
    out = run_dir(tmp_path)
    assert main(["run", "--config", cfg, "--out", out, "--workers", workers]) == EXIT_CONFIG
    assert not os.path.exists(out)
    assert no_stage_leftovers(tmp_path)


@pytest.mark.parametrize(
    "extra_ini, flags, code",
    [
        ("", ["--seed", "-1"], EXIT_CONFIG),
        ("[spc]\nmaster_seed = -3\n", [], EXIT_CONFIG),
        ("[blobs]\nseed = -3\n", [], EXIT_DATA),
    ],
)
def test_run_negative_seed_exits_cleanly(tmp_path, capsys, extra_ini, flags, code):
    cfg = write(tmp_path / "c.ini", extra_ini)
    out = run_dir(tmp_path)
    assert main(["run", "--config", cfg, "--out", out] + flags) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "seed must be >= 0" in err[0]
    assert not os.path.exists(out)
    assert no_stage_leftovers(tmp_path)


def test_run_existing_out_dir_exits_1(tmp_path):
    cfg = write(tmp_path / "c.ini", SMALL_INI)
    out = tmp_path / "occupied"
    out.mkdir()
    assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG


def test_run_bad_blob_spec_exits_2(tmp_path):
    cfg = write(tmp_path / "c.ini", "[blobs]\ncentroid_separation = -1\n")
    out = run_dir(tmp_path)
    assert main(["run", "--config", cfg, "--out", out]) == EXIT_DATA
    assert not os.path.exists(out)


def test_run_idx_dataset_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    centers = np.array([40, 128, 216])
    labels = np.repeat(np.arange(3), 25)
    pixels = centers[labels, None, None] + rng.integers(-20, 20, size=(75, 4, 4))
    images = np.clip(pixels, 0, 255).astype(np.uint8)
    write_idx_images(tmp_path / "im.idx", images)
    write_idx_labels(tmp_path / "lb.idx", labels.astype(np.uint8))
    cfg = write(
        tmp_path / "c.ini",
        "[spc]\nn_members = 2\nlatent_dim = 3\npretrain_epochs = 10\n"
        "loop_epochs = 2\nmax_iterations = 2\nhidden_widths = 12, 6\n",
    )
    out = run_dir(tmp_path)
    code = main(
        [
            "run",
            "--config",
            cfg,
            "--dataset",
            "idx",
            "--images",
            str(tmp_path / "im.idx"),
            "--labels",
            str(tmp_path / "lb.idx"),
            "--out",
            out,
        ]
    )
    assert code == EXIT_OK
    metrics = json.loads((tmp_path / "out" / "metrics.json").read_text())
    assert "accuracy" in metrics
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["dataset"]["source"] == "idx"
    assert manifest["dataset"]["n_clusters"] == 3


def test_run_idx_requires_images_flag(tmp_path):
    assert main(["run", "--dataset", "idx", "--out", run_dir(tmp_path)]) == EXIT_CONFIG


def test_run_idx_unlabeled_needs_cluster_count(tmp_path):
    images = np.zeros((8, 2, 2), dtype=np.uint8)
    images[4:] = 200
    write_idx_images(tmp_path / "im.idx", images)
    out = run_dir(tmp_path)
    code = main(["run", "--dataset", "idx", "--images", str(tmp_path / "im.idx"), "--out", out])
    assert code == EXIT_DATA


# ---- eval ----


def exhaustive_accuracy(pred, truth):
    ids = range(max(max(pred), max(truth)) + 1)
    best = 0
    for perm in itertools.permutations(ids):
        best = max(best, sum(perm[p] == t for p, t in zip(pred, truth)))
    return best / len(pred)


def scalar_nmi(pred, truth):
    n = len(pred)
    ids_p, ids_t = sorted(set(pred)), sorted(set(truth))

    def entropy(ids, labels):
        h = 0.0
        for c in ids:
            p = sum(l == c for l in labels) / n
            if p > 0:
                h -= p * math.log(p)
        return h

    mutual = 0.0
    for a in ids_p:
        for b in ids_t:
            joint = sum(p == a and t == b for p, t in zip(pred, truth)) / n
            pa = sum(p == a for p in pred) / n
            pb = sum(t == b for t in truth) / n
            if joint > 0:
                mutual += joint * math.log(joint / (pa * pb))
    hp, ht = entropy(ids_p, pred), entropy(ids_t, truth)
    if hp + ht == 0.0:
        return 1.0
    return 2.0 * mutual / (hp + ht)


def scalar_rand(pred, truth):
    n = len(pred)
    same = 0
    total = 0
    for i in range(n):
        for j in range(i + 1, n):
            total += 1
            same += (pred[i] == pred[j]) == (truth[i] == truth[j])
    return same / total


def write_labels_csv(path, labels):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["index", "label"])
        for i, label in enumerate(labels):
            writer.writerow([i, label])
    return str(path)


def test_eval_identical_files(tmp_path, capsys):
    labels = [0, 0, 1, 1, 2, 2]
    a = write_labels_csv(tmp_path / "a.csv", labels)
    b = write_labels_csv(tmp_path / "b.csv", labels)
    assert main(["eval", a, b]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["accuracy"] == 1.0
    assert out["nmi"] == 1.0
    assert out["rand_index"] == 1.0
    assert out["n_points"] == 6


def test_eval_permuted_copy_scores_perfect(tmp_path, capsys):
    truth = [0, 0, 1, 1, 2, 2, 0, 1]
    swap = {0: 2, 1: 0, 2: 1}
    pred = [swap[t] for t in truth]
    a = write_labels_csv(tmp_path / "a.csv", pred)
    b = write_labels_csv(tmp_path / "b.csv", truth)
    assert main(["eval", a, b]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["accuracy"] == 1.0
    assert out["nmi"] == 1.0


def test_eval_matches_longhand_metrics_on_12_points(tmp_path, capsys):
    truth = [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2]
    pred = [0, 0, 0, 1, 1, 1, 1, 1, 2, 2, 0, 2]
    a = write_labels_csv(tmp_path / "a.csv", pred)
    b = write_labels_csv(tmp_path / "b.csv", truth)
    assert main(["eval", a, b]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["accuracy"] == pytest.approx(exhaustive_accuracy(pred, truth), abs=1e-9)
    assert out["accuracy"] == pytest.approx(10 / 12, abs=1e-9)
    assert out["nmi"] == pytest.approx(scalar_nmi(pred, truth), rel=1e-8)
    assert out["rand_index"] == pytest.approx(scalar_rand(pred, truth), abs=1e-9)
    assert out["cluster_sizes"] == {"0": 4, "1": 5, "2": 3}


def test_eval_length_mismatch_exits_2(tmp_path):
    a = write_labels_csv(tmp_path / "a.csv", [0, 1])
    b = write_labels_csv(tmp_path / "b.csv", [0, 1, 1])
    assert main(["eval", a, b]) == EXIT_DATA


def test_eval_missing_file_exits_2(tmp_path):
    a = write_labels_csv(tmp_path / "a.csv", [0, 1])
    assert main(["eval", a, str(tmp_path / "missing.csv")]) == EXIT_DATA


# ---- verify-theory ----


def test_verify_theory_passes_and_writes_report(tmp_path):
    cfg = write(tmp_path / "t.ini", FAST_THEORY_INI)
    out = run_dir(tmp_path)
    assert main(["verify-theory", "--config", cfg, "--out", out]) == EXIT_OK
    report = json.loads((tmp_path / "out" / "theory_report.json").read_text())
    assert report["all_passed"] is True
    assert set(report["lemma1"]) == {
        "two_point",
        "gauss_pair",
        "uniform_cube",
        "rademacher",
        "sphere_shell",
    }
    curve = (tmp_path / "out" / "entropy_curve.csv").read_text().strip().splitlines()
    assert curve[0] == "n_clusters,t,entropy"
    assert len(curve) == 1 + 19 * 100
    assert no_stage_leftovers(tmp_path)


def test_verify_theory_report_deterministic(tmp_path):
    cfg = write(tmp_path / "t.ini", FAST_THEORY_INI)
    assert main(["verify-theory", "--config", cfg, "--out", str(tmp_path / "a")]) == EXIT_OK
    assert main(["verify-theory", "--config", cfg, "--out", str(tmp_path / "b")]) == EXIT_OK
    ra = (tmp_path / "a" / "theory_report.json").read_bytes()
    rb = (tmp_path / "b" / "theory_report.json").read_bytes()
    assert ra == rb


def test_verify_theory_eta_zero_passes_as_not_applicable(tmp_path):
    cfg = write(tmp_path / "t.ini", FAST_THEORY_INI + "eta = 0\n")
    out = run_dir(tmp_path)
    assert main(["verify-theory", "--config", cfg, "--out", out]) == EXIT_OK
    report = json.loads((tmp_path / "out" / "theory_report.json").read_text())
    assert report["all_passed"] is True
    assert all(not entry["applicable"] for entry in report["lemma1"].values())


def test_verify_theory_degenerate_sampler_exits_2(tmp_path):
    cfg = write(tmp_path / "t.ini", FAST_THEORY_INI + "samplers = constant_point\n")
    out = run_dir(tmp_path)
    assert main(["verify-theory", "--config", cfg, "--out", out]) == EXIT_DATA
    assert not os.path.exists(out)
    assert no_stage_leftovers(tmp_path)


def test_verify_theory_unknown_sampler_exits_1(tmp_path):
    cfg = write(tmp_path / "t.ini", "[theory]\nsamplers = moebius\n")
    assert main(["verify-theory", "--config", cfg, "--out", run_dir(tmp_path)]) == EXIT_CONFIG


def test_verify_theory_tiny_sample_count_exits_1(tmp_path):
    cfg = write(tmp_path / "t.ini", "[theory]\nn_samples = 50\n")
    assert main(["verify-theory", "--config", cfg, "--out", run_dir(tmp_path)]) == EXIT_CONFIG


@pytest.mark.parametrize(
    "ini, flags", [("", ["--seed", "-1"]), ("[theory]\nseed = -3\n", [])]
)
def test_verify_theory_negative_seed_exits_1(tmp_path, capsys, ini, flags):
    cfg = write(tmp_path / "t.ini", ini)
    out = run_dir(tmp_path)
    assert main(["verify-theory", "--config", cfg, "--out", out] + flags) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:") and "seed" in err[0]
    assert not os.path.exists(out)
    assert no_stage_leftovers(tmp_path)


def test_verify_theory_existing_out_exits_1(tmp_path):
    out = tmp_path / "busy"
    out.mkdir()
    cfg = write(tmp_path / "t.ini", FAST_THEORY_INI)
    assert main(["verify-theory", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG


# ---- top-level parsing ----


def test_unknown_subcommand_exits_1():
    assert main(["paint"]) == EXIT_CONFIG


def test_no_subcommand_exits_1():
    assert main([]) == EXIT_CONFIG


def test_theory_defaults_match_suite_defaults():
    # the documented CLI defaults must mirror the suite's own signature
    import inspect

    from spc.theory import run_theory_suite

    sig = inspect.signature(run_theory_suite)
    for key in ("dim", "eta", "w_prime", "n_samples", "n_trials", "seed"):
        assert THEORY_DEFAULTS[key] == sig.parameters[key].default
