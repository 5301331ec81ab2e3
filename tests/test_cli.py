import configparser
import csv
import ctypes
import itertools
import json
import math
import os
import platform
import re
import shlex
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spc.cli import (
    EXIT_CLAIM,
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_NUMERIC,
    EXIT_OK,
    DEFAULTS,
    _read_label_csv,
    build_parser,
    coerce_section,
    json_text,
    main,
    read_config,
)
import spc.cli as cli
import spc.pipeline as pipeline
from spc.data import write_idx_images, write_idx_labels
from spc.network import ROW_BLOCK
from spc.errors import ConfigError, DataError, NumericError


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


def test_read_config_none_is_empty(tmp_path):
    assert read_config(None) == read_config(write(tmp_path / "c.ini", "")) == DEFAULTS


def test_read_config_unknown_section(tmp_path):
    path = write(tmp_path / "c.ini", "[typo]\nx = 1\n")
    with pytest.raises(ConfigError):
        read_config(path)


def test_read_config_takes_percent_literally(tmp_path):
    # the name reaches the clusterer rule as written, not interpolated
    path = write(tmp_path / "c.ini", "[spc]\nclusterer = a%b\n")
    with pytest.raises(ConfigError, match=re.escape("got 'a%b'")):
        read_config(path)


CONFIG_LINES = st.one_of(
    st.sampled_from(
        [
            "[spc]",
            "[blobs]",
            "[idx]",
            "[theory]",
            "[DEFAULT]",
            "[typo]",
            "[spc",
            "a = %(b)s",
            "seed = 5%",
            "n_clusters = -3",
            "seed = -1",
            "  x",
            "=",
            "[]",
        ]
    ),
    st.text(max_size=30),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.one_of(
        st.binary(max_size=200),
        st.lists(CONFIG_LINES, max_size=8).map(lambda lines: "\n".join(lines).encode()),
    )
)
def test_read_config_on_arbitrary_bytes_raises_only_config_or_data_error(tmp_path_factory, blob):
    path = tmp_path_factory.mktemp("ini") / "c.ini"
    path.write_bytes(blob)
    try:
        sections = read_config(str(path))
    except (ConfigError, DataError):
        return
    assert set(sections) == set(DEFAULTS)


def test_coerce_section_unknown_key():
    with pytest.raises(ConfigError):
        coerce_section("blobs", {"dimension": "3"}, DEFAULTS["blobs"])


def test_coerce_section_bad_int():
    with pytest.raises(ConfigError):
        coerce_section("blobs", {"n_clusters": "four"}, DEFAULTS["blobs"])


def test_coerce_section_types():
    out = coerce_section(
        "spc",
        {
            "hidden_widths": "32, 16",
            "concat_member": "yes",
            "learning_rate": "0.25",
            "n_members": "3",
            "clusterer": " gmm ",
        },
        DEFAULTS["spc"],
    )
    assert out["hidden_widths"] == (32, 16)
    assert out["concat_member"] is True
    assert out["learning_rate"] == 0.25
    assert out["n_members"] == 3
    assert out["clusterer"] == "gmm"


def test_coerce_section_integers_stop_at_int64():
    top = 2**63 - 1
    assert coerce_section("blobs", {"seed": str(top)}, DEFAULTS["blobs"])["seed"] == top
    for raw in ({"seed": str(top + 1)}, {"seed": str(-top - 2)}):
        with pytest.raises(ConfigError, match=r"bad value for seed in \[blobs\]"):
            coerce_section("blobs", raw, DEFAULTS["blobs"])
    with pytest.raises(ConfigError, match=r"bad value for hidden_widths in \[spc\]"):
        coerce_section("spc", {"hidden_widths": f"8, {top + 1}"}, DEFAULTS["spc"])


def test_coerce_section_loop_rate_number():
    out = coerce_section("spc", {"loop_learning_rate": "0.02"}, DEFAULTS["spc"])
    assert out["loop_learning_rate"] == 0.02


def test_coerce_section_bad_bool():
    with pytest.raises(ConfigError):
        coerce_section("spc", {"concat_member": "maybe"}, DEFAULTS["spc"])


def test_readme_config_block_parses_to_the_defaults(tmp_path):
    readme = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
    with open(readme, encoding="utf-8") as f:
        (block,) = re.findall(r"```ini\n(.*?)```", f.read(), flags=re.S)
    path = write(tmp_path / "readme.ini", block)
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(path, encoding="utf-8")
    # the block lists every key of every section, each at its default
    assert {s: set(parser[s]) for s in parser.sections()} == {
        s: set(d) for s, d in DEFAULTS.items()
    }
    assert read_config(path) == DEFAULTS


def test_readme_cli_lines_parse():
    # every `spc` line of the README's sh blocks, continuations joined and
    # trailing comments dropped, is a command line the parser accepts
    readme = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
    with open(readme, encoding="utf-8") as f:
        blocks = re.findall(r"```sh\n(.*?)```", f.read(), flags=re.S)
    lines = [
        line
        for block in blocks
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("spc ")
    ]
    assert any(line.startswith("spc verify-theory") for line in lines)
    for line in lines:
        build_parser().parse_args(shlex.split(line, comments=True)[1:])


def test_json_text_formatting():
    text = json_text({"b": 1 / 3, "a": True, "c": np.float64(2.0) / 3.0, "n": np.int64(7)}, "x")
    assert text.endswith("\n")
    obj = json.loads(text)
    assert obj["b"] == 0.3333333333
    assert obj["c"] == 0.6666666667
    assert obj["a"] is True
    assert obj["n"] == 7
    assert list(obj) == sorted(obj)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_json_text_refuses_non_finite_numbers(value):
    with pytest.raises(NumericError, match="report.json would hold a non-finite number"):
        json_text({"a": [1.0, {"b": value}]}, "report.json")


# ---- label CSV parsing ----


def test_read_label_csv_single_column(tmp_path):
    path = write(tmp_path / "a.csv", "0\n1\n2\n1\n")
    assert np.array_equal(_read_label_csv(path), [0, 1, 2, 1])


def test_read_label_csv_indexed_with_header(tmp_path):
    path = write(tmp_path / "a.csv", "index,label\n2,1\n0,0\n1,2\n")
    assert np.array_equal(_read_label_csv(path), [0, 2, 1])


def test_read_label_csv_reads_a_signed_first_row_as_labels(tmp_path):
    # a first row is a header only when a cell fails the int() that parses labels
    path = write(tmp_path / "a.csv", "+1\n0\n1\n")
    assert np.array_equal(_read_label_csv(path), [1, 0, 1])
    path = write(tmp_path / "b.csv", "label\n+1\n0\n")
    assert np.array_equal(_read_label_csv(path), [1, 0])


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


@pytest.mark.parametrize("text", ["0\n99999999999999999999\n", "0,0\n1,99999999999999999999\n"])
def test_read_label_csv_rejects_label_past_int64(tmp_path, text):
    path = write(tmp_path / "a.csv", text)
    with pytest.raises(DataError, match="malformed label row"):
        _read_label_csv(path)


@pytest.mark.parametrize(
    "rows",
    [
        [(0, 1), (1, 2), (1, 3), (3, 0)],  # duplicate index, 2 missing
        [(1, 1), (2, 2), (3, 3), (4, 0)],  # 1-based
    ],
)
def test_read_label_csv_rejects_misaligned_indices(tmp_path, rows):
    path = write(tmp_path / "a.csv", "".join(f"{i},{label}\n" for i, label in rows))
    with pytest.raises(DataError, match="0..3"):
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
    l1 = (tmp_path / "r1" / "labels.csv").read_bytes()
    l2 = (tmp_path / "r2" / "labels.csv").read_bytes()
    assert l1 == l2
    names = sorted(os.listdir(tmp_path / "r1" / "members"))
    assert names == ["member_00.npz", "member_01.npz"]
    assert names == sorted(os.listdir(tmp_path / "r2" / "members"))
    for name in names:
        c1 = (tmp_path / "r1" / "members" / name).read_bytes()
        c2 = (tmp_path / "r2" / "members" / name).read_bytes()
        assert c1 == c2, name


# CI's 784-wide run at 410 points: a member's passes over every point end on
# a 26-row block, and so does each training epoch
TAIL_BLOCK_INI = """
[blobs]
ambient_dim = 784
centroid_separation = 100.0
n_clusters = 10
points_per_cluster = 41

[spc]
pretrain_epochs = 1
max_iterations = 2
"""


def test_run_ending_on_a_partial_block_writes_the_same_bytes_at_one_and_two_workers(tmp_path):
    assert 410 % ROW_BLOCK == 26
    cfg = write(tmp_path / "c.ini", TAIL_BLOCK_INI)
    for workers in ("1", "2"):
        assert main(["run", "--config", cfg, "--out", run_dir(tmp_path, f"w{workers}"), "--workers", workers]) == EXIT_OK
    rels = ["history.csv", "labels.csv", "metrics.json"] + [f"members/member_{j:02d}.npz" for j in range(5)]
    for rel in rels:
        assert (tmp_path / "w1" / rel).read_bytes() == (tmp_path / "w2" / rel).read_bytes(), rel
    assert len((tmp_path / "w1" / "labels.csv").read_text().splitlines()) == 411


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt's parameters are glibc's")
def test_glibc_accepts_the_allocator_thresholds():
    mallopt = cli._mallopt()
    assert mallopt(cli.M_MMAP_THRESHOLD, cli.MMAP_THRESHOLD_MAX) == 1
    assert mallopt(cli.M_TRIM_THRESHOLD, 2 * cli.MMAP_THRESHOLD_MAX) == 1


class _NoMallopt:
    """A C library without mallopt."""


@pytest.mark.parametrize("libc", ["unloadable", "without-mallopt"])
def test_run_without_mallopt(tmp_path, monkeypatch, libc):
    real = ctypes.CDLL

    def cdll(name, *args, **kwargs):
        if name is not None:
            return real(name, *args, **kwargs)
        if libc == "unloadable":
            raise OSError("no C library")
        return _NoMallopt()

    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert cli._mallopt() is None
    cfg = write(tmp_path / "c.ini", SMALL_INI)
    assert main(["run", "--config", cfg, "--out", run_dir(tmp_path), "--workers", "1"]) == EXIT_OK


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


@pytest.mark.parametrize(
    "command, ini, message",
    [
        ("run", "[theory]\nfoo = 2\n", "unknown config section [theory]"),
        ("run", "[idx]\nbogus = 1\n", "unknown key 'bogus' in [idx]"),
        ("run", "[spc]\nloop_learning_rate = none\n", "bad value for loop_learning_rate"),
        ("run", "[spc]\nloop_learning_rate =\n", "bad value for loop_learning_rate"),
        ("run", "[spc]\nlatent_dim = 10000000000000000000\n", "bad value for latent_dim"),
        ("run", "[spc]\nrecon_weight = 1.0\n", "unknown key 'recon_weight' in [spc]"),
    ],
)
def test_every_command_checks_every_section(tmp_path, capsys, command, ini, message):
    cfg = write(tmp_path / "c.ini", ini)
    out = run_dir(tmp_path)
    assert main([command, "--config", cfg, "--out", out]) == EXIT_CONFIG
    assert one_line_error(capsys, f"config error: {message}")
    assert not os.path.exists(out)
    assert no_stage_leftovers(tmp_path)


@pytest.mark.parametrize(
    "command, ini, code, message",
    [
        # each value alone is refused, and [spc] is checked before [idx]
        ("run", "[spc]\nn_members = 0\n[idx]\nn_clusters = -3\n", EXIT_CONFIG, "config error: n_members"),
    ],
)
def test_every_command_range_checks_every_section(tmp_path, capsys, command, ini, code, message):
    cfg = write(tmp_path / "c.ini", ini)
    out = run_dir(tmp_path)
    assert main([command, "--config", cfg, "--out", out]) == code
    assert one_line_error(capsys, message)
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


@pytest.mark.parametrize("command", ["run", "verify-theory"])
def test_seed_flag_past_int64_exits_1(tmp_path, capsys, command):
    # the config file's integer rule: 2^63 - 1 is the largest seed
    out = run_dir(tmp_path)
    assert main([command, "--out", out, "--seed", "99999999999999999999"]) == EXIT_CONFIG
    assert one_line_error(capsys, "config error: argument --seed: invalid int64 value")
    assert not os.path.exists(out)
    assert no_stage_leftovers(tmp_path)


def one_line_error(capsys, prefix):
    err = capsys.readouterr().err.splitlines()
    return len(err) == 1 and err[0].startswith(prefix)


def test_run_percent_in_config_value_exits_1(tmp_path, capsys):
    cfg = write(tmp_path / "c.ini", "[spc]\nmaster_seed = 5%\n")
    out = run_dir(tmp_path)
    assert main(["run", "--config", cfg, "--out", out]) == EXIT_CONFIG
    assert one_line_error(capsys, "config error: bad value for master_seed")
    assert not os.path.exists(out)


def test_run_non_utf8_config_exits_1(tmp_path, capsys):
    cfg = tmp_path / "c.ini"
    cfg.write_bytes(b"[spc]\nn_members = \xff\n")
    out = run_dir(tmp_path)
    assert main(["run", "--config", str(cfg), "--out", out]) == EXIT_CONFIG
    assert one_line_error(capsys, "config error: cannot parse config")
    assert not os.path.exists(out)


def test_run_exits_3_when_every_voter_fails(tmp_path, capsys, monkeypatch):
    def failing(latents, n_clusters, seed, kind):
        raise NumericError("injected clustering failure")

    monkeypatch.setattr(pipeline, "_cluster", failing)
    cfg = write(tmp_path / "c.ini", SMALL_INI.replace("[spc]\n", "[spc]\nconcat_member = true\n"))
    out = run_dir(tmp_path)
    assert main(["run", "--config", cfg, "--out", out]) == EXIT_NUMERIC
    assert capsys.readouterr().err.splitlines()[-1].startswith(
        "numeric error: clustering failed for every ensemble member"
    )
    assert not os.path.exists(out)
    assert no_stage_leftovers(tmp_path)


@pytest.mark.parametrize("stack", ["encoder", "decoder"])
def test_run_exits_3_when_a_member_diverges(tmp_path, capsys, monkeypatch, stack):
    build = pipeline.build_members

    def poisoned(dataset, config):
        members = build(dataset, config)
        getattr(members[1], stack).weights[0][0, 0] = np.nan
        return members

    monkeypatch.setattr(pipeline, "build_members", poisoned)
    cfg = write(tmp_path / "c.ini", SMALL_INI.replace("pretrain_epochs = 10", "pretrain_epochs = 0"))
    out = run_dir(tmp_path)
    assert main(["run", "--config", cfg, "--out", out]) == EXIT_NUMERIC
    assert one_line_error(capsys, "numeric error: non-finite")
    assert not os.path.exists(out)
    assert no_stage_leftovers(tmp_path)


@pytest.mark.parametrize("workers", ["1", "2", "3"])
def test_run_names_the_lowest_diverged_member_at_any_worker_count(tmp_path, capsys, monkeypatch, workers):
    # members 1 and 3 both diverge in the first round; the round ends before
    # its errors are raised, so member 1's is the one reported
    build = pipeline.build_members

    def poisoned(dataset, config):
        members = build(dataset, config)
        for j in (1, 3):
            members[j].encoder.weights[0][0, 0] = np.nan
        return members

    monkeypatch.setattr(pipeline, "build_members", poisoned)
    ini = SMALL_INI.replace("n_members = 2", "n_members = 4").replace("pretrain_epochs = 10", "pretrain_epochs = 0")
    cfg = write(tmp_path / "c.ini", ini)
    out = run_dir(tmp_path)
    assert main(["run", "--config", cfg, "--out", out, "--workers", workers]) == EXIT_NUMERIC
    err = capsys.readouterr().err.splitlines()
    assert err == ["numeric error: non-finite encoder activations (member 1)"]
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "command, ini",
    [
        ("run", "[spc]\nlatent_dim = 1000000000000000\n"),
        ("run", "[blobs]\npoints_per_cluster = 4611686018427387904\n"),
        ("run", "[blobs]\npoints_per_cluster = 1152921504606846976\n"),
        ("run", "[spc]\nlatent_dim = 4611686018427387904\n"),
        ("run", "[spc]\nhidden_widths = 4611686018427387904\n"),
    ],
)
def test_out_of_memory_exits_3(tmp_path, capsys, command, ini):
    # the size passes every range rule, then the first array it sizes cannot
    # be allocated: the allocation fails at once and touches no memory
    cfg = write(tmp_path / "c.ini", ini)
    out = run_dir(tmp_path)
    assert main([command, "--config", cfg, "--out", out]) == EXIT_NUMERIC
    assert one_line_error(capsys, "numeric error: out of memory: ")
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


# pytest's warning capture hides numpy's RuntimeWarnings from capsys, so any
# warning is made an error here
@pytest.mark.filterwarnings("error")
def test_run_point_range_past_float64_exits_2(tmp_path, capsys):
    # every point is finite, but the widest minus the narrowest is not
    cfg = write(tmp_path / "c.ini", "[blobs]\nwithin_cluster_stddev = 3e307\n")
    out = run_dir(tmp_path)
    assert main(["run", "--config", cfg, "--out", out]) == EXIT_DATA
    assert one_line_error(capsys, "data error: point range ")
    assert not os.path.exists(out)
    assert no_stage_leftovers(tmp_path)


def three_class_idx(tmp_path):
    """--images/--labels arguments for 30 labelled 2x2 images in 3 classes."""
    labels = np.repeat(np.arange(3, dtype=np.uint8), 10)
    write_idx_images(tmp_path / "im.idx", np.repeat(labels * 80, 4).reshape(30, 2, 2))
    write_idx_labels(tmp_path / "lb.idx", labels)
    return ["--images", str(tmp_path / "im.idx"), "--labels", str(tmp_path / "lb.idx")]


@pytest.mark.parametrize("section, n_clusters", [("blobs", "1"), ("idx", "1"), ("idx", "-3")])
def test_run_bad_cluster_count_exits_2(tmp_path, capsys, section, n_clusters):
    cfg = write(tmp_path / "c.ini", f"[{section}]\nn_clusters = {n_clusters}\n")
    out = run_dir(tmp_path)
    argv = ["run", "--config", cfg, "--out", out]
    if section == "idx":
        argv += ["--dataset", "idx"] + three_class_idx(tmp_path)
    assert main(argv) == EXIT_DATA
    assert one_line_error(capsys, "data error: n_clusters must be >= 2")
    assert not os.path.exists(out)
    assert no_stage_leftovers(tmp_path)


@pytest.mark.parametrize("flag", ["--images", "--labels"])
def test_run_idx_file_without_idx_dataset_exits_1(tmp_path, capsys, flag):
    files = dict(zip(["--images", "--labels"], three_class_idx(tmp_path)[1::2]))
    out = run_dir(tmp_path)
    assert main(["run", flag, files[flag], "--out", out]) == EXIT_CONFIG
    assert one_line_error(capsys, "config error: --images and --labels need --dataset idx")
    assert not os.path.exists(out)
    assert no_stage_leftovers(tmp_path)


def test_run_failure_after_staging_leaves_nothing(tmp_path, capsys, monkeypatch):
    def failing(path, member):
        assert os.path.basename(os.path.dirname(os.path.dirname(path))).startswith(".stage-")
        raise DataError("injected checkpoint failure")

    monkeypatch.setattr(cli, "save_member", failing)
    cfg = write(tmp_path / "c.ini", SMALL_INI)
    out = run_dir(tmp_path)
    assert main(["run", "--config", cfg, "--out", out]) == EXIT_DATA
    assert one_line_error(capsys, "data error: injected checkpoint failure")
    assert not os.path.exists(out)
    assert no_stage_leftovers(tmp_path)


def test_run_failure_in_training_leaves_no_parent_directory(tmp_path, capsys, monkeypatch):
    def failing(*args, **kwargs):
        raise NumericError("injected training failure")

    monkeypatch.setattr(cli, "spc_train", failing)
    out = str(tmp_path / "a" / "b")
    assert main(["run", "--out", out]) == EXIT_NUMERIC
    assert one_line_error(capsys, "numeric error: injected training failure")
    assert not os.path.exists(tmp_path / "a")


def test_run_failure_keeps_a_made_parent_that_is_no_longer_empty(tmp_path, monkeypatch):
    def failing(*args, **kwargs):
        (tmp_path / "a" / "keep.txt").write_text("written meanwhile")
        raise NumericError("injected training failure")

    monkeypatch.setattr(cli, "spc_train", failing)
    assert main(["run", "--out", str(tmp_path / "a" / "b" / "c")]) == EXIT_NUMERIC
    assert os.listdir(tmp_path / "a") == ["keep.txt"]


def forbid_work(monkeypatch):
    """Make training and the theory suite fail the test if either starts."""

    def work(*args, **kwargs):
        raise AssertionError("the command ran before the output path was checked")

    monkeypatch.setattr(cli, "spc_train", work)
    monkeypatch.setattr(cli, "run_theory_suite", work)


# a parent that is a file, one below such a file, and a name past NAME_MAX
UNUSABLE_OUT = [
    pytest.param("afile/x", "File exists", id="parent-is-a-file"),
    pytest.param("afile/y/z", "Not a directory", id="under-a-file"),
    pytest.param("made/" + "n" * 300, "File name too long", id="name-too-long"),
]


@pytest.mark.parametrize("command", ["run", "verify-theory"])
@pytest.mark.parametrize("rel, reason", UNUSABLE_OUT)
def test_unusable_out_path_exits_1_before_any_work(tmp_path, capsys, monkeypatch, command, rel, reason):
    forbid_work(monkeypatch)
    (tmp_path / "afile").write_text("")
    out = str(tmp_path / rel)
    assert main([command, "--out", out]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: cannot create output path {out}: ")
    assert reason in err[0]
    assert os.listdir(tmp_path) == ["afile"]


@pytest.mark.parametrize("command", ["run", "verify-theory"])
def test_dangling_symlink_out_exits_1_before_any_work(tmp_path, capsys, monkeypatch, command):
    forbid_work(monkeypatch)
    out = tmp_path / "out"
    out.symlink_to(tmp_path / "nowhere")
    assert main([command, "--out", str(out)]) == EXIT_CONFIG
    assert one_line_error(capsys, "config error: output path already exists")
    assert os.listdir(tmp_path) == ["out"]


@pytest.mark.parametrize("command", ["run", "verify-theory"])
def test_out_path_taken_during_the_command_exits_1_and_leaves_no_stage(tmp_path, capsys, monkeypatch, command):
    from spc.theory import TheoryReport

    out = tmp_path / "out"

    def take_out():
        out.mkdir()
        (out / "other.txt").write_text("written meanwhile")

    train = cli.spc_train

    def racing_train(*args, **kwargs):
        take_out()
        return train(*args, **kwargs)

    def racing_suite(**kwargs):
        take_out()
        return TheoryReport(entropy={"passed": True})

    monkeypatch.setattr(cli, "spc_train", racing_train)
    monkeypatch.setattr(cli, "run_theory_suite", racing_suite)
    cfg = write(tmp_path / "c.ini", SMALL_INI)
    argv = [command, "--out", str(out)] + (["--config", cfg] if command == "run" else [])
    assert main(argv) == EXIT_CONFIG
    assert one_line_error(capsys, f"config error: cannot create output path {out}: ")
    assert os.listdir(out) == ["other.txt"]
    assert no_stage_leftovers(tmp_path)


@pytest.mark.parametrize("separation", ["1.7e308", "inf"])
def test_run_separation_past_float64_exits_2(tmp_path, capsys, separation):
    cfg = write(tmp_path / "c.ini", f"[blobs]\ncentroid_separation = {separation}\n")
    out = run_dir(tmp_path)
    assert main(["run", "--config", cfg, "--out", out]) == EXIT_DATA
    assert one_line_error(capsys, "data error: centroid_separation ")
    assert not os.path.exists(out)
    assert no_stage_leftovers(tmp_path)


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


def test_run_without_ground_truth_writes_no_scores(tmp_path):
    images = three_class_idx(tmp_path)[:2]
    cfg = write(tmp_path / "c.ini", SMALL_INI.split("[blobs]")[0] + "[idx]\nn_clusters = 3\n")
    out = run_dir(tmp_path)
    assert main(["run", "--config", cfg, "--dataset", "idx", *images, "--out", out]) == EXIT_OK
    with open(os.path.join(out, "history.csv"), newline="") as f:
        rows = list(csv.DictReader(f))
    assert rows and all(r["agreed_accuracy"] == r["overall_accuracy"] == "" for r in rows)
    assert all(float(r["mean_loss"]) > 0 for r in rows)
    metrics = json.loads((tmp_path / "out" / "metrics.json").read_text())
    assert not {"accuracy", "nmi", "rand_index"} & set(metrics)
    assert sum(metrics["cluster_sizes"].values()) == 30


def test_run_idx_requires_images_flag(tmp_path):
    assert main(["run", "--dataset", "idx", "--out", run_dir(tmp_path)]) == EXIT_CONFIG


@pytest.mark.parametrize("flag", ["--images", "--labels"])
def test_run_idx_missing_file_exits_2(tmp_path, capsys, flag):
    images = np.zeros((8, 2, 2), dtype=np.uint8)
    write_idx_images(tmp_path / "im.idx", images)
    paths = {"--images": str(tmp_path / "im.idx"), "--labels": None}
    paths[flag] = str(tmp_path / "nonexistent.idx")
    argv = ["run", "--dataset", "idx", "--out", run_dir(tmp_path)]
    argv += [part for k, v in paths.items() if v for part in (k, v)]
    assert main(argv) == EXIT_DATA
    assert one_line_error(capsys, "data error: cannot read")
    assert not os.path.exists(run_dir(tmp_path))


@pytest.mark.parametrize(
    "with_labels, ini",
    [(True, ""), (True, "[idx]\nn_clusters = 2\n"), (False, "[idx]\nn_clusters = 2\n")],
)
def test_run_idx_with_no_images_exits_2(tmp_path, capsys, with_labels, ini):
    images = str(tmp_path / "im.idx")
    write_idx_images(images, np.zeros((0, 28, 28), dtype=np.uint8))
    argv = ["run", "--config", write(tmp_path / "c.ini", ini), "--dataset", "idx"]
    argv += ["--images", images, "--out", run_dir(tmp_path)]
    if with_labels:
        write_idx_labels(tmp_path / "lb.idx", np.zeros(0, dtype=np.uint8))
        argv += ["--labels", str(tmp_path / "lb.idx")]
    assert main(argv) == EXIT_DATA
    assert one_line_error(capsys, f"data error: {images}: no images")
    assert not os.path.exists(run_dir(tmp_path))
    assert no_stage_leftovers(tmp_path)


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


def test_eval_large_ids_score_like_their_compacted_copy(tmp_path, capsys):
    # the union of the ids, sorted, is 0 1 3 7 90000 200000: ranks 0..5
    pred = [0, 200000, 200000, 7, 7, 0]
    truth = [3, 1, 1, 1, 90000, 3]
    compact_pred = [0, 5, 5, 3, 3, 0]
    compact_truth = [2, 1, 1, 1, 4, 2]
    scores = []
    for name, p, t in (("gaps", pred, truth), ("compact", compact_pred, compact_truth)):
        a = write_labels_csv(tmp_path / f"{name}-p.csv", p)
        b = write_labels_csv(tmp_path / f"{name}-t.csv", t)
        start = time.perf_counter()
        assert main(["eval", a, b]) == EXIT_OK
        assert time.perf_counter() - start < 2.0
        scores.append(json.loads(capsys.readouterr().out))
    gaps, compact = scores
    for key in ("accuracy", "nmi", "rand_index", "n_points"):
        assert gaps[key] == compact[key]
    assert gaps["cluster_sizes"] == {"0": 2, "1": 0, "3": 0, "7": 2, "90000": 0, "200000": 2}
    assert compact["cluster_sizes"] == {"0": 2, "1": 0, "2": 0, "3": 2, "4": 0, "5": 2}


def test_eval_length_mismatch_exits_2(tmp_path):
    a = write_labels_csv(tmp_path / "a.csv", [0, 1])
    b = write_labels_csv(tmp_path / "b.csv", [0, 1, 1])
    assert main(["eval", a, b]) == EXIT_DATA


def test_eval_non_utf8_label_file_exits_2(tmp_path, capsys):
    a = write_labels_csv(tmp_path / "a.csv", [0, 1])
    b = tmp_path / "b.csv"
    b.write_bytes(b"index,label\n0,0\n1,\xe91\n")
    assert main(["eval", a, str(b)]) == EXIT_DATA
    assert one_line_error(capsys, "data error: cannot read label file")


def test_eval_misaligned_indices_exits_2(tmp_path, capsys):
    a = write(tmp_path / "a.csv", "0,1\n0,2\n5,3\n7,0\n")
    b = write_labels_csv(tmp_path / "b.csv", [1, 2, 3, 0])
    assert main(["eval", a, b]) == EXIT_DATA
    out, err = capsys.readouterr()
    assert out == "" and err == f"data error: indices in {a} are not 0..3, each once\n"


def test_eval_of_one_point_exits_2(tmp_path, capsys):
    # the only path from outside to the rand index's N >= 2 rule
    a = write_labels_csv(tmp_path / "a.csv", [0])
    b = write_labels_csv(tmp_path / "b.csv", [0])
    assert main(["eval", a, b]) == EXIT_DATA
    assert one_line_error(capsys, "data error: rand index needs at least 2 points")


def test_eval_missing_file_exits_2(tmp_path):
    a = write_labels_csv(tmp_path / "a.csv", [0, 1])
    assert main(["eval", a, str(tmp_path / "missing.csv")]) == EXIT_DATA


# ---- verify-theory ----


def test_verify_theory_passes_and_writes_report(tmp_path):
    out = run_dir(tmp_path)
    assert main(["verify-theory", "--out", out]) == EXIT_OK
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
    assert main(["verify-theory", "--out", str(tmp_path / "a")]) == EXIT_OK
    assert main(["verify-theory", "--out", str(tmp_path / "b")]) == EXIT_OK
    ra = (tmp_path / "a" / "theory_report.json").read_bytes()
    rb = (tmp_path / "b" / "theory_report.json").read_bytes()
    assert ra == rb


def test_verify_theory_negative_seed_exits_1(tmp_path, capsys):
    out = run_dir(tmp_path)
    assert main(["verify-theory", "--out", out, "--seed", "-1"]) == EXIT_CONFIG
    assert one_line_error(capsys, "config error: seed must be >= 0")
    assert not os.path.exists(out)
    assert no_stage_leftovers(tmp_path)


def test_verify_theory_negative_seed_leaves_no_parent_directory(tmp_path, capsys):
    out = str(tmp_path / "a" / "b")
    assert main(["verify-theory", "--out", out, "--seed", "-1"]) == EXIT_CONFIG
    assert one_line_error(capsys, "config error: seed must be >= 0")
    assert not os.path.exists(tmp_path / "a")


def test_verify_theory_failure_after_staging_leaves_nothing(tmp_path, capsys, monkeypatch):
    write_csv = cli._write_csv

    def failing(path, header, rows):
        if os.path.basename(path) == "entropy_curve.csv":
            assert os.path.basename(os.path.dirname(path)).startswith(".stage-")
            raise DataError("injected curve failure")
        write_csv(path, header, rows)

    monkeypatch.setattr(cli, "_write_csv", failing)
    out = run_dir(tmp_path)
    assert main(["verify-theory", "--out", out]) == EXIT_DATA
    assert one_line_error(capsys, "data error: injected curve failure")
    assert not os.path.exists(out)
    assert no_stage_leftovers(tmp_path)


def test_verify_theory_failed_claim_exits_4_with_both_artifacts(tmp_path, capsys, monkeypatch):
    from spc.theory import TheoryReport

    def failing_suite(**kwargs):
        return TheoryReport(entropy={"passed": True}, lemma3={"passed": False})

    monkeypatch.setattr(cli, "run_theory_suite", failing_suite)
    out = run_dir(tmp_path)
    assert main(["verify-theory", "--out", out]) == EXIT_CLAIM
    lines = capsys.readouterr().out.splitlines()
    assert "entropy: pass" in lines and "lemma3: FAIL" in lines
    assert lines[-1].startswith("theory claim failure, see ")
    report = json.loads((tmp_path / "out" / "theory_report.json").read_text())
    assert report["all_passed"] is False
    assert os.path.isfile(os.path.join(out, "entropy_curve.csv"))


def test_verify_theory_existing_out_exits_1(tmp_path, capsys, monkeypatch):
    def suite(**kwargs):
        raise AssertionError("the suite ran before the output path was checked")

    monkeypatch.setattr(cli, "run_theory_suite", suite)
    out = tmp_path / "busy"
    out.mkdir()
    assert main(["verify-theory", "--out", str(out)]) == EXIT_CONFIG
    assert one_line_error(capsys, "config error: output path already exists")


# ---- top-level parsing ----


def test_unknown_subcommand_exits_1():
    assert main(["paint"]) == EXIT_CONFIG


def test_no_subcommand_exits_1():
    assert main([]) == EXIT_CONFIG
