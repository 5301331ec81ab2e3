import configparser
import os

import pytest

from perfbench.workloads import WORKLOADS, generate, read_truth


def _files(directory):
    return {
        name: open(os.path.join(directory, name), "rb").read()
        for name in sorted(os.listdir(directory))
    }


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(tmp_path, name):
    generate(WORKLOADS[name], 7, str(tmp_path / "a"))
    generate(WORKLOADS[name], 7, str(tmp_path / "b"))
    first, second = _files(tmp_path / "a"), _files(tmp_path / "b")
    assert first == second
    generate(WORKLOADS[name], 8, str(tmp_path / "c"))
    assert _files(tmp_path / "c") != first


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_feeds_blobs_and_master_seed(tmp_path, name):
    workload = WORKLOADS[name]
    inputs = generate(workload, 11, str(tmp_path))
    ini = configparser.ConfigParser()
    ini.read(inputs.config)
    assert ini["spc"]["master_seed"] == "11"
    if workload.dataset == "blobs":
        assert ini["blobs"]["seed"] == "11"
    else:
        assert "--images" in inputs.spc_args and "--labels" in inputs.spc_args
    truth = read_truth(inputs.truth)
    assert truth.shape == (workload.n_points,)
    assert set(truth.tolist()) == set(range(workload.n_clusters))


def test_idx_inputs_round_trip_through_the_reader(tmp_path):
    from spc.data import load_idx

    workload = WORKLOADS["mnist-shaped"]
    inputs = generate(workload, 3, str(tmp_path))
    images = inputs.spc_args[inputs.spc_args.index("--images") + 1]
    labels = inputs.spc_args[inputs.spc_args.index("--labels") + 1]
    dataset = load_idx(images, labels)
    assert dataset.points.shape == (workload.n_points, workload.blobs["ambient_dim"])
    assert (dataset.labels == read_truth(inputs.truth)).all()
    assert dataset.points.min() == 0 and dataset.points.max() == 255
