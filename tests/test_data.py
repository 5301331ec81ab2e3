import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spc.data import (
    BlobSpec,
    Dataset,
    load_idx,
    make_blobs,
    normalize,
    read_idx_images,
    read_idx_labels,
    write_idx_images,
    write_idx_labels,
)
from spc.errors import ConfigError, DataError


def test_dataset_validation():
    pts = np.zeros((4, 2))
    with pytest.raises(DataError):
        Dataset(points=pts, labels=None, n_clusters=1)
    with pytest.raises(DataError):
        Dataset(points=np.zeros((0, 2)), labels=None, n_clusters=2)
    with pytest.raises(DataError):
        Dataset(points=pts, labels=np.array([0, 1, 2, 3]), n_clusters=3)
    with pytest.raises(DataError):
        Dataset(points=pts, labels=np.array([0, 0, 0, 0]), n_clusters=2)
    ds = Dataset(points=pts, labels=np.array([0, 1, 0, 1]), n_clusters=2)
    assert ds.n_points == 4 and ds.dim == 2


# hand-built IDX bytes: 2 images of 2x3 pixels, valued 0..11
IMAGE_BYTES = struct.pack(">IIII", 0x00000803, 2, 2, 3) + bytes(range(12))
LABEL_BYTES = struct.pack(">II", 0x00000801, 2) + bytes([7, 3])


def test_idx_image_parse(tmp_path):
    p = tmp_path / "img.idx"
    p.write_bytes(IMAGE_BYTES)
    imgs = read_idx_images(p)
    assert imgs.shape == (2, 2, 3)
    assert imgs.dtype == np.uint8
    assert imgs[0, 0, 0] == 0 and imgs[1, 1, 2] == 11


def test_idx_label_parse(tmp_path):
    p = tmp_path / "lab.idx"
    p.write_bytes(LABEL_BYTES)
    labs = read_idx_labels(p)
    assert labs.tolist() == [7, 3]


def test_idx_bad_magic(tmp_path):
    p = tmp_path / "img.idx"
    # the label files are shorter than an image header: the magic is checked first
    for blob in (
        struct.pack(">IIII", 0x00000802, 2, 2, 3) + bytes(12),
        LABEL_BYTES,
        struct.pack(">II", 0x00000801, 0),
    ):
        p.write_bytes(blob)
        with pytest.raises(DataError, match="bad magic 0x0000080[12] at byte offset 0"):
            read_idx_images(p)


def test_idx_truncated(tmp_path):
    p = tmp_path / "img.idx"
    p.write_bytes(IMAGE_BYTES[:-3])
    with pytest.raises(DataError, match="byte offset"):
        read_idx_images(p)
    q = tmp_path / "short.idx"
    q.write_bytes(IMAGE_BYTES[:10])
    with pytest.raises(DataError):
        read_idx_images(q)


@pytest.mark.parametrize(
    "writer, array",
    [
        (write_idx_images, np.zeros((2, 3), dtype=np.uint8)),
        (write_idx_images, np.zeros((1, 2, 3, 4), dtype=np.uint8)),
        (write_idx_labels, np.zeros((2, 1), dtype=np.uint8)),
        (write_idx_labels, np.uint8(7)),
    ],
)
def test_idx_writers_reject_wrong_rank(tmp_path, writer, array):
    p = tmp_path / "out.idx"
    with pytest.raises(DataError, match="rank"):
        writer(p, array)
    assert not p.exists()


def test_idx_missing_file_is_data_error(tmp_path):
    for reader in (read_idx_images, read_idx_labels):
        with pytest.raises(DataError, match="cannot read"):
            reader(tmp_path / "nonexistent.idx")
        with pytest.raises(DataError, match="cannot read"):
            reader(tmp_path)  # a directory


# garbage, plus well-formed headers over payloads that may or may not fit
IDX_BYTES = st.one_of(
    st.binary(max_size=64),
    st.builds(
        lambda n, r, c, payload: struct.pack(">IIII", 0x00000803, n, r, c) + payload,
        st.integers(0, 4),
        st.integers(0, 4),
        st.integers(0, 4),
        st.binary(max_size=80),
    ),
    st.builds(
        lambda n, payload: struct.pack(">II", 0x00000801, n) + payload,
        st.integers(0, 40),
        st.binary(max_size=50),
    ),
    st.builds(
        lambda magic, header, payload: struct.pack(">I", magic) + header + payload,
        st.sampled_from([0x00000801, 0x00000803]),
        st.binary(min_size=12, max_size=12),
        st.binary(max_size=8),
    ),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(IDX_BYTES)
def test_idx_readers_on_arbitrary_bytes_raise_only_data_errors(tmp_path_factory, blob):
    path = tmp_path_factory.mktemp("idx") / "f.idx"
    path.write_bytes(blob)
    for reader in (read_idx_images, read_idx_labels):
        try:
            out = reader(path)
        except (DataError, ConfigError):
            continue
        assert out.dtype == np.uint8


def test_idx_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    imgs = rng.integers(0, 256, size=(5, 4, 4), dtype=np.uint8)
    labs = rng.integers(0, 10, size=5, dtype=np.uint8)
    ip, lp = tmp_path / "i.idx", tmp_path / "l.idx"
    write_idx_images(ip, imgs)
    write_idx_labels(lp, labs)
    assert np.array_equal(read_idx_images(ip), imgs)
    assert np.array_equal(read_idx_labels(lp), labs)
    # byte-for-byte: re-writing the parsed arrays reproduces the files
    ip2, lp2 = tmp_path / "i2.idx", tmp_path / "l2.idx"
    write_idx_images(ip2, read_idx_images(ip))
    write_idx_labels(lp2, read_idx_labels(lp))
    assert ip.read_bytes() == ip2.read_bytes()
    assert lp.read_bytes() == lp2.read_bytes()


def test_load_idx_dataset(tmp_path):
    ip, lp = tmp_path / "i.idx", tmp_path / "l.idx"
    rng = np.random.default_rng(1)
    imgs = rng.integers(0, 256, size=(30, 3, 3), dtype=np.uint8)
    labs = np.array([i % 3 for i in range(30)], dtype=np.uint8)
    write_idx_images(ip, imgs)
    write_idx_labels(lp, labs)
    ds = load_idx(ip, lp)
    assert ds.points.shape == (30, 9)
    assert ds.n_clusters == 3
    assert ds.labels.dtype == np.int64
    # count mismatch between files
    write_idx_labels(lp, labs[:-1])
    with pytest.raises(DataError, match="does not match"):
        load_idx(ip, lp)
    with pytest.raises(DataError, match="n_clusters"):
        load_idx(ip, None)


def test_make_blobs_shapes_and_determinism():
    spec = BlobSpec(
        n_clusters=3,
        points_per_cluster=40,
        ambient_dim=5,
        centroid_separation=6.0,
        within_cluster_stddev=0.5,
        seed=42,
    )
    ds1 = make_blobs(spec)
    ds2 = make_blobs(spec)
    assert ds1.points.shape == (120, 5)
    assert np.array_equal(ds1.points, ds2.points)
    assert np.array_equal(ds1.labels, ds2.labels)
    ds3 = make_blobs(
        BlobSpec(
            n_clusters=3,
            points_per_cluster=40,
            ambient_dim=5,
            centroid_separation=6.0,
            within_cluster_stddev=0.5,
            seed=43,
        )
    )
    assert not np.array_equal(ds1.points, ds3.points)


def test_make_blobs_separation_holds():
    spec = BlobSpec(
        n_clusters=4,
        points_per_cluster=50,
        ambient_dim=10,
        centroid_separation=8.0,
        within_cluster_stddev=1.0,
        seed=7,
    )
    ds = make_blobs(spec)
    centroids = np.stack([ds.points[ds.labels == k].mean(axis=0) for k in range(4)])
    diff = centroids[:, None, :] - centroids[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    dist[np.diag_indices(4)] = np.inf
    # empirical centroids sit close to the true ones, which are >= 8 apart
    assert dist.min() > 6.0


def test_make_blobs_nearest_centroid_recovers_labels():
    # well-separated blobs: nearest true centroid classifies almost perfectly
    spec = BlobSpec(
        n_clusters=4,
        points_per_cluster=100,
        ambient_dim=20,
        centroid_separation=10.0,
        within_cluster_stddev=1.0,
        seed=3,
    )
    ds = make_blobs(spec)
    centroids = np.stack([ds.points[ds.labels == k].mean(axis=0) for k in range(4)])
    d2 = ((ds.points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    pred = d2.argmin(axis=1)
    assert (pred == ds.labels).mean() >= 0.99


def test_make_blobs_unsatisfiable():
    with pytest.raises(DataError, match="attempts"):
        make_blobs(
            BlobSpec(
                n_clusters=12,
                points_per_cluster=2,
                ambient_dim=1,
                centroid_separation=50.0,
                within_cluster_stddev=0.1,
                seed=0,
            )
        )


def test_normalize_range_and_idempotence():
    rng = np.random.default_rng(5)
    pts = 37.0 + 11.0 * rng.standard_normal((50, 4))
    ds = Dataset(points=pts, labels=None, n_clusters=2)
    out = normalize(ds)
    assert out.points.min() == -1.0
    assert out.points.max() == 1.0
    again = normalize(out)
    assert np.array_equal(out.points, again.points)


def test_normalize_constant_dataset():
    ds = Dataset(points=np.full((6, 3), 4.5), labels=None, n_clusters=2)
    out = normalize(ds)
    assert np.all(out.points == 0.0)


def test_normalize_rejects_non_finite():
    pts = np.zeros((4, 2))
    pts[1, 1] = np.nan
    with pytest.raises(DataError, match="non-finite"):
        normalize(Dataset(points=pts, labels=None, n_clusters=2))
