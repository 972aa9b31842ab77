import json
import re
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from mulfree import data
from mulfree.data import (DatasetManifest, MeshOff, PointDataset, augment, cache_read,
                          cache_write, ingest_modelnet40, load_dataset, normalize_cloud,
                          parse_off, read_off, sample_mesh, subsample_density,
                          synth_shapes)
from mulfree.errors import (CacheError, DegenerateCloudError, DimensionError,
                            MeshError)
from mulfree.framing import frame
from mulfree.tensor import make_rng

TRI_OFF = """OFF
3 1 0
0 0 0
1 0 0
0 1 0
3 0 1 2
"""

QUAD_OFF = """OFF
4 1 0
0 0 0
1 0 0
1 1 0
0 1 0
4 0 1 2 3
"""


class TestOffReader:
    def test_single_triangle(self):
        mesh = parse_off(TRI_OFF)
        assert mesh.vertices.shape == (3, 3)
        np.testing.assert_array_equal(mesh.faces, [[0, 1, 2]])

    def test_quad_fan_triangulated(self):
        mesh = parse_off(QUAD_OFF)
        np.testing.assert_array_equal(mesh.faces, [[0, 1, 2], [0, 2, 3]])

    def test_header_merged_with_counts(self):
        mesh = parse_off(TRI_OFF.replace("OFF\n3 1 0", "OFF3 1 0"))
        assert mesh.vertices.shape == (3, 3)

    def test_comments_ignored(self):
        mesh = parse_off("# a comment\n" + TRI_OFF.replace("0 0 0", "0 0 0 # origin"))
        assert mesh.vertices.shape == (3, 3)

    def test_bad_face_index(self):
        with pytest.raises(MeshError):
            parse_off(TRI_OFF.replace("3 0 1 2", "3 0 1 9"))

    @pytest.mark.parametrize("coord", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_vertex(self, coord):
        with pytest.raises(MeshError, match="not finite"):
            parse_off(TRI_OFF.replace("1 0 0", f"1 {coord} 0"))

    def test_missing_header(self):
        with pytest.raises(MeshError):
            parse_off("3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")

    def test_file_reader(self, tmp_path):
        path = tmp_path / "tri.off"
        path.write_text(TRI_OFF)
        assert read_off(path).faces.shape == (1, 3)


def barycentric(point, a, b, c):
    m = np.stack([b - a, c - a], axis=1)
    uv, res, _, _ = np.linalg.lstsq(m, point - a, rcond=None)
    return uv


class TestSampleMesh:
    def test_points_lie_on_the_surface(self):
        mesh = parse_off(QUAD_OFF)
        pts = sample_mesh(mesh, 200, make_rng(0))
        tri = mesh.vertices[mesh.faces]
        ok = np.zeros(len(pts), bool)
        for t in tri:
            uv = np.array([barycentric(p, *t) for p in pts.astype(np.float64)])
            recon = t[0] + uv[:, :1] * (t[1] - t[0]) + uv[:, 1:] * (t[2] - t[0])
            inside = (uv >= -1e-6).all(1) & (uv.sum(1) <= 1 + 1e-6)
            close = np.abs(recon - pts).max(1) <= 1e-6
            ok |= inside & close
        assert ok.all()

    def test_area_proportional_sampling(self):
        # two triangles with area ratio 3:1
        mesh = MeshOff(
            vertices=np.array([[0, 0, 0], [3.0, 0, 0], [0, 1.0, 0], [-1.0, 0, 0]]),
            faces=np.array([[0, 1, 2], [0, 2, 3]]),
        )
        pts = sample_mesh(mesh, 4000, make_rng(1))
        n_right = int((pts[:, 0] >= 0).sum())
        result = chisquare([n_right, 4000 - n_right], [3000, 1000])
        assert result.pvalue > 0.01

    def test_single_triangle_containment(self):
        mesh = parse_off(TRI_OFF)
        pts = sample_mesh(mesh, 50, make_rng(2))
        assert np.all(pts[:, 0] >= 0) and np.all(pts[:, 1] >= 0)
        assert np.all(pts[:, 0] + pts[:, 1] <= 1.0 + 1e-6)
        assert np.all(pts[:, 2] == 0)

    def test_n_one(self):
        assert sample_mesh(parse_off(TRI_OFF), 1, make_rng(3)).shape == (1, 3)

    def test_overflowing_area(self):
        mesh = parse_off(TRI_OFF.replace("1 0 0", "1e200 0 0").replace("0 1 0", "0 1e200 0"))
        with pytest.raises(MeshError, match="not finite"):
            sample_mesh(mesh, 10, make_rng(0))

    def test_degenerate_mesh(self):
        mesh = MeshOff(vertices=np.zeros((3, 3)), faces=np.array([[0, 1, 2]]))
        with pytest.raises(MeshError):
            sample_mesh(mesh, 10, make_rng(0))


class TestNormalizeCloud:
    def test_idempotent(self):
        pts = make_rng(4).standard_normal((50, 3)).astype(np.float32)
        once = normalize_cloud(pts)
        np.testing.assert_allclose(normalize_cloud(once), once, atol=1e-6)

    def test_centroid_restored(self):
        pts = make_rng(5).standard_normal((20, 3)).astype(np.float32) + 5.0
        out = normalize_cloud(pts)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-6)

    def test_two_points_at_distance_four(self):
        out = normalize_cloud(np.array([[0.0, 0, 0], [4.0, 0, 0]], np.float32))
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-7)

    def test_degenerate_cloud(self):
        with pytest.raises(DegenerateCloudError):
            normalize_cloud(np.ones((5, 3), np.float32))

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 2 ** 31 - 1), st.floats(0.1, 50.0), st.floats(-100, 100))
    def test_translation_and_scale_invariance(self, seed, scale, offset):
        pts = make_rng(seed).standard_normal((12, 3)).astype(np.float64)
        base = normalize_cloud(pts)
        moved = normalize_cloud(pts * scale + offset)
        np.testing.assert_allclose(moved, base, atol=1e-9)


class TestSubsample:
    def test_full_draw_is_permutation(self):
        pts = make_rng(6).standard_normal((16, 3)).astype(np.float32)
        out = subsample_density(pts, 16, make_rng(0))
        assert sorted(map(tuple, out.tolist())) == sorted(map(tuple, pts.tolist()))

    def test_membership(self):
        pts = make_rng(7).standard_normal((64, 3)).astype(np.float32)
        out = subsample_density(pts, 32, make_rng(1))
        rows = set(map(tuple, pts.tolist()))
        assert all(tuple(r) in rows for r in out.tolist())

    def test_seeded_determinism(self):
        pts = make_rng(8).standard_normal((64, 3)).astype(np.float32)
        a = subsample_density(pts, 16, make_rng(2))
        b = subsample_density(pts, 16, make_rng(2))
        np.testing.assert_array_equal(a, b)

    def test_oversample_error(self):
        with pytest.raises(DimensionError):
            subsample_density(np.zeros((8, 3), np.float32), 9, make_rng(0))


class TestAugment:
    def test_bounds_respected(self):
        rng = make_rng(10)
        pts = np.ones((200, 8, 3), np.float32)  # unit input makes scale+shift visible
        out = augment(pts, rng)
        assert np.all(out <= 1.25 + 0.1 + 1e-6)
        assert np.all(out >= 0.8 - 0.1 - 1e-6)
        assert np.any(out != pts)

    def test_per_cloud_draws(self):
        pts = np.ones((3, 4, 3), np.float32)
        out = augment(pts, make_rng(12))
        assert not np.allclose(out[0], out[1])
        np.testing.assert_allclose(out[0, 0], out[0, 1])  # same transform within a cloud


class TestSynthShapes:
    def test_counts_and_split(self):
        train, test, manifest = synth_shapes(20, 64, seed=7)
        assert len(train) == 64 and len(test) == 16  # 80/20 of 4 * 20
        for label in range(4):
            assert int((train.labels == label).sum()) == 16
            assert int((test.labels == label).sum()) == 4
        assert set(manifest.train_ids).isdisjoint(manifest.test_ids)

    def test_acceptance_scale_split(self):
        train, test, _ = synth_shapes(160, 256, seed=7)
        assert len(train) == 512 and len(test) == 128

    def test_sphere_clouds_are_thin_unit_shells(self):
        # oracle-measured: centroid estimation error dominates the jitter, so
        # sphere radii form a shell of per-cloud std < 0.06 around ~0.94 while
        # every other class spreads at least 0.09
        train, _, _ = synth_shapes(8, 128, seed=3)
        radii = np.linalg.norm(train.points, axis=2)
        per_cloud_std = radii.std(axis=1)
        sphere = train.labels == train.class_names.index("sphere")
        assert per_cloud_std[sphere].max() < 0.06
        assert per_cloud_std[~sphere].min() > 0.09
        assert radii[sphere].mean() > 0.9
        assert radii.max() <= 1.0 + 1e-6  # normalization caps the radius at 1

    def test_deterministic_by_seed(self):
        a, _, _ = synth_shapes(4, 64, seed=9)
        b, _, _ = synth_shapes(4, 64, seed=9)
        np.testing.assert_array_equal(a.points, b.points)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_class_names_lexicographic(self):
        train, _, _ = synth_shapes(4, 64, seed=0)
        assert train.class_names == sorted(train.class_names)

    def test_minimum_points(self):
        with pytest.raises(DimensionError):
            synth_shapes(4, 32, seed=0)

    def test_cube_matches_per_point_loop(self, monkeypatch):
        def cube_loop(n, rng):
            face = rng.integers(0, 6, size=n)
            uv = rng.uniform(-1.0, 1.0, size=(n, 2))
            pts = np.empty((n, 3))
            axis = face % 3
            side = np.where(face < 3, 1.0, -1.0)
            for i in range(n):
                others = [j for j in range(3) if j != axis[i]]
                pts[i, axis[i]] = side[i]
                pts[i, others] = uv[i]
            return pts

        np.testing.assert_array_equal(data._synth_cloud("cube", 500, make_rng(4)),
                                      cube_loop(500, make_rng(4)))
        # the same draws in the same order keep the whole dataset bit-identical
        fast, _, _ = synth_shapes(6, 64, seed=2)
        synth = data._synth_cloud
        monkeypatch.setattr(data, "_synth_cloud", lambda cls, n, rng: (
            cube_loop(n, rng) if cls == "cube" else synth(cls, n, rng)))
        slow, _, _ = synth_shapes(6, 64, seed=2)
        np.testing.assert_array_equal(fast.points, slow.points)


def reseal_cache(path, edit):
    """Rewrite the cache at path: edit(manifest text, records bytes) returns new ones,
    written back behind a fresh header and CRC."""
    blob = path.read_bytes()
    version, n, text_len = struct.unpack_from("<HQI", blob, 4)
    text, records = edit(blob[18 : 18 + text_len], blob[18 + text_len : -4])
    body = struct.pack("<HQI", version, n, len(text)) + text + records
    path.write_bytes(b"SAPC" + body + struct.pack("<I", zlib.crc32(body)))


class TestCache:
    def test_roundtrip_bit_exact(self, tmp_path):
        train, test, manifest = synth_shapes(4, 64, seed=1)
        path = tmp_path / "ds.sapc"
        cache_write(path, train, test, manifest)
        tr, te, man = cache_read(path)
        for got, want in ((tr, train), (te, test)):
            np.testing.assert_array_equal(got.points, want.points)
            np.testing.assert_array_equal(got.labels, want.labels)
            assert got.class_names == want.class_names
        assert man == manifest

    def test_corrupted_byte_raises(self, tmp_path):
        path = tmp_path / "c.sapc"
        cache_write(path, *synth_shapes(2, 64, seed=2))
        blob = bytearray(path.read_bytes())
        blob[40] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(CacheError):
            cache_read(path)

    def test_truncation_raises(self, tmp_path):
        path = tmp_path / "t.sapc"
        cache_write(path, *synth_shapes(2, 64, seed=2))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(CacheError):
            cache_read(path)

    def test_empty_dataset_header_only(self, tmp_path):
        path = tmp_path / "empty.sapc"
        empty = PointDataset(np.zeros((0, 0, 3), np.float32), np.zeros(0, np.int64), [])
        cache_write(path, empty, empty, DatasetManifest([], [], [], 0))
        tr, te, _ = cache_read(path)
        assert len(tr) == len(te) == 0 and tr.points.shape == (0, 0, 3)

    def test_id_count_and_label_are_checked_against_the_records(self, tmp_path):
        path = tmp_path / "ds.sapc"

        def drop(key, keep):
            def edit(text, records):
                man = json.loads(text)
                return json.dumps({**man, key: man[key][keep]}).encode(), records
            return edit

        for edit, message in ((drop("train_ids", slice(1, None)),
                               "records are not one 64-point cloud"),
                              (drop("class_names", slice(-1)), "label is outside the 3 classes")):
            cache_write(path, *synth_shapes(3, 64, seed=2))
            reseal_cache(path, edit)
            with pytest.raises(CacheError, match=f"{re.escape(str(path))}: .*{message}"):
                cache_read(path)

    def test_non_finite_point_raises_naming_the_file(self, tmp_path):
        path = tmp_path / "ds.sapc"
        for bad in (np.nan, np.inf, -np.inf):
            train, test, manifest = synth_shapes(3, 64, seed=2)
            test.points[-1, 5, 2] = bad
            cache_write(path, train, test, manifest)
            with pytest.raises(CacheError, match=f"{re.escape(str(path))}: .*not finite"):
                cache_read(path)

    def test_cloud_size_bound_is_the_largest_record_numpy_holds(self, tmp_path):
        path = tmp_path / "ds.sapc"
        text = json.dumps(vars(DatasetManifest([], [], [], 0))).encode()
        for n in (data.MAX_CLOUD_POINTS, data.MAX_CLOUD_POINTS + 1):
            path.write_bytes(frame(b"SAPC", struct.pack("<HQI", 2, n, len(text)) + text))
            if n == data.MAX_CLOUD_POINTS:  # no clouds, so nothing is allocated
                train, test, _ = cache_read(path)
                assert train.points.shape == test.points.shape == (0, n, 3)
            else:
                with pytest.raises(CacheError, match=f"not one {n}-point cloud"):
                    cache_read(path)
                with pytest.raises(ValueError):  # numpy refuses the record itself
                    data._cache_record(n)

    @staticmethod
    def struct_writer(train, test, manifest):
        """The SAPC bytes of a per-record struct writer, kept as the oracle: header,
        manifest JSON, then one label+points record per cloud, train before test."""
        text = json.dumps(vars(manifest)).encode()
        body = bytearray(struct.pack("<HQI", 2, train.points.shape[1], len(text)) + text)
        for ds in (train, test):
            points = np.ascontiguousarray(ds.points, dtype=np.float32)
            for i in range(len(ds)):
                body += struct.pack("<H", int(ds.labels[i])) + points[i].tobytes()
        return b"SAPC" + bytes(body) + struct.pack("<I", zlib.crc32(body))

    def test_bytes_equal_per_record_struct_writer(self, tmp_path):
        train, test, manifest = synth_shapes(5, 64, seed=3)
        lone = synth_shapes(1, 64, seed=3)  # one cloud per class leaves no test split
        names = [f"c{i}" for i in range(65536)]  # labels past 255, up to the uint16 limit
        wide = PointDataset(make_rng(11).standard_normal((3, 7, 3)),  # float64 input
                            np.array([0, 300, 65535]), names)
        none = PointDataset(np.zeros((0, 7, 3)), np.zeros(0, np.int64), names)
        cases = [(train, test, manifest), lone,
                 (wide, none, DatasetManifest(names, ["a", "b", "c"], [], 11))]
        for case in cases:
            path = tmp_path / "ds.sapc"
            cache_write(path, *case)
            assert path.read_bytes() == self.struct_writer(*case)
            for got, want in zip(cache_read(path), case):
                if isinstance(want, DatasetManifest):
                    assert got == want
                    continue
                np.testing.assert_array_equal(got.points, np.asarray(want.points, np.float32))
                np.testing.assert_array_equal(got.labels, want.labels)
                assert got.points.dtype == np.float32 and got.labels.dtype == np.int64
                assert got.points.flags.writeable and got.points.flags.c_contiguous

    def test_dataset_dir_roundtrip(self, tmp_path):
        train, test, manifest = synth_shapes(4, 64, seed=5)
        (tmp_path / "ds").mkdir()
        cache_write(tmp_path / "ds" / data.CACHE_NAME, train, test, manifest)
        tr, te, man = load_dataset(tmp_path / "ds")
        np.testing.assert_array_equal(tr.points, train.points)
        np.testing.assert_array_equal(te.labels, test.labels)
        assert man.class_names == manifest.class_names


def make_fake_modelnet(root, classes=("chair", "airplane")):
    for cls in classes:
        for split, count in (("train", 3), ("test", 2)):
            d = root / cls / split
            d.mkdir(parents=True)
            for i in range(count):
                (d / f"{cls}_{i:04d}.off").write_text(QUAD_OFF)


class TestModelNetIngestion:
    def test_ingest_and_label_order(self, tmp_path):
        make_fake_modelnet(tmp_path)
        train, test, manifest = ingest_modelnet40(tmp_path, points_per_cloud=128)
        assert manifest.class_names == ["airplane", "chair"]  # lexicographic
        assert len(train) == 6 and len(test) == 4
        assert train.points.shape == (6, 128, 3)
        # airplane sorts first, so it owns label 0
        first_airplane = manifest.train_ids.index("airplane/train/airplane_0000.off")
        assert train.labels[first_airplane] == 0
        tr, te, man = load_dataset(tmp_path / "sapc_cache")
        assert man == manifest and tr.class_names == te.class_names == manifest.class_names
        for got, want in ((tr, train), (te, test)):
            np.testing.assert_array_equal(got.points, want.points)
            np.testing.assert_array_equal(got.labels, want.labels)

    def test_cache_reused(self, tmp_path):
        make_fake_modelnet(tmp_path)
        a_train, _, _ = ingest_modelnet40(tmp_path, points_per_cloud=128)
        (tmp_path / "chair" / "train" / "chair_0000.off").unlink()  # cache must win
        b_train, _, _ = ingest_modelnet40(tmp_path, points_per_cloud=128)
        np.testing.assert_array_equal(a_train.points, b_train.points)

    def test_cache_of_another_seed_is_sampled_again(self, tmp_path):
        make_fake_modelnet(tmp_path)
        train, test, manifest = ingest_modelnet40(tmp_path, points_per_cloud=64)
        assert manifest.seed == data.MESH_SEED
        other = DatasetManifest(**{**vars(manifest), "seed": 4})
        cache_write(tmp_path / "sapc_cache" / data.CACHE_NAME, train, test, other)
        again, _, man = ingest_modelnet40(tmp_path, points_per_cloud=64)
        assert man == manifest and load_dataset(tmp_path / "sapc_cache")[2] == manifest
        np.testing.assert_array_equal(again.points, train.points)

    def test_interrupted_reingest_keeps_the_previous_cache(self, tmp_path, monkeypatch):
        make_fake_modelnet(tmp_path)
        ingest_modelnet40(tmp_path, points_per_cloud=64)
        write_framed = data.write_framed

        def interrupted(path, magic, parts):
            def first_part_then_interrupt():
                yield parts[0]
                raise KeyboardInterrupt
            write_framed(path, magic, first_part_then_interrupt())

        monkeypatch.setattr(data, "write_framed", interrupted)
        with pytest.raises(KeyboardInterrupt):
            ingest_modelnet40(tmp_path, points_per_cloud=32)
        monkeypatch.undo()
        train, test, _ = ingest_modelnet40(tmp_path, points_per_cloud=64)
        assert train.points.shape == (6, 64, 3) and test.points.shape == (4, 64, 3)
        assert [p.name for p in (tmp_path / "sapc_cache").iterdir()] == [data.CACHE_NAME]

    def test_missing_directory(self, tmp_path):
        with pytest.raises(CacheError):
            ingest_modelnet40(tmp_path / "nope")
