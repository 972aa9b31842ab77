"""Point-cloud ingestion, normalization, augmentation and caching.

Covers the OFF mesh reader with area-proportional surface sampling, the
unit-sphere normalization every cloud passes through, density
subsampling, train-time augmentation, the binary SAPC cache format, and a
four-class synthetic generator that stands in for the full benchmark at
desk scale.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CacheError, DegenerateCloudError, DimensionError, MeshError, MulfreeError
from .framing import frame, unframe
from .tensor import substream

CACHE_MAGIC = b"SAPC"
CACHE_VERSION = 1

SYNTH_CLASSES = ["cube", "disk", "planes", "sphere"]
_CUBE_OTHERS = np.array([[1, 2], [0, 2], [0, 1]])  # the two free axes of each cube face


@dataclass
class MeshOff:
    """Triangulated mesh: vertices [V, 3] float64, faces [F, 3] int64."""

    vertices: np.ndarray
    faces: np.ndarray


@dataclass
class PointDataset:
    """A split of sampled clouds: points [N, n, 3] float32, labels [N] int64."""

    points: np.ndarray
    labels: np.ndarray
    class_names: list

    def __len__(self):
        return len(self.labels)


@dataclass
class DatasetManifest:
    """Stable description of a prepared dataset (class order fixes the labels)."""

    class_names: list
    train_ids: list
    test_ids: list
    points_per_cloud: int
    seed: int

    def to_json(self) -> str:
        return json.dumps(self.__dict__, indent=1)

    @classmethod
    def read(cls, path) -> "DatasetManifest":
        """Parse a manifest.json; malformed content raises CacheError naming the file."""
        try:  # bad UTF-8 or JSON, missing or unknown keys, or class names that are not strings
            man = cls(**json.loads(Path(path).read_text()))
            if list(map(str, man.class_names)) != man.class_names:
                raise TypeError("class_names is not a list of strings")
        except (ValueError, TypeError) as exc:
            raise CacheError(f"{path}: malformed manifest: {exc}") from exc
        return man


# --- OFF meshes ---

def parse_off(text: str) -> MeshOff:
    """Parse ASCII OFF. Tolerates counts merged onto the OFF line; polygons
    with more than three vertices are fan-triangulated."""
    tokens = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            tokens.extend(line.split())
    if not tokens:
        raise MeshError("empty OFF input")
    head = tokens.pop(0)
    if head != "OFF":
        if not head.startswith("OFF"):
            raise MeshError("missing OFF header")
        tokens.insert(0, head[3:])  # header glued to the vertex count
    try:
        nv, nf = int(tokens[0]), int(tokens[1])
        pos = 3  # skip the edge count
        verts = np.array(tokens[pos : pos + 3 * nv], dtype=np.float64).reshape(nv, 3)
        pos += 3 * nv
        faces = []
        for _ in range(nf):
            deg = int(tokens[pos])
            pos += 1
            poly = [int(t) for t in tokens[pos : pos + deg]]
            pos += deg
            if deg < 3:
                raise MeshError(f"face with {deg} vertices")
            for i in range(1, deg - 1):
                faces.append((poly[0], poly[i], poly[i + 1]))
    except (ValueError, IndexError) as exc:
        raise MeshError(f"malformed OFF data: {exc}") from exc
    if not np.all(np.isfinite(verts)):
        raise MeshError("vertex coordinate is not finite")
    faces = np.array(faces, dtype=np.int64).reshape(-1, 3)
    if faces.size and (faces.min() < 0 or faces.max() >= nv):
        raise MeshError(f"face index outside [0, {nv})")
    return MeshOff(verts, faces)


def read_off(path) -> MeshOff:
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise MeshError(f"cannot decode OFF file: {exc}") from exc
    return parse_off(text)


def sample_mesh(mesh: MeshOff, n: int, rng: np.random.Generator) -> np.ndarray:
    """n points sampled area-proportionally over triangles, uniform within each."""
    if len(mesh.faces) == 0:
        raise MeshError("mesh has no faces")
    a = mesh.vertices[mesh.faces[:, 0]]
    b = mesh.vertices[mesh.faces[:, 1]]
    c = mesh.vertices[mesh.faces[:, 2]]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is caught below
        areas = 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)
        total = areas.sum()
    if not np.isfinite(total):
        raise MeshError("mesh surface area is not finite")
    if total <= 0.0:
        raise MeshError("mesh surface area is zero")
    tri = rng.choice(len(areas), size=n, p=areas / total)
    u = rng.random(n)
    v = rng.random(n)
    flip = u + v > 1.0
    u[flip] = 1.0 - u[flip]
    v[flip] = 1.0 - v[flip]
    pts = a[tri] + u[:, None] * (b[tri] - a[tri]) + v[:, None] * (c[tri] - a[tri])
    return pts.astype(np.float32)


# --- cloud transforms ---

def normalize_cloud(points: np.ndarray) -> np.ndarray:
    """Center at the centroid and scale so the farthest point sits at radius 1."""
    points = np.asarray(points)
    if points.ndim != 2 or points.shape[-1] != 3 or len(points) == 0:
        raise DimensionError(f"normalize_cloud expects [n, 3], got {points.shape}")
    centered = points - points.mean(axis=0)
    radius = np.linalg.norm(centered, axis=1).max()
    if radius == 0.0:
        raise DegenerateCloudError("all points identical; cloud cannot be scaled")
    return (centered / radius).astype(points.dtype)


def subsample_density(points: np.ndarray, m: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform subset of m points without replacement."""
    points = np.asarray(points)
    n = points.shape[0]
    if m > n:
        raise DimensionError(f"cannot subsample {m} from {n} points")
    return points[rng.choice(n, size=m, replace=False)]


def augment(points: np.ndarray, rng: np.random.Generator,
            scale_range=(0.8, 1.25), shift: float = 0.1) -> np.ndarray:
    """Train-time jitter: per-axis anisotropic scale and translation per cloud.

    Accepts [n, 3] or [batch, n, 3]; draws one scale/shift triple per cloud.
    """
    points = np.asarray(points)
    lead = points.shape[:-2] + (1, 3)
    scale = rng.uniform(scale_range[0], scale_range[1], size=lead)
    offset = rng.uniform(-shift, shift, size=lead)
    return (points * scale + offset).astype(points.dtype)


# --- synthetic desk-scale dataset ---

def _synth_cloud(cls: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if cls == "sphere":
        v = rng.standard_normal((n, 3))
        v /= np.maximum(np.linalg.norm(v, axis=1, keepdims=True), 1e-12)
        return v
    if cls == "cube":
        face = rng.integers(0, 6, size=n)
        uv = rng.uniform(-1.0, 1.0, size=(n, 2))
        pts = np.empty((n, 3))
        axis = face % 3
        rows = np.arange(n)
        pts[rows, axis] = np.where(face < 3, 1.0, -1.0)
        pts[rows[:, None], _CUBE_OTHERS[axis]] = uv
        return pts
    if cls == "disk":
        r = np.sqrt(rng.random(n))
        theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
        return np.stack([r * np.cos(theta), r * np.sin(theta), np.zeros(n)], axis=1)
    if cls == "planes":
        z = np.where(rng.integers(0, 2, size=n) == 0, -0.5, 0.5)
        xy = rng.uniform(-1.0, 1.0, size=(n, 2))
        return np.concatenate([xy, z[:, None]], axis=1)
    raise ValueError(f"unknown synthetic class {cls!r}")


def synth_shapes(num_per_class: int, n_points: int, seed: int,
                 jitter: float = 0.01) -> tuple[PointDataset, PointDataset, DatasetManifest]:
    """Four easily separable surfaces, jittered (sigma=jitter), normalized,
    and split 80/20 per class by the seeded stream."""
    if n_points < 64:
        raise DimensionError(f"synthetic clouds need >= 64 points, got {n_points}")
    rng = substream(seed, 100)
    split_rng = substream(seed, 101)
    tr_pts, tr_lab, tr_ids = [], [], []
    te_pts, te_lab, te_ids = [], [], []
    for label, cls in enumerate(SYNTH_CLASSES):
        clouds = []
        for i in range(num_per_class):
            raw = _synth_cloud(cls, n_points, rng) + jitter * rng.standard_normal((n_points, 3))
            clouds.append(normalize_cloud(raw.astype(np.float32)))
        perm = split_rng.permutation(num_per_class)
        n_train = int(round(num_per_class * 0.8))
        for j in perm[:n_train]:
            tr_pts.append(clouds[j])
            tr_lab.append(label)
            tr_ids.append(f"{cls}/{j:04d}")
        for j in perm[n_train:]:
            te_pts.append(clouds[j])
            te_lab.append(label)
            te_ids.append(f"{cls}/{j:04d}")
    def pack(pts, lab):
        stacked = np.stack(pts) if pts else np.zeros((0, n_points, 3), np.float32)
        return PointDataset(stacked, np.array(lab, np.int64), list(SYNTH_CLASSES))

    manifest = DatasetManifest(list(SYNTH_CLASSES), tr_ids, te_ids, n_points, seed)
    return pack(tr_pts, tr_lab), pack(te_pts, te_lab), manifest


# --- binary cache ---

def _cache_record(n: int) -> np.dtype:
    """One packed SAPC record: a uint16 label, then n float32 (x, y, z) points."""
    return np.dtype([("label", "<u2"), ("points", "<f4", (n, 3))])


def cache_write(path, points: np.ndarray, labels: np.ndarray, n_classes: int) -> None:
    """Write one split: SAPC header, label+points records, trailing CRC32."""
    count = len(labels)
    n = np.shape(points)[1] if count else 0
    records = np.empty(count, _cache_record(n))
    records["label"] = labels
    records["points"] = np.reshape(points, (count, n, 3))  # an empty split has n = 0
    body = struct.pack("<HIHH", CACHE_VERSION, count, n_classes, n) + records.tobytes()
    Path(path).write_bytes(frame(CACHE_MAGIC, body))


def cache_read(path) -> tuple[np.ndarray, np.ndarray, int]:
    """Read one split back; raises CacheError on any corruption."""
    body = unframe(Path(path).read_bytes(), CACHE_MAGIC, CacheError, f"{path}: SAPC cache",
                   min_body=10)
    version, count, n_classes, n = struct.unpack_from("<HIHH", body, 0)
    if version != CACHE_VERSION:
        raise CacheError(f"{path}: unsupported cache version {version}")
    record = _cache_record(n)
    if len(body) != 10 + count * record.itemsize:
        raise CacheError(f"{path}: expected {count} records, size mismatch")
    records = np.frombuffer(body, record, count, 10)
    return records["points"].copy(), records["label"].astype(np.int64), n_classes


def save_dataset(out_dir, train: PointDataset, test: PointDataset,
                 manifest: DatasetManifest) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cache_write(out / "train.sapc", train.points, train.labels, len(manifest.class_names))
    cache_write(out / "test.sapc", test.points, test.labels, len(manifest.class_names))
    (out / "manifest.json").write_text(manifest.to_json())


def load_dataset(cache_dir) -> tuple[PointDataset, PointDataset, DatasetManifest]:
    cache = Path(cache_dir)
    manifest = DatasetManifest.read(cache / "manifest.json")
    names = manifest.class_names
    tr_p, tr_l, _ = cache_read(cache / "train.sapc")
    te_p, te_l, _ = cache_read(cache / "test.sapc")
    if max(tr_l.max(initial=0), te_l.max(initial=0)) >= len(names):
        raise CacheError(f"{cache}: a cached label is outside the manifest's {len(names)} classes")
    return (PointDataset(tr_p, tr_l, names), PointDataset(te_p, te_l, names), manifest)


# --- ModelNet40-style directory ingestion ---

def ingest_modelnet40(root, points_per_cloud: int = 1024,
                      seed: int = 7) -> tuple[PointDataset, PointDataset, DatasetManifest]:
    """Sample `<root>/<class>/{train,test}/*.off` into the binary cache `<root>/sapc_cache`.

    Class labels follow the lexicographic order of the class directories.
    The cache is reused when its manifest matches (same points and seed).
    """
    root = Path(root)
    if not root.is_dir():
        raise CacheError(f"dataset directory {root} not found")
    cache = root / "sapc_cache"
    man_path = cache / "manifest.json"
    if man_path.exists():
        manifest = DatasetManifest.read(man_path)
        if manifest.points_per_cloud == points_per_cloud and manifest.seed == seed:
            return load_dataset(cache)
    classes = sorted(d.name for d in root.iterdir() if d.is_dir() and d.name != cache.name)
    if not classes:
        raise CacheError(f"no class directories under {root}")
    rng = substream(seed, 102)
    splits = {"train": ([], [], []), "test": ([], [], [])}
    for label, cls in enumerate(classes):
        for split in ("train", "test"):
            pts, labs, ids = splits[split]
            for off_file in sorted((root / cls / split).glob("*.off")):
                try:
                    cloud = sample_mesh(read_off(off_file), points_per_cloud, rng)
                    pts.append(normalize_cloud(cloud))
                except MulfreeError as exc:
                    raise type(exc)(f"{off_file}: {exc}") from exc
                labs.append(label)
                ids.append(f"{cls}/{split}/{off_file.name}")
    (tr_p, tr_l, tr_i), (te_p, te_l, te_i) = splits["train"], splits["test"]
    if not tr_p or not te_p:
        raise CacheError(f"no .off files found under {root}")
    train = PointDataset(np.stack(tr_p), np.array(tr_l, np.int64), classes)
    test = PointDataset(np.stack(te_p), np.array(te_l, np.int64), classes)
    manifest = DatasetManifest(classes, tr_i, te_i, points_per_cloud, seed)
    save_dataset(cache, train, test, manifest)
    return train, test, manifest
