"""Seeded OFF meshes laid out as a ModelNet40-style directory.

`write_dataset` writes `<root>/<class>/{train,test}/*.off` for four closed
surface classes. Each mesh draws its proportions, tessellation and
orientation from the seed, so the face count varies per mesh. Cylinder and
cone caps are written as single polygons and torus faces as quads, so the
reader's fan triangulation is exercised along with plain triangles.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

# written in this order on purpose: the program must still label them
# by the lexicographic order cone < cuboid < cylinder < torus
CLASSES = ("torus", "cylinder", "cuboid", "cone")


def _rotation(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    return q * np.sign(np.diag(r))


def _cuboid(rng):
    n = int(rng.integers(4, 8))
    dims = rng.uniform(0.5, 1.5, size=3)
    grid = np.linspace(-1.0, 1.0, n + 1)
    verts, faces = [], []
    for axis in range(3):
        u_ax, v_ax = [a for a in range(3) if a != axis]
        for side in (-1.0, 1.0):
            base = len(verts)
            for u in grid:
                for v in grid:
                    p = [0.0, 0.0, 0.0]
                    p[axis], p[u_ax], p[v_ax] = side, u, v
                    verts.append(p)
            for i in range(n):
                for j in range(n):
                    a = base + i * (n + 1) + j
                    b, c, d = a + 1, a + n + 1, a + n + 2
                    faces += [(a, b, d), (a, d, c)]
    return np.array(verts) * dims, faces


def _ring(m, radius, z):
    t = np.linspace(0.0, 2.0 * np.pi, m, endpoint=False)
    return np.stack([radius * np.cos(t), radius * np.sin(t), np.full(m, z)], axis=1)


def _lathe(rng, radii):
    """Surface of revolution through rings of the given radii; open ends get
    one polygon each (a single vertex for a zero radius)."""
    m = int(rng.integers(16, 33))
    zs = np.linspace(-1.0, 1.0, len(radii))
    verts, faces, starts = [], [], []
    for r, z in zip(radii, zs):
        starts.append(len(verts))
        verts.extend([[0.0, 0.0, z]] if r == 0.0 else _ring(m, r, z).tolist())
    for lo, hi, r_lo, r_hi in zip(starts, starts[1:], radii, radii[1:]):
        for i in range(m):
            j = (i + 1) % m
            if r_hi == 0.0:
                faces.append((lo + i, lo + j, hi))
            else:
                faces += [(lo + i, lo + j, hi + j), (lo + i, hi + j, hi + i)]
    if radii[0] > 0.0:
        faces.append(tuple(starts[0] + i for i in reversed(range(m))))
    if radii[-1] > 0.0:
        faces.append(tuple(starts[-1] + i for i in range(m)))
    return np.array(verts), faces


def _cylinder(rng):
    rings = int(rng.integers(4, 9))
    return _lathe(rng, [float(rng.uniform(0.4, 1.0))] * rings)


def _cone(rng):
    rings = int(rng.integers(4, 9))
    base = float(rng.uniform(0.6, 1.2))
    return _lathe(rng, list(np.linspace(base, 0.0, rings)))


def _torus(rng):
    nu, nv = int(rng.integers(16, 25)), int(rng.integers(8, 13))
    big, small = float(rng.uniform(0.8, 1.2)), float(rng.uniform(0.2, 0.45))
    u = np.linspace(0.0, 2.0 * np.pi, nu, endpoint=False)[:, None]
    v = np.linspace(0.0, 2.0 * np.pi, nv, endpoint=False)[None, :]
    x = (big + small * np.cos(v)) * np.cos(u)
    y = (big + small * np.cos(v)) * np.sin(u)
    z = np.broadcast_to(small * np.sin(v), x.shape)
    verts = np.stack([x, y, z], axis=-1).reshape(-1, 3)
    faces = []
    for i in range(nu):
        for j in range(nv):
            i2, j2 = (i + 1) % nu, (j + 1) % nv
            faces.append((i * nv + j, i2 * nv + j, i2 * nv + j2, i * nv + j2))
    return verts, faces


_BUILDERS = {"cone": _cone, "cuboid": _cuboid, "cylinder": _cylinder, "torus": _torus}


def off_text(verts: np.ndarray, faces) -> str:
    lines = ["OFF", f"{len(verts)} {len(faces)} 0"]
    lines += [f"{x:.6f} {y:.6f} {z:.6f}" for x, y, z in verts]
    lines += [" ".join(map(str, (len(f),) + tuple(f))) for f in faces]
    return "\n".join(lines) + "\n"


def make_mesh(cls: str, rng: np.random.Generator) -> tuple[np.ndarray, list]:
    """One randomly proportioned, rotated and shifted closed mesh of a class."""
    verts, faces = _BUILDERS[cls](rng)
    verts = verts @ _rotation(rng).T + rng.uniform(-0.5, 0.5, size=3)
    return verts, faces


def write_dataset(root, seed: int, train_per_class: int, test_per_class: int) -> None:
    """Write `<root>/<class>/{train,test}/<class>_<i>.off` for every class."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0x0FF,)))
    root = Path(root)
    for cls in CLASSES:
        for split, count in (("train", train_per_class), ("test", test_per_class)):
            out = root / cls / split
            out.mkdir(parents=True, exist_ok=True)
            for i in range(count):
                verts, faces = make_mesh(cls, rng)
                (out / f"{cls}_{i:04d}.off").write_text(off_text(verts, faces))
