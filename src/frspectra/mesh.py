"""Jittered hexahedral meshes and the volume-ratio shape factor.

A uniform block of hex elements is perturbed by displacing interior
corner nodes with uniform random offsets in (-jf*h/2, +jf*h/2) per
coordinate, where h is the local uniform spacing and jf in [0, 1) the
jitter factor (jf = 1 could collapse edges and is excluded). Boundary
nodes stay put so the outer box is preserved. The generator is seeded
(PCG64 via numpy's default_rng) so meshes are bit-reproducible.

Element quality is measured by the shape factor

    q_h = 6 sqrt(pi) V_h / S_h^(3/2)

the ratio of the element volume to the volume of the sphere with the same
surface area; a perfect cube scores sqrt(pi/6) ~ 0.7236 and any
deformation scores lower. Volumes use a fixed six-tetrahedron split along
the main diagonal; surface areas split each quad face into two triangles
along its shorter diagonal (first diagonal on ties), so results are
deterministic for non-planar faces.

Generation is single-threaded per mesh (the RNG stream defines the mesh);
the quality audit vectorizes over elements.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, pi, sqrt

import numpy as np

CUBE_SHAPE_FACTOR = sqrt(pi / 6.0)

# corner order within an element: (di, dj, dk) with di fastest
_CORNER_OFFSETS = np.array(
    [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]
)

# six tetrahedra around the c0-c7 diagonal, consistently oriented
_TET_SPLIT = ((0, 1, 3, 7), (0, 3, 2, 7), (0, 2, 6, 7), (0, 6, 4, 7), (0, 4, 5, 7), (0, 5, 1, 7))

# quad faces as corner loops
_FACES = (
    (0, 1, 3, 2),
    (4, 5, 7, 6),
    (0, 1, 5, 4),
    (2, 3, 7, 6),
    (0, 2, 6, 4),
    (1, 3, 7, 5),
)


class MeshGenerationError(RuntimeError):
    """A generated element failed validity checks."""


def _tet_volumes(corners: np.ndarray) -> np.ndarray:
    """Signed volumes of the six split tetrahedra; shape (..., 6)."""
    vols = []
    for (i0, i1, i2, i3) in _TET_SPLIT:
        e1 = corners[..., i1, :] - corners[..., i0, :]
        e2 = corners[..., i2, :] - corners[..., i0, :]
        e3 = corners[..., i3, :] - corners[..., i0, :]
        vols.append(np.einsum("...i,...i->...", np.cross(e1, e2), e3) / 6.0)
    return np.stack(vols, axis=-1)


def hex_volume(corners: np.ndarray) -> np.ndarray:
    """Volume by the six-tetrahedron split; negative means inverted."""
    return _tet_volumes(corners).sum(axis=-1)


def hex_surface_area(corners: np.ndarray) -> np.ndarray:
    """Total area of the 12 face triangles (shorter-diagonal splits)."""
    total = 0.0
    for (q0, q1, q2, q3) in _FACES:
        p0, p1 = corners[..., q0, :], corners[..., q1, :]
        p2, p3 = corners[..., q2, :], corners[..., q3, :]
        diag_a = np.linalg.norm(p2 - p0, axis=-1)
        diag_b = np.linalg.norm(p3 - p1, axis=-1)
        area_a = 0.5 * (
            np.linalg.norm(np.cross(p1 - p0, p2 - p0), axis=-1)
            + np.linalg.norm(np.cross(p2 - p0, p3 - p0), axis=-1)
        )
        area_b = 0.5 * (
            np.linalg.norm(np.cross(p2 - p1, p3 - p1), axis=-1)
            + np.linalg.norm(np.cross(p3 - p1, p0 - p1), axis=-1)
        )
        total = total + np.where(diag_a <= diag_b, area_a, area_b)
    return total


def _min_corner_gap(corners: np.ndarray) -> np.ndarray:
    diff = corners[..., :, None, :] - corners[..., None, :, :]
    dist = np.linalg.norm(diff, axis=-1)
    iu = np.triu_indices(8, k=1)
    return dist[..., iu[0], iu[1]].min(axis=-1)


def shape_factor(corners) -> float:
    """q_h of a single hexahedron given its 8 corners (see corner order).

    The mesh audit's rule for one element: it rejects degenerate elements
    (coincident corners) and inverted ones (non-positive total volume).
    Individual split tetrahedra of a jittered element may carry either
    sign because the faces are non-planar; only the total is constrained.
    """
    corners = np.asarray(corners, dtype=float)
    if corners.shape != (8, 3):
        raise ValueError(f"expected 8 corner points of shape (8, 3), got {corners.shape}")
    return float(_audit_quality(corners[None, None, None])[0, 0, 0])


@dataclass(frozen=True)
class JitteredMesh:
    """Hex block with jittered interior corner nodes and per-element q_h."""

    dims: tuple[int, int, int]
    extent: tuple[float, float, float]
    jitter_factor: float
    seed: int
    nodes: np.ndarray  # (nx+1, ny+1, nz+1, 3)
    per_element_qh: np.ndarray  # (nx, ny, nz)

    def element_corners(self) -> np.ndarray:
        """Corners of every element, shape (nx, ny, nz, 8, 3)."""
        nx, ny, nz = self.dims
        out = np.empty((nx, ny, nz, 8, 3))
        for c, (di, dj, dk) in enumerate(_CORNER_OFFSETS):
            out[:, :, :, c, :] = self.nodes[di : nx + di, dj : ny + dj, dk : nz + dk]
        return out

    def connectivity(self) -> np.ndarray:
        """Node indices of each element, shape (nx*ny*nz, 8).

        Node index = ix + (nx+1) * (iy + (ny+1) * iz); elements are listed
        with ix fastest.
        """
        nx, ny, nz = self.dims
        conn = np.empty((nz, ny, nx, 8), dtype=int)
        ix = np.arange(nx)[None, None, :]
        iy = np.arange(ny)[None, :, None]
        iz = np.arange(nz)[:, None, None]
        for c, (di, dj, dk) in enumerate(_CORNER_OFFSETS):
            conn[:, :, :, c] = (ix + di) + (nx + 1) * ((iy + dj) + (ny + 1) * (iz + dk))
        return conn.reshape(-1, 8)


def _audit_quality(corners: np.ndarray) -> np.ndarray:
    scale = np.ptp(corners, axis=-2).max()
    volume = hex_volume(corners)
    bad = np.argwhere(
        (volume <= 1e-12 * scale**3) | (_min_corner_gap(corners) <= 1e-12 * scale)
    )
    if bad.size:
        i, j, k = bad[0][:3]
        raise MeshGenerationError(f"element ({i}, {j}, {k}) is degenerate or inverted")
    area = hex_surface_area(corners)
    return 6.0 * sqrt(pi) * volume / area**1.5


def generate(dims, extent=(1.0, 1.0, 1.0), jitter_factor: float = 0.0, seed: int = 0) -> JitteredMesh:
    """Generate a jittered hex block.

    ``dims`` gives elements per direction (>= 2 each); ``extent`` the box
    size (a scalar means a cube). Interior nodes move by uniform offsets
    in (-jf*h/2, +jf*h/2) per coordinate; the same seed always yields the
    identical mesh. Raises MeshGenerationError naming the first inverted
    element if the jitter produced one.
    """
    dims = tuple(int(n) for n in np.broadcast_to(dims, 3))
    if any(n < 2 for n in dims):
        raise ValueError(f"need at least 2 elements per direction, got {dims}")
    extent = tuple(float(e) for e in np.broadcast_to(extent, 3))
    if not all(isfinite(e) and e > 0 for e in extent):
        raise ValueError(f"extent must be finite and > 0 per direction, got {extent}")
    if not 0.0 <= jitter_factor < 1.0:
        raise ValueError(
            f"jitter factor must lie in [0, 1), got {jitter_factor} "
            "(1 could collapse edges)"
        )
    nx, ny, nz = dims
    h = np.array([extent[0] / nx, extent[1] / ny, extent[2] / nz])
    grids = np.meshgrid(
        np.linspace(0.0, extent[0], nx + 1),
        np.linspace(0.0, extent[1], ny + 1),
        np.linspace(0.0, extent[2], nz + 1),
        indexing="ij",
    )
    nodes = np.stack(grids, axis=-1)
    rng = np.random.default_rng(seed)
    offsets = rng.uniform(-0.5, 0.5, size=nodes.shape) * (jitter_factor * h)
    interior = np.zeros(nodes.shape[:3], dtype=bool)
    interior[1:-1, 1:-1, 1:-1] = True
    nodes = nodes + offsets * interior[..., None]
    return _audited_mesh(dims, extent, float(jitter_factor), int(seed), nodes)


def _audited_mesh(dims, extent, jitter_factor, seed, nodes) -> JitteredMesh:
    """The mesh with its audited q_h; its arrays are read-only."""
    mesh = JitteredMesh(dims, extent, jitter_factor, seed, nodes, np.empty(dims))
    object.__setattr__(mesh, "per_element_qh", _audit_quality(mesh.element_corners()))
    mesh.nodes.setflags(write=False)
    mesh.per_element_qh.setflags(write=False)
    return mesh


def write_mesh(mesh: JitteredMesh, path) -> None:
    """Write the documented plain-text format (lossless round trip)."""
    with open(path, "w") as fh:
        fh.write("# frspectra hex mesh v1\n")
        fh.write(f"dims {mesh.dims[0]} {mesh.dims[1]} {mesh.dims[2]}\n")
        fh.write(
            f"extent {float(mesh.extent[0])!r} {float(mesh.extent[1])!r} "
            f"{float(mesh.extent[2])!r}\n"
        )
        fh.write(f"jitter_factor {float(mesh.jitter_factor)!r}\n")
        fh.write(f"seed {mesh.seed}\n")
        nx, ny, nz = mesh.dims
        fh.write(f"nodes {(nx + 1) * (ny + 1) * (nz + 1)}\n")
        # node lines in index order ix fastest, then iy, then iz
        flat = mesh.nodes.transpose(2, 1, 0, 3).reshape(-1, 3)
        for x, y, z in flat:
            fh.write(f"{float(x)!r} {float(y)!r} {float(z)!r}\n")
        conn = mesh.connectivity()
        fh.write(f"elements {conn.shape[0]}\n")
        for row in conn:
            fh.write(" ".join(str(i) for i in row) + "\n")


def _values(lines, i, kind, count, label=None) -> list:
    """The ``count`` values of type ``kind`` on line i, after its ``label``."""
    if i >= len(lines):
        raise ValueError(f"truncated mesh file: line {i + 1} is missing")
    words = lines[i].split()
    if label is not None:
        if words[:1] != [label]:
            raise ValueError(f"line {i + 1}: expected {label!r}, got {lines[i]!r}")
        words = words[1:]
    try:
        values = [kind(w) for w in words]
    except ValueError:
        values = []  # count is >= 1, so this is reported below
    if len(values) != count:
        raise ValueError(
            f"line {i + 1}: expected {count} {kind.__name__} values, got {lines[i]!r}"
        )
    return values


def read_mesh(path) -> JitteredMesh:
    """Read the plain-text format written by :func:`write_mesh`, checking it.

    Raises ValueError naming the first problem: a foreign header, a missing
    or malformed line, a node or element count that disagrees with ``dims``,
    or a connectivity line other than the one ``dims`` implies. q_h is
    audited as by :func:`generate`, and the arrays are read-only.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = lines[0] if lines else ""
    if not header.startswith("# frspectra hex mesh"):
        raise ValueError(f"not a frspectra mesh file: {header.strip()!r}")
    dims = tuple(_values(lines, 1, int, 3, "dims"))
    extent = tuple(_values(lines, 2, float, 3, "extent"))
    (jf,) = _values(lines, 3, float, 1, "jitter_factor")
    (seed,) = _values(lines, 4, int, 1, "seed")
    (n_nodes,) = _values(lines, 5, int, 1, "nodes")
    nx, ny, nz = dims
    if min(dims) < 1 or n_nodes != (nx + 1) * (ny + 1) * (nz + 1):
        raise ValueError(f"nodes {n_nodes} does not match dims {dims}")
    flat = np.array([_values(lines, 6 + i, float, 3) for i in range(n_nodes)])
    nodes = flat.reshape(nz + 1, ny + 1, nx + 1, 3).transpose(2, 1, 0, 3)
    mesh = _audited_mesh(dims, extent, jf, seed, nodes)
    at = 6 + n_nodes
    (n_elems,) = _values(lines, at, int, 1, "elements")
    if n_elems != nx * ny * nz:
        raise ValueError(f"elements {n_elems} does not match dims {dims}")
    for i, row in enumerate(mesh.connectivity().tolist()):
        if _values(lines, at + 1 + i, int, 8) != row:
            raise ValueError(
                f"line {at + 2 + i}: element {i} is not connected as dims {dims} imply"
            )
    return mesh
