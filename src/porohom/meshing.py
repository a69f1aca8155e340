"""Triangular meshes for the periodic unit cell and rectangular domains.

The unit cell is the square (0,1)^2 with an elliptical inclusion removed.
Meshes carry boundary tags and explicit periodic vertex pairs so that
downstream assembly can identify opposite faces node by node.  The text
format (``MESH2D 1``) is plain ASCII and round-trips exactly.
"""

import itertools
import math

import numpy as np
from scipy.sparse import coo_matrix
from scipy.spatial import Delaunay, cKDTree

from .textio import FormatError, Records, write_rows

BOUNDARY_TAGS = ("OuterLeft", "OuterRight", "OuterBottom", "OuterTop", "Inclusion")

_CENTER = np.array([0.5, 0.5])

# Signed permutation matrices for the symmetries of the tilted cell:
# identity, half-turn about the center, and the two diagonal reflections.
# A circular inclusion additionally admits the axis reflections and
# quarter turns.  Each entry is (matrix, ring map (sign, quarter-shift)).
_SYM_CORE = (
    (np.array([[1.0, 0.0], [0.0, 1.0]]), (1, 0)),
    (np.array([[-1.0, 0.0], [0.0, -1.0]]), (1, 2)),
    (np.array([[0.0, 1.0], [1.0, 0.0]]), (-1, 0)),
    (np.array([[0.0, -1.0], [-1.0, 0.0]]), (-1, 2)),
)
_SYM_EXTRA = (
    (np.array([[-1.0, 0.0], [0.0, 1.0]]), (-1, 1)),
    (np.array([[1.0, 0.0], [0.0, -1.0]]), (-1, 3)),
    (np.array([[0.0, -1.0], [1.0, 0.0]]), (1, 1)),
    (np.array([[0.0, 1.0], [-1.0, 0.0]]), (1, 3)),
)


# What read_mesh raises: the one format error of every artifact.
MeshFormatError = FormatError


class MeshQualityError(RuntimeError):
    """Raised when generation cannot reach the required element quality."""


class EllipseSpec:
    """Elliptical inclusion of fixed area pi/12 centered in the unit cell.

    Parameters
    ----------
    gamma : float
        Aspect ratio of the semi-axes, a/b = gamma.  The semi-axes follow
        from a*b = 1/12.  The major axis is tilted 45 degrees.
    """

    AREA = math.pi / 12.0
    TILT = math.pi / 4.0

    def __init__(self, gamma):
        gamma = float(gamma)
        if not gamma > 0.0:
            raise ValueError(f"gamma must be positive, got {gamma}")
        a = math.sqrt(gamma / 12.0)
        b = math.sqrt(1.0 / (12.0 * gamma))
        # Half width of the tilted ellipse's bounding box; the inclusion
        # must stay strictly inside the cell.
        extent = math.sqrt((a * a + b * b) / 2.0)
        if extent >= 0.5 - 1e-9:
            raise ValueError(
                f"gamma={gamma} puts the inclusion in contact with the cell "
                f"boundary (half extent {extent:.4f})"
            )
        self.gamma = gamma
        self.a = a
        self.b = b
        self.center = _CENTER.copy()

    @property
    def circular(self):
        return abs(self.gamma - 1.0) < 1e-12

    def boundary_point(self, theta):
        """Point(s) on the inclusion boundary at local parameter theta."""
        theta = np.asarray(theta, dtype=float)
        u = np.stack([self.a * np.cos(theta), self.b * np.sin(theta)], axis=-1)
        c, s = math.cos(self.TILT), math.sin(self.TILT)
        rot = np.array([[c, -s], [s, c]])
        return self.center + u @ rot.T

    def perimeter(self, npoints=64):
        """Arc length of the ellipse by Gauss-Legendre quadrature."""
        x, w = np.polynomial.legendre.leggauss(npoints)
        theta = math.pi * (x + 1.0)  # map [-1,1] to [0, 2*pi]
        speed = np.hypot(self.a * np.sin(theta), self.b * np.cos(theta))
        return math.pi * float(w @ speed)


class TriMesh:
    """Conforming triangle mesh with tagged boundary and periodic pairs.

    Fields
    ------
    vertices : (nv, 2) float array
    triangles : (nt, 3) int array, positively oriented
    boundary_edges : (nb, 2) int array
    boundary_tags : list of str, one tag per boundary edge
    periodic_pairs : (np, 3) int array of (master, slave, axis)
    """

    def __init__(self, vertices, triangles, boundary_edges, boundary_tags,
                 periodic_pairs=None):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        self.boundary_edges = np.ascontiguousarray(boundary_edges, dtype=np.int64)
        self.boundary_tags = list(boundary_tags)
        if periodic_pairs is None or len(periodic_pairs) == 0:
            periodic_pairs = np.zeros((0, 3), dtype=np.int64)
        self.periodic_pairs = np.ascontiguousarray(periodic_pairs, dtype=np.int64)

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_triangles(self):
        return self.triangles.shape[0]

    def triangle_areas(self):
        p = self.vertices
        t = self.triangles
        return 0.5 * _cross(p[t[:, 1]] - p[t[:, 0]], p[t[:, 2]] - p[t[:, 0]])

    def area(self):
        return float(np.sum(self.triangle_areas()))

    def min_angle(self):
        p = self.vertices
        t = self.triangles
        angles = []
        for i in range(3):
            a = p[t[:, i]]
            b = p[t[:, (i + 1) % 3]] - a
            c = p[t[:, (i + 2) % 3]] - a
            num = b[:, 0] * c[:, 0] + b[:, 1] * c[:, 1]
            den = np.linalg.norm(b, axis=1) * np.linalg.norm(c, axis=1)
            angles.append(np.degrees(np.arccos(np.clip(num / den, -1.0, 1.0))))
        return float(np.min(angles))


def _cross(u, v):
    """Row-wise z-component of the cross product of (n, 2) arrays."""
    return u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]


def _edge_counts(triangles):
    """All undirected edges of a triangle array and their multiplicity."""
    e = np.vstack([triangles[:, [0, 1]], triangles[:, [1, 2]], triangles[:, [2, 0]]])
    e = np.sort(e, axis=1)
    edges, counts = np.unique(e, axis=0, return_counts=True)
    return edges, counts


def validate_mesh(mesh, min_angle_deg=20.0, check_angles=True):
    """Check structural invariants; raise MeshQualityError on violation.

    Returns a dict with quality statistics.
    """
    areas = mesh.triangle_areas()
    if areas.size == 0:
        raise MeshQualityError("mesh has no triangles")
    if np.any(areas <= 0.0):
        raise MeshQualityError(f"{np.sum(areas <= 0)} nonpositive triangle areas")

    used = np.zeros(mesh.num_vertices, dtype=bool)
    used[mesh.triangles.ravel()] = True
    if not used.all():
        raise MeshQualityError(f"{np.sum(~used)} vertices not used by any triangle")

    edges, counts = _edge_counts(mesh.triangles)
    if np.any(counts > 2):
        raise MeshQualityError("non-manifold edge (shared by more than 2 triangles)")
    boundary = edges[counts == 1]
    tagged = np.sort(mesh.boundary_edges, axis=1)
    bset = set(map(tuple, boundary))
    tset = set(map(tuple, tagged))
    if bset != tset:
        raise MeshQualityError(
            f"tagged boundary edges do not match mesh boundary "
            f"({len(tset - bset)} extra, {len(bset - tset)} missing)"
        )
    for tag in mesh.boundary_tags:
        if tag not in BOUNDARY_TAGS:
            raise MeshQualityError(f"unknown boundary tag {tag!r}")

    v = mesh.vertices
    lo = v.min(axis=0)
    hi = v.max(axis=0)
    for edge, tag in zip(mesh.boundary_edges, mesh.boundary_tags):
        if tag == "Inclusion":
            continue
        axis, value = {
            "OuterLeft": (0, lo[0]), "OuterRight": (0, hi[0]),
            "OuterBottom": (1, lo[1]), "OuterTop": (1, hi[1]),
        }[tag]
        if np.max(np.abs(v[edge, axis] - value)) > 1e-12:
            raise MeshQualityError(f"{tag} edge {edge} not on its boundary line")

    for master, slave, axis in mesh.periodic_pairs:
        if axis not in (0, 1):
            raise MeshQualityError(f"periodic pair axis {axis} not in (0, 1)")
        delta = v[slave] - v[master]
        span = hi[axis] - lo[axis]
        if abs(delta[axis] - span) > 1e-12 or abs(delta[1 - axis]) > 1e-12:
            raise MeshQualityError(
                f"periodic pair ({master}, {slave}) offset {delta} is not a "
                f"full translation along axis {axis}"
            )

    min_angle = mesh.min_angle()
    if check_angles and min_angle < min_angle_deg:
        raise MeshQualityError(
            f"minimum angle {min_angle:.2f} deg below {min_angle_deg} deg"
        )
    return {
        "min_angle": min_angle,
        "area": float(np.sum(areas)),
        "num_vertices": mesh.num_vertices,
        "num_triangles": mesh.num_triangles,
    }


def _symmetric_linspace(n):
    """Grid 0..1 with n intervals, exactly symmetric under x -> 1 - x."""
    x = np.arange(n + 1) / n
    for j in range((n + 1) // 2):
        x[n - j] = 1.0 - x[j]
    return x


def _ring_angles(points, ring):
    """Angles in [0, 2 pi) about the cell center, from the first ring vertex."""
    d, d0 = points - _CENTER, ring[0] - _CENTER
    return np.mod(np.arctan2(d[:, 1], d[:, 0]) - math.atan2(d0[1], d0[0]),
                  2.0 * math.pi)


def _inside_ring(points, ring):
    """Whether each point lies strictly inside the ring.

    The ring is convex, counterclockwise and contains the cell center
    (_make_boundary checks all three), so a point is inside exactly when
    it lies left of the edge that closes its angular sector.
    """
    k = np.searchsorted(_ring_angles(ring, ring), _ring_angles(points, ring),
                        side="right") - 1
    a, b = ring[k], ring[(k + 1) % len(ring)]
    return _cross(b - a, points - a) > 0.0


def _nearest_on_polyline(points, poly):
    """Distance to closed polyline and index of the nearest segment."""
    q2 = np.roll(poly, -1, axis=0)
    seg = q2 - poly
    seglen2 = np.sum(seg * seg, axis=1)
    dist = np.full(len(points), np.inf)
    segidx = np.zeros(len(points), dtype=np.int64)
    nearest = np.zeros_like(points)
    for lo in range(0, len(points), 2048):
        p = points[lo:lo + 2048]
        w = p[:, None, :] - poly[None, :, :]
        t = np.clip(np.sum(w * seg[None, :, :], axis=2) / seglen2[None, :], 0.0, 1.0)
        proj = poly[None, :, :] + t[:, :, None] * seg[None, :, :]
        d2 = np.sum((p[:, None, :] - proj) ** 2, axis=2)
        k = np.argmin(d2, axis=1)
        rows = np.arange(len(p))
        dist[lo:lo + 2048] = np.sqrt(d2[rows, k])
        segidx[lo:lo + 2048] = k
        nearest[lo:lo + 2048] = proj[rows, k]
    return dist, segidx, nearest


class _CellBuilder:
    """One attempt at meshing the perforated cell; see gen_cell_mesh."""

    def __init__(self, spec, h, drop_factor, smooth_iters):
        self.spec = spec
        self.h = h
        self.drop_factor = drop_factor
        self.smooth_iters = smooth_iters
        self.n_side = max(4, int(round(1.0 / h)))
        per = spec.perimeter()
        n_ring = int(math.ceil(per / h))
        n_ring += (-n_ring) % 4  # multiple of 4 keeps the ring symmetric
        self.n_ring = n_ring
        self.sym = _SYM_CORE + (_SYM_EXTRA if spec.circular else ())

    def build(self):
        self._make_boundary()
        self._make_interior()
        self._smooth()
        return self._finalize()

    # -- construction ---------------------------------------------------

    def _make_boundary(self):
        n = self.n_side
        x = _symmetric_linspace(n)
        self.grid_x = x
        # Vertex order: corners, then side interiors, then the ring.
        pts = [(x[0], x[0]), (x[n], x[0]), (x[n], x[n]), (x[0], x[n])]
        self.corner = {(0, 0): 0, (n, 0): 1, (n, n): 2, (0, n): 3}
        self.side_nodes = {}
        idx = 4
        for tag, fixed_axis, fixed_val in (
            ("OuterBottom", 1, 0), ("OuterTop", 1, n),
            ("OuterLeft", 0, 0), ("OuterRight", 0, n),
        ):
            ids = np.empty(n + 1, dtype=np.int64)
            for j in range(n + 1):
                ij = (j, fixed_val) if fixed_axis == 1 else (fixed_val, j)
                if ij in self.corner:
                    ids[j] = self.corner[ij]
                else:
                    pts.append((x[ij[0]], x[ij[1]]))
                    ids[j] = idx
                    idx += 1
            self.side_nodes[tag] = ids
        self.n_square = idx

        theta = 2.0 * math.pi * np.arange(self.n_ring) / self.n_ring
        ring = self.spec.boundary_point(theta)
        ring = self._symmetrize_ring(ring)
        self.ring_base = idx
        self.points = np.vstack([np.array(pts, dtype=float), ring])
        self.n_fixed = self.points.shape[0]
        seg = np.roll(ring, -1, axis=0) - ring
        if not (np.all(_cross(seg, np.roll(seg, -1, axis=0)) > 0.0)
                and np.all(_cross(seg, _CENTER - ring) > 0.0)
                and np.all(np.diff(_ring_angles(ring, ring)) > 0.0)):
            raise MeshQualityError("inclusion ring is not convex and "
                                   "counterclockwise about the cell center")
        self.ring_seglen = np.hypot(seg[:, 0], seg[:, 1])
        self.ring_poly = ring
        self.ring_tree = cKDTree(ring)

    def _symmetrize_ring(self, ring):
        """Force the ring to be an exact orbit of its symmetry group."""
        n = self.n_ring
        done = np.zeros(n, dtype=bool)
        out = ring.copy()
        for k in range(n):
            if done[k]:
                continue
            rep = out[k]
            for mat, (sign, quarter) in self.sym:
                j = (sign * k + quarter * (n // 4)) % n
                if not done[j]:
                    out[j] = _CENTER + (rep - _CENTER) @ mat.T
                    done[j] = True
        return out

    def _grid_map(self, mat, i, j):
        n = self.n_side
        a, b = (j, i) if mat[0, 0] == 0.0 else (i, j)
        if mat[0, 0] < 0.0 or mat[0, 1] < 0.0:
            a = n - a
        if mat[1, 0] < 0.0 or mat[1, 1] < 0.0:
            b = n - b
        return a, b

    def _make_interior(self):
        n = self.n_side
        x = self.grid_x
        ii, jj = np.meshgrid(np.arange(1, n), np.arange(1, n), indexing="ij")
        ii, jj = ii.ravel(), jj.ravel()
        cand = np.column_stack([x[ii], x[jj]])

        reach = self.drop_factor * max(self.ring_seglen.max(), 0.5 * self.h)
        inside, dist, segidx, _ = self._near_ring(cand, reach)
        local = self.ring_seglen[segidx]
        drop = inside | (dist < self.drop_factor * np.maximum(local, 0.5 * self.h))

        # Decide keep/drop per symmetry orbit so the kept set is symmetric.
        index_of = {(a, b): k for k, (a, b) in enumerate(zip(ii, jj))}
        keep = np.zeros(len(cand), dtype=bool)
        seen = np.zeros(len(cand), dtype=bool)
        for k in range(len(cand)):
            if seen[k]:
                continue
            orbit = []
            for mat, _ in self.sym:
                m = index_of[self._grid_map(mat, ii[k], jj[k])]
                if not seen[m]:
                    seen[m] = True
                    orbit.append(m)
            if not drop[k]:
                keep[orbit] = True

        kept = np.flatnonzero(keep)
        remap = {k: t for t, k in enumerate(kept)}
        self.interior = cand[kept]
        # Permutations of the kept interior set, one per group element.
        self.perms = [np.array([remap[index_of[self._grid_map(mat, ii[k], jj[k])]]
                                for k in kept], dtype=np.int64)
                      for mat, _ in self.sym]

    def _orbit_average(self, pts):
        acc = np.zeros_like(pts)
        for (mat, _), perm in zip(self.sym, self.perms):
            acc += (pts[perm] - _CENTER) @ mat  # inverse of orthogonal mat is mat.T
        return _CENTER + acc / len(self.sym)

    def _near_ring(self, pts, reach):
        """Inside flags, then distance, segment and nearest point on the ring.

        The nearer end of a segment is at most half its length from any
        point on it, so an outside point whose nearest ring vertex is
        farther than reach plus half the longest segment has no segment
        within reach: it skips the segment scan and gets distance inf.
        """
        inside = _inside_ring(pts, self.ring_poly)
        vertex_dist = self.ring_tree.query(pts)[0]
        near = inside | (vertex_dist <= reach + 0.5 * self.ring_seglen.max())
        dist = np.full(len(pts), np.inf)
        segidx = np.zeros(len(pts), dtype=np.int64)
        nearest = np.zeros_like(pts)
        dist[near], segidx[near], nearest[near] = _nearest_on_polyline(
            pts[near], self.ring_poly)
        return inside, dist, segidx, nearest

    def _clamp(self, pts):
        m = 0.3 / self.n_side
        np.clip(pts, m, 1.0 - m, out=pts)
        inside, dist, segidx, nearest = self._near_ring(pts, 0.45 * self.h)
        margin = 0.45 * np.minimum(self.ring_seglen[segidx], self.h)
        bad = inside | (dist < margin)
        if np.any(bad):
            d = pts[bad] - nearest[bad]
            norm = np.linalg.norm(d, axis=1, keepdims=True)
            norm[norm == 0.0] = 1.0
            d /= norm
            d[inside[bad]] *= -1.0
            pts[bad] = nearest[bad] + margin[bad][:, None] * d
        return pts

    def _smooth(self):
        pts = np.vstack([self.points, self.interior])
        nf = self.n_fixed
        nbr = None
        for it in range(self.smooth_iters):
            if it % 5 == 0:
                nbr = self._adjacency(pts)
            mean = nbr @ pts
            deg = nbr @ np.ones(len(pts))
            deg[deg == 0.0] = 1.0
            moved = mean[nf:] / deg[nf:, None]
            moved = self._clamp(moved)
            pts[nf:] = self._orbit_average(moved)
        pts[nf:] = self._orbit_average(self._clamp(pts[nf:]))
        self.all_points = pts

    def _triangulate(self, pts):
        """Delaunay triangles of pts whose centroid lies outside the ring."""
        simp = Delaunay(pts).simplices.astype(np.int64)
        return simp[~_inside_ring(pts[simp].mean(axis=1), self.ring_poly)]

    def _adjacency(self, pts):
        e, _ = _edge_counts(self._triangulate(pts))
        n = len(pts)
        data = np.ones(2 * len(e))
        rows = np.concatenate([e[:, 0], e[:, 1]])
        cols = np.concatenate([e[:, 1], e[:, 0]])
        return coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()

    # -- assembly of the TriMesh ---------------------------------------

    def _finalize(self):
        pts = self.all_points
        simp = self._triangulate(pts)
        flip = _cross(pts[simp[:, 1]] - pts[simp[:, 0]],
                      pts[simp[:, 2]] - pts[simp[:, 0]]) < 0.0
        simp[flip] = simp[flip][:, [0, 2, 1]]

        edges, counts = _edge_counts(simp)
        boundary = edges[counts == 1]
        bedges, btags = self._classify_boundary(boundary)

        s = self.side_nodes
        pairs = [(a, b, 0) for a, b in zip(s["OuterLeft"], s["OuterRight"])]
        pairs += [(a, b, 1) for a, b in zip(s["OuterBottom"], s["OuterTop"])]

        mesh = TriMesh(pts, simp, bedges, btags, np.array(pairs))
        validate_mesh(mesh)
        return mesh

    def _classify_boundary(self, boundary):
        """Tag each boundary edge from the table of expected edges."""
        ring = self.ring_base + np.arange(self.n_ring + 1) % self.n_ring
        expected = {}
        for tag, ids in [*self.side_nodes.items(), ("Inclusion", ring)]:
            for a, b in zip(ids[:-1].tolist(), ids[1:].tolist()):
                expected[min(a, b), max(a, b)] = tag

        got = list(map(tuple, boundary.tolist()))
        if set(got) != expected.keys():
            raise MeshQualityError(
                f"triangulation does not conform to the boundary "
                f"({len(set(got) - expected.keys())} stray, "
                f"{len(expected.keys() - set(got))} missing edges)"
            )
        return boundary, [expected[e] for e in got]


def gen_cell_mesh(spec, h):
    """Mesh the unit cell minus the elliptical inclusion.

    Opposite outer faces get mirror-image discretizations so every
    boundary vertex has an exact periodic partner.  The point set is
    symmetric under the half-turn about the cell center and the diagonal
    reflections (and the axis reflections for a circular inclusion).

    Parameters
    ----------
    spec : EllipseSpec
    h : float
        Target edge length, 0.002 <= h <= 0.1.
    """
    if not 0.002 <= h <= 0.1:
        raise ValueError(f"h={h} outside the supported range [0.002, 0.1]")
    errors = []
    for drop_factor, smooth_iters in ((0.7, 30), (0.55, 40), (0.85, 40), (0.62, 60)):
        try:
            return _CellBuilder(spec, h, drop_factor, smooth_iters).build()
        except MeshQualityError as exc:
            errors.append(str(exc))
    raise MeshQualityError(
        "cell meshing failed after retries: " + "; ".join(errors)
    )


def gen_rect_mesh(lx, ly, h):
    """Structured triangulation of the rectangle (0,lx) x (0,ly).

    Squares are split along alternating diagonals to avoid a directional
    bias.  Boundary edges carry the four Outer* tags; there are no
    periodic pairs.
    """
    if lx <= 0 or ly <= 0:
        raise ValueError("rectangle sides must be positive")
    if h <= 0:
        raise ValueError("h must be positive")
    nx = max(1, int(round(lx / h)))
    ny = max(1, int(round(ly / h)))
    xs = np.arange(nx + 1) * (lx / nx)
    ys = np.arange(ny + 1) * (ly / ny)
    xs[-1] = lx
    ys[-1] = ly
    xx, yy = np.meshgrid(xs, ys, indexing="ij")
    verts = np.column_stack([xx.ravel(), yy.ravel()])

    def vid(i, j):
        return i * (ny + 1) + j

    # Square (i, j), in i-major order, gives two triangles.
    i, j = (a.ravel() for a in np.meshgrid(np.arange(nx), np.arange(ny),
                                           indexing="ij"))
    v00, v10, v01, v11 = vid(i, j), vid(i + 1, j), vid(i, j + 1), vid(i + 1, j + 1)
    even = ((i + j) % 2 == 0)[:, None]
    tris = np.where(even, np.column_stack([v00, v10, v11, v00, v11, v01]),
                    np.column_stack([v00, v10, v01, v10, v11, v01]))

    # Left and right edges interleaved, then bottom and top.
    j, i = np.arange(ny), np.arange(nx)
    bedges = np.concatenate([
        np.column_stack([vid(0, j), vid(0, j + 1), vid(nx, j), vid(nx, j + 1)]),
        np.column_stack([vid(i, 0), vid(i + 1, 0), vid(i, ny), vid(i + 1, ny)]),
    ], axis=None).reshape(-1, 2)
    btags = ["OuterLeft", "OuterRight"] * ny + ["OuterBottom", "OuterTop"] * nx

    mesh = TriMesh(verts, tris.reshape(-1, 3), bedges, btags)
    validate_mesh(mesh)
    return mesh


def write_mesh(mesh, path):
    """Write a mesh in the MESH2D 1 text format."""
    write_rows(path, itertools.chain(
        [("NV", mesh.num_vertices)], mesh.vertices.tolist(),
        [("NT", mesh.num_triangles)], mesh.triangles.tolist(),
        [("NB", len(mesh.boundary_edges))],
        zip(*mesh.boundary_edges.T.tolist(), mesh.boundary_tags),
        [("NP", len(mesh.periodic_pairs))], mesh.periodic_pairs.tolist(),
    ), header="MESH2D 1", sep=" ")


def _section(records, keyword):
    _, (_, count) = records.table((("section", (keyword,)),
                                   ("count", range(2 ** 31))), 1)
    return int(count[0])


def read_mesh(path):
    """Read a MESH2D 1 file; errors carry 1-based line numbers.  Every
    triangle needs a finite positive area and every edge at most two
    triangles; angles are not checked."""
    records = Records(path, header="MESH2D 1", sep=None)
    nv = _section(records, "NV")
    _, xy = records.table((("coordinate", float),) * 2, nv)
    index = ("index", range(nv))
    lines, tris = records.table((index,) * 3, _section(records, "NT"))
    _, edges = records.table((index, index, ("boundary tag", BOUNDARY_TAGS)),
                             _section(records, "NB"))
    _, pairs = records.table((index, index, ("axis", (0, 1))),
                             _section(records, "NP"))
    records.finish()
    mesh = TriMesh(np.column_stack(xy), np.column_stack(tris),
                   np.column_stack(edges[:2]), edges[2].tolist(),
                   np.column_stack(pairs))
    with np.errstate(over="ignore", invalid="ignore"):
        areas = mesh.triangle_areas()
    bad = np.flatnonzero(~(np.isfinite(areas) & (areas > 0.0)))
    if bad.size:
        t = bad[0]
        raise FormatError(f"triangle {' '.join(map(str, mesh.triangles[t]))} "
                          f"has area {float(areas[t])!r}, must be finite "
                          f"and positive", lines[t])
    # An edge key in sorted order; equal keys two apart mean three users.
    e = np.sort(mesh.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    key = e[:, 0] * nv + e[:, 1]
    order = np.argsort(key, kind="stable")
    third = order[2:][key[order[2:]] == key[order[:-2]]]
    if third.size:
        k = third.min()
        raise FormatError(f"edge {e[k, 0]} {e[k, 1]} is shared by more "
                          f"than two triangles", lines[k // 3])
    return mesh
