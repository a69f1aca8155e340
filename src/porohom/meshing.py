"""Triangular meshes for the periodic unit cell and rectangular domains.

The unit cell is the square (0,1)^2 with an elliptical inclusion removed.
Meshes carry boundary tags and explicit periodic vertex pairs so that
downstream assembly can identify opposite faces node by node.  The text
format (``MESH2D 1``) is plain ASCII and round-trips exactly.
"""

import itertools
import logging
import math

import numpy as np
from scipy.sparse import coo_matrix
from scipy.spatial import Delaunay, cKDTree

from .textio import FormatError, Records, write_rows

_log = logging.getLogger(__name__)

BOUNDARY_TAGS = ("OuterLeft", "OuterRight", "OuterBottom", "OuterTop", "Inclusion")
# Smallest triangle angle validate_mesh accepts.
MIN_ANGLE_DEG = 20.0

_CENTER = np.array([0.5, 0.5])
# Each Outer* side's axis, and whether its line is the vertices' least (0)
# or greatest (1) coordinate along it.
_SIDE_LINES = {"OuterLeft": (0, 0), "OuterRight": (0, 1),
               "OuterBottom": (1, 0), "OuterTop": (1, 1)}

# The half-turn R and the diagonal reflection S about the cell center,
# as matrices on (x, y); they generate the symmetry group {I, R, S, RS}
# of the tilted cell.
HALF_TURN = np.array([[-1.0, 0.0], [0.0, -1.0]])
DIAGONAL = np.array([[0.0, 1.0], [1.0, 0.0]])
# Signed permutation matrices for the symmetries of the tilted cell:
# identity, half-turn about the center, and the two diagonal reflections.
# A circular inclusion additionally admits the axis reflections and
# quarter turns.  Each entry is (matrix, ring map (sign, quarter-shift)).
_SYM_CORE = (
    (np.array([[1.0, 0.0], [0.0, 1.0]]), (1, 0)),
    (HALF_TURN, (1, 2)),
    (DIAGONAL, (-1, 0)),
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
# Largest distance from a mapped vertex to the vertex taken as its image.
ORBIT_ATOL = 1e-10


class MeshQualityError(RuntimeError):
    """Raised when generation cannot reach the required element quality."""


class NotAnOrbit(ValueError):
    """Raised when a symmetry of the cell does not map a mesh onto itself."""


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

    def perimeter(self):
        """Arc length of the ellipse by 64-point Gauss-Legendre quadrature."""
        x, w = np.polynomial.legendre.leggauss(64)
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

    def side(self, tag):
        """The boundary edges that carry tag, (n, 2), in stored order."""
        mask = np.array([t == tag for t in self.boundary_tags], dtype=bool)
        return self.boundary_edges[mask]

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


def edge_keys(pairs, nv):
    """One integer per undirected vertex pair (a, b): min * nv + max."""
    return (np.minimum(pairs[:, 0], pairs[:, 1]) * nv
            + np.maximum(pairs[:, 0], pairs[:, 1]))


def edge_table(triangles, nv):
    """Every edge of a triangle array once: the (ne, 2) pairs a < b in
    lexicographic order, the edge of each triangle side as an (nt, 3)
    array in side order (0, 1), (1, 2), (2, 0), and each edge's count of
    triangles."""
    sides = triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    keys, side_edge, counts = np.unique(edge_keys(sides, nv),
                                        return_inverse=True, return_counts=True)
    return (np.column_stack(np.divmod(keys, nv)), side_edge.reshape(-1, 3),
            counts)


def vertex_image(mesh, mat):
    """Vertex permutation of the cell symmetry x -> c + mat (x - c) about
    the center c of the mesh's bounding box; NotAnOrbit unless it maps
    every vertex onto a vertex within ORBIT_ATOL and triangles onto
    triangles."""
    pts = mesh.vertices
    center = (pts.min(axis=0) + pts.max(axis=0)) / 2.0
    dist, image = cKDTree(pts).query(center + (pts - center) @ mat.T)
    far = np.argmax(dist)
    if dist[far] > ORBIT_ATOL:
        raise NotAnOrbit(f"vertex {far} has no image within {ORBIT_ATOL:.0e}")
    tris = np.sort(mesh.triangles, axis=1)
    mapped = np.sort(image[mesh.triangles], axis=1)
    if not np.array_equal(tris[np.lexsort(tris.T)],
                          mapped[np.lexsort(mapped.T)]):
        raise NotAnOrbit("the vertex map does not carry triangles to triangles")
    return image


def _words(row):
    """A record's fields as the mesh file writes them."""
    return " ".join(map(str, row))


@np.errstate(over="ignore", invalid="ignore")
def _contract_fault(mesh):
    """The first break of the structural mesh contract, as (message,
    record kind, index) with kind "vertex", "triangle", "boundary",
    "pair" or None for the whole mesh; None if the mesh keeps it.

    In order: every triangle has a finite positive area; no edge is
    shared by more than two triangles; the boundary records are exactly
    the edges of one triangle, each once; each periodic pair along axis
    0 or 1 is a translation across the cell; there is a triangle; the
    vertices are finite and each is used by a triangle; every tag is
    known and each Outer* edge lies on its side's line, within 1e-12;
    every pair's axis is 0 or 1.
    """
    v, tris, nv = mesh.vertices, mesh.triangles, mesh.num_vertices
    records, pairs = mesh.boundary_edges, mesh.periodic_pairs
    areas = mesh.triangle_areas()
    bad = np.flatnonzero(~(np.isfinite(areas) & (areas > 0.0)))
    if bad.size:
        return (f"triangle {_words(tris[bad[0]])} has area "
                f"{float(areas[bad[0]])!r}, must be finite and positive",
                "triangle", bad[0])
    edges, side_edge, counts = edge_table(tris, nv)
    sides = side_edge.ravel()
    if counts.max(initial=0) > 2:
        # the sides on crowded edges, grouped by edge in file order
        s = np.flatnonzero(counts[sides] > 2)
        s = s[np.argsort(sides[s], kind="stable")]
        k = s[2:][sides[s[2:]] == sides[s[:-2]]].min()
        return (f"edge {_words(edges[sides[k]])} is shared by more than two "
                "triangles", "triangle", k // 3)
    keys, tagged = edge_keys(edges, nv), edge_keys(records, nv)
    first = np.zeros(tagged.size, dtype=bool)
    first[np.unique(tagged, return_index=True)[1]] = True
    bad = np.flatnonzero(~(first & np.isin(tagged, keys[counts == 1])))
    if bad.size:
        return (f"boundary edge {_words(records[bad[0]])} is tagged twice or "
                "not the side of exactly one triangle", "boundary", bad[0])
    bad = np.flatnonzero(((counts == 1) & ~np.isin(keys, tagged))[sides])
    if bad.size:
        return (f"edge {_words(edges[sides[bad[0]]])} of exactly one "
                "triangle has no boundary record", "triangle", bad[0] // 3)

    # A slave lies off its master by the span of all vertices along the
    # pair's axis and by 0 along the other (a NaN from overflow fails).
    bounds = np.array([v.min(axis=0, initial=np.inf),
                       v.max(axis=0, initial=-np.inf)])
    master, slave, axis = pairs.T
    unit = np.arange(2) == np.clip(axis, 0, 1)[:, None]
    offset = np.where(unit, bounds[1] - bounds[0], 0.0)
    ok = (np.abs(v[slave] - v[master] - offset) <= 1e-12).all(axis=1)
    bad = np.flatnonzero(~ok & ((axis == 0) | (axis == 1)))
    if bad.size:
        return (f"periodic pair {_words(pairs[bad[0]])} is not a translation "
                "across the cell", "pair", bad[0])

    if not tris.size:
        return "mesh has no triangles", None, None
    bad = np.flatnonzero(~np.isfinite(v).all(axis=1))
    if bad.size:
        return (f"vertex {bad[0]} at {_words(v[bad[0]].tolist())} is not "
                "finite", "vertex", bad[0])
    bad = np.flatnonzero(np.bincount(tris.ravel(), minlength=nv) == 0)
    if bad.size:
        return f"vertex {bad[0]} is not used by any triangle", "vertex", bad[0]
    tags = np.asarray(mesh.boundary_tags, dtype=str)
    bad = np.flatnonzero(~np.isin(tags, BOUNDARY_TAGS))
    if bad.size:
        return (f"boundary edge {_words(records[bad[0]])} has unknown tag "
                f"{mesh.boundary_tags[bad[0]]!r}", "boundary", bad[0])
    off = np.zeros(tags.size)
    for tag, (side_axis, top) in _SIDE_LINES.items():
        on = tags == tag
        off[on] = np.abs(v[records[on], side_axis]
                         - bounds[top, side_axis]).max(axis=1)
    bad = np.flatnonzero(off > 1e-12)
    if bad.size:
        return (f"{mesh.boundary_tags[bad[0]]} edge {_words(records[bad[0]])} "
                "is not on its boundary line", "boundary", bad[0])
    bad = np.flatnonzero((axis != 0) & (axis != 1))
    if bad.size:
        return (f"periodic pair {_words(pairs[bad[0]])} has an axis other "
                "than 0 or 1", "pair", bad[0])
    return None


def validate_mesh(mesh):
    """Check the structural contract that read_mesh also checks (see
    _contract_fault), then the minimum angle; raise MeshQualityError on
    the first violation.

    Returns a dict with quality statistics.
    """
    fault = _contract_fault(mesh)
    if fault is not None:
        raise MeshQualityError(fault[0])
    min_angle = mesh.min_angle()
    if min_angle < MIN_ANGLE_DEG:
        raise MeshQualityError(
            f"minimum angle {min_angle:.2f} deg below {MIN_ANGLE_DEG} deg"
        )
    return {
        "min_angle": min_angle,
        "area": mesh.area(),
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
    """The cell's square sides and inclusion ring, built and checked once;
    each build call makes one attempt at the mesh (see gen_cell_mesh)."""

    def __init__(self, spec, h):
        self.spec = spec
        self.h = h
        self.n_side = max(4, int(round(1.0 / h)))
        per = spec.perimeter()
        n_ring = int(math.ceil(per / h))
        n_ring += (-n_ring) % 4  # multiple of 4 keeps the ring symmetric
        self.n_ring = n_ring
        self.sym = _SYM_CORE + (_SYM_EXTRA if spec.circular else ())
        self._make_boundary()

    def build(self, drop_factor, smooth_iters):
        """One attempt at the interior; MeshQualityError if it fails."""
        self._make_interior(drop_factor)
        self._smooth(smooth_iters)
        return self._finalize()

    # -- construction ---------------------------------------------------

    def _make_boundary(self):
        n = self.n_side
        x = _symmetric_linspace(n)
        self.grid_x = x
        # Vertex order: corners, then side interiors, then the ring.
        inner, lo, hi = x[1:n], np.full(n - 1, x[0]), np.full(n - 1, x[n])
        square = [[(x[0], x[0]), (x[n], x[0]), (x[n], x[n]), (x[0], x[n])],
                  np.column_stack([inner, lo]), np.column_stack([inner, hi]),
                  np.column_stack([lo, inner]), np.column_stack([hi, inner])]
        # Each side runs between its corners in increasing coordinate.
        ends = {"OuterBottom": (0, 1), "OuterTop": (3, 2),
                "OuterLeft": (0, 3), "OuterRight": (1, 2)}
        self.side_nodes = {tag: np.r_[a, 4 + k * (n - 1) + np.arange(n - 1), b]
                           for k, (tag, (a, b)) in enumerate(ends.items())}
        self.ring_base = 4 * n

        theta = 2.0 * math.pi * np.arange(self.n_ring) / self.n_ring
        ring = self._symmetrize_ring(self.spec.boundary_point(theta))
        self.points = np.vstack(square + [ring])
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

    def _make_interior(self, drop_factor):
        n = self.n_side
        x = self.grid_x
        ii, jj = np.meshgrid(np.arange(1, n), np.arange(1, n), indexing="ij")
        ii, jj = ii.ravel(), jj.ravel()
        cand = np.column_stack([x[ii], x[jj]])

        reach = drop_factor * max(self.ring_seglen.max(), 0.5 * self.h)
        inside, dist, segidx, _ = self._near_ring(cand, reach)
        local = self.ring_seglen[segidx]
        drop = inside | (dist < drop_factor * np.maximum(local, 0.5 * self.h))

        # images[g, k]: flat index of candidate k's image under element g,
        # which swaps and mirrors (i -> n - i) the grid indices.
        images = []
        for mat, _ in self.sym:
            a, b = (jj, ii) if mat[0, 0] == 0.0 else (ii, jj)
            a = n - a if mat[0].min() < 0.0 else a
            b = n - b if mat[1].min() < 0.0 else b
            images.append((a - 1) * (n - 1) + (b - 1))
        images = np.array(images)
        # An orbit is kept whole, exactly when its smallest member is kept.
        kept = np.flatnonzero(~drop[images.min(axis=0)])
        remap = np.empty(len(cand), dtype=np.int64)
        remap[kept] = np.arange(kept.size)
        self.interior = cand[kept]
        # Permutations of the kept interior set, one row per group element.
        self.perms = remap[images[:, kept]]

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

    def _smooth(self, smooth_iters):
        pts = np.vstack([self.points, self.interior])
        nf = self.n_fixed
        nbr = None
        for it in range(smooth_iters):
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
        e = edge_table(self._triangulate(pts), len(pts))[0]
        e = np.vstack([e, e[:, ::-1]])
        return coo_matrix((np.ones(len(e)), (e[:, 0], e[:, 1])),
                          shape=(len(pts), len(pts))).tocsr()

    # -- assembly of the TriMesh ---------------------------------------

    def _finalize(self):
        pts = self.all_points
        simp = self._triangulate(pts)
        flip = _cross(pts[simp[:, 1]] - pts[simp[:, 0]],
                      pts[simp[:, 2]] - pts[simp[:, 0]]) < 0.0
        simp[flip] = simp[flip][:, [0, 2, 1]]

        edges, _, counts = edge_table(simp, len(pts))
        bedges, btags = self._classify_boundary(edges[counts == 1])

        s = self.side_nodes
        pairs = [(a, b, 0) for a, b in zip(s["OuterLeft"], s["OuterRight"])]
        pairs += [(a, b, 1) for a, b in zip(s["OuterBottom"], s["OuterTop"])]

        mesh = TriMesh(pts, simp, bedges, btags, np.array(pairs))
        validate_mesh(mesh)
        return mesh

    def _classify_boundary(self, boundary):
        """Tag each boundary edge from the table of expected edges."""
        nv = len(self.all_points)
        ring = self.ring_base + np.arange(self.n_ring + 1) % self.n_ring
        chains = [*self.side_nodes.items(), ("Inclusion", ring)]
        expected = edge_keys(np.concatenate(
            [np.column_stack([ids[:-1], ids[1:]]) for _, ids in chains]), nv)
        tags = np.repeat(np.array([tag for tag, _ in chains], dtype=object),
                         [len(ids) - 1 for _, ids in chains])
        order = np.argsort(expected)
        got = edge_keys(boundary, nv)
        if not np.array_equal(expected[order], got):
            common = np.intersect1d(expected, got).size
            raise MeshQualityError(
                f"triangulation does not conform to the boundary "
                f"({got.size - common} stray, "
                f"{expected.size - common} missing edges)"
            )
        return boundary, tags[order].tolist()


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

    Sides and ring are built and checked once; the interior is tried with
    (drop factor, smoothing iterations) (0.7, 30), then (0.85, 40).  Each
    failure logs a DEBUG line and is named in MeshQualityError.
    """
    if not 0.002 <= h <= 0.1:
        raise ValueError(f"h={h} outside the supported range [0.002, 0.1]")
    builder = _CellBuilder(spec, h)
    errors = []
    for drop_factor, smooth_iters in ((0.7, 30), (0.85, 40)):
        try:
            return builder.build(drop_factor, smooth_iters)
        except MeshQualityError as exc:
            errors.append(f"drop {drop_factor}, smoothing {smooth_iters}: {exc}")
            _log.debug("cell mesh attempt failed, %s", errors[-1])
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
    if not all(map(math.isfinite, (lx, ly, h, lx / h, ly / h))):
        raise ValueError(f"lx={lx}, ly={ly} and h={h} must give finite "
                         f"sides and cell counts")
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
    """The line and count of a section's head record, "keyword count"."""
    [line], (_, count) = records.table((("section", (keyword,)),
                                        ("count", range(2 ** 31))), 1)
    return line, int(count[0])


def read_mesh(path):
    """Read a MESH2D 1 file; errors name the file and the 1-based line.
    The mesh must keep the structural contract of validate_mesh
    (_contract_fault): a break of it is reported at the line of the
    record it names, or of the NT head for a mesh without triangles;
    angles are not checked."""
    records = Records(path, header="MESH2D 1", sep=None)
    nv = _section(records, "NV")[1]
    lines = {}
    lines["vertex"], xy = records.table((("coordinate", float),) * 2, nv)
    index = ("index", range(nv))
    head, nt = _section(records, "NT")
    lines["triangle"], tris = records.table((index,) * 3, nt)
    lines["boundary"], tagged = records.table(
        (index, index, ("boundary tag", BOUNDARY_TAGS)),
        _section(records, "NB")[1])
    lines["pair"], pairs = records.table((index, index, ("axis", (0, 1))),
                                         _section(records, "NP")[1])
    records.finish()
    mesh = TriMesh(np.column_stack(xy), np.column_stack(tris),
                   np.column_stack(tagged[:2]), tagged[2].tolist(),
                   np.column_stack(pairs))
    fault = _contract_fault(mesh)
    if fault is not None:
        message, kind, row = fault
        raise records.error(message,
                            head if kind is None else lines[kind][row])
    return mesh
