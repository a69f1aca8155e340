"""Self-contained SVG rendering of nodal fields on triangle meshes.

Filled contours are produced per triangle by clipping it against the
level bands of the linear interpolant (a Sutherland-Hodgman pass in
value space; a triangle inside one band is written as it stands), so
the output needs no external plotting stack.  The
renderer is a convenience artifact; nothing downstream consumes it.
"""

import numpy as np

# fixed 10-level ramp, dark-to-bright
_RAMP = (
    "#440154", "#482878", "#3e4989", "#31688e", "#26828e",
    "#1f9e89", "#35b779", "#6ece58", "#b5de2b", "#fde725",
)
# Pixel width of the drawing area; its height follows the aspect.
WIDTH = 640
# Triangles formatted per write.
_CHUNK = 4096


def _clip_half(points, values, level, keep_above):
    """Keep the polygon part with v >= level (or <= with keep_above False)."""
    out_p = []
    out_v = []
    n = len(points)
    for i in range(n):
        p0, v0 = points[i], values[i]
        p1, v1 = points[(i + 1) % n], values[(i + 1) % n]
        in0 = v0 >= level if keep_above else v0 <= level
        in1 = v1 >= level if keep_above else v1 <= level
        if in0:
            out_p.append(p0)
            out_v.append(v0)
        if in0 != in1 and v1 != v0:
            t = min(max((level - v0) / (v1 - v0), 0.0), 1.0)
            out_p.append((p0[0] + t * (p1[0] - p0[0]),
                          p0[1] + t * (p1[1] - p0[1])))
            out_v.append(level)
    return out_p, out_v


def _band_polygon(points, values, lo, hi):
    """Clip a triangle to the band lo <= v <= hi."""
    points, values = _clip_half(points, values, lo, True)
    if not points:
        return []
    points, values = _clip_half(points, values, hi, False)
    return points


def _polygon(coords, band):
    return (f'<polygon points="{coords}" fill="{_RAMP[band]}" '
            f'stroke="{_RAMP[band]}" stroke-width="0.4"/>')


def render_field_svg(path, mesh, values, title=None):
    """Write a filled-contour SVG of a nodal field.

    Parameters
    ----------
    mesh : TriMesh
    values : (num_vertices,) finite nodal data
    title : str or None
        Optional caption placed above the drawing.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (mesh.num_vertices,):
        raise ValueError("values must be nodal (one per vertex)")
    if not np.isfinite(values).all():
        raise ValueError("values must be finite")
    verts = mesh.vertices
    lo = verts.min(axis=0)
    hi = verts.max(axis=0)
    span = np.maximum(hi - lo, 1e-30)
    scale = WIDTH / span[0]
    height = span[1] * scale
    pad = 0.05 * WIDTH
    bar_w = 0.06 * WIDTH
    top = 0.08 * WIDTH if title else pad
    total_w = WIDTH + 3 * pad + bar_w
    total_h = height + top + pad

    vmin = float(values.min())
    vmax = float(values.max())
    flat = vmax - vmin < 1e-300
    edges = np.linspace(vmin, vmax, len(_RAMP) + 1)

    def to_px(point):
        x = pad + (point[0] - lo[0]) * scale
        y = top + (hi[1] - point[1]) * scale
        return x, y

    rows = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{total_w:.0f}" height="{total_h:.0f}" '
        f'viewBox="0 0 {total_w:.0f} {total_h:.0f}">',
        f'<rect width="{total_w:.0f}" height="{total_h:.0f}" fill="white"/>',
    ]
    if title:
        # What xml.sax.saxutils.escape does, without importing it: that
        # loads urllib and ssl, 2 MB of resident memory.
        text = title.replace("&", "&amp;").replace("<", "&lt;").replace(
            ">", "&gt;")
        rows.append(
            f'<text x="{pad:.1f}" y="{0.05 * WIDTH:.1f}" '
            f'font-family="monospace" font-size="{0.03 * WIDTH:.0f}">'
            f"{text}</text>")

    tris = mesh.triangles
    tri_vals = values[tris]
    tmin = tri_vals.min(axis=1)
    tmax = tri_vals.max(axis=1)
    # Bands first..last may hold part of a triangle.  One whose values
    # all lie in band first (the last band includes its top level, which
    # linspace makes exactly vmax) is that band's polygon as it stands;
    # the clipper would return its three corners unchanged.  A triangle
    # touching any other level keeps the clipper, degenerate parts and all.
    if flat:
        first = last = np.zeros(len(tris), dtype=np.int64)
        whole = np.ones(len(tris), dtype=bool)
    else:
        top_band = len(_RAMP) - 1
        # a triangle at vmax would start past the top band: clip it in
        first = np.clip(np.searchsorted(edges, tmin, "right") - 1, 0,
                        top_band)
        last = np.minimum(np.searchsorted(edges, tmax, "left"), top_band)
        upper = edges[np.minimum(first + 1, top_band + 1)]
        whole = (first == top_band) | ((first < top_band) & (tmax < upper))
    px = pad + (verts[:, 0] - lo[0]) * scale
    py = top + (hi[1] - verts[:, 1]) * scale
    labels = np.array([f"{x:.2f},{y:.2f}"
                       for x, y in zip(px.tolist(), py.tolist())],
                      dtype=object)
    bounds = edges.tolist()

    def polygons(start, stop):
        """The rows of triangles start..stop-1, in order, as one text."""
        out = [_polygon(f"{p} {q} {r}", b) if one else ""
               for p, q, r, b, one in zip(*labels[tris[start:stop]].T,
                                          first[start:stop].tolist(),
                                          whole[start:stop].tolist())]
        for i in np.flatnonzero(~whole[start:stop]).tolist():
            t = start + i
            pts = verts[tris[t]].tolist()
            vals = tri_vals[t].tolist()
            parts = []
            for band in range(first[t], last[t] + 1):
                poly = _band_polygon(pts, vals, bounds[band],
                                     bounds[band + 1])
                if len(poly) >= 3:
                    parts.append(_polygon(" ".join(
                        f"{x:.2f},{y:.2f}" for x, y in map(to_px, poly)),
                        band))
            out[i] = "\n".join(parts)
        return "".join(row + "\n" for row in out if row)

    head = len(rows)
    bar_x = WIDTH + 2 * pad
    seg_h = height / len(_RAMP)
    for b, color in enumerate(_RAMP):
        y = top + height - (b + 1) * seg_h
        rows.append(f'<rect x="{bar_x:.1f}" y="{y:.1f}" '
                    f'width="{bar_w:.1f}" height="{seg_h + 0.5:.1f}" '
                    f'fill="{color}"/>')
    fs = 0.024 * WIDTH
    rows.append(f'<text x="{bar_x:.1f}" y="{top + height + fs + 2:.1f}" '
                f'font-family="monospace" font-size="{fs:.0f}">'
                f"{vmin:.4g}</text>")
    rows.append(f'<text x="{bar_x:.1f}" y="{top - 4:.1f}" '
                f'font-family="monospace" font-size="{fs:.0f}">'
                f"{vmax:.4g}</text>")
    rows.append("</svg>")
    # The triangles go a chunk at a time between the head and the
    # legend, so the document is never held whole in memory.
    with open(path, "w", encoding="ascii") as handle:
        handle.write("\n".join(rows[:head]) + "\n")
        for start in range(0, len(tris), _CHUNK):
            handle.write(polygons(start, start + _CHUNK))
        handle.write("\n".join(rows[head:]) + "\n")
