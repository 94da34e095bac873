"""Structured P1 triangulations of the thin-ladder geometry.

All domains here are finite unions of axis-aligned rectangles (the ladder is
an infinite band minus rectangular obstacles), so meshing is done on a tensor
grid whose lines contain every rectangle edge: a grid cell is either fully
inside or fully outside, occupancy is decided by the cell centre, and each
occupied cell is split into two positively oriented triangles.  This keeps
the left/right boundary node layouts in exact translation correspondence,
which the quasi-periodic tying relies on.

The periodicity cell and the supercell come from one half-ladder builder:
the cell is the ladder with no side cells and unit weight on its rung.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .params import LadderParams, SymmetryClass


def _refine_spans(breaks, h, min_sub):
    """Tensor-grid coordinates from mandatory breakpoints.

    Each span [breaks[i], breaks[i+1]] is split uniformly into
    max(min_sub[i], ceil(span/h)) pieces; min_sub lets callers force several
    layers across structurally thin spans (rung widths) without refining the
    whole grid.
    """
    coords = [np.array([breaks[0]])]
    for a, b, ms in zip(breaks[:-1], breaks[1:], min_sub):
        if not b > a:
            raise ValueError(f"breakpoints not increasing: {a} >= {b}")
        n = max(int(ms), math.ceil((b - a) / h - 1e-12))
        coords.append(np.linspace(a, b, n + 1)[1:])
    return np.concatenate(coords)


@dataclass
class Mesh:
    """Conforming triangulation of a rectangle union, with tagged boundaries.

    left/right hold node ids on the minimal/maximal x line sorted by y (used
    as slave/master sets for Bloch tying); axis holds node ids on y = 0, the
    symmetry line of the full ladder.
    """

    nodes: np.ndarray
    triangles: np.ndarray
    left: np.ndarray
    right: np.ndarray
    axis: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def n_nodes(self):
        return self.nodes.shape[0]

    @property
    def n_triangles(self):
        return self.triangles.shape[0]

    def areas(self):
        p = self.nodes[self.triangles]
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    def total_area(self):
        return float(self.areas().sum())

    # -- text serialisation -------------------------------------------------
    def save(self, path, values=None):
        """Plain-text dump; values is an optional per-node array (may be complex)."""
        buf = io.StringIO()
        kind = 0
        if values is not None:
            values = np.asarray(values)
            if values.shape[0] != self.n_nodes:
                raise ValueError("values length does not match node count")
            kind = 2 if np.iscomplexobj(values) else 1
        buf.write("ladderspec-mesh 1\n")
        buf.write(f"{self.n_nodes} {self.n_triangles} {kind}\n")
        for i, (x, y) in enumerate(self.nodes):
            line = f"{x:.17g} {y:.17g}"
            if kind == 1:
                line += f" {values[i]:.17g}"
            elif kind == 2:
                line += f" {values[i].real:.17g} {values[i].imag:.17g}"
            buf.write(line + "\n")
        for a, b, c in self.triangles:
            buf.write(f"{a} {b} {c}\n")
        for tag in ("left", "right", "axis"):
            ids = " ".join(str(int(i)) for i in getattr(self, tag))
            buf.write(f"{tag}: {ids}\n")
        buf.write("meta: " + json.dumps(self.meta, sort_keys=True) + "\n")
        with open(path, "w") as fh:
            fh.write(buf.getvalue())

    @classmethod
    def load(cls, path):
        """Inverse of save; returns (mesh, values-or-None)."""
        with open(path) as fh:
            header = fh.readline().split()
            if header[:1] != ["ladderspec-mesh"]:
                raise ValueError(f"{path} is not a mesh file")
            nn, nt, kind = map(int, fh.readline().split())
            nodes = np.empty((nn, 2))
            values = None
            if kind == 1:
                values = np.empty(nn)
            elif kind == 2:
                values = np.empty(nn, dtype=complex)
            for i in range(nn):
                parts = fh.readline().split()
                nodes[i] = float(parts[0]), float(parts[1])
                if kind == 1:
                    values[i] = float(parts[2])
                elif kind == 2:
                    values[i] = float(parts[2]) + 1j * float(parts[3])
            tris = np.empty((nt, 3), dtype=int)
            for i in range(nt):
                tris[i] = [int(t) for t in fh.readline().split()]
            tags = {}
            for _ in range(3):
                name, _, rest = fh.readline().partition(":")
                tags[name.strip()] = np.array(
                    [int(t) for t in rest.split()], dtype=int
                )
            meta_line = fh.readline()
            meta = json.loads(meta_line.partition(":")[2])
        mesh = cls(nodes, tris, tags["left"], tags["right"], tags["axis"], meta)
        return mesh, values


def _structured_mesh(xs, ys, rects, meta):
    """Mesh the union of rects on the tensor grid xs x ys.

    Every rectangle edge must lie on a grid line (callers guarantee this by
    putting rectangle corners among the mandatory breakpoints).
    """
    xs = np.asarray(xs)
    ys = np.asarray(ys)
    cx = 0.5 * (xs[:-1] + xs[1:])
    cy = 0.5 * (ys[:-1] + ys[1:])
    # a cell centre lies in a rectangle when its x and its y lie in the two
    # open intervals: one outer product of 1-D masks per rectangle
    occupied = np.zeros((cx.size, cy.size), dtype=bool)
    for x0, x1, y0, y1 in rects:
        occupied |= np.outer((cx > x0) & (cx < x1), (cy > y0) & (cy < y1))
    nx1, ny1 = xs.size, ys.size
    point_used = np.zeros((nx1, ny1), dtype=bool)
    occ_i, occ_j = np.nonzero(occupied)
    for di in (0, 1):
        for dj in (0, 1):
            point_used[occ_i + di, occ_j + dj] = True
    index = -np.ones((nx1, ny1), dtype=int)
    used_i, used_j = np.nonzero(point_used)
    index[used_i, used_j] = np.arange(used_i.size)
    nodes = np.column_stack([xs[used_i], ys[used_j]])
    bl = index[occ_i, occ_j]
    br = index[occ_i + 1, occ_j]
    tl = index[occ_i, occ_j + 1]
    tr = index[occ_i + 1, occ_j + 1]
    tris = np.concatenate(
        [
            np.column_stack([bl, br, tr]),
            np.column_stack([bl, tr, tl]),
        ]
    )

    def _column_ids(i_col):
        ids = index[i_col, :]
        ids = ids[ids >= 0]
        order = np.argsort(nodes[ids, 1], kind="stable")
        return ids[order]

    left = _column_ids(0)
    right = _column_ids(nx1 - 1)
    ax_col = np.isclose(ys, 0.0, atol=1e-14)
    axis_mask = np.zeros((nx1, ny1), dtype=bool)
    if ax_col.any():
        axis_mask[:, np.nonzero(ax_col)[0][0]] = True
    axis = index[axis_mask]
    axis = np.sort(axis[axis >= 0])
    return Mesh(nodes, tris, left, right, axis, meta)


def _half_ladder_mesh(L, eps, mu, n_cells, h, meta):
    """Lower half (y <= 0) of the ladder |x| <= n_cells + 1/2, rung at x = 0 of width mu*eps.

    The rail strip and every half rung get at least three element layers
    across their thickness, so h <= eps/3 suffices; the interior
    half-integer lines make per-cell mass bookkeeping exact.
    """
    if h > eps / 3 + 1e-12:
        raise ValueError(f"h={h} too coarse: need h <= eps/3 = {eps / 3}")
    half_w = n_cells + 0.5
    rungs = []
    for j in range(-n_cells, n_cells + 1):
        w = mu * eps if j == 0 else eps
        rungs.append((j - 0.5 * w, j + 0.5 * w))
    x_breaks = sorted(
        [-half_w, half_w]
        + [x for rung in rungs for x in rung]
        + [j + 0.5 for j in range(-n_cells, n_cells)]
    )
    rung_lo = {lo for lo, _ in rungs}
    min_sub = [3 if a in rung_lo else 1 for a in x_breaks[:-1]]
    xs = _refine_spans(x_breaks, h, min_sub)
    ys = _refine_spans([-0.5 * L, -0.5 * L + eps, 0.0], h, [3, 1])
    rects = [(-half_w, half_w, -0.5 * L, -0.5 * L + eps)]
    rects += [(lo, hi, -0.5 * L, 0.0) for lo, hi in rungs]
    return _structured_mesh(xs, ys, rects, meta)


def build_cell_mesh(params: LadderParams, sym_class, h):
    """Half periodicity cell (y <= 0) of the unperturbed ladder.

    Bottom rail strip (-1/2, 1/2) x (-L/2, -L/2+eps) plus the half rung
    (-eps/2, eps/2) x (-L/2, 0).  The symmetry line y = 0 is tagged in
    mesh.axis; the class decides its boundary condition at assembly time, not
    here.  Requires h <= eps/3 so the strip and the rung carry at least three
    element layers across their thickness.
    """
    meta = {
        "kind": "cell",
        "L": params.L,
        "eps": params.eps,
        "h": h,
        "sym_class": SymmetryClass.parse(sym_class).value,
    }
    return _half_ladder_mesh(params.L, params.eps, 1.0, 0, h, meta)


def build_supercell_mesh(params: LadderParams, sym_class, n_cells, h):
    """Half supercell |x| <= n_cells + 1/2 with the central rung width mu*eps.

    All boundaries are natural (Neumann) except the symmetry line y = 0,
    tagged for the class condition; the truncation ends are plain Neumann
    cuts through the rail strip.  The central rung span always receives at
    least three element layers across its width mu*eps, so h itself only
    needs to satisfy h <= eps/3.
    """
    L, eps, mu = params.L, params.eps, params.mu
    if n_cells < 4:
        raise ValueError(f"n_cells={n_cells} too small, need >= 4")
    if mu * eps >= 1.0:
        raise ValueError("central rung width mu*eps must stay below the period")
    meta = {
        "kind": "supercell",
        "L": L,
        "eps": eps,
        "mu": mu,
        "n_cells": n_cells,
        "h": h,
        "sym_class": SymmetryClass.parse(sym_class).value,
    }
    return _half_ladder_mesh(L, eps, mu, n_cells, h, meta)


def rectangle_mesh(a, b, nx, ny):
    """Uniform triangulation of (0, a) x (0, b), for solver self-checks."""
    xs = np.linspace(0.0, a, nx + 1)
    ys = np.linspace(0.0, b, ny + 1)
    return _structured_mesh(
        xs, ys, [(0.0, a, 0.0, b)], {"kind": "rectangle", "a": a, "b": b}
    )
