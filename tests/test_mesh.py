"""Tests for the structured thin-ladder triangulations.

Areas are checked against closed-form rectangle sums, which pins down both
the occupancy logic and the triangle orientation at once.
"""

import math

import numpy as np
import pytest

from ladderspec import mesh as mesh_mod
from ladderspec.mesh import (
    Mesh,
    build_cell_mesh,
    build_supercell_mesh,
    rectangle_mesh,
)
from ladderspec.params import LadderParams, SymmetryClass

S = SymmetryClass.SYMMETRIC
A = SymmetryClass.ANTISYMMETRIC


def _half_cell_area(L, eps):
    return eps * (1.0 - eps) + 0.5 * eps * L


def test_cell_mesh_area_and_tags():
    p = LadderParams(2.0, 0.2)
    mesh = build_cell_mesh(p, S, h=0.05)
    assert np.all(mesh.areas() > 0.0)
    assert abs(mesh.total_area() - _half_cell_area(2.0, 0.2)) < 1e-12
    # left and right columns sit on x = -1/2 and x = 1/2 with matching y lists
    assert np.allclose(mesh.nodes[mesh.left, 0], -0.5)
    assert np.allclose(mesh.nodes[mesh.right, 0], 0.5)
    assert np.allclose(mesh.nodes[mesh.left, 1], mesh.nodes[mesh.right, 1])
    # the symmetry line y = 0 is tagged (top of the half rung)
    assert mesh.axis.size > 0
    assert np.allclose(mesh.nodes[mesh.axis, 1], 0.0)
    assert np.abs(mesh.nodes[mesh.axis, 0]).max() <= 0.1 + 1e-12
    assert mesh.meta["kind"] == "cell" and mesh.meta["eps"] == 0.2


def test_cell_mesh_min_layers_across_thin_spans():
    # at the coarsest admissible h the floor of three layers must kick in
    p = LadderParams(2.0, 0.3)
    mesh = build_cell_mesh(p, S, h=0.1)
    xs = np.unique(mesh.nodes[:, 0])
    ys = np.unique(mesh.nodes[:, 1])
    inside_rung = xs[(xs > -0.15 + 1e-12) & (xs < 0.15 - 1e-12)]
    inside_strip = ys[(ys > -1.0 + 1e-12) & (ys < -0.7 - 1e-12)]
    assert inside_rung.size >= 2  # 3 layers = 2 interior grid lines
    assert inside_strip.size >= 2


def test_cell_mesh_rejects_coarse_h():
    with pytest.raises(ValueError):
        build_cell_mesh(LadderParams(2.0, 0.1), S, h=0.05)


def test_supercell_mesh_area_tracks_defect_width():
    L, eps, n = 2.0, 0.2, 4
    for mu in (0.25, 1.0, 2.5):
        p = LadderParams(L, eps, mu=mu)
        mesh = build_supercell_mesh(p, S, n, h=eps / 3)
        want = (2 * n + 1) * _half_cell_area(L, eps) + (mu - 1.0) * eps * (
            0.5 * L - eps
        )
        assert np.all(mesh.areas() > 0.0)
        assert abs(mesh.total_area() - want) < 1e-12
        # three layers across the central rung of width mu*eps
        xs = np.unique(mesh.nodes[:, 0])
        w = mu * eps
        assert xs[(xs > -0.5 * w + 1e-12) & (xs < 0.5 * w - 1e-12)].size >= 2


def test_supercell_mesh_validation():
    p = LadderParams(2.0, 0.2, mu=0.25)
    with pytest.raises(ValueError):
        build_supercell_mesh(p, S, 3, h=0.05)
    with pytest.raises(ValueError):
        build_supercell_mesh(p, S, 5, h=0.1)
    with pytest.raises(ValueError):
        build_supercell_mesh(LadderParams(2.0, 0.2, mu=6.0), S, 5, h=0.05)


def test_supercell_contains_half_integer_lines():
    p = LadderParams(2.0, 0.2, mu=0.25)
    mesh = build_supercell_mesh(p, S, 4, h=0.05)
    xs = np.unique(mesh.nodes[:, 0])
    for j in range(-4, 4):
        assert np.isclose(xs, j + 0.5, atol=1e-12).any()


def test_supercell_centre_cell_is_the_cell_mesh():
    # one geometry: with mu = 1 the nodes of the supercell with |x| <= 1/2
    # are exactly those of the periodicity cell, in the same order
    for L, eps, h in [(2.0, 0.2, 0.05), (0.5, 0.1, 0.025), (2.0, 0.3, 0.1)]:
        p = LadderParams(L, eps)
        cell = build_cell_mesh(p, S, h)
        sup = build_supercell_mesh(p, S, 4, h)
        centre = sup.nodes[np.abs(sup.nodes[:, 0]) <= 0.5]
        assert np.array_equal(centre, cell.nodes)


def _two_d_rule(xs, ys, rects):
    """Nodes and triangles of the grid cells whose centre lies in a rectangle,
    occupancy decided by 2-D comparisons on the cell-centre grids."""
    CX, CY = np.meshgrid(0.5 * (xs[:-1] + xs[1:]), 0.5 * (ys[:-1] + ys[1:]), indexing="ij")
    occupied = np.zeros(CX.shape, dtype=bool)
    for x0, x1, y0, y1 in rects:
        occupied |= (CX > x0) & (CX < x1) & (CY > y0) & (CY < y1)
    used = np.zeros((xs.size, ys.size), dtype=bool)
    i, j = np.nonzero(occupied)
    for di in (0, 1):
        for dj in (0, 1):
            used[i + di, j + dj] = True
    index = np.cumsum(used).reshape(used.shape) - 1
    XX, YY = np.meshgrid(xs, ys, indexing="ij")
    bl, br, tl, tr = index[i, j], index[i + 1, j], index[i, j + 1], index[i + 1, j + 1]
    tris = np.concatenate([np.column_stack([bl, br, tr]), np.column_stack([bl, tr, tl])])
    return np.column_stack([XX[used], YY[used]]), tris


def test_occupancy_matches_the_two_d_rule_bit_for_bit(monkeypatch):
    built = []
    real = mesh_mod._structured_mesh

    def keeps_inputs(xs, ys, rects, meta):
        built.append((np.asarray(xs), np.asarray(ys), rects, real(xs, ys, rects, meta)))
        return built[-1][-1]

    monkeypatch.setattr(mesh_mod, "_structured_mesh", keeps_inputs)
    build_cell_mesh(LadderParams(2.0, 0.2), S, 0.05)
    build_supercell_mesh(LadderParams(2.0, 0.2, mu=0.25), A, 4, 0.05)
    build_supercell_mesh(LadderParams(0.5, 0.1, mu=1.7), S, 4, 0.025)
    rectangle_mesh(1.5, 0.7, 6, 4)
    assert len(built) == 4
    for xs, ys, rects, mesh in built:
        nodes, tris = _two_d_rule(xs, ys, rects)
        assert mesh.nodes.dtype == nodes.dtype and mesh.triangles.dtype == tris.dtype
        assert mesh.nodes.tobytes() == nodes.tobytes()
        assert mesh.triangles.tobytes() == tris.tobytes()


def test_rectangle_mesh_counts_and_area():
    mesh = rectangle_mesh(1.5, 0.7, 6, 4)
    assert mesh.n_nodes == 7 * 5
    assert mesh.n_triangles == 2 * 6 * 4
    assert abs(mesh.total_area() - 1.5 * 0.7) < 1e-12
    assert np.all(mesh.areas() > 0.0)


def test_save_load_round_trip(tmp_path):
    mesh = build_cell_mesh(LadderParams(2.0, 0.25), S, h=0.06)
    rng = np.random.default_rng(4)

    plain = tmp_path / "plain.mesh"
    mesh.save(plain)
    back, vals = Mesh.load(plain)
    assert vals is None
    assert np.array_equal(back.nodes, mesh.nodes)
    assert np.array_equal(back.triangles, mesh.triangles)
    assert np.array_equal(back.left, mesh.left)
    assert np.array_equal(back.right, mesh.right)
    assert np.array_equal(back.axis, mesh.axis)
    assert back.meta == mesh.meta

    real_vals = rng.standard_normal(mesh.n_nodes)
    real = tmp_path / "real.mesh"
    mesh.save(real, values=real_vals)
    _, vr = Mesh.load(real)
    assert np.array_equal(vr, real_vals)

    cplx_vals = real_vals + 1j * rng.standard_normal(mesh.n_nodes)
    cplx = tmp_path / "cplx.mesh"
    mesh.save(cplx, values=cplx_vals)
    _, vc = Mesh.load(cplx)
    assert np.array_equal(vc, cplx_vals)

    with pytest.raises(ValueError):
        mesh.save(tmp_path / "bad.mesh", values=real_vals[:-1])
    (tmp_path / "junk.mesh").write_text("not a mesh\n")
    with pytest.raises(ValueError):
        Mesh.load(tmp_path / "junk.mesh")


def test_save_writes_the_per_line_format_and_load_reads_every_bit(tmp_path):
    # the reference is the per-line f-string format the file has always had
    mesh = rectangle_mesh(1.0, 0.5, 3, 2)
    edge = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308, math.inf, -math.inf, 0.1]
    rng = np.random.default_rng(8)
    real = np.concatenate([edge, rng.standard_normal(mesh.n_nodes - len(edge))])
    # set apart: 1j * inf would put a NaN in the real part
    cplx = np.empty(real.size, dtype=complex)
    cplx.real, cplx.imag = real, real[::-1]
    for values, cols in ((real, lambda v: [v]), (cplx, lambda v: [v.real, v.imag])):
        path = tmp_path / "values.mesh"
        mesh.save(path, values=values)
        lines = path.read_text().splitlines()
        want = [
            " ".join(f"{c:.17g}" for c in (*xy, *cols(v)))
            for xy, v in zip(mesh.nodes, values)
        ]
        want += [" ".join(str(i) for i in tri) for tri in mesh.triangles]
        assert lines[2 : 2 + mesh.n_nodes + mesh.n_triangles] == want
        back, got = Mesh.load(path)
        assert got.dtype == values.dtype
        assert got.tobytes() == values.tobytes()
        assert back.nodes.tobytes() == mesh.nodes.tobytes()
