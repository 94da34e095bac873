"""Reference Bloch pencil of a periodicity-cell mesh, tied node by node.

The right boundary trace is e^{-i theta} times the left one, and the
antisymmetric class drops the y = 0 line (Dirichlet).  The tying map T
(u_full = T u_red) is built here from the mesh's boundary lists alone, and
the pencil is (T^H K T, T^H M T) on the untied P1 matrices.  The package
splits the same pencil once per cell into theta-independent parts
(`fem._BlochSplit`); this reference never calls that split, so comparing the
two checks it.
"""

import math

import numpy as np
import scipy.sparse as sp

from ladderspec.fem import assemble_p1
from ladderspec.params import SymmetryClass


def bloch_pencil(mesh, theta, free=None):
    """(T^H K T, T^H M T, T) at Bloch phase theta, in CSR.

    free lists the mesh node ids kept as dofs, in column order (for
    instance `_BlochSplit.free`); by default every node off the right
    boundary, and off the axis for the antisymmetric class, in id order.
    """
    if not 0.0 <= theta <= math.pi + 1e-12:
        raise ValueError(f"theta={theta} outside [0, pi]")
    n = mesh.n_nodes
    if free is None:
        drop = np.zeros(n, dtype=bool)
        drop[mesh.right] = True
        if mesh.meta.get("sym_class") == SymmetryClass.ANTISYMMETRIC.value:
            drop[mesh.axis] = True
        free = np.flatnonzero(~drop)
    col = np.full(n, -1)
    col[free] = np.arange(free.size)
    # exactly real at the ends, so that those pencils come out real symmetric
    phase = {0.0: 1.0, math.pi: -1.0}.get(theta, np.exp(-1j * theta))
    T = sp.csr_matrix(
        (
            np.concatenate([np.ones(free.size), np.full(mesh.right.size, phase)]),
            (np.concatenate([free, mesh.right]), np.concatenate([col[free], col[mesh.left]])),
        ),
        shape=(n, free.size),
    )
    TH = T.conj().T
    K, M = assemble_p1(mesh)
    return (TH @ K @ T).tocsr(), (TH @ M @ T).tocsr(), T
