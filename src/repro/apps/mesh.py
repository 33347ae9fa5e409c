"""Unstructured meshes: the substrate for the irregular applications.

The paper's irregular patterns come from a conjugate-gradient solver and
from Mavriplis-style unstructured Euler solvers on meshes of 545, 2K,
3K, 9K (Euler) and 16K (CG) vertices.  Those NASA meshes are not
available, so we synthesize unstructured simplicial meshes with the same
vertex counts via Delaunay triangulation of random point clouds (2-D
triangles for the planar FEM/CG cases, 3-D tetrahedra for the Euler
cases — Mavriplis' meshes are three-dimensional, which is visible in the
paper's higher Euler communication densities).  An anisotropic ``stretch``
reshapes the cloud, changing the partition-boundary statistics the same
way different aerodynamic geometries do.

What downstream code consumes is only the combinatorics: vertex
adjacency (for halo patterns), edges (for finite-volume fluxes), cells
(for assembly), plus coordinates (for partitioning) — all of which this
module provides uniformly for 2-D and 3-D meshes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Tuple

import numpy as np
from scipy.spatial import Delaunay

__all__ = [
    "UnstructuredMesh",
    "delaunay_mesh",
    "structured_triangle_mesh",
    "PAPER_MESHES",
    "paper_mesh",
]


@dataclass(frozen=True)
class UnstructuredMesh:
    """A simplicial mesh (triangles in 2-D, tetrahedra in 3-D)."""

    points: np.ndarray  # (nv, dim)
    cells: np.ndarray  # (nc, dim + 1) vertex indices

    def __post_init__(self) -> None:
        if self.points.ndim != 2 or self.points.shape[1] not in (2, 3):
            raise ValueError(f"points must be (nv, 2|3), got {self.points.shape}")
        if self.cells.ndim != 2 or self.cells.shape[1] != self.dim + 1:
            raise ValueError(
                f"cells must be (nc, {self.dim + 1}), got {self.cells.shape}"
            )
        if self.cells.min(initial=0) < 0 or self.cells.max(initial=0) >= self.n_vertices:
            raise ValueError("cell vertex index out of range")

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def n_vertices(self) -> int:
        return self.points.shape[0]

    @property
    def n_cells(self) -> int:
        return self.cells.shape[0]

    @cached_property
    def edges(self) -> np.ndarray:
        """Unique undirected edges as a sorted ``(ne, 2)`` array.

        Each cell's vertex pairs are packed as ``lo * n_vertices + hi``;
        one ``np.unique`` of that int64 key sorts and dedups them."""
        nv = self.n_vertices
        a, b = np.triu_indices(self.cells.shape[1], 1)
        u, v = self.cells[:, a].ravel(), self.cells[:, b].ravel()
        key = np.unique(np.minimum(u, v).astype(np.int64) * nv + np.maximum(u, v))
        e = np.empty((key.size, 2), dtype=self.cells.dtype)
        e[:, 0], e[:, 1] = np.divmod(key, nv)
        return e

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

    @cached_property
    def vertex_adjacency(self) -> List[np.ndarray]:
        """adjacency[v] = sorted array of vertices sharing an edge with v."""
        nv = self.n_vertices
        e = self.edges.astype(np.int64)
        src = np.concatenate((e[:, 0], e[:, 1]))
        dst = np.concatenate((e[:, 1], e[:, 0]))
        nbrs = dst[np.argsort(src * nv + dst)]
        return np.split(nbrs, np.cumsum(self.vertex_degree)[:-1])

    @cached_property
    def vertex_degree(self) -> np.ndarray:
        return np.bincount(self.edges.ravel(), minlength=self.n_vertices)

    def laplacian(self) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """Graph Laplacian in COO form ``(rows, cols, vals)``.

        ``L = D - A`` over the edge graph; adding a multiple of the
        identity makes it SPD — the matrix the CG reproduction solves.
        """
        e = self.edges
        deg = self.vertex_degree.astype(float)
        rows = np.concatenate([e[:, 0], e[:, 1], np.arange(self.n_vertices)])
        cols = np.concatenate([e[:, 1], e[:, 0], np.arange(self.n_vertices)])
        vals = np.concatenate(
            [-np.ones(len(e)), -np.ones(len(e)), deg]
        )
        return rows, cols, vals


def delaunay_mesh(
    n_vertices: int,
    dim: int = 2,
    seed: int = 0,
    stretch: float = 1.0,
) -> UnstructuredMesh:
    """Random Delaunay mesh with ``n_vertices`` points.

    ``stretch`` scales the first coordinate, producing the elongated
    partition boundaries of high-aspect-ratio aerodynamic meshes (used
    to mimic the paper's Euler 3K case, whose pattern has fewer but
    larger messages than its neighbours in Table 12).
    """
    if n_vertices < dim + 2:
        raise ValueError(f"need at least {dim + 2} vertices, got {n_vertices}")
    if dim not in (2, 3):
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    if stretch <= 0:
        raise ValueError(f"stretch must be positive, got {stretch}")
    rng = np.random.default_rng(seed)
    pts = rng.random((n_vertices, dim))
    pts[:, 0] *= stretch
    tri = Delaunay(pts)
    return UnstructuredMesh(points=pts, cells=np.asarray(tri.simplices))


def structured_triangle_mesh(nx: int, ny: int) -> UnstructuredMesh:
    """Regular right-triangle grid (deterministic; for unit tests)."""
    if nx < 2 or ny < 2:
        raise ValueError("need at least a 2x2 grid of vertices")
    xs, ys = np.meshgrid(np.linspace(0, 1, nx), np.linspace(0, 1, ny))
    pts = np.column_stack([xs.ravel(), ys.ravel()])

    def vid(i: int, j: int) -> int:
        return j * nx + i

    cells = []
    for j in range(ny - 1):
        for i in range(nx - 1):
            cells.append([vid(i, j), vid(i + 1, j), vid(i, j + 1)])
            cells.append([vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)])
    return UnstructuredMesh(points=pts, cells=np.array(cells, dtype=np.int64))


#: The paper's Table 12 workloads:
#: name -> (vertices, dim, stretch, seed, words_per_vertex).
#: Most Euler meshes are 3-D (Mavriplis' meshes are three-dimensional,
#: matching the ~40% communication densities the paper reports); the CG
#: matrix comes from a stretched planar 16K-vertex mesh whose strip
#: partitions give the paper's low density and large per-message volume.
#: ``words_per_vertex`` is the number of 8-byte values exchanged per
#: ghost vertex per iteration, chosen so the mean bytes/operation lands
#: near the paper's Table 12 header statistics (documented substitution:
#: we do not have the original NASA meshes).
PAPER_MESHES: Dict[str, Tuple[int, int, float, int, int]] = {
    "cg16k": (16000, 2, 24.0, 11, 5),
    "euler545": (545, 3, 1.0, 12, 2),
    "euler2k": (2000, 3, 1.0, 13, 3),
    "euler3k": (3000, 3, 16.0, 14, 5),
    "euler9k": (9000, 3, 1.0, 17, 3),
}


def paper_mesh(name: str) -> UnstructuredMesh:
    """Build the synthetic stand-in for one of the paper's meshes."""
    try:
        n, dim, stretch, seed, _words = PAPER_MESHES[name]
    except KeyError:
        raise ValueError(
            f"unknown mesh {name!r}; choose from {sorted(PAPER_MESHES)}"
        ) from None
    return delaunay_mesh(n, dim=dim, seed=seed, stretch=stretch)
