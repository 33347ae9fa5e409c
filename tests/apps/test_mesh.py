"""Tests for mesh generation and combinatorics."""

import numpy as np
import pytest

from repro.apps import (
    PAPER_MESHES,
    UnstructuredMesh,
    delaunay_mesh,
    paper_mesh,
    structured_triangle_mesh,
)


class TestStructuredMesh:
    def test_counts(self):
        m = structured_triangle_mesh(4, 3)
        assert m.n_vertices == 12
        assert m.n_cells == 2 * 3 * 2
        assert m.dim == 2

    def test_edges_unique_and_sorted(self):
        m = structured_triangle_mesh(3, 3)
        e = m.edges
        assert (e[:, 0] < e[:, 1]).all()
        assert len(np.unique(e, axis=0)) == len(e)

    def test_adjacency_symmetric(self):
        m = structured_triangle_mesh(5, 4)
        adj = m.vertex_adjacency
        for v, neigh in enumerate(adj):
            for u in neigh:
                assert v in adj[u]

    def test_degree_matches_adjacency(self):
        m = structured_triangle_mesh(4, 4)
        for v, neigh in enumerate(m.vertex_adjacency):
            assert m.vertex_degree[v] == len(neigh)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            structured_triangle_mesh(1, 5)


class TestDelaunay:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_vertex_count(self, dim):
        m = delaunay_mesh(200, dim=dim, seed=1)
        assert m.n_vertices == 200
        assert m.dim == dim
        assert m.cells.shape[1] == dim + 1

    def test_deterministic_in_seed(self):
        a = delaunay_mesh(100, seed=5)
        b = delaunay_mesh(100, seed=5)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.cells, b.cells)

    def test_stretch_changes_geometry(self):
        a = delaunay_mesh(100, seed=5, stretch=1.0)
        b = delaunay_mesh(100, seed=5, stretch=10.0)
        assert b.points[:, 0].max() > 5 * a.points[:, 0].max()

    def test_connected_graph(self):
        import networkx as nx

        m = delaunay_mesh(150, seed=2)
        g = nx.Graph(m.edges.tolist())
        g.add_nodes_from(range(m.n_vertices))
        assert nx.is_connected(g)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            delaunay_mesh(3, dim=2)
        with pytest.raises(ValueError):
            delaunay_mesh(100, dim=4)
        with pytest.raises(ValueError):
            delaunay_mesh(100, stretch=0.0)


class TestLaplacian:
    def test_rows_sum_to_zero(self):
        import scipy.sparse as sp

        m = structured_triangle_mesh(4, 4)
        rows, cols, vals = m.laplacian()
        a = sp.coo_matrix((vals, (rows, cols))).tocsr()
        assert np.allclose(a.sum(axis=1), 0)

    def test_positive_semidefinite(self):
        import scipy.sparse as sp

        m = delaunay_mesh(60, seed=0)
        rows, cols, vals = m.laplacian()
        a = sp.coo_matrix((vals, (rows, cols))).toarray()
        eig = np.linalg.eigvalsh(a)
        assert eig.min() > -1e-9


class TestPaperMeshes:
    def test_all_paper_meshes_build(self):
        for name, (n, dim, *_rest) in PAPER_MESHES.items():
            m = paper_mesh(name)
            assert m.n_vertices == n
            assert m.dim == dim

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            paper_mesh("euler1M")


# ----------------------------------------------------------------------
# The per-edge code, kept as oracles.
# ----------------------------------------------------------------------
def old_edges(mesh):
    simplex = mesh.cells
    k = simplex.shape[1]
    pairs = []
    for a in range(k):
        for b in range(a + 1, k):
            pairs.append(simplex[:, (a, b)])
    e = np.vstack(pairs)
    e.sort(axis=1)
    return np.unique(e, axis=0)


def old_vertex_adjacency(mesh):
    adj = [[] for _ in range(mesh.n_vertices)]
    for a, b in old_edges(mesh):
        adj[a].append(int(b))
        adj[b].append(int(a))
    return [np.array(sorted(x), dtype=np.int64) for x in adj]


def old_vertex_degree(mesh):
    deg = np.zeros(mesh.n_vertices, dtype=np.int64)
    for a, b in old_edges(mesh):
        deg[a] += 1
        deg[b] += 1
    return deg


@pytest.mark.parametrize(
    "build",
    [
        lambda: paper_mesh("euler545"),
        lambda: paper_mesh("euler2k"),
        lambda: paper_mesh("cg16k"),
        lambda: structured_triangle_mesh(9, 6),
        # An isolated vertex: no edge, an empty adjacency, degree 0.
        lambda: UnstructuredMesh(np.zeros((4, 2)), np.array([[0, 2, 3]])),
    ],
    ids=["euler545", "euler2k", "cg16k", "structured", "isolated-vertex"],
)
def test_packed_combinatorics_match_the_per_edge_code(build):
    mesh = build()
    want = old_edges(mesh)
    got = mesh.edges
    assert got.dtype == want.dtype == mesh.cells.dtype
    assert got.shape == want.shape and np.array_equal(got, want)
    degree = mesh.vertex_degree
    assert degree.dtype == np.int64
    assert np.array_equal(degree, old_vertex_degree(mesh))
    adjacency = mesh.vertex_adjacency
    reference = old_vertex_adjacency(mesh)
    assert len(adjacency) == len(reference) == mesh.n_vertices
    for a, b in zip(adjacency, reference):
        assert a.dtype == b.dtype and a.tolist() == b.tolist()


def test_combinatorics_use_no_row_wise_sort(monkeypatch):
    calls = []
    unique = np.unique

    def counted(*args, **kwargs):
        if kwargs.get("axis") is not None:
            calls.append(kwargs["axis"])
        return unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", counted)
    mesh = delaunay_mesh(300, dim=3, seed=4)
    mesh.edges, mesh.vertex_adjacency, mesh.laplacian()
    assert calls == []
