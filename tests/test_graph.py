"""Lattice construction, graph-file ingestion, precision blocks and the
spectral log-determinant identity."""

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from helpers import split_graph
from secar import (CarStructure, GraphFormatError, SpatialGraph, ZetaBoundsError,
                   build_torus_lattice, car_precision_block, load_graph,
                   logdet_precision)


def write_graph(tmp_path, text, name="g.graph"):
    path = tmp_path / name
    path.write_text(text, encoding="ascii")
    return path


class TestLoadGraph:
    def test_three_node_path_eigenvalues(self, tmp_path):
        path = write_graph(tmp_path, "3\n1 1 2\n2 2 1 3\n3 1 2\n")
        g = load_graph(path)
        assert g.n_d == 3
        np.testing.assert_allclose(g.eigenvalues, [-np.sqrt(2), 0.0, np.sqrt(2)],
                                   atol=1e-12)

    def test_single_node_degenerate(self, tmp_path):
        path = write_graph(tmp_path, "1\n1 0\n")
        g = load_graph(path)
        car = CarStructure.from_graph(g)
        np.testing.assert_allclose(g.eigenvalues, [0.0])
        assert car.degenerate
        assert car.zeta_bounds == (-np.inf, np.inf)
        assert car.contains(123.0)

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = write_graph(tmp_path, "# header\n\n3\n1 1 2  # neighbor list\n2 2 1 3\n\n3 1 2\n")
        assert load_graph(path).n_d == 3

    @pytest.mark.parametrize("text,fragment", [
        ("x\n", "node count"),
        ("2\n1 1 5\n2 0\n", "outside"),
        ("2\n1 2 2\n2 1 1\n", "announces"),
        ("2\n1 1 1\n2 0\n", "itself"),
        ("2\n1 1 2\n1 1 2\n", "duplicate"),
        ("2\n1\n", "expected"),
        ("2\n1 1 2.5\n", "non-integer"),
    ])
    def test_malformed_files_rejected(self, tmp_path, text, fragment):
        path = write_graph(tmp_path, text)
        with pytest.raises(GraphFormatError, match=fragment):
            load_graph(path)

    def test_asymmetric_strict_raises(self, tmp_path):
        path = write_graph(tmp_path, "3\n1 1 2\n2 1 3\n3 1 2\n")
        with pytest.raises(GraphFormatError, match="asymmetric"):
            load_graph(path, strict=True)

    def test_asymmetric_nonstrict_symmetrizes_with_warning(self, tmp_path):
        path = write_graph(tmp_path, "3\n1 1 2\n2 1 3\n3 1 2\n")
        with pytest.warns(UserWarning, match="symmetrized"):
            g = load_graph(path)
        a = g.adjacency.toarray()
        assert a[0, 1] == a[1, 0] == 1.0
        np.testing.assert_array_equal(a, a.T)

    def test_eigenvalues_sum_to_zero(self, tmp_path):
        path = write_graph(tmp_path, "4\n1 2 2 3\n2 2 1 4\n3 2 1 4\n4 2 2 3\n")
        g = load_graph(path)
        assert abs(g.eigenvalues.sum()) < 1e-8


class TestTorus:
    def test_3x3_eigenvalue_multiset(self):
        g = build_torus_lattice(3, 3)
        expected = np.sort(np.array([4.0] + [1.0] * 4 + [-2.0] * 4))
        np.testing.assert_allclose(np.sort(g.eigenvalues), expected, atol=1e-10)

    def test_circulant_formula_matches_eigensolver(self):
        rows, cols = 4, 5
        g = build_torus_lattice(rows, cols)
        analytic = np.sort([
            2.0 * np.cos(2 * np.pi * k / rows) + 2.0 * np.cos(2 * np.pi * l / cols)
            for k in range(rows) for l in range(cols)])
        np.testing.assert_allclose(np.sort(g.eigenvalues), analytic, atol=1e-8)

    def test_every_node_degree_four(self):
        for rows, cols in ((3, 3), (3, 4), (10, 10)):
            g = build_torus_lattice(rows, cols)
            assert np.all(g.degrees() == 4)
            a = g.adjacency.toarray()
            np.testing.assert_array_equal(a, a.T)
            assert g.adjacency.nnz == 4 * rows * cols  # 2 * (#edges)

    def test_10x10_bounds_admit_paper_zeta(self):
        car = CarStructure.from_graph(build_torus_lattice(10, 10))
        assert abs(car.graph.eigenvalues[-1] - 4.0) < 1e-10
        assert car.contains(0.245)
        assert not car.contains(0.2501)

    @pytest.mark.parametrize("rows,cols", [(2, 4), (4, 2), (1, 1)])
    def test_small_dimensions_rejected(self, rows, cols):
        with pytest.raises(ValueError, match=">= 3"):
            build_torus_lattice(rows, cols)


class TestPrecisionBlock:
    @pytest.mark.parametrize("zeta,tau2", [(0.2, 2.5), (-0.24, 3.0), (0.1, 0.013),
                                           (-0.05, 0.7)])
    def test_dense_block_equals_sparse_expression_bitwise(self, tmp_path, zeta, tau2):
        # a path 4-2-1-3-5 read from a file, and a torus
        loaded = load_graph(write_graph(tmp_path, "5\n1 2 2 3\n2 2 1 4\n3 2 1 5\n4 1 2\n5 1 3\n"))
        for graph in (loaded, build_torus_lattice(4, 5)):
            car = CarStructure.from_graph(graph)
            q = car_precision_block(car, zeta, tau2)
            expected = ((sp.identity(car.n_d) - zeta * graph.adjacency) / tau2).toarray()
            assert type(q) is np.ndarray
            np.testing.assert_array_equal(q, expected)

    def test_dense_adjacency_is_read_only(self, torus3):
        g = torus3.graph
        np.testing.assert_array_equal(g.dense_adjacency, g.adjacency.toarray())
        with pytest.raises(ValueError):
            g.dense_adjacency[0, 1] = 0.0

    def test_zero_zeta_is_scaled_identity(self, torus3):
        q = car_precision_block(torus3, 0.0, 2.0)
        np.testing.assert_allclose(q, 0.5 * np.eye(9), atol=1e-15)

    def test_entries_match_formula(self, torus3):
        q = car_precision_block(torus3, 0.2, 1.0)
        a = torus3.graph.adjacency.toarray()
        np.testing.assert_allclose(q, np.eye(9) - 0.2 * a, atol=1e-15)

    def test_paper_setting_is_positive_definite(self):
        car = CarStructure.from_graph(build_torus_lattice(10, 10))
        q = car_precision_block(car, 0.245, 0.4)
        np.linalg.cholesky(q)  # raises if not PD

    def test_out_of_bounds_zeta_rejected_with_bound(self, torus3):
        with pytest.raises(ZetaBoundsError, match="admissible interval"):
            car_precision_block(torus3, 0.3, 1.0)
        with pytest.raises(ValueError, match="tau2"):
            car_precision_block(torus3, 0.1, -1.0)

    def test_random_zeta_pd_inside_and_not_outside(self):
        car = CarStructure.from_graph(build_torus_lattice(4, 4))
        lo, hi = car.zeta_bounds
        rng = np.random.default_rng(0)
        for _ in range(100):
            z = rng.uniform(lo + 1e-6, hi - 1e-6)
            np.linalg.cholesky(car_precision_block(car, z, 0.7))
        for z in (lo - 0.05, hi + 0.05):
            with pytest.raises(ZetaBoundsError):
                car_precision_block(car, z, 0.7)
            q = (np.eye(car.n_d) - z * car.graph.adjacency.toarray()) / 0.7
            assert np.linalg.eigvalsh(q)[0] < 0.0


class TestLogdet:
    def test_identity_precision_is_zero(self, torus3):
        for T in (1, 3, 10):
            assert logdet_precision(torus3, 0.0, 1.0, T) == 0.0

    def test_scalar_variance_term(self):
        car = CarStructure.from_graph(build_torus_lattice(10, 10))
        assert abs(logdet_precision(car, 0.0, np.e, 1) - (-100.0)) < 1e-10

    def test_matches_dense_logdet(self, torus3):
        q = car_precision_block(torus3, 0.2, 1.0)
        _, dense = np.linalg.slogdet(q)
        assert abs(logdet_precision(torus3, 0.2, 1.0, 1) - dense) < 1e-8

    def test_T_blocks_scale_linearly(self, torus3):
        one = logdet_precision(torus3, 0.1, 0.7, 1)
        assert abs(logdet_precision(torus3, 0.1, 0.7, 7) - 7 * one) < 1e-9

    def test_invalid_T_rejected(self, torus3):
        with pytest.raises(ValueError, match="T"):
            logdet_precision(torus3, 0.1, 0.7, -1)

    def test_empty_stack_is_zero(self, torus3):
        assert logdet_precision(torus3, 0.1, 0.7, 0) == 0.0

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 7), st.integers(2, 7),
           st.floats(0.01, 0.99), st.floats(0.05, 3.0), st.integers(0, 10 ** 6))
    def test_spectral_identity_random_graphs(self, rows, cols, frac, tau2, seed):
        rng = np.random.default_rng(seed)
        n = rows * cols
        a = (rng.uniform(size=(n, n)) < 0.2).astype(float)
        a = np.triu(a, 1)
        a = a + a.T
        car = CarStructure.from_graph(SpatialGraph(a))
        lo, hi = car.zeta_bounds
        lo = max(lo, -10.0)
        hi = min(hi, 10.0)
        zeta = lo + frac * (hi - lo)
        if not (lo < zeta < hi):
            return
        q = car_precision_block(car, zeta, tau2)
        _, dense = np.linalg.slogdet(q)
        spectral = logdet_precision(car, zeta, tau2, 1)
        assert abs(spectral - dense) < 1e-8 * max(1.0, abs(dense))


class TestSpatialGraphValidation:
    def test_rejects_asymmetric_matrix(self):
        a = np.zeros((3, 3))
        a[0, 1] = 1.0
        with pytest.raises(ValueError, match="symmetric"):
            SpatialGraph(a)

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            SpatialGraph(np.eye(3))

    def test_rejects_weighted_entries(self):
        a = np.zeros((2, 2))
        a[0, 1] = a[1, 0] = 0.5
        with pytest.raises(ValueError, match="0 or 1"):
            SpatialGraph(a)

    def test_eigenvalues_read_only(self):
        g = build_torus_lattice(3, 3)
        with pytest.raises(ValueError):
            g.eigenvalues[0] = 99.0

    @pytest.mark.parametrize("rows, cols", [(3, 3), (4, 7), (10, 10)])
    def test_eigenvectors_diagonalize_adjacency(self, rows, cols):
        g = build_torus_lattice(rows, cols)
        v, lam = g.eigenvectors, g.eigenvalues
        assert np.all(np.diff(lam) >= 0.0)
        np.testing.assert_allclose(v.T @ v, np.eye(g.n_d), atol=1e-12)
        np.testing.assert_allclose((v * lam) @ v.T, g.dense_adjacency, atol=1e-12)
        with pytest.raises(ValueError):
            v[0, 0] = 99.0


def path_graph(n):
    return SpatialGraph(sp.diags([np.ones(n - 1), np.ones(n - 1)], [-1, 1]))


def assert_band_order(g):
    """``band_order`` is a permutation p, and ``band_adjacency`` is the lower
    band of N[p][:, p], bitwise, as narrow as its farthest edge, with zeros
    past the end of each sub-diagonal."""
    p, band = g.band_order, g.band_adjacency
    n, w = band.shape
    np.testing.assert_array_equal(np.sort(p), np.arange(g.n_d))
    full = np.zeros((n, n))
    for r in range(w):
        full[np.arange(r, n), np.arange(n - r)] = band[:n - r, r]
        full[np.arange(n - r), np.arange(r, n)] = band[:n - r, r]
        assert np.all(band[n - r:, r] == 0.0)
    np.testing.assert_array_equal(full, g.dense_adjacency[np.ix_(p, p)])
    assert w == 1 or np.any(band[:, -1] == 1.0)


class TestBandOrder:
    """The reverse Cuthill-McKee order and the adjacency band it gives."""

    GRAPHS = {"torus10": lambda: build_torus_lattice(10, 10),
              "torus5": lambda: build_torus_lattice(5, 5),
              "torus4x7": lambda: build_torus_lattice(4, 7),
              "path": lambda: path_graph(7),
              "single": lambda: SpatialGraph(np.zeros((1, 1))),
              "split": split_graph}

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_band_is_the_reordered_adjacency(self, name):
        assert_band_order(self.GRAPHS[name]())

    @pytest.mark.parametrize("name, kd", [("torus10", 19), ("torus5", 10), ("path", 1),
                                          ("single", 0)])
    def test_bandwidth(self, name, kd):
        assert self.GRAPHS[name]().band_adjacency.shape[1] == kd + 1

    def test_components_are_contiguous(self):
        g = split_graph()
        comp = {0: 0, 2: 0, 4: 0, 6: 0, 1: 1, 3: 1, 7: 1, 5: 2}
        labels = [comp[int(i)] for i in g.band_order]
        assert sum(labels[i] != labels[i + 1] for i in range(7)) == 2
        assert g.band_adjacency.shape[1] == 3  # the triangle's

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_order_is_deterministic(self, name):
        g, h = self.GRAPHS[name](), self.GRAPHS[name]()
        np.testing.assert_array_equal(g.band_order, h.band_order)
        np.testing.assert_array_equal(g.band_adjacency, h.band_adjacency)

    def test_arrays_read_only(self):
        g = build_torus_lattice(3, 3)
        with pytest.raises(ValueError):
            g.band_order[0] = 1
        with pytest.raises(ValueError):
            g.band_adjacency[0, 1] = 0.0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 30), st.floats(0.0, 0.5), st.integers(0, 2 ** 31))
    def test_random_graphs(self, n, density, seed):
        rng = np.random.default_rng(seed)
        a = np.triu(rng.random((n, n)) < density, 1).astype(float)
        assert_band_order(SpatialGraph(a + a.T))
