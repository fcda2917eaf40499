import numpy as np
import pytest

from oracles import brute_force_visibility
from siggraphgan import visibility as vg
from siggraphgan.errors import ShapeError, SizeError


class TestNaturalVisibility:
    def test_two_points_single_edge(self):
        g = vg.natural_visibility([3.0, 7.0])
        assert g.adjacency.tolist() == [[0, 1], [1, 0]]

    def test_valley_gives_complete_graph(self):
        g = vg.natural_visibility([1.0, 0.0, 1.0])
        assert g.adjacency.tolist() == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]

    def test_blocking_peak_gives_path(self):
        g = vg.natural_visibility([0.0, 1.0, 1.5])
        assert g.adjacency.tolist() == [[0, 1, 0], [1, 0, 1], [0, 1, 0]]

    def test_collinear_points_block(self):
        # middle point exactly on the chord: strict criterion blocks 0-2
        g = vg.natural_visibility([0.0, 1.0, 2.0])
        assert g.adjacency[0, 2] == 0

    def test_consecutive_always_linked(self):
        rng = np.random.default_rng(0)
        g = vg.natural_visibility(rng.standard_normal(40))
        assert np.all(np.diag(g.adjacency, k=1) == 1)

    def test_undirected_connected(self):
        rng = np.random.default_rng(1)
        a = vg.natural_visibility(rng.standard_normal(64)).adjacency.astype(float)
        reach = np.linalg.matrix_power(a + np.eye(64), 63)
        assert np.all(reach > 0)

    def test_directed_strictly_upper_triangular(self):
        rng = np.random.default_rng(2)
        a = vg.natural_visibility(rng.standard_normal(50), directed=True).adjacency
        assert np.array_equal(a, np.triu(a, k=1))

    def test_symmetrized_directed_equals_undirected(self):
        rng = np.random.default_rng(3)
        s = rng.standard_normal(80)
        d = vg.natural_visibility(s, directed=True).adjacency
        u = vg.natural_visibility(s, directed=False).adjacency
        assert np.array_equal(np.maximum(d, d.T), u)

    def test_affine_invariance(self):
        rng = np.random.default_rng(4)
        s = rng.standard_normal(60)
        base = vg.natural_visibility(s).adjacency
        for a in (0.5, 2.0, 10.0):
            for b in (-5.0, 0.0, 7.0):
                assert np.array_equal(
                    vg.natural_visibility(a * s + b).adjacency, base
                )

    def test_errors(self):
        with pytest.raises(SizeError):
            vg.natural_visibility([1.0])
        with pytest.raises(ShapeError):
            vg.natural_visibility([[1.0, 2.0], [3.0, 4.0]])

    def test_window_bounds(self):
        g = vg.natural_visibility([0.0, 1.0, 0.5, 2.0])
        assert g.windows([0, 1], 3).shape == (2, 3, 3)
        for starts in ([2], [-1]):
            with pytest.raises(SizeError):
                g.windows(starts, 3)
        with pytest.raises(SizeError):
            vg.natural_visibility([0.0, 1.0, 0.5], max_lag=0)


class TestBruteForceOracle:
    def test_simple_case_agrees(self):
        a = vg.natural_visibility([1.0, 0.0, 1.0]).adjacency
        b = brute_force_visibility([1.0, 0.0, 1.0])
        assert np.array_equal(a, b)

    def test_random_sweep_agrees(self):
        rng = np.random.default_rng(99)
        for _ in range(30):
            s = rng.standard_normal(128)
            for directed in (False, True):
                fast = vg.natural_visibility(s, directed=directed).adjacency
                slow = brute_force_visibility(s, directed=directed)
                assert np.array_equal(fast, slow)

    def test_monotone_ramp(self):
        # convex/concave structure: increasing ramp with curvature
        s = np.array([0.0, 1.0, 2.5, 4.5, 7.0])
        fast = vg.natural_visibility(s).adjacency
        slow = brute_force_visibility(s)
        assert np.array_equal(fast, slow)

    def test_size_limit(self):
        with pytest.raises(SizeError):
            brute_force_visibility(np.zeros(600))


class TestNetworkxOracle:
    def test_gaussian_sweep_agrees(self):
        nx = pytest.importorskip("networkx")
        # Gaussian values only: networkx tests each chord in intercept form,
        # whose rounding links some exact collinear ties on integer series
        # that the strict criterion (and the brute-force oracle) blocks
        rng = np.random.default_rng(101)
        for _ in range(30):
            s = rng.standard_normal(int(rng.integers(2, 129)))
            oracle = nx.to_numpy_array(
                nx.visibility_graph(s.tolist()), nodelist=range(s.size), dtype=np.int8
            )
            assert np.array_equal(vg.natural_visibility(s).adjacency, oracle)
