import gc
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mugroup
import mugroup.gma  # noqa: F401  (register the submodule)
from mugroup.errors import SearchSpaceError
from mugroup.gma import optimal_mu2_su
from mugroup.matching import (
    WeightedGraph,
    _solve_assignment,
    blossom_mates,
    hungarian,
    max_weight_matching,
)
from mugroup.phy import DEFAULT_MCS_TABLE, phy_rate

from conftest import MCS_WITH_MAC, rician_oracle
from reference import (
    brute_force_assignment,
    brute_force_matching,
    matchability_hungarian,
    matching_weight,
    networkx_matching,
    numpy_solve_assignment,
    optimal_matchings,
)

gma_mod = sys.modules["mugroup.gma"]


def graph(n, edges):
    return WeightedGraph(n, tuple(edges))


def random_graph(rng, max_vertices=10, wmin=-5, wmax=20):
    n = int(rng.integers(2, max_vertices + 1))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                edges.append((i, j, float(rng.integers(wmin, wmax + 1))))
    return graph(n, edges)


# small integer weight sets, negatives and zero included, so optima tie
TIED_WEIGHTS = ((-2, -1, 0, 1, 2, 3), (0, 1, 2), (-3, 0, 4, 4, 8), (1, 1, 2, 5))


def tied_graph(rng, max_vertices=30):
    """Random graph on up to ``max_vertices`` vertices whose weights come
    from one of ``TIED_WEIGHTS``, its edges listed in shuffled order."""
    n = int(rng.integers(2, max_vertices + 1))
    weights = TIED_WEIGHTS[int(rng.integers(len(TIED_WEIGHTS)))]
    density = rng.uniform(0.1, 1.0)
    edges = [(i, j, float(rng.choice(weights)))
             for i in range(n) for j in range(i + 1, n) if rng.random() < density]
    return graph(n, [edges[k] for k in rng.permutation(len(edges))])


class TestWeightedGraphInvariants:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            graph(2, [(0, 0, 1.0)])

    def test_rejects_parallel_edges(self):
        with pytest.raises(ValueError):
            graph(3, [(0, 1, 1.0), (1, 0, 2.0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            graph(2, [(0, 2, 1.0)])

    def test_rejects_non_integer_ids(self):
        # refused before the matching, which would index lists with them
        for u, v in [(0, 1.0), (1.5, 0), (0, np.float64(2.0))]:
            with pytest.raises(ValueError, match=r"edge \(.*\) has a non-integer vertex id"):
                graph(3, [(1, 2, 1.0), (u, v, 1.0)])

    @pytest.mark.parametrize("n", [-1, 2.0, 2.5, np.float64(3.0), None])
    def test_rejects_bad_vertex_count(self, n):
        with pytest.raises(ValueError, match="num_vertices must be >= 0 and integral"):
            WeightedGraph(n, ())

    def test_accepts_numpy_vertex_count(self):
        assert max_weight_matching(WeightedGraph(np.int64(2), ((0, 1, 1.0),))) == ((0, 1),)

    def test_accepts_numpy_integer_ids(self):
        g = graph(4, [(np.int64(2), np.int32(3), 1.0), (np.uint8(0), np.int16(1), 2.0)])
        assert g.edges == ((2, 3, 1.0), (0, 1, 2.0))
        assert all(type(x) is int for u, v, _ in g.edges for x in (u, v))
        assert max_weight_matching(g) == ((0, 1), (2, 3))

    @pytest.mark.parametrize("edges, message", [
        ([(0, 1, 1.0), (2, 2, 1.0), (0, 5, 1.0)], "self-loop at vertex 2"),
        ([(0, 5, 1.0), (2, 2, 1.0)], r"edge \(0, 5\) out of range"),
        ([(0, 1, np.inf), (1, 0.5, 1.0)], r"edge \(0, 1\) has non-finite weight inf"),
        ([(0, 1, 1.0), (2, 0.5, 1.0), (1, 0, 1.0)], r"edge \(2, 0.5\) has a non-integer"),
        ([(0, 1, 1.0), (1, 0, 1.0), (2, 0.5, 1.0)], r"parallel edge \(0, 1\)"),
        ([(0, 1, 1.0), (1, 2, np.nan), (3, 3, 1.0)], r"edge \(1, 2\) has non-finite weight nan"),
    ])
    def test_first_bad_edge_decides(self, edges, message):
        with pytest.raises(ValueError, match=message):
            graph(4, edges)

    def test_rejects_non_numeric_weights(self):
        # finiteness is tested on the weight as given, before any float()
        for w in ["1.5", b"1.5", None]:
            with pytest.raises(TypeError):
                graph(3, [(0, 1, 1.0), (1, 2, w)])

    def test_edges_normalised(self):
        # reversed pairs put in order, weights as floats, input order kept
        g = graph(4, [(3, 1, 2), (0, 2, -1), (2, 1, 0.5), (True, 0, np.float32(1.5))])
        assert g.edges == ((1, 3, 2.0), (0, 2, -1.0), (1, 2, 0.5), (0, 1, 1.5))
        assert all(type(w) is float for _, _, w in g.edges)

    def test_matching_rejects_vertex_reuse(self):
        g = graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        with pytest.raises(ValueError):
            matching_weight(g, ((0, 1), (1, 2)))


class TestMaxWeightMatching:
    def test_empty_graph(self):
        assert max_weight_matching(graph(3, [])) == ()

    def test_triangle(self):
        assert max_weight_matching(graph(3, [(0, 1, 3.0), (1, 2, 4.0), (0, 2, 5.0)])) == ((0, 2),)

    def test_path(self):
        m = max_weight_matching(
            graph(4, [(0, 1, 10.0), (1, 2, 11.0), (2, 3, 10.0)]))
        assert m == ((0, 1), (2, 3))

    def test_negative_edges_left_out(self):
        assert max_weight_matching(graph(2, [(0, 1, -2.0)])) == ()

    def test_complete_k4_unit_weights(self):
        edges = [(i, j, 1.0) for i in range(4) for j in range(i + 1, 4)]
        g = graph(4, edges)
        m = max_weight_matching(g)
        assert matching_weight(g, m) == 2.0
        assert len(m) == 2

    def test_deterministic(self):
        g = random_graph(np.random.default_rng(0))
        assert max_weight_matching(g) == max_weight_matching(g)

    def test_oracle_equivalence_sample(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            g = random_graph(rng, max_vertices=12)
            fast = max_weight_matching(g)
            optima = optimal_matchings(g)
            assert matching_weight(g, fast) == matching_weight(g, optima[0])
            if len(optima) == 1:
                assert fast == optima[0]

    def test_leaves_no_reference_cycles(self):
        # the search's closures reach each other; a matching that returns
        # them unbound leaves nothing for the cycle collector.  Tied graphs
        # make, expand and augment through blossoms
        rng = np.random.default_rng(7)
        graphs = [tied_graph(rng) for _ in range(40)] + [random_graph(rng, 40)]
        gc.collect()
        gc.disable()
        try:
            for g in graphs:
                max_weight_matching(g)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_many_vertices_few_edges(self):
        # state is O(V + E): a V x V table would not fit this in time or memory
        g = graph(10_000, [(0, 9_999, 2.0), (5, 6, 1.0), (6, 7, 3.0)])
        t0 = time.perf_counter()
        m = max_weight_matching(g)
        assert time.perf_counter() - t0 < 1.0
        assert m == ((0, 9_999), (6, 7))


class TestSameMatchingAsNetworkx:
    """Where optima tie, the pairs must be networkx's: ``blossom`` and
    ``gma`` groups, and with them the golden CSVs, depend on them."""

    def test_random_tied_graphs(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            g = tied_graph(rng)
            assert max_weight_matching(g) == networkx_matching(g)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_tied_graphs_property(self, seed):
        g = tied_graph(np.random.default_rng(seed))
        assert max_weight_matching(g) == networkx_matching(g)

    def test_mcs_gain_graphs(self, monkeypatch):
        # the pairing graphs optimal_mu2_su builds from quantized MCS rates
        graphs = []

        def recording(n, edges):
            graphs.append(graph(n, edges))
            return blossom_mates(n, edges)

        monkeypatch.setattr(gma_mod, "blossom_mates", recording)
        for seed in range(20):
            _, oracle = rician_oracle(40, 4, seed, sc=8, phy=MCS_WITH_MAC)
            optimal_mu2_su(oracle)
        weights = [w for g in graphs for _, _, w in g.edges]
        assert len(set(weights)) < len(weights)  # the graphs do tie
        for g in graphs:
            assert max_weight_matching(g) == networkx_matching(g)

    def test_dense_tied_graphs_at_gma_size(self):
        # near-complete pairing graphs at the wideband_m40 size and above,
        # weights from a few quantized values, zero and negative included
        rng = np.random.default_rng(17)
        for n in (40, 60):
            for _ in range(20):
                weights = rng.choice([-1.0, 0.0, 1.0, 2.0, 3.0, 5.0, 8.0],
                                     size=int(rng.integers(3, 6)), replace=False)
                edges = [(i, j, float(rng.choice(weights)))
                         for i in range(n) for j in range(i + 1, n) if rng.random() < 0.95]
                g = graph(n, edges)
                assert max_weight_matching(g) == networkx_matching(g)


def test_runtime_does_not_import_networkx():
    src = str(Path(mugroup.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, mugroup, mugroup.cli; print('networkx' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


class TestBruteForceMatching:
    def test_single_positive_edge(self):
        assert brute_force_matching(graph(2, [(0, 1, 2.0)])) == ((0, 1),)

    def test_single_negative_edge(self):
        assert brute_force_matching(graph(2, [(0, 1, -1.0)])) == ()

    def test_triangle_agrees(self):
        g = graph(3, [(0, 1, 3.0), (1, 2, 4.0), (0, 2, 5.0)])
        assert matching_weight(g, brute_force_matching(g)) == 5.0

    def test_vertex_guard(self):
        with pytest.raises(SearchSpaceError):
            brute_force_matching(graph(13, []))


# lowest MCS rate with MAC overhead; every MCS rate but the top one is a
# multiple of it, which is why GMA's merge benefits tie exactly
MCS_STEP = phy_rate(DEFAULT_MCS_TABLE[0], MCS_WITH_MAC)


def tie_heavy_matrix(rng, n, step=None):
    """Square benefits whose optima tie many ways: entries in {0, 1, 2}, or
    multiples of ``step`` with about a quarter of them replaced by GMA's
    negative sentinel."""
    if step is None:
        return rng.integers(0, 3, size=(n, n)).astype(float)
    w = rng.integers(1, 12, size=(n, n)) * step
    w[rng.random((n, n)) < 0.25] = -(1.0 + np.abs(w).sum())
    return w


class TestHungarian:
    def test_identity_benefit(self):
        assign, benefit = hungarian(np.eye(3))
        assert assign == (0, 1, 2)
        assert benefit == 3.0
        for empty in ([], np.zeros((0, 0))):  # the empty assignment, through the general path
            assert hungarian(empty) == ((), 0.0)

    def test_two_by_two(self):
        assign, benefit = hungarian([[1.0, 2.0], [3.0, 5.0]])
        assert assign == (0, 1)
        assert benefit == 6.0

    def test_rectangular(self):
        with pytest.raises(ValueError, match="square"):
            hungarian([[1.0, 9.0, 2.0], [8.0, 1.0, 3.0]])

    def test_rows_exceed_cols(self):
        with pytest.raises(ValueError):
            hungarian([[1.0], [2.0]])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            hungarian(np.array([[np.inf, 1.0]]))
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                hungarian([[1.0, 2.0], [3.0, bad]])
        with pytest.raises(ValueError, match="finite"):
            hungarian([[np.inf, -np.inf], [1.0, 2.0]])

    def test_not_two_dimensional(self):
        for bad in ([1.0, 2.0], [[[1.0]]], np.ones(2), np.ones((1, 1, 1))):
            with pytest.raises(ValueError, match="2-D"):
                hungarian(bad)

    def test_row_sum_overflow_is_finite(self):
        # the row sum overflows, every entry is finite
        assign, benefit = hungarian([[1e308, 1e308], [1.0, 2.0]])
        assert assign == (0, 1) and benefit == 1e308 + 2.0

    def test_list_numpy_and_int_inputs_agree(self):
        rng = np.random.default_rng(14)
        for n in range(0, 9):
            w = rng.integers(-9, 10, size=(n, n))
            want = hungarian(w.astype(float))
            for same in (w, w.tolist(), w.astype(float).tolist(), w.astype(np.float32),
                         list(w.astype(float))):
                got = hungarian(same)
                assert got == want and type(got[1]) is float

    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            w = rng.integers(-4, 10, size=(n, n)).astype(float)
            assign, benefit = hungarian(w)
            ref_assign, ref_benefit = brute_force_assignment(w)
            assert benefit == ref_benefit
            assert assign == ref_assign  # lexicographic tie-break matches

    @pytest.mark.parametrize("step", [None, MCS_STEP], ids=["small_ints", "mcs"])
    def test_matches_matchability_reference(self, step):
        # cycle rotation picks the optimum the Kuhn matchability walk picks
        rng = np.random.default_rng(11)
        for n in range(6, 17):
            for _ in range(8):
                w = tie_heavy_matrix(rng, n, step)
                assign, benefit = hungarian(w)
                assert sorted(assign) == list(range(n))
                assert (assign, benefit) == matchability_hungarian(w)

    # a step of 1 keeps every float sum exact: at MCS_STEP optima that tie
    # in exact arithmetic can differ in the last bit, and brute force
    # takes the larger sum where hungarian takes the smaller assignment
    @pytest.mark.parametrize("step", [None, 1.0], ids=["small_ints", "unit_step"])
    def test_tie_heavy_matches_brute_force(self, step):
        rng = np.random.default_rng(12)
        for n in range(1, 8):
            for _ in range(3 if n == 7 else 10):
                w = tie_heavy_matrix(rng, n, step)
                assign, benefit = hungarian(w)
                assert sorted(assign) == list(range(n))
                assert (assign, benefit) == brute_force_assignment(w)

    def test_list_solver_matches_numpy_form(self):
        # the labeling solver on lists repeats the numpy form's float
        # operations, so its labels and matching are bit for bit the same
        rng = np.random.default_rng(13)
        for trial in range(3000):
            n = int(rng.integers(1, 26))
            kind = trial % 3
            if kind == 0:
                w = rng.uniform(-5.0, 10.0, size=(n, n))
            elif kind == 1:
                w = rng.integers(0, 4, size=(n, n)).astype(float)
            else:  # GMA's merge benefits: MCS steps, the rest a sentinel
                w = rng.integers(-3, 12, size=(n, n)) * MCS_STEP
                w[w <= 0.0] = -(1.0 + np.abs(w).sum())
            for got, ref in zip(_solve_assignment(w.tolist()), numpy_solve_assignment(w)):
                assert np.array_equal(got, ref)

    def test_negative_weights(self):
        assign, benefit = hungarian([[-5.0, -1.0], [-2.0, -4.0]])
        assert assign == (1, 0)
        assert benefit == -3.0

    def test_weight_shift_covariance(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            w = rng.integers(0, 12, size=(n, n)).astype(float)
            assign, benefit = hungarian(w)
            shifted = w.copy()
            c = float(rng.integers(1, 9))
            row = int(rng.integers(0, n))
            shifted[row] += c
            assign2, benefit2 = hungarian(shifted)
            assert benefit2 == benefit + c
            assert assign2 == assign  # the optimum set is unchanged

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_optimality_property(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        w = rng.uniform(-5, 10, size=(n, n))
        assign, benefit = hungarian(w)
        assert len(set(assign)) == n
        _, ref = brute_force_assignment(w)
        assert benefit == pytest.approx(ref, rel=1e-12, abs=1e-9)


class TestRuntimeGrowth:
    def test_solver_scaling(self):
        # log-log growth slope stays cubic-ish for both solvers
        sizes = (32, 64, 128, 256)
        rng = np.random.default_rng(4)
        hung_t, match_t = [], []
        for n in sizes:
            w = rng.uniform(0, 100, size=(n, n))
            t0 = time.perf_counter()
            hungarian(w)
            hung_t.append(time.perf_counter() - t0)
            edges = []
            for u in range(n):
                for v in rng.choice(n, size=6, replace=False):
                    if u < v:
                        edges.append((u, int(v), float(rng.uniform(0, 50))))
            g = WeightedGraph(n, tuple(edges))
            t0 = time.perf_counter()
            max_weight_matching(g)
            match_t.append(time.perf_counter() - t0)
        for times in (hung_t, match_t):
            slope = np.polyfit(np.log(sizes), np.log(times), 1)[0]
            assert slope <= 3.5
