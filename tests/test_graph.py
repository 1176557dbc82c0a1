"""Graph storage, generators, ground-truth search, and the query ledger."""

import ast
import itertools
import math
import os
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triwalk import (
    Graph,
    QueryLedger,
    Triangle,
    brute_force_triangle,
    erdos_renyi,
    is_triangle,
    planted_instance,
    planted_triple,
    random_bipartite,
    read_edge_list,
    read_packed,
    uncovered_pairs,
    write_edge_list,
    write_packed,
)
import triwalk.graph
from triwalk.graph import (
    _CHECK_ROWS,
    _SCAN_CAP,
    _SPLIT_DRAW,
    _TAG_BIPARTITE,
    _TAG_ER,
    _anded_rows,
    _apex_column_counts,
    _degrees,
    _first_closed_pair,
    _fold_words,
    _pack_bool_rows,
    _packed_ids,
    _pair_stream,
    _popcounts,
)
from triwalk.pairs import uncovered_pairs_at


def triangles_by_enumeration(g):
    """Independent oracle: all triangles via a plain triple scan."""
    found = []
    for a, b, c in itertools.combinations(range(g.n), 3):
        if g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c):
            found.append(Triangle(a, b, c))
    return found


def reference_er(n, p, seed):
    """erdos_renyi as a dense matrix: one (n, n) draw, its strict upper triangle."""
    rng = np.random.default_rng([seed, _TAG_ER])
    upper = np.triu(rng.random((n, n)) < p, 1)
    return upper | upper.T


def reference_bipartite(n, seed):
    """random_bipartite as a dense matrix: one left x right draw of cross edges."""
    left = (n + 1) // 2
    rng = np.random.default_rng([seed, _TAG_BIPARTITE])
    cross = rng.random((left, n - left)) < 0.5
    dense = np.zeros((n, n), dtype=bool)
    dense[:left, left:] = cross
    dense[left:, :left] = cross.T
    return dense


def reference_planted(n, seed):
    dense = reference_bipartite(n, seed)
    a, b, c = planted_triple(n, seed)
    for x, y in ((a, b), (a, c), (b, c)):
        dense[x, y] = dense[y, x] = True
    return dense


def assert_valid_rows(g):
    """g's packed rows are symmetric, loop-free and zero past column n."""
    n = g.n
    full = np.unpackbits(g._rows.view(np.uint8), axis=1, bitorder="little").view(bool)
    assert g._rows.shape == (n, (n + 63) // 64)
    assert not full[:, n:].any()  # pad bits past column n
    dense = full[:, :n]
    assert not np.diag(dense).any()
    assert np.array_equal(dense, dense.T)


# Word and chunk edges: 64-bit words, 128-row generator chunks.
EDGE_SIZES = [1, 2, 3, 63, 64, 65, 127, 128, 129, 255, 256, 257]
sizes = st.one_of(st.sampled_from(EDGE_SIZES), st.integers(1, 600))
probabilities = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


class TestQueryOracle:
    def test_cycle_edge(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        ledger = QueryLedger()
        assert g.query(ledger, 0, 1) is True
        assert ledger.raw_probes == 1

    def test_edgeless_pairs(self):
        g = erdos_renyi(5, 0.0, seed=7)
        ledger = QueryLedger()
        for u, v in itertools.combinations(range(5), 2):
            assert g.query(ledger, u, v) is False
        assert ledger.raw_probes == 10

    def test_path_endpoints_not_adjacent(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        ledger = QueryLedger()
        assert g.query(ledger, 0, 2) is False
        assert g.query(ledger, 0, 1) is True

    def test_contract_violations(self):
        g = erdos_renyi(4, 0.5, seed=0)
        ledger = QueryLedger()
        with pytest.raises(ValueError):
            g.query(ledger, 2, 2)
        with pytest.raises(ValueError):
            g.query(ledger, 0, 4)
        with pytest.raises(ValueError):
            g.query(ledger, -1, 2)
        assert ledger.raw_probes == 0

    def test_symmetric_and_repeatable(self):
        g = erdos_renyi(20, 0.4, seed=3)
        ledger = QueryLedger()
        for u, v in itertools.combinations(range(10), 2):
            first = g.query(ledger, u, v)
            probes = ledger.raw_probes
            assert g.query(ledger, v, u) == first
            assert g.query(ledger, u, v) == first
            assert ledger.raw_probes == probes + 2

    def test_adjacency_invariants(self):
        g = erdos_renyi(30, 0.5, seed=1)
        dense = g.bool_matrix
        assert not np.any(np.diag(dense))
        assert np.array_equal(dense, dense.T)
        for u in range(5):
            assert set(g.neighbors(u)) == {v for v in range(g.n) if dense[u, v]}

    def test_rejects_bad_matrices(self):
        with pytest.raises(ValueError):
            Graph(np.array([[True]]))  # self loop
        asym = np.zeros((3, 3), dtype=bool)
        asym[0, 1] = True
        with pytest.raises(ValueError):
            Graph(asym)


class TestGenerators:
    def test_er_extremes(self):
        assert erdos_renyi(5, 0.0, seed=7).edge_count == 0
        assert erdos_renyi(5, 1.0, seed=7).edge_count == 10

    def test_er_edge_count_concentrates(self):
        g = erdos_renyi(100, 0.5, seed=1)
        mean = 0.5 * math.comb(100, 2)
        sigma = math.sqrt(math.comb(100, 2) * 0.25)
        assert abs(g.edge_count - mean) <= 5 * sigma

    def test_er_deterministic(self):
        assert erdos_renyi(40, 0.3, seed=9) == erdos_renyi(40, 0.3, seed=9)
        assert erdos_renyi(40, 0.3, seed=9) != erdos_renyi(40, 0.3, seed=10)

    def test_bipartite_triangle_free(self):
        for seed in range(10):
            g = random_bipartite(64, seed)
            assert brute_force_triangle(g) is None

    def test_bipartite_tiny(self):
        g = random_bipartite(2, seed=0)
        assert g.edge_count <= 1

    def test_bipartite_edge_count_concentrates(self):
        # 32 x 32 cross pairs at p = 1/2
        g = random_bipartite(64, seed=5)
        sigma = math.sqrt(1024 * 0.25)
        assert abs(g.edge_count - 512) <= 5 * sigma

    def test_planted_minimal(self):
        g = planted_instance(3, seed=4)
        assert g.edge_count == 3
        assert brute_force_triangle(g) == Triangle(0, 1, 2)

    def test_planted_always_has_triangle(self):
        for seed in range(10):
            g = planted_instance(64, seed)
            assert brute_force_triangle(g) is not None
            assert is_triangle(g, planted_triple(64, seed))

    def test_planted_family_holds_more_than_the_plant(self):
        # Two planted vertices can share a side of the bipartite base, and
        # the planted edge between them is closed by ~n/8 common neighbours.
        g = planted_instance(512, seed=0)
        adj = g.bool_matrix.astype(np.int64)
        assert np.trace(adj @ adj @ adj) // 6 == 79

    def test_planted_triples_vary_with_seed(self):
        triples = {planted_triple(64, seed) for seed in range(8)}
        assert len(triples) > 1

    def test_planted_found_exactly_when_unique(self):
        # When the bipartite base contributes no extra triangle, ground truth
        # must recover the planted triple itself. At n=16 the base usually
        # closes extra triangles around the plant, so pin seeds where it
        # does not, and check the plant is enumerated everywhere else.
        for seed in (21, 35):
            g = planted_instance(16, seed)
            assert triangles_by_enumeration(g) == [planted_triple(16, seed)]
            assert brute_force_triangle(g) == planted_triple(16, seed)
        for seed in range(10):
            g = planted_instance(16, seed)
            assert planted_triple(16, seed) in triangles_by_enumeration(g)


class TestPackedGenerators:
    """The generators write packed rows in row chunks; the result must be
    bit for bit the dense construction of the same random stream."""

    @staticmethod
    def assert_rows_equal_references(n, p, seed):
        assert np.array_equal(erdos_renyi(n, p, seed)._rows, _pack_bool_rows(reference_er(n, p, seed)))
        if n >= 2:
            rows = random_bipartite(n, seed)._rows
            assert np.array_equal(rows, _pack_bool_rows(reference_bipartite(n, seed)))
        if n >= 3:
            rows = planted_instance(n, seed)._rows
            assert np.array_equal(rows, _pack_bool_rows(reference_planted(n, seed)))

    @pytest.mark.parametrize("n", EDGE_SIZES)
    def test_rows_equal_dense_references_at_word_and_chunk_edges(self, n):
        for p in (0.0, 0.3, 1.0):
            self.assert_rows_equal_references(n, p, seed=n)

    @settings(max_examples=60, deadline=None)
    @given(n=sizes, p=probabilities, seed=st.integers(0, 2**32 - 1))
    def test_rows_equal_dense_references(self, n, p, seed):
        self.assert_rows_equal_references(n, p, seed)

    @settings(max_examples=40, deadline=None)
    @given(n=sizes, p=probabilities, seed=st.integers(0, 2**32 - 1))
    def test_every_trusted_graph_is_valid(self, n, p, seed):
        # Record every graph built through the unchecked constructor.
        built = []
        trusted = Graph._from_rows.__func__

        def recording(cls, n, rows):
            built.append(trusted(cls, n, rows))
            return built[-1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Graph, "_from_rows", classmethod(recording))
            erdos_renyi(n, p, seed)
            if n >= 2:
                random_bipartite(n, seed)
            if n >= 3:
                planted_instance(n, seed)
        assert len(built) == 1 + (n >= 2) + (n >= 3)
        for g in built:
            assert g.n == n
            assert_valid_rows(g)

    def test_write_packed_bytes_equal_bool_matrix_reference(self, tmp_path):
        path = tmp_path / "g.bin"
        graphs = [erdos_renyi(n, 0.5, seed=n) for n in (1, 7, 8, 64, 65, 120, 130)]
        graphs.append(Graph.from_edges(9, [(0, 8), (3, 4)]))
        for g in graphs:
            write_packed(g, path)
            payload = np.packbits(g.bool_matrix, axis=1, bitorder="little").tobytes()
            assert path.read_bytes() == b"TWGB" + g.n.to_bytes(8, "little") + payload

    def test_uncovered_pairs_at_equals_bool_matrix_reference(self):
        for n, seed in ((40, 1), (129, 2)):
            g = planted_instance(n, seed)
            cover, within = [0, n // 2], np.arange(0, n, 3)
            pairs = uncovered_pairs(g, cover, within)
            pu, pv = pairs.endpoint_arrays()
            adj = g.bool_matrix
            for apex in range(n):
                expected = pairs.mask & adj[apex, pu] & adj[apex, pv]
                at = uncovered_pairs_at(g, cover, within, apex)
                assert np.array_equal(at.mask, expected)
                assert np.array_equal(g.neighbors(apex), np.flatnonzero(adj[apex]))

    @pytest.mark.parametrize("words", [1, 7, 16, 17, 40])
    def test_fold_words_equals_row_reductions(self, words):
        rng = np.random.default_rng(words)
        rows = rng.integers(0, 2**64, size=(300, words), dtype=np.uint64, endpoint=False)
        rows[::3] = 0
        rows[1::3] &= rng.integers(0, 2**64, size=(100, words), dtype=np.uint64) & (rows[1::3] >> 7)
        counts = np.bitwise_count(rows)
        assert np.array_equal(_fold_words(np.bitwise_or, rows) != 0, rows.any(axis=1))
        assert np.array_equal(_fold_words(np.add, counts, np.int64), counts.sum(axis=1, dtype=np.int64))
        assert np.array_equal(_popcounts(rows), counts.sum(axis=1, dtype=np.int64))


@pytest.fixture
def started(monkeypatch):
    """Names of the threads started while the test runs, in start order."""
    names = []

    class Recording(threading.Thread):
        def start(self):
            names.append(self.name)
            super().start()

    monkeypatch.setattr(threading, "Thread", Recording)
    return names


class TestSplitDraw:
    """A draw of at least _SPLIT_DRAW uniforms is filled in two row ranges,
    the second on a helper thread. Every graph must stay bit for bit the
    dense construction from one sequential stream, and no thread may
    outlive a call. The CPU count is pinned to 2, so the split also runs
    on a one-CPU machine."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(triwalk.graph, "_usable_cpus", lambda: 2)

    def test_threshold_lies_between_erdos_renyi_724_and_725(self):
        assert 724 * 724 < _SPLIT_DRAW <= 725 * 725

    # 700 and 724 draw in one range; 725 in 3 + 3 chunks, 1000 in 4 + 4,
    # 1100 in 4 + 5 and 1300 in 5 + 6.
    @pytest.mark.parametrize("n", [700, 724, 725, 1000, 1100, 1300])
    def test_er_rows_equal_one_stream_across_the_threshold(self, n, started):
        before = threading.active_count()
        for p in (0.0, 0.1, 0.5, 1.0):
            rows = erdos_renyi(n, p, seed=n)._rows
            assert np.array_equal(rows, _pack_bool_rows(reference_er(n, p, n)))
            assert threading.active_count() == before
        assert len(started) == (4 if n * n >= _SPLIT_DRAW else 0)

    # left = 724, 725 and 751 rows of 724, 724 and 750 columns: the first
    # draws in one range, and left % 64 != 0 in all three.
    @pytest.mark.parametrize("n", [1448, 1449, 1501])
    def test_bipartite_rows_equal_one_stream_across_the_threshold(self, n, started):
        before = threading.active_count()
        rows = random_bipartite(n, seed=n)._rows
        assert np.array_equal(rows, _pack_bool_rows(reference_bipartite(n, n)))
        assert threading.active_count() == before
        rows = planted_instance(n, seed=n)._rows
        assert np.array_equal(rows, _pack_bool_rows(reference_planted(n, n)))
        assert threading.active_count() == before
        left = (n + 1) // 2
        assert len(started) == (2 if left * (n - left) >= _SPLIT_DRAW else 0)

    def test_one_range_when_the_process_may_use_one_cpu(self, monkeypatch, started):
        monkeypatch.undo()  # the real _usable_cpus, on a one-CPU affinity mask
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        rows = erdos_renyi(1100, 0.5, seed=3)._rows
        assert started == []
        assert np.array_equal(rows, _pack_bool_rows(reference_er(1100, 0.5, 3)))

    @pytest.mark.parametrize("failing", ["caller's range", "helper's range"])
    def test_a_failing_range_raises_in_the_caller_and_leaves_no_thread(
        self, monkeypatch, started, failing
    ):
        real = triwalk.graph._or_block

        def or_block(rows, r0, c0, bits):
            on_helper = threading.current_thread() is not threading.main_thread()
            if on_helper == (failing == "helper's range"):
                raise RuntimeError(failing)
            real(rows, r0, c0, bits)

        monkeypatch.setattr(triwalk.graph, "_or_block", or_block)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match=failing):
            erdos_renyi(1100, 0.5, seed=0)
        assert len(started) == 1
        assert threading.active_count() == before

    def test_concurrent_callers_each_get_their_own_graph(self):
        # More callers than cores, switching often: a write that landed in
        # another call's rows, or a lost update, would change some graph.
        seeds = range(6)
        expected = {s: _pack_bool_rows(reference_er(800, 0.5, s)) for s in seeds}
        got = {}

        def build(s):
            got[s] = [erdos_renyi(800, 0.5, s)._rows for _ in range(2)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=build, args=(s,)) for s in seeds]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        for s in seeds:
            assert all(np.array_equal(rows, expected[s]) for rows in got[s])


class TestBruteForce:
    def test_complete_graph(self):
        assert brute_force_triangle(erdos_renyi(4, 1.0, seed=0)) == Triangle(0, 1, 2)

    def test_edgeless(self):
        assert brute_force_triangle(erdos_renyi(10, 0.0, seed=0)) is None

    def test_lexicographic_across_edges(self):
        # Triangles (2,3,9) and (0,8,9): the smallest sorted triple starts
        # with 0 even though its first edge appears later in degree order.
        g = Graph.from_edges(
            10, [(2, 3), (2, 9), (3, 9), (0, 8), (0, 9), (8, 9)]
        )
        assert brute_force_triangle(g) == Triangle(0, 8, 9)

    def test_matches_enumeration(self):
        for seed in range(12):
            g = erdos_renyi(18, 0.25, seed=seed)
            expected = min(triangles_by_enumeration(g), default=None)
            assert brute_force_triangle(g) == expected

    def test_reported_triangle_verifies(self):
        for seed in range(6):
            g = erdos_renyi(40, 0.3, seed=seed)
            tri = brute_force_triangle(g)
            if tri is not None:
                assert is_triangle(g, tri)


class TestLedger:
    def test_totals_are_phase_sums(self):
        ledger = QueryLedger()
        ledger.charge("a", 1.5)
        ledger.charge("b", 2.25)
        ledger.charge("a", 0.25)
        assert ledger.total == pytest.approx(4.0)
        assert ledger.charged == {"a": 1.75, "b": 2.25}

    def test_entries_only_increase(self):
        ledger = QueryLedger()
        ledger.charge("x", 1.0)
        with pytest.raises(ValueError):
            ledger.charge("x", -0.5)
        with pytest.raises(ValueError):
            ledger.add_raw(-1)


class TestSerialization:
    def test_edge_list_roundtrip(self, tmp_path):
        g = erdos_renyi(50, 0.3, seed=2)
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "n 50"
        assert len(lines) == 1 + g.edge_count
        assert read_edge_list(path) == g

    def test_packed_roundtrip(self, tmp_path):
        g = erdos_renyi(130, 0.5, seed=3)
        path = tmp_path / "g.bin"
        write_packed(g, path)
        assert read_packed(path) == g

    def test_packed_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"nope")
        with pytest.raises(ValueError):
            read_packed(path)


class TestBoundaryRejection:
    def test_negative_vertex_id_does_not_wrap(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph.from_edges(4, [(0, -1)])

    @pytest.mark.parametrize("tri", [(-1, 0, 1), (0, 1, 10 + 64)])
    def test_is_triangle_does_not_wrap(self, tri):
        # -1 once read as vertex 9 and made Triangle(-1, 0, 1) a triangle of
        # K10; an id past the last row word raised a bare IndexError.
        with pytest.raises(ValueError, match="out of range"):
            is_triangle(erdos_renyi(10, 1.0, 0), Triangle(*tri))

    def test_out_of_range_id_from_edges(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph.from_edges(4, [(0, 4)])

    def test_out_of_range_id_in_edge_list(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("n 4\n0 1\n2 7\n")
        with pytest.raises(ValueError, match="out of range"):
            read_edge_list(path)

    @pytest.mark.parametrize(
        "generate, args",
        [
            (erdos_renyi, (16, 0.5, 1.5)),
            (erdos_renyi, (16.0, 0.5, 0)),
            (erdos_renyi, (True, 0.5, 0)),
            (erdos_renyi, (16, True, 0)),
            (erdos_renyi, (16, "0.5", 0)),
            (erdos_renyi, (16, 0.5, True)),
            (erdos_renyi, (16, 0.5, -1)),
            (erdos_renyi, (1100, 0.5, -1)),  # a draw that would split
            (random_bipartite, (1.5, 0)),
            (random_bipartite, (16, False)),
            (random_bipartite, (16, -1)),
            (random_bipartite, (16, 2.0)),
            (planted_instance, (16, True)),
            (planted_instance, (16.0, 0)),
            (planted_instance, (16, -3)),
            (planted_triple, (16, True)),
            (planted_triple, (16.5, 0)),
            (planted_triple, (16, -1)),
            (planted_triple, (2, 0)),
        ],
    )
    def test_generators_reject_bad_arguments_before_any_draw(
        self, monkeypatch, started, generate, args
    ):
        # 1.5 seeds and 16.0 sizes once raised a bare TypeError, a bool p
        # or seed read as 0 or 1, and random_bipartite(1.5, 0) said "n must
        # be at least 2".
        def drew(*_):
            raise AssertionError("a stream was drawn from")

        monkeypatch.setattr(np.random, "PCG64", drew)
        monkeypatch.setattr(np.random, "default_rng", drew)
        message = "must be an integer|must be at least|must be a real number"
        with pytest.raises(ValueError, match=message):
            generate(*args)
        assert started == []

    def test_generators_take_numpy_scalars_and_an_integer_p(self):
        assert erdos_renyi(np.int64(40), np.float32(0.5), np.uint32(3)) == erdos_renyi(40, 0.5, 3)
        assert random_bipartite(np.int32(40), np.int64(3)) == random_bipartite(40, 3)
        assert planted_triple(np.int64(40), np.uint8(3)) == planted_triple(40, 3)
        assert erdos_renyi(5, 1, seed=0).edge_count == 10

    # 10^16 bytes of adjacency: more than the address space, so the
    # allocation fails at once under any overcommit policy.
    def test_huge_n_from_edges(self):
        with pytest.raises(ValueError, match="too large"):
            Graph.from_edges(100_000_000, [(0, 1)])

    @pytest.mark.parametrize(
        "generate",
        [
            lambda n: erdos_renyi(n, 0.5, seed=0),
            lambda n: random_bipartite(n, seed=0),
            lambda n: planted_instance(n, seed=0),
        ],
        ids=["erdos_renyi", "random_bipartite", "planted_instance"],
    )
    def test_huge_n_generators(self, generate):
        # Only an n whose rows exceed the address space: at an n whose rows
        # merely fit, the lazily zeroed rows allocate and the draws run for hours.
        with pytest.raises(ValueError, match="too large"):
            generate(100_000_000)

    def test_huge_header_n_in_edge_list(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("n 100000000\n0 1\n")
        with pytest.raises(ValueError, match="too large"):
            read_edge_list(path)

    def test_packed_rejects_trailing_bytes(self, tmp_path):
        path = tmp_path / "g.bin"
        write_packed(erdos_renyi(20, 0.5, seed=1), path)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(ValueError, match="payload"):
            read_packed(path)

    def test_empty_matrix_is_rejected(self):
        with pytest.raises(ValueError, match="graph needs at least one vertex"):
            Graph(np.zeros((0, 0), dtype=bool))

    def test_packed_rejects_truncated_header(self, tmp_path):
        path = tmp_path / "g.bin"
        path.write_bytes(b"TWGB" + (3).to_bytes(8, "little")[:3])
        with pytest.raises(ValueError, match="packed graph header is truncated"):
            read_packed(path)

    def test_packed_rejects_huge_header_n(self, tmp_path):
        path = tmp_path / "g.bin"
        path.write_bytes(b"TWGB" + (2**62).to_bytes(8, "little") + b"\0" * 16)
        with pytest.raises(ValueError, match="payload"):
            read_packed(path)

    def test_packed_rejects_bits_past_column_n(self, tmp_path):
        # A triangle on 3 vertices, plus bit 5 of row 0: no vertex 5 exists.
        path = tmp_path / "g.bin"
        path.write_bytes(b"TWGB" + (3).to_bytes(8, "little") + bytes([0b00100110, 0b101, 0b011]))
        with pytest.raises(ValueError, match="past column n=3"):
            read_packed(path)
        path.write_bytes(b"TWGB" + (3).to_bytes(8, "little") + bytes([0b110, 0b101, 0b011]))
        assert read_packed(path) == erdos_renyi(3, 1.0, seed=0)

    @pytest.mark.parametrize("n", [-3, 0])
    def test_nonpositive_n_from_edges(self, n):
        with pytest.raises(ValueError, match="at least 1"):
            Graph.from_edges(n, [])

    def test_negative_header_n_in_edge_list(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("n -3\n")
        with pytest.raises(ValueError, match="at least 1"):
            read_edge_list(path)


def packed_file(path, dense):
    """Write a square bool matrix in write_packed's format, valid or not."""
    n = dense.shape[0]
    payload = np.packbits(dense, axis=1, bitorder="little").tobytes()
    path.write_bytes(b"TWGB" + n.to_bytes(8, "little") + payload)
    return path


def random_symmetric(n, seed, p=0.5):
    """A symmetric, loop-free n x n bool matrix drawn at edge probability p."""
    upper = np.triu(np.random.default_rng(seed).random((n, n)) < p, 1)
    return upper | upper.T


# Rows and columns at 64-bit word edges and at chunk edges: VALIDATOR_N
# fits in one partial chunk, CHUNK_N spans two full _CHECK_ROWS chunks and
# a partial one.
C = _CHECK_ROWS
VALIDATOR_N, CHUNK_N = 200, 2 * C + 8
EDGES = {
    VALIDATOR_N: (0, 63, 64, 127, 128, 129, VALIDATOR_N - 1),
    CHUNK_N: (0, 63, 64, C - 1, C, C + 1, 2 * C - 1, 2 * C, CHUNK_N - 1),
}
FLIPS = [(n, r, c) for n, edges in EDGES.items() for r in edges for c in edges if r != c]
# A diagonal bit in each chunk.
LOOPS = [(VALIDATOR_N, v) for v in EDGES[VALIDATOR_N]] + [
    (CHUNK_N, v) for v in (0, C - 1, C, 2 * C - 1, 2 * C, CHUNK_N - 1)
]

# The same n x n matrix in each layout Graph(dense) may be handed: a view
# or a copy, strided or not, bool or 0/1 numbers, or bools whose True
# bytes run through 1-255, as .view(bool) of a caller's bytes can hold.
LAYOUTS = {
    "fortran": np.asfortranarray,
    "transposed view": lambda d: d.T,
    "stepped slice": lambda d: np.kron(d, np.ones((2, 2), dtype=bool))[::2, ::2],
    "int": lambda d: d.astype(np.int64),
    "uint8": lambda d: d.astype(np.uint8),
    "float": lambda d: d.astype(np.float64),
    "bool bytes 1-255": lambda d: (d * (np.arange(d.size).reshape(d.shape) % 255 + 1))
    .astype(np.uint8)
    .view(bool),
}


class TestUserInputValidation:
    """Graph(dense) and read_packed validate packed rows; from_edges and
    read_edge_list build rows that are symmetric by construction."""

    def assert_both_reject(self, path, dense, message):
        with pytest.raises(ValueError, match=message):
            Graph(dense)
        with pytest.raises(ValueError, match=message):
            read_packed(packed_file(path, dense))

    @pytest.mark.parametrize("n, r, c", FLIPS)
    def test_one_flipped_bit_is_rejected_at_word_and_chunk_edges(self, tmp_path, n, r, c):
        for p in (0.0, 0.5, 1.0):
            dense = random_symmetric(n, seed=r * 1000 + c, p=p)
            dense[r, c] = not dense[r, c]
            self.assert_both_reject(tmp_path / "g.bin", dense, "must be symmetric")

    @pytest.mark.parametrize("n, v", LOOPS)
    def test_one_diagonal_bit_is_rejected(self, tmp_path, n, v):
        dense = random_symmetric(n, seed=v)
        dense[v, v] = True
        self.assert_both_reject(tmp_path / "g.bin", dense, "self loops")

    # C is a multiple of 64, where the packed bytes are the rows' words.
    @pytest.mark.parametrize("layout", LAYOUTS.values(), ids=LAYOUTS.keys())
    @pytest.mark.parametrize("n", [VALIDATOR_N, C, CHUNK_N])
    def test_the_matrix_layout_does_not_matter(self, layout, n):
        dense = random_symmetric(n, seed=n)
        assert np.array_equal(Graph(layout(dense))._rows, _pack_bool_rows(dense))
        for r, c in ((0, n - 1), (n - 1, 0), (300 % n, 64)):
            flipped = dense.copy()
            flipped[r, c] = not flipped[r, c]
            with pytest.raises(ValueError, match="must be symmetric"):
                Graph(layout(flipped))

    def test_dense_input_is_read_not_unpacked(self, tmp_path, monkeypatch):
        """Graph(dense) compares the caller's matrix with the packed rows;
        only read_packed, which has no matrix, unpacks its rows."""
        calls = []
        bits = triwalk.graph._bits
        monkeypatch.setattr(triwalk.graph, "_bits", lambda *a: calls.append(a) or bits(*a))
        dense = random_symmetric(CHUNK_N, seed=1)
        Graph(dense)
        assert calls == []
        read_packed(packed_file(tmp_path / "g.bin", dense))
        assert len(calls) == -(-CHUNK_N // _CHECK_ROWS)

    def test_dense_check_holds_one_chunk_at_a_time(self):
        """Beside its rows, Graph(dense) holds at most one chunk of bits: a
        column pack of the whole matrix would copy it at n = 1000, which is
        not a multiple of 64."""
        n = 1000
        dense = random_symmetric(n, seed=2)
        tracemalloc.start()
        try:
            g = Graph(dense)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < g._rows.nbytes + _CHECK_ROWS * n

    @settings(max_examples=60, deadline=None)
    @given(n=sizes.filter(lambda n: n >= 2), p=probabilities, seed=st.integers(0, 2**32 - 1),
           data=st.data())
    def test_any_flipped_bit_is_rejected(self, tmp_path_factory, n, p, seed, data):
        dense = random_symmetric(n, seed, p)
        r = data.draw(st.integers(0, n - 1))
        c = data.draw(st.integers(0, n - 2))
        c += c >= r  # any column but r
        dense[r, c] = not dense[r, c]
        self.assert_both_reject(tmp_path_factory.getbasetemp() / "flip.bin", dense, "symmetric")

    @settings(max_examples=60, deadline=None)
    @given(n=sizes, p=probabilities, seed=st.integers(0, 2**32 - 1))
    def test_every_constructor_equals_the_packed_matrix(self, tmp_path_factory, n, p, seed):
        dense = random_symmetric(n, seed, p)
        expected = _pack_bool_rows(dense)
        # Each edge once in a random orientation, a third of them repeated
        # in the other orientation, in random order.
        rng = np.random.default_rng(seed)
        u, v = np.nonzero(np.triu(dense))
        swap = rng.random(u.size) < 0.5
        pairs = np.stack([np.where(swap, v, u), np.where(swap, u, v)], axis=1)
        pairs = np.concatenate([pairs, pairs[rng.random(u.size) < 0.3][:, ::-1]])
        edges = [tuple(e) for e in pairs[rng.permutation(len(pairs))].tolist()]
        path = tmp_path_factory.getbasetemp() / "same"
        path.with_suffix(".txt").write_text(f"n {n}\n" + "".join(f"{a} {b}\n" for a, b in edges))
        for g in (
            Graph(dense),
            Graph.from_edges(n, edges),
            read_edge_list(path.with_suffix(".txt")),
            read_packed(packed_file(path.with_suffix(".bin"), dense)),
        ):
            assert g.n == n
            assert np.array_equal(g._rows, expected)

    def test_self_loops_are_rejected_by_the_edge_paths(self, tmp_path):
        with pytest.raises(ValueError, match="self loops"):
            Graph.from_edges(4, [(0, 1), (2, 2)])
        path = tmp_path / "g.txt"
        path.write_text("n 4\n0 1\n3 3\n")
        with pytest.raises(ValueError, match="self loops"):
            read_edge_list(path)

    def test_from_edges_without_edges_is_edgeless(self):
        for edges in ([], (), iter([]), np.zeros((0, 2), dtype=np.int64)):
            g = Graph.from_edges(70, edges)
            assert np.array_equal(g._rows, np.zeros((70, 2), dtype=np.uint64))

    @pytest.mark.parametrize("edges", [[(0, 1, 2)], [(0,)], [(0, 1), (2,)], [(0, 0.5)], [(0, 2**70)]])
    def test_from_edges_rejects_what_is_not_integer_pairs(self, edges):
        with pytest.raises(ValueError, match="pairs of integer vertex ids"):
            Graph.from_edges(4, edges)

    def test_edge_list_batches_equal_one_pass(self, tmp_path, monkeypatch):
        g = erdos_renyi(90, 0.3, seed=4)
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        batches = []
        real = triwalk.graph._or_edges

        def recording(rows, n, pairs):
            batches.append(len(pairs))
            real(rows, n, pairs)

        monkeypatch.setattr(triwalk.graph, "_EDGE_BATCH", 7)
        monkeypatch.setattr(triwalk.graph, "_or_edges", recording)
        assert read_edge_list(path) == g
        # The reader holds at most one batch of parsed edges at a time.
        assert sum(batches) == g.edge_count
        assert max(batches) == 7 and len(batches) == math.ceil(g.edge_count / 7)
        # A bad id in a later batch is still caught.
        path.write_text(path.read_text() + "3 90\n")
        with pytest.raises(ValueError, match="out of range"):
            read_edge_list(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("n 4\n0 1\n2\n", "line 3: expected 'u v', two integer ids, got '2'"),
            ("n 4\n0 1 2\n", "line 2: expected 'u v', two integer ids, got '0 1 2'"),
            ("n 4\n\n0 1\n1 two\n", "line 4: expected 'u v', two integer ids, got '1 two'"),
            ("n 4\n0 1.5\n", "line 2: expected 'u v', two integer ids, got '0 1.5'"),
            ("vertices 4\n0 1\n", "line 1: expected header 'n <count>', got 'vertices 4'"),
            ("n four\n0 1\n", "line 1: expected header 'n <count>', got 'n four'"),
            ("n\n0 1\n", "line 1: expected header 'n <count>', got 'n'"),
            ("", "line 1: expected header 'n <count>', got ''"),
        ],
    )
    def test_malformed_edge_list_lines_are_named(self, tmp_path, text, message):
        path = tmp_path / "g.txt"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            read_edge_list(path)
        assert str(info.value) == message


# Bytes for mutants of an edge list: mostly its own characters, so that
# many mutants still parse.
TEXT_BYTES = st.one_of(st.sampled_from(b"0123456789 n\n"), st.sampled_from(b"-+_\t\r\x00\xff"))
ANY_BYTE = st.integers(0, 255)


def mutate(data, blob, byte=ANY_BYTE, max_ops=4):
    """blob after up to max_ops drawn edits: flip a bit, overwrite a byte,
    truncate or append."""
    out = bytearray(blob)
    for op in data.draw(st.lists(st.sampled_from("fota"), max_size=max_ops)):
        if op == "f" and out:
            out[data.draw(st.integers(0, len(out) - 1))] ^= 1 << data.draw(st.integers(0, 7))
        elif op == "o" and out:
            out[data.draw(st.integers(0, len(out) - 1))] = data.draw(byte)
        elif op == "t":
            del out[data.draw(st.integers(0, len(out))) :]
        elif op == "a":
            out += bytes(data.draw(st.lists(byte, min_size=1, max_size=8)))
    return bytes(out)


def read_or_reject(read, path):
    """read(path) as a valid graph, or None when it raises ValueError."""
    try:
        g = read(path)
    except ValueError:
        return None
    assert_valid_rows(g)
    return g


class TestReaderFuzz:
    """Malformed graph files either read as a valid graph or raise ValueError."""

    graphs = st.builds(
        erdos_renyi,
        n=st.integers(1, 40),
        p=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
        seed=st.integers(0, 2**16),
    )

    @settings(max_examples=150, deadline=None)
    @given(g=graphs, data=st.data())
    def test_edge_list(self, tmp_path_factory, g, data):
        path = tmp_path_factory.getbasetemp() / "fuzz.txt"
        write_edge_list(g, path)
        head, body = path.read_bytes().split(b"\n", 1)
        # The header line "n <count>" never grows and keeps its newline, so a
        # mutant's n stays below 100 and asks for no large adjacency.
        head = mutate(data, head, TEXT_BYTES, max_ops=1)[: len(head)]
        path.write_bytes(head + b"\n" + mutate(data, body, TEXT_BYTES))
        read_or_reject(read_edge_list, path)

    @settings(max_examples=150, deadline=None)
    @given(g=graphs, data=st.data())
    def test_packed(self, tmp_path_factory, g, data):
        path = tmp_path_factory.getbasetemp() / "fuzz.bin"
        write_packed(g, path)
        blob = path.read_bytes()
        # Edit the 12 header bytes (magic and n) and the rows apart, so that
        # most edits land in the rows.
        blob = mutate(data, blob[:12], max_ops=1) + mutate(data, blob[12:])
        path.write_bytes(blob)
        g = read_or_reject(read_packed, path)
        if g is not None:  # accepted files hold exactly the graph they load as
            write_packed(g, path)
            assert path.read_bytes() == blob


class TestGather:
    """The packed-row gather of the pair-row reductions."""

    def _rows(self, n=200, seed=7):
        return erdos_renyi(n, 0.3, seed)._rows

    def _joined(self, rows, iu, iv, stops=None):
        parts = list(_anded_rows(rows, iu, iv, stops))
        starts = [sl.start for sl, _ in parts]
        assert starts == sorted(starts)
        # The slices are consecutive and cover every pair once.
        assert [sl.stop for sl, _ in parts[:-1]] == starts[1:]
        return parts

    @pytest.mark.parametrize("size", [0, 1, 2, _SCAN_CAP, _SCAN_CAP + 1, 3 * _SCAN_CAP - 5])
    def test_matches_fancy_indexing(self, size):
        rows = self._rows()
        rng = np.random.default_rng(size)
        iu = rng.integers(0, rows.shape[0], size)
        iv = rng.integers(0, rows.shape[0], size)
        parts = self._joined(rows, iu, iv)
        assert len(parts) == -(-size // _SCAN_CAP)
        assert all(common.shape[0] <= _SCAN_CAP for _, common in parts)
        got = [c for _, c in parts] or [np.empty((0, rows.shape[1]), np.uint64)]
        assert np.array_equal(np.concatenate(got), rows[iu] & rows[iv])

    def test_single_pair(self):
        rows = self._rows()
        ((sl, common),) = _anded_rows(rows, np.array([3]), np.array([5]))
        assert sl == slice(0, 1)
        assert np.array_equal(common, rows[[3]] & rows[[5]])

    def test_empty_input_yields_nothing(self):
        rows = self._rows()
        empty = np.array([], dtype=np.int64)
        assert list(_anded_rows(rows, empty, empty)) == []
        assert list(_anded_rows(rows, empty, empty, [0, 0])) == []

    def test_stops_cut_the_slices(self):
        rows = self._rows()
        rng = np.random.default_rng(1)
        iu, iv = rng.integers(0, rows.shape[0], (2, 50))
        # Repeated and zero stops give empty slices, which are skipped.
        parts = self._joined(rows, iu, iv, [0, 7, 7, 20, 49])
        assert [sl for sl, _ in parts] == [slice(0, 7), slice(7, 20), slice(20, 49), slice(49, 50)]
        for sl, common in parts:
            assert np.array_equal(common, rows[iu[sl]] & rows[iv[sl]])

    def test_does_not_modify_the_rows(self):
        rows = self._rows()
        before = rows.copy()
        for _ in _anded_rows(rows, np.arange(10), np.arange(10, 20)):
            pass
        assert np.array_equal(rows, before)


def apex_counts_by_pair_loop(g, pu, pv, group=None):
    """Per apex, the pairs, or with ``group`` the groups of pairs, that it
    closes: each group's common-neighbour rows ORed, then counted."""
    adj = g.bool_matrix
    labels = np.arange(pu.size) if group is None else group
    counts = np.zeros(g.n, dtype=np.int64)
    for label in np.unique(labels):
        closed = np.zeros(g.n, dtype=bool)
        for j in np.flatnonzero(labels == label).tolist():
            closed |= adj[pu[j]] & adj[pv[j]]
        counts += closed
    return counts


class TestApexColumnCounts:
    """_apex_column_counts against a per-pair OR-then-count loop, with the
    gather slices it cuts recorded."""

    def run(self, monkeypatch, pu, pv, group=None, n=40):
        g = erdos_renyi(n, 0.3, seed=11)
        slices = []

        def recording(rows, iu, iv, stops=None):
            for sl, common in _anded_rows(rows, iu, iv, stops):
                slices.append(sl)
                yield sl, common

        monkeypatch.setattr(triwalk.graph, "_anded_rows", recording)
        counts = _apex_column_counts(g, pu, pv, group)
        assert counts.dtype == np.int64
        assert np.array_equal(counts, apex_counts_by_pair_loop(g, pu, pv, group))
        return slices

    @staticmethod
    def pairs(size, seed):
        rng = np.random.default_rng(seed)
        return rng.integers(0, 40, (2, size))

    def test_ungrouped_slices_hold_scan_cap_pairs(self, monkeypatch):
        pu, pv = self.pairs(2 * _SCAN_CAP + 9, 1)
        slices = self.run(monkeypatch, pu, pv)
        assert [sl.stop - sl.start for sl in slices] == [_SCAN_CAP, _SCAN_CAP, 9]

    def test_group_longer_than_a_slice(self, monkeypatch):
        # Groups of 3 pairs, one of _SCAN_CAP + 100 pairs from pair 3000 on,
        # then groups of 3 again: the long group is one slice of its own
        # start, never split.
        size = 3 * _SCAN_CAP
        group = np.arange(size) // 3
        group[3000 : 3000 + _SCAN_CAP + 100] = group[3000]
        group[3000 + _SCAN_CAP + 100 :] += 1
        pu, pv = self.pairs(size, 2)
        slices = self.run(monkeypatch, pu, pv, group)
        starts = [sl.start for sl in slices]
        assert 3000 in starts and 3000 + _SCAN_CAP + 100 not in starts
        assert max(sl.stop - sl.start for sl in slices) > _SCAN_CAP
        # Every slice starts a group, and no group spans two slices.
        assert all(s == 0 or group[s] != group[s - 1] for s in starts)
        # Each slice ORs down to at most _SCAN_CAP groups.
        assert all(np.unique(group[sl]).size <= _SCAN_CAP for sl in slices)

    def test_group_ending_on_a_slice_edge(self, monkeypatch):
        # Groups of 64 pairs: a group ends exactly at every multiple of
        # _SCAN_CAP, so the slices are the plain _SCAN_CAP ones.
        size = 2 * _SCAN_CAP + 64
        pu, pv = self.pairs(size, 3)
        slices = self.run(monkeypatch, pu, pv, np.arange(size) // 64)
        assert slices == [
            slice(0, _SCAN_CAP), slice(_SCAN_CAP, 2 * _SCAN_CAP), slice(2 * _SCAN_CAP, size)
        ]

    def test_groups_of_one_equal_the_ungrouped_counts(self, monkeypatch):
        pu, pv = self.pairs(_SCAN_CAP + 50, 4)
        self.run(monkeypatch, pu, pv, np.arange(pu.size))

    @pytest.mark.parametrize("group", [None, np.array([], dtype=np.int64)])
    def test_empty_input_counts_nothing(self, monkeypatch, group):
        empty = np.array([], dtype=np.int64)
        assert self.run(monkeypatch, empty, empty, group) == []



def id_subset(n, seed, share=0.5):
    """A sorted, duplicate-free random subset of range(n)."""
    return np.flatnonzero(np.random.default_rng(seed).random(n) < share)


class TestIdKernels:
    """The kernels that take vertex sets as id arrays, against the bool matrix."""

    # A word's edges: one id, a full word, one bit past it, two words and more.
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 127, 128, 129, 200])
    def test_packed_ids_set_exactly_the_ids(self, n):
        ids = id_subset(n, n)
        words = _packed_ids(n, ids)
        assert words.dtype == np.uint64 and words.shape == (-(-n // 64),)
        bits = np.unpackbits(words.view(np.uint8), bitorder="little")
        assert np.array_equal(np.flatnonzero(bits), ids)  # pad bits past n are zero

    def test_packed_ids_ignore_order_and_repeats(self):
        assert np.array_equal(_packed_ids(70, [69, 3, 69, 0, 3]), _packed_ids(70, [0, 3, 69]))
        assert not _packed_ids(70, np.array([], dtype=np.int64)).any()

    GRAPHS = [(40, 0.3, 1), (65, 0.2, 2), (130, 0.1, 3), (200, 0.05, 4)]

    @pytest.mark.parametrize("n, p, seed", GRAPHS)
    def test_degrees_within_ids_equal_bool_matrix_counts(self, n, p, seed):
        g = erdos_renyi(n, p, seed)
        adj = g.bool_matrix
        verts, within = id_subset(n, seed), id_subset(n, seed + 100)
        mask = np.zeros(n, dtype=bool)
        mask[within] = True
        assert np.array_equal(_degrees(g, verts), adj[verts].sum(axis=1))
        assert np.array_equal(_degrees(g, verts, within), (adj[verts] & mask).sum(axis=1))

    @staticmethod
    def reference_pairs(g, heads, within):
        """Per head in order, its neighbours in ``within`` ascending, less
        the earlier heads."""
        adj = g.bool_matrix
        inside = np.zeros(g.n, dtype=bool)
        inside[within] = True
        return [
            (int(h), int(x))
            for h in heads
            for x in np.flatnonzero(adj[h] & inside)
            if not (x < h and x in heads)
        ]

    @pytest.mark.parametrize("n, p, seed", GRAPHS[1:])
    def test_pair_stream_within_ids_equal_reference(self, n, p, seed):
        g = erdos_renyi(n, p, seed)
        heads, within = id_subset(n, seed), id_subset(n, seed + 100)
        pairs = [
            (int(u[h]), int(x)) for u, _, head, xs in _pair_stream(g, heads, within)
            for h, x in zip(head, xs)
        ]
        assert pairs == self.reference_pairs(g, heads, within)

    @pytest.mark.parametrize("n, p, seed", GRAPHS)
    def test_first_closed_pair_ids_equal_reference(self, n, p, seed):
        g = erdos_renyi(n, p, seed)
        adj = g.bool_matrix
        heads, within = id_subset(n, seed), id_subset(n, seed + 100)
        exclude = id_subset(n, seed + 200, share=0.3)
        banned = np.zeros(n, dtype=bool)
        banned[exclude] = True
        expected = None
        for h, x in self.reference_pairs(g, heads, within):
            common = adj[h] & adj[x]
            if common.any() and not (common & banned).any():
                expected = (h, x, int(np.flatnonzero(common)[0]))
                break
        assert _first_closed_pair(g, heads, within, exclude) == expected


# Graph's members that hand out no row word; any other member is row layout.
ROW_FREE_MEMBERS = {
    "n", "has_edge", "query", "bool_matrix", "bool_row", "neighbors", "edge_count", "edges",
    "from_edges",
}
# Names that only graph.py, the owner of the packed rows, may use.
ROW_LAYOUT_NAMES = {
    "_rows", "unpackbits", "bitwise_count",
    "_anded_rows", "_fold_words", "_column_counts", "_SCAN_CAP", "_packed_ids",
    *{name for name in vars(Graph) if not name.startswith("__")} - ROW_FREE_MEMBERS,
}


def row_layout_uses(tree):
    """(line, name) of each attribute, name or import in ``tree`` that is a
    ROW_LAYOUT_NAMES entry: ``g._rows``, ``np.unpackbits(...)``, an imported
    ``_SCAN_CAP``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            continue
        if name in ROW_LAYOUT_NAMES:
            yield getattr(node, "lineno", None), name


def test_only_graph_touches_the_packed_rows():
    package = Path(triwalk.graph.__file__).parent
    uses = {
        path.name: list(row_layout_uses(ast.parse(path.read_text(), path.name)))
        for path in sorted(package.glob("*.py"))
    }
    assert uses.pop("graph.py")  # the check sees the owner's own uses
    assert uses.keys() >= {"pairs.py", "estimator.py", "harness.py"}
    assert {name: found for name, found in uses.items() if found} == {}


def _called_name(call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _handed_names(call, consumers):
    """Names that ``call`` passes as a plan consumer's generator argument."""
    if _called_name(call) not in consumers:
        return
    param, index = consumers[_called_name(call)]
    values = [kw.value for kw in call.keywords if kw.arg == param]
    if index is not None and len(call.args) > index:
        values.append(call.args[index])
    for value in values:
        if isinstance(value, ast.Name):
            yield value.id


def plan_consumers(trees):
    """Functions that hand a generator to SamplePlan, directly or through
    another consumer: name -> (generator parameter, its position or None)."""
    consumers = {"SamplePlan": ("rng", 3)}
    functions = [
        node for tree in trees for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
    ]
    grown = True
    while grown:
        grown = False
        for fn in functions:
            positional = [arg.arg for arg in fn.args.args]
            params = positional + [arg.arg for arg in fn.args.kwonlyargs]
            for call in (node for node in ast.walk(fn) if isinstance(node, ast.Call)):
                for name in _handed_names(call, consumers):
                    if name in params and fn.name not in consumers:
                        index = positional.index(name) if name in positional else None
                        consumers[fn.name] = (name, index)
                        grown = True
    return consumers


def generator_reuses(tree, consumers):
    """(function, name, line) of each read of a generator in ``tree`` after
    the function handed it to a plan consumer: a read later in the text, or,
    when the handoff sits in a loop that does not rebind the name, any
    other read in that loop."""
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    for fn in (node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)):
        names = [node for node in ast.walk(fn) if isinstance(node, ast.Name)]
        for call in (node for node in ast.walk(fn) if isinstance(node, ast.Call)):
            loop = parents.get(call)
            while loop is not fn and not isinstance(loop, (ast.For, ast.While)):
                loop = parents[loop]
            in_loop = set() if loop is fn else set(ast.walk(loop)) - set(ast.walk(call))
            end = (call.end_lineno, call.end_col_offset)
            for name in _handed_names(call, consumers):
                uses = [node for node in names if node.id == name]
                rebound = any(isinstance(node.ctx, ast.Store) for node in in_loop & set(uses))
                for node in uses:
                    later = (node.lineno, node.col_offset) > end
                    looped = node in in_loop and not rebound
                    if isinstance(node.ctx, ast.Load) and (later or looped):
                        yield fn.name, name, node.lineno


def test_no_generator_is_read_after_a_plan_takes_it():
    # A SamplePlan draws from its generator on first read of a stage, so the
    # plan's arrays match an eager draw only if no one else draws from that
    # generator after handing it over.
    package = Path(triwalk.graph.__file__).parent
    trees = {path.name: ast.parse(path.read_text(), path.name) for path in package.glob("*.py")}
    consumers = plan_consumers(trees.values())
    assert consumers.keys() >= {"SamplePlan", "find_apex_witness", "search_blocks"}
    handoffs = {
        (name, fn.name)
        for name, tree in trees.items()
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        for call in ast.walk(fn)
        if isinstance(call, ast.Call) and any(_handed_names(call, consumers))
    }
    assert handoffs >= {
        ("harness.py", "verify_estimator_bounds"), ("pipeline.py", "search_blocks"),
    }
    reuses = {name: list(generator_reuses(tree, consumers)) for name, tree in trees.items()}
    assert {name: found for name, found in reuses.items() if found} == {}

    later = "def f(rng):\n    p = SamplePlan(2, 1, 1, rng)\n    rng.random()\n"
    looped = (
        "def f(rng):\n    for _ in x:\n        rng.random()\n"
        "        p = SamplePlan(2, 1, 1, rng=rng)\n"
    )
    rebound = looped.replace("rng.random()", "rng = make()")
    relayed = (
        "def g(x, gen):\n    SamplePlan(2, 1, 1, gen)\n"
        "def f(rng):\n    g(0, rng)\n    rng.random()\n"
    )
    assert list(generator_reuses(ast.parse(later), consumers)) == [("f", "rng", 3)]
    assert list(generator_reuses(ast.parse(looped), consumers)) == [("f", "rng", 3)]
    assert list(generator_reuses(ast.parse(rebound), consumers)) == []
    tree = ast.parse(relayed)
    assert list(generator_reuses(tree, plan_consumers([tree]))) == [("f", "rng", 5)]


def unused_imports(tree):
    """Names an import in ``tree`` binds that no name in it reads, not
    counting ``from __future__`` imports."""
    imports = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
    ]
    bound = [alias.asname or alias.name.split(".")[0] for node in imports for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(bound) - read)


def test_every_import_is_used():
    # __init__.py imports to export, so its names are read by callers.
    package = Path(triwalk.graph.__file__).parent
    bench = Path(__file__).resolve().parent.parent / "bench" / "run.py"
    unused = {
        path.name: unused_imports(ast.parse(path.read_text(), path.name))
        for path in [*sorted(package.glob("*.py")), bench]
        if path.name != "__init__.py"
    }
    expected = {"graph.py", "pipeline.py", "estimator.py", "harness.py", "cli.py", "run.py"}
    assert unused.keys() >= expected
    assert {name: names for name, names in unused.items() if names} == {}
    sample = "from __future__ import annotations\nimport json, typing\nx: typing.Any = 1\n"
    assert unused_imports(ast.parse(sample)) == ["json"]
