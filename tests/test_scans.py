"""The three first-triangle scans against full-edge-scan references.

The references are the scans as they were before the early-exit rewrite:
each ANDs the packed rows of every edge, in canonical edge order, before
it looks at a result. They read the edges from the dense matrix, not from
``Graph.edges()``, which runs on the pair stream under test. The scans
must return exactly what the references return, on every graph and cover.
After a negative cover scan the surviving-edge scan reads only the edges
that avoid the cover; it must still return the reference's edge.
"""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triwalk import (
    AlgoParams,
    FailureInjection,
    Graph,
    Triangle,
    brute_force_triangle,
    erdos_renyi,
    find_triangle,
    planted_instance,
    random_bipartite,
    sample_cover,
)
from triwalk import graph, pipeline
from triwalk.graph import _first_bit, _pack_bool_rows, _packed_ids
from triwalk.pipeline import _first_surviving_triangle_edge, search_cover_triangles

CHUNK = 1 << 16


def dense_edges(g):
    """Canonically ordered edge endpoints, read from the dense matrix."""
    return np.nonzero(np.triu(g.bool_matrix, 1))


def cover_scan(g, cover):
    return search_cover_triangles(g, np.unique(cover))


def reference_cover_triangle(g, cover):
    """Smallest cover vertex in a triangle, then the first edge it closes."""
    eu, ev = dense_edges(g)
    within = _packed_ids(g.n, cover)
    acc = np.zeros(g._rows.shape[1], dtype=np.uint64)
    for start in range(0, eu.shape[0], CHUNK):
        sl = slice(start, start + CHUNK)
        common = g._rows[eu[sl]] & g._rows[ev[sl]] & within
        if common.shape[0]:
            acc |= np.bitwise_or.reduce(common, axis=0)
    apex = _first_bit(acc)
    if apex is None:
        return None
    word, bit = apex >> 6, apex & 63
    flag = (g._rows[eu, word] & g._rows[ev, word]) >> np.uint64(bit) & np.uint64(1)
    i = int(np.nonzero(flag)[0][0])
    return Triangle(*sorted((apex, int(eu[i]), int(ev[i]))))


def reference_surviving_edge(g, cover):
    """First edge with an apex and no apex in the cover, plus its smallest apex."""
    cover_words = _packed_ids(g.n, cover)
    eu, ev = dense_edges(g)
    for start in range(0, eu.shape[0], CHUNK):
        sl = slice(start, start + CHUNK)
        common = g._rows[eu[sl]] & g._rows[ev[sl]]
        has_apex = common.any(axis=1)
        covered = (common & cover_words).any(axis=1)
        cand = np.nonzero(has_apex & ~covered)[0]
        if cand.size:
            i = int(cand[0])
            return int(eu[sl][i]), int(ev[sl][i]), int(_first_bit(common[i]))
    return None


def reference_brute_force(g):
    """First edge with a common neighbour above it, completed by the smallest one."""
    eu, ev = dense_edges(g)
    idx = np.arange(g.n)
    gt_rows = _pack_bool_rows(idx[None, :] > idx[:, None])
    for start in range(0, eu.shape[0], CHUNK):
        u = eu[start : start + CHUNK]
        v = ev[start : start + CHUNK]
        common = g._rows[u] & g._rows[v] & gt_rows[v]
        hit = common.any(axis=1)
        if hit.any():
            i = int(np.argmax(hit))
            return Triangle(int(u[i]), int(v[i]), int(_first_bit(common[i])))
    return None


def c5_blowup(n, seed):
    """Five parts of a seeded random split, each pair of vertices in
    consecutive parts (mod 5) an edge with probability 1/2: triangle-free,
    and not bipartite once every part holds a vertex of a 5-cycle."""
    rng = np.random.default_rng(seed)
    part = rng.permutation(np.arange(n) * 5 // n)
    step = (part[:, None] - part) % 5
    upper = np.triu(rng.random((n, n)) < 0.5, 1) & ((step == 1) | (step == 4))
    return Graph(upper | upper.T)


@st.composite
def graphs_and_covers(draw):
    n = draw(st.integers(3, 120))
    seed = draw(st.integers(0, 2**32 - 1))
    family = draw(st.sampled_from(["er", "bipartite", "planted", "c5"]))
    if family == "er":
        p = draw(st.sampled_from([0.0, 0.02, 0.05, 0.1, 0.3, 0.5, 0.9, 1.0]))
        g = erdos_renyi(n, p, seed)
    elif family == "bipartite":
        g = random_bipartite(n, seed)
    elif family == "c5":
        g = c5_blowup(n, seed)
    else:
        g = planted_instance(n, seed)
    vertex = st.integers(0, n - 1)
    kind = draw(st.sampled_from(["single", "all", "some", "hits"]))
    if kind == "single":
        cover = [draw(vertex)]
    elif kind == "all":
        cover = list(range(n))
    else:
        # Unsorted, with repeats, as a caller may pass it.
        cover = draw(st.lists(vertex, min_size=1, max_size=n))
        tri = reference_brute_force(g)
        if kind == "hits" and tri is not None:
            cover.append(draw(st.sampled_from(tri)))
    return g, np.asarray(cover, dtype=np.int64)


def check_edges(g):
    eu, ev = g.edges()
    du, dv = dense_edges(g)
    assert eu.dtype == ev.dtype == np.int64
    assert np.array_equal(eu, du) and np.array_equal(ev, dv)


def check_against_references(g, cover):
    assert cover_scan(g, cover) == reference_cover_triangle(g, cover)
    assert _first_surviving_triangle_edge(g, cover) == reference_surviving_edge(g, cover)
    assert brute_force_triangle(g) == reference_brute_force(g)
    check_edges(g)


@settings(max_examples=100, deadline=None)
@given(graphs_and_covers())
def test_scans_match_full_edge_references(case):
    check_against_references(*case)


@contextmanager
def small_blocks():
    """Up to 120 vertices fit in one head block at the shipped sizes, and
    rows under 8 words never tile. Here a block holds 1 to 4 heads, the AND
    slices start at one pair and tiles are one word wide (up to three), so
    a pair stream crosses many blocks, slices and upper-word tiles."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "_BLOCK_FIRST_BITS", 128)
        mp.setattr(graph, "_BLOCK_CAP_BITS", 512)
        mp.setattr(graph, "_AND_FIRST", 1)
        mp.setattr(graph, "_TILE_WORDS", 1)
        yield


@settings(max_examples=50, deadline=None)
@given(graphs_and_covers())
def test_scans_match_references_across_head_blocks(case):
    with small_blocks():
        check_against_references(*case)


@pytest.mark.parametrize("n", [200, 300])
@pytest.mark.parametrize("seed", [0, 1])
def test_scans_match_references_over_three_tiles(n, seed):
    # Rows of 4 and 5 words split into three one-word-or-wider tiles.
    rng = np.random.default_rng(seed)
    cases = [(erdos_renyi(n, 0.03, seed), rng.choice(n, 20)), (c5_blowup(n, seed), rng.choice(n, 9))]
    with small_blocks():
        for g, cover in cases:
            check_against_references(g, cover)
            free = cover[~_in_triangle(g)[cover]]
            if free.size:
                check_pruned_scan(g, free)


def test_exclude_scan_rejects_a_pair_closed_below_its_tile():
    # Pair (10, 150) is closed by 180, in x's tile (words 2-3 of 4), and by
    # 5, in word 0 and excluded: the exclude scan must reject it, as it
    # rejects every other pair among the excluded 5, 10 and 150, and return
    # the triangle (190, 195, 199).
    edges = [(10, 150), (5, 10), (5, 150), (10, 180), (150, 180), (190, 195), (190, 199), (195, 199)]
    g = Graph.from_edges(200, edges)
    cover = np.array([5, 10, 150])
    assert reference_surviving_edge(g, cover) == (190, 195, 199)
    with small_blocks():
        assert _first_surviving_triangle_edge(g, cover) == (190, 195, 199)
        # Without the exclusion the first closed edge is (5, 10).
        assert graph._first_closed_pair(g, np.arange(200)) == (5, 10, 150)


@pytest.mark.parametrize("n", [1, 2, 700, 1100])
def test_edges_match_the_dense_enumeration(n):
    # At n = 700 and 1100 the stream reads 5 and 7 head blocks at the shipped sizes.
    for g in (erdos_renyi(n, 0.3, n), random_bipartite(max(n, 2), n)):
        check_edges(g)
        assert g.edges()[0].size == g.edge_count


def _in_triangle(g):
    """Mask of the vertices that lie in some triangle."""
    adj = g.bool_matrix.astype(np.int64)
    return ((adj @ adj) * adj).sum(axis=1) > 0


@st.composite
def graphs_and_negative_covers(draw):
    """A graph and a cover with no vertex in a triangle (maybe empty)."""
    n = draw(st.integers(3, 120))
    seed = draw(st.integers(0, 2**32 - 1))
    family = draw(st.sampled_from(["er", "bipartite", "planted"]))
    if family == "er":
        p = draw(st.sampled_from([0.0, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5]))
        g = erdos_renyi(n, p, seed)
    elif family == "bipartite":
        g = random_bipartite(n, seed)
    else:
        g = planted_instance(n, seed)
    free = np.flatnonzero(~_in_triangle(g))
    kind = draw(st.sampled_from(["all", "some"]))
    if kind == "all" or free.size == 0:
        cover = free
    else:
        # Unsorted, with repeats, as a caller may pass it.
        cover = np.asarray(draw(st.lists(st.sampled_from(free.tolist()), min_size=1, max_size=n)))
    return g, cover.astype(np.int64)


def check_pruned_scan(g, cover):
    assert cover_scan(g, cover) is None
    pruned = _first_surviving_triangle_edge(g, cover, cover_negative=True)
    assert pruned == reference_surviving_edge(g, cover)
    # No triangle touches the cover, so the first triangle edge of G[V - C]
    # is the first triangle edge of G, completed by its smallest apex.
    truth = reference_brute_force(g)
    assert pruned == (None if truth is None else tuple(truth))


@settings(max_examples=100, deadline=None)
@given(graphs_and_negative_covers())
def test_pruned_scan_matches_full_scan_and_brute_force(case):
    check_pruned_scan(*case)


@settings(max_examples=50, deadline=None)
@given(graphs_and_negative_covers())
def test_pruned_scan_across_head_blocks(case):
    with small_blocks():
        check_pruned_scan(*case)


# ER inputs whose finder cover holds a triangle vertex, and whose first
# uncovered triangle edge differs from the first triangle edge of G[V - C].
GATED = [(128, 0.1, 0), (96, 0.12, 3), (160, 0.08, 10)]


@pytest.mark.parametrize("n, p, seed", GATED)
def test_suppressed_cover_hit_keeps_the_exclude_scan(n, p, seed, monkeypatch):
    g = erdos_renyi(n, p, seed)
    # The cover find_triangle draws: its first seed substream feeds sample_cover.
    rng = pipeline._substream(seed, 0)
    cover = sample_cover(n, AlgoParams().k, rng=rng)
    assert cover_scan(g, cover) is not None
    expected = reference_surviving_edge(g, cover)
    assert _first_surviving_triangle_edge(g, cover, cover_negative=True) != expected

    witnesses = []
    real = pipeline.search_blocks

    def spy(*args, **kwargs):
        result = real(*args, **kwargs)
        witnesses.append(result[0])
        return result

    monkeypatch.setattr(pipeline, "search_blocks", spy)
    # A 2% search gate suppresses the cover hit, so the run reaches the walk.
    params = AlgoParams(seed=seed, failure_injection=FailureInjection(search_success=0.02))
    find_triangle(g, params)
    (witness,) = witnesses
    apex, (u, v) = witness
    assert (u, v, apex) == expected
