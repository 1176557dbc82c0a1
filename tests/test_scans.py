"""The three first-triangle scans against full-edge-scan references.

The references are the scans as they were before the early-exit rewrite:
each ANDs the packed rows of every edge, in canonical edge order, before
it looks at a result. The rewritten scans must return exactly what they
return, on every graph and cover. After a negative cover scan the
surviving-edge scan reads only the edges that avoid the cover; it must
still return the reference's edge.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triwalk import (
    AlgoParams,
    FailureInjection,
    Triangle,
    brute_force_triangle,
    erdos_renyi,
    find_triangle,
    planted_instance,
    random_bipartite,
    sample_cover,
)
from triwalk import pipeline
from triwalk.graph import _SCAN_CAP, _first_bit, _pack_bool_rows
from triwalk.pipeline import (
    _first_common_apex,
    _first_cover_triangle,
    _first_surviving_triangle_edge,
)

CHUNK = 1 << 16


def reference_cover_triangle(g, cover):
    """Smallest cover vertex in a triangle, then the first edge it closes."""
    eu, ev = g.edges()
    within = g.pack_set(cover)
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
    cover_words = g.pack_set(cover)
    eu, ev = g.edges()
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
    eu, ev = g.edges()
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


@st.composite
def graphs_and_covers(draw):
    n = draw(st.integers(3, 120))
    seed = draw(st.integers(0, 2**32 - 1))
    family = draw(st.sampled_from(["er", "bipartite", "planted"]))
    if family == "er":
        p = draw(st.sampled_from([0.0, 0.02, 0.05, 0.1, 0.3, 0.5, 0.9, 1.0]))
        g = erdos_renyi(n, p, seed)
    elif family == "bipartite":
        g = random_bipartite(n, seed)
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


@settings(max_examples=100, deadline=None)
@given(graphs_and_covers())
def test_scans_match_full_edge_references(case):
    g, cover = case
    assert _first_cover_triangle(g, cover) == reference_cover_triangle(g, cover)
    assert _first_surviving_triangle_edge(g, cover) == reference_surviving_edge(g, cover)
    assert brute_force_triangle(g) == reference_brute_force(g)


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


@settings(max_examples=100, deadline=None)
@given(graphs_and_negative_covers())
def test_pruned_scan_matches_full_scan_and_brute_force(case):
    g, cover = case
    assert _first_cover_triangle(g, cover) is None
    pruned = _first_surviving_triangle_edge(g, cover, cover_negative=True)
    assert pruned == reference_surviving_edge(g, cover)
    # No triangle touches the cover, so the first triangle edge of G[V - C]
    # is the first triangle edge of G, completed by its smallest apex.
    truth = reference_brute_force(g)
    assert pruned == (None if truth is None else tuple(truth))


# ER inputs whose finder cover holds a triangle vertex, and whose first
# uncovered triangle edge differs from the first triangle edge of G[V - C].
GATED = [(128, 0.1, 0), (96, 0.12, 3), (160, 0.08, 10)]


@pytest.mark.parametrize("n, p, seed", GATED)
def test_suppressed_cover_hit_keeps_the_exclude_scan(n, p, seed, monkeypatch):
    g = erdos_renyi(n, p, seed)
    # The cover find_triangle draws: its first seed substream feeds sample_cover.
    rng = np.random.default_rng(np.random.SeedSequence([seed]).spawn(4)[0])
    cover = sample_cover(n, AlgoParams().k, rng=rng)
    assert _first_cover_triangle(g, cover) is not None
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
    _, apex, (u, v) = witness
    assert (u, v, apex) == expected


def reference_common_apex(g, eu, ev):
    """Lowest bit of the OR of every pair's common neighbourhood, first pair with it."""
    common = g._rows[eu] & g._rows[ev]
    apex = _first_bit(np.bitwise_or.reduce(common, axis=0))
    if apex is None:
        return None
    flag = common[:, apex >> 6] >> np.uint64(apex & 63) & np.uint64(1)
    return apex, int(np.flatnonzero(flag)[0])


@pytest.mark.parametrize("late", [False, True])
def test_common_apex_across_gather_slices(late):
    # Three gather slices of pairs. Vertex 0, the smallest possible apex,
    # closes pairs in every slice, or with ``late`` in none but the last.
    g = erdos_renyi(64, 0.5, 2)
    rng = np.random.default_rng(3)
    eu, ev = rng.integers(0, 64, (2, 4 * _SCAN_CAP))
    at_zero = (g._rows[eu, 0] & g._rows[ev, 0] & np.uint64(1)).astype(bool)
    if late:
        cut = 2 * _SCAN_CAP + 5
        keep = np.concatenate([~at_zero[:cut], at_zero[cut:]])
        eu, ev = eu[keep], ev[keep]
    expected = reference_common_apex(g, eu, ev)
    assert expected[0] == 0 and (expected[1] >= _SCAN_CAP) == late
    assert _first_common_apex(g, eu, ev) == expected
