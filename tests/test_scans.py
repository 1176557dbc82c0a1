"""The three first-triangle scans against full-edge-scan references.

The references are the scans as they were before the early-exit rewrite:
each ANDs the packed rows of every edge, in canonical edge order, before
it looks at a result. The rewritten scans must return exactly what they
return, on every graph and cover.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from triwalk import Triangle, brute_force_triangle, erdos_renyi, planted_instance, random_bipartite
from triwalk.graph import _first_bit, _pack_bool_rows
from triwalk.pipeline import _first_cover_triangle, _first_surviving_triangle_edge

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
