"""Graph storage, instance generators, and the query-counted edge oracle.

Adjacency is held in packed 64-bit rows so neighborhood intersections,
common-neighbor counts and lexicographic scans run word-parallel. Graphs
are immutable after construction and safe for concurrent readers; all
randomness flows through explicit integer seeds. No other module reads
the rows or packs a vertex set: each reduction over them is written here
once, and its kernels take vertex sets as id arrays.

No constructor builds an n x n matrix beyond the one a caller passes to
``Graph(dense)``, or its bool copy when that matrix holds numbers. The
generators write packed rows directly, 128 drawn rows at a time; their
output is symmetric by construction, so it skips validation. A draw of at
least 2^19 uniforms (_SPLIT_DRAW: erdos_renyi from n = 725,
random_bipartite from n = 1449) is filled in two row ranges at once, the
second on one helper thread that the call joins before it returns; each
range advances its own copy of the seeded PCG64 stream to its first row,
so every graph is bit for bit the one sequential draw. The
ranges never write the same word: the row block and the column block that
a chunk writes share no word with another chunk's (see erdos_renyi and
_bipartite_rows).
``from_edges`` and ``read_edge_list`` OR both orientations
of every edge into packed rows, so they check only self loops and vertex
ranges. ``Graph(dense)`` (after packing) and ``read_packed`` hand their
rows to one validator, which rejects bits past column n, set diagonal
bits and asymmetry, comparing the column pack of each chunk of
_CHECK_ROWS rows with the matching word columns of the rows. It reads a
chunk's bits from the caller's matrix for ``Graph(dense)``, and unpacks
them from the rows for ``read_packed``, which has no matrix.

Classical probes of the adjacency relation are tallied as ``raw_probes``
on a :class:`QueryLedger`. No library code probes pair by pair: the
estimator counts its probes in closed form and adds the total with
``QueryLedger.add_raw``. ``Graph.query`` stays as the one-pair oracle for
callers, and counts one probe per call. Charged quantum costs (the
emulated query budget) are accumulated on the same ledger by the
cost-model layer, under per-phase labels.
"""

from __future__ import annotations

import itertools
import math
import os
import struct
import threading
from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from ._checks import (
    _check_int, _check_real, _check_seed, _check_type, _checked_vertex, _checked_vertices,
    _holds_bool,
)


# Seed-stream tags so generators drawing from the same user seed stay
# independent of each other.
_TAG_ER = 0x45
_TAG_BIPARTITE = 0x42
_TAG_PLANT = 0x50

_PACKED_MAGIC = b"TWGB"
# What open() takes as a file name; an int would read as a file descriptor.
_PATH = (str, bytes, os.PathLike)

# Packed rows in the largest temporary of a gather or a scan: 4096 rows
# stay cache-sized and run about twice as fast as 65,536.
_SCAN_CAP = 4096
assert _SCAN_CAP < 1 << 16  # _column_counts sums at most _SCAN_CAP rows in uint16
# Pairs in the first AND slice of a first-closed-pair scan; later slices
# double up to _SCAN_CAP. A cover hit on a dense graph sits among the
# first few pairs.
_AND_FIRST = 256
# Adjacency bits in the first and in the largest head block that a pair
# stream unpacks; each block has 4x the heads of the one before, up to the
# cap. A positive stops within its first blocks, and a negative pays the
# per-block overhead only a few times (BENCH_scans.json, "one_kernel").
_BLOCK_FIRST_BITS = 1 << 13
_BLOCK_CAP_BITS = 1 << 18
# Rows of the random matrix a generator draws and packs at a time; a
# multiple of 64, so each chunk's transpose fills whole words.
_GEN_ROWS = 128
# A generator's draw of at least this many uniforms is filled in two row
# ranges at once, one on a helper thread. Below it the thread's start and
# the second stream's set-up cost more than they save: at 2^17, drawing
# erdos_renyi(448) (200k uniforms) and random_bipartite(768) (147k) in two
# ranges gained nothing or was slower (BENCH_graph.json, "split_draw").
_SPLIT_DRAW = 1 << 19
# Rows that _check_rows compares at a time; a multiple of 64, so each
# chunk starts on a word column. From n = 768 to 4096, 256 rows check
# 1.15-1.8x faster than 128, and 512 or 1024 are slower from n = 2048
# (BENCH_graph.json, "dense_check", "chunk_rows").
_CHECK_ROWS = 256
# The strict upper triangle of a chunk's diagonal block.
_ABOVE = np.triu(np.ones((_GEN_ROWS, _GEN_ROWS), dtype=bool), 1)
_OCTET_WEIGHTS = np.uint8(1) << np.arange(8, dtype=np.uint8)
# Edges that from_edges converts and ORs into the rows at a time, which
# bounds its memory, and read_edge_list's, apart from the rows themselves.
# A batch costs about 35 us of fixed numpy calls and holds about 250 bytes
# a pair: 4096 pairs keep the fixed cost near 2% of the conversion and the
# batch under 1 MiB (BENCH_graph.json, "edge_batch").
_EDGE_BATCH = 1 << 12


class Triangle(NamedTuple):
    """Three mutually adjacent vertices, stored in ascending order."""

    v1: int
    v2: int
    v3: int


@dataclass
class QueryLedger:
    """Per-phase accumulator of charged cost plus raw classical probes.

    ``charged`` maps a phase label to a nonnegative real: the emulated
    quantum query budget attributed to that phase. ``raw_probes`` counts
    actual classical adjacency reads, kept separate for diagnostics.
    Entries only ever increase.
    """

    charged: dict[str, float] = field(default_factory=dict)
    raw_probes: int = 0

    def __post_init__(self):
        _check_type("charged", self.charged, dict)
        for phase, amount in self.charged.items():
            _check_type("phase", phase, str)
            _check_real(f"charge for phase {phase!r}", amount, "[0, inf)")
        _check_int("raw probe count", self.raw_probes, 0, math.inf)

    def charge(self, phase: str, amount: float) -> None:
        _check_type("phase", phase, str)
        # A NaN total would never exceed a budget.
        _check_real(f"charge for phase {phase!r}", amount, "[0, inf)")
        self.charged[phase] = self.charged.get(phase, 0.0) + float(amount)

    def add_raw(self, count: int = 1) -> None:
        _check_int("raw probe count", count, 0, math.inf)
        self.raw_probes += int(count)

    @property
    def total(self) -> float:
        return sum(self.charged.values())


def _pack_bool_rows(dense: np.ndarray) -> np.ndarray:
    """Pack a (rows, bits) boolean matrix into (rows, ceil(bits/64)) words."""
    rows, bits = dense.shape
    words = (bits + 63) // 64
    packed_bytes = np.packbits(dense, axis=1, bitorder="little")
    if bits % 64 == 0:  # whole words already: no padded copy
        # packbits keeps a Fortran-ordered input's order; the view needs C.
        return np.ascontiguousarray(packed_bytes).view("<u8")
    padded = np.zeros((rows, words * 8), dtype=np.uint8)
    padded[:, : packed_bytes.shape[1]] = packed_bytes
    return padded.view("<u8")


def _pack_bool_columns(bits: np.ndarray, any_bytes: bool = False) -> np.ndarray:
    """Pack the columns of a (rows, bits) boolean matrix: _pack_bool_rows(bits.T).

    Weighting each octet of rows with einsum packs a (128, 1024) chunk 16x
    faster than packbits of the transposed view, and makes the generators
    1.5-2x faster at n=768-2048 (BENCH_graph.json, "column_packer").
    The weights read each bool's byte, which must be 0 or 1: a byte of 64
    weighted by 4 wraps to 0. With ``any_bytes`` (a caller's matrix, which
    .view(bool) can fill with any nonzero byte for True, as packbits reads
    it) they read the bools themselves, which numpy casts to 0 or 1, about
    25% slower.
    """
    h, w = bits.shape
    if h % 64:
        bits = np.concatenate([bits, np.zeros((-h % 64, w), dtype=bool)])
    if not any_bytes:
        bits = bits.view(np.uint8)
    octets = np.einsum("kbj,b->jk", bits.reshape(-1, 8, w), _OCTET_WEIGHTS)
    return np.ascontiguousarray(octets).view("<u8")


def _or_block(rows: np.ndarray, r0: int, c0: int, bits: np.ndarray) -> None:
    """OR the edges of a (h, w) boolean block into packed rows, both ways.

    Entry (i, j) is the edge {r0 + i, c0 + j}; r0 and c0 are multiples of 64,
    and the block has no entry with r0 + i == c0 + j.
    """
    h, w = bits.shape
    rows[r0 : r0 + h, c0 >> 6 : (c0 + w + 63) >> 6] |= _pack_bool_rows(bits)
    rows[c0 : c0 + w, r0 >> 6 : (r0 + h + 63) >> 6] |= _pack_bool_columns(bits)


def _zero_rows(n: int) -> np.ndarray:
    """All-zero packed rows for n vertices; ValueError unless n is an integer
    of at least 1 whose rows can be allocated."""
    _check_int("n", n, 1)
    try:
        return np.zeros((n, (n + 63) // 64), dtype=np.uint64)
    except (MemoryError, ValueError):
        raise ValueError(f"n={n} is too large: its adjacency cannot be allocated") from None


def _check_rows(n: int, rows: np.ndarray, dense: Optional[np.ndarray] = None) -> None:
    """Raise ValueError unless packed rows hold a valid adjacency on n vertices.

    Rejects bits past column n, set diagonal bits and asymmetry. Row i must
    equal column i: for each _CHECK_ROWS chunk starting at r0, the column
    pack of the chunk's columns from r0 on must equal the chunk's word
    columns of rows r0 and later, so every pair is compared in the chunk
    of its lower end. A chunk's bits are read from ``dense``, the boolean
    matrix the rows were packed from, when there is one, any nonzero byte
    as True as packbits read it; else they are unpacked from the rows.
    """
    if n % 64 and (rows[:, -1] >> np.uint64(n % 64)).any():
        raise ValueError(f"packed rows have bits set past column n={n}")
    v = np.arange(n)
    if ((rows[v, v >> 6] >> (v & 63).astype(np.uint64)) & np.uint64(1)).any():
        raise ValueError("self loops are not representable")
    for r0 in range(0, n, _CHECK_ROWS):
        h = min(_CHECK_ROWS, n - r0)
        if dense is None:
            bits = _bits(rows[r0 : r0 + h, r0 >> 6 :], n - r0)
        else:
            bits = dense[r0 : r0 + h, r0:]
        columns = _pack_bool_columns(bits, any_bytes=dense is not None)
        if not np.array_equal(columns, rows[r0:, r0 >> 6 : (r0 + h + 63) >> 6]):
            raise ValueError("adjacency must be symmetric")
        del bits  # freed before the next chunk's bits are unpacked


def _or_edges(rows: np.ndarray, n: int, pairs: list) -> None:
    """OR a list of (u, v) vertex pairs into packed rows, both ways."""
    try:
        ends = np.array(pairs)
    except ValueError:  # pairs of unequal lengths
        ends = np.zeros(0)
    integer_pairs = ends.ndim == 2 and ends.shape[1] == 2 and ends.dtype.kind in "iu"
    if not integer_pairs or _holds_bool(pairs, 2):
        raise ValueError("edges must be (u, v) pairs of integer vertex ids")
    if (ends[:, 0] == ends[:, 1]).any():
        raise ValueError("self loops are not representable")
    ends = _checked_vertices(n, ends.ravel()).reshape(ends.shape)
    flat, words = rows.reshape(-1), rows.shape[1]
    for u, v in ((ends[:, 0], ends[:, 1]), (ends[:, 1], ends[:, 0])):
        np.bitwise_or.at(flat, u * words + (v >> 6), np.uint64(1) << (v & 63).astype(np.uint64))


def _fold_words(op, words: np.ndarray, dtype=None) -> np.ndarray:
    """``op.reduce`` over the word axis of (rows, words): one value a row.

    numpy's reductions along a short last axis are slow: at 7 to 16 words a
    row, reducing a transposed copy along its first axis is up to 3x faster.
    """
    return op.reduce(np.ascontiguousarray(words.T), axis=0, dtype=dtype)


def _popcounts(words: np.ndarray) -> np.ndarray:
    """Set bits per row of (rows, words) packed rows, as int64."""
    return _fold_words(np.add, np.bitwise_count(words), np.int64)


def _bits(words: np.ndarray, n: int) -> np.ndarray:
    """The first n bits of each packed row in ``words`` (..., words), as booleans."""
    return np.unpackbits(words.view(np.uint8), axis=-1, count=n, bitorder="little").view(bool)


def _column_counts(words: np.ndarray, n: int) -> np.ndarray:
    """Per column, how many of the (rows, words) packed rows have that bit.
    Summed in uint16, about 3x faster than in int64; exact below 65,536 rows."""
    return np.add.reduce(_bits(words, n).view(np.uint8), axis=0, dtype=np.uint16)


def _first_bit(row_words: np.ndarray) -> Optional[int]:
    """Index of the lowest set bit in a packed row, or None if empty."""
    for wi in range(row_words.shape[0]):
        word = int(row_words[wi])
        if word:
            return wi * 64 + (word & -word).bit_length() - 1
    return None


def _anded_rows(rows: np.ndarray, iu: np.ndarray, iv: np.ndarray, stops=None):
    """Yield (sl, rows[iu[sl]] & rows[iv[sl]]) over consecutive slices sl.

    The pair gather of _common_counts and _apex_column_counts. Rows are
    taken with np.take, 3-4x faster than fancy indexing, and ANDed in
    place. The first-closed-pair scans take each head's row from its block
    instead (_first_closed_pair).
    Slices end at the increasing offsets ``stops`` when given (so a caller
    can align them with its own groups; empty slices are skipped), else
    every _SCAN_CAP pairs.
    """
    total = iu.shape[0]
    if stops is None:
        stops = range(_SCAN_CAP, total, _SCAN_CAP)
    start = 0
    for stop in [*stops, total]:
        if stop > start:
            common = np.take(rows, iu[start:stop], axis=0)
            common &= np.take(rows, iv[start:stop], axis=0)
            yield slice(start, stop), common
            start = stop


class Graph:
    """Undirected unweighted graph over vertices 0..n-1.

    The adjacency relation is symmetric with no self loops. ``Graph(dense)``
    packs a square matrix of bools (any nonzero byte is True), or of
    numbers that are each 0 or 1, into 64-bit rows and checks the packed
    rows against it (see
    ``_check_rows``); ``from_edges`` and the readers build packed
    rows without any n x n matrix. Use :meth:`query` for oracle-style
    access that tallies raw probes on a ledger; emulation-side bulk scans
    are this module's reductions over the ``_rows`` bitset view.
    """

    __slots__ = ("n", "_rows")

    def __init__(self, dense: np.ndarray):
        dense = np.asarray(dense)
        if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
            raise ValueError("adjacency must be a square matrix")
        if dense.shape[0] < 1:
            raise ValueError("graph needs at least one vertex")
        if dense.dtype != bool:
            bits = dense != 0 if dense.dtype.kind in "iufc" else None
            if bits is None or not np.array_equal(dense, bits):
                raise ValueError("adjacency entries must be 0 or 1")
            dense = bits
        self.n: int = int(dense.shape[0])
        self._rows: np.ndarray = _pack_bool_rows(dense)
        _check_rows(self.n, self._rows, dense)

    # -- construction -------------------------------------------------

    @classmethod
    def _from_rows(cls, n: int, rows: np.ndarray) -> "Graph":
        """Wrap packed rows unchecked: generator output, or rows already checked.

        The rows must be symmetric, with a zero diagonal and zero bits past
        column n.
        """
        g = cls.__new__(cls)
        g.n, g._rows = n, rows
        return g

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """Graph on n vertices from (u, v) pairs; repeats and order are free.

        Pairs are converted _EDGE_BATCH at a time, so no n x n matrix and no
        whole edge array is built.
        """
        _check_type("edges", edges, Iterable)
        rows = _zero_rows(n)
        pairs = iter(edges)
        while batch := list(itertools.islice(pairs, _EDGE_BATCH)):
            _or_edges(rows, n, batch)
        return cls._from_rows(n, rows)

    # -- core access ---------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        """Adjacency of u and v; ValueError unless both are integer ids in [0, n)."""
        u, v = _checked_vertex(self.n, u), _checked_vertex(self.n, v)
        return bool((int(self._rows[u, v >> 6]) >> (v & 63)) & 1)

    def query(self, ledger: QueryLedger, u: int, v: int) -> bool:
        """Oracle access to the pair {u, v}; counts one raw probe."""
        _check_type("ledger", ledger, QueryLedger)
        if u == v:
            raise ValueError("oracle pairs need distinct endpoints")
        edge = self.has_edge(u, v)
        ledger.add_raw(1)
        return edge

    @property
    def bool_matrix(self) -> np.ndarray:
        """Dense boolean adjacency, unpacked afresh on every call."""
        return _bits(self._rows, self.n)

    def bool_row(self, u: int) -> np.ndarray:
        """Row u of the adjacency as n booleans, unpacked from its packed row."""
        return _bool_rows(self, _checked_vertex(self.n, u))

    def neighbors(self, u: int) -> np.ndarray:
        return np.flatnonzero(self.bool_row(u))

    @property
    def edge_count(self) -> int:
        return int(np.bitwise_count(self._rows).sum()) // 2

    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Canonically ordered edge endpoints (u < v, lexicographic)."""
        blocks = [(u[head], x) for u, _, head, x in _pair_stream(self, np.arange(self.n))]
        return tuple(map(np.concatenate, zip(*blocks)))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and np.array_equal(self._rows, other._rows)
        )

    __hash__ = None  # __eq__ compares the adjacency by value; rows are not hashed

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count})"


def is_triangle(g: Graph, tri: Triangle) -> bool:
    """Whether the three vertex ids of ``tri`` are distinct and pairwise adjacent."""
    _check_type("g", g, Graph)
    _check_type("tri", tri, Iterable)
    a, b, c = (_checked_vertex(g.n, v) for v in tri)  # ValueError unless three ids
    return len({a, b, c}) == 3 and g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c)


# -- reductions over packed rows, for the pair-set code (ids already checked)


def _bool_rows(g: Graph, verts) -> np.ndarray:
    """The adjacency rows of ``verts`` (an id or an id array) as n booleans each."""
    return _bits(np.take(g._rows, verts, axis=0), g.n)


def _packed_ids(n: int, ids) -> np.ndarray:
    """The vertex set ``ids`` as one packed row, its pad bits zero."""
    bits = np.zeros((1, n), dtype=bool)
    bits[0, ids] = True
    return _pack_bool_rows(bits)[0]


def _degrees(g: Graph, verts: np.ndarray, within=None) -> np.ndarray:
    """Per vertex of ``verts``, its neighbour count (among the ids ``within``
    when given), int64."""
    rows = np.take(g._rows, verts, axis=0)
    if within is not None:
        rows &= _packed_ids(g.n, within)
    return _popcounts(rows)


def _common_counts(g: Graph, pu: np.ndarray, pv: np.ndarray) -> np.ndarray:
    """Per pair (pu[j], pv[j]), the number of vertices adjacent to both ends."""
    counts = np.empty(pu.shape[0], dtype=np.int64)
    for sl, common in _anded_rows(g._rows, pu, pv):
        counts[sl] = _popcounts(common)
    return counts


def _apex_column_counts(g: Graph, pu: np.ndarray, pv: np.ndarray, group=None) -> np.ndarray:
    """Per apex w, as int64, the pairs (pu[j], pv[j]) with w as a common neighbour.

    With ``group``, a non-negative nondecreasing label per pair, it counts
    the groups holding such a pair instead. Slices are then cut at a group
    start near every _SCAN_CAP pairs, so a group's OR never spans two (a
    longer group is one slice), and no slice ORs down to over _SCAN_CAP rows.
    """
    counts = np.zeros(g.n, dtype=np.int64)
    stops = None if group is None else np.searchsorted(group, group[_SCAN_CAP::_SCAN_CAP])
    for sl, common in _anded_rows(g._rows, pu, pv, stops):
        if group is not None:
            starts = np.flatnonzero(np.diff(group[sl], prepend=-1))
            common = np.bitwise_or.reduceat(common, starts, axis=0)
        counts += _column_counts(common, g.n)
    return counts


def _pair_stream(g: Graph, heads: np.ndarray, within: Optional[np.ndarray] = None):
    """Yield (u, rows, head, x) for consecutive, growing blocks u of ``heads``.

    ``heads`` is a sorted, duplicate-free vertex array and ``within`` an id
    array (default: every vertex). ``rows`` holds the full packed rows of
    the block's heads u. The pairs (u[head], x) are, for each head, its
    neighbours x in ``within``, head-major with x ascending.
    A pair whose x is an earlier head is skipped: it was read from x's
    side. With heads = within that leaves the edges u < x in canonical
    order. Blocks are read straight from the packed rows, so a caller that
    stops early never touches the later rows.
    """
    n = g.n
    word_start = 64 * np.arange(g._rows.shape[1])
    within = ~np.zeros(word_start.size, np.uint64) if within is None else _packed_ids(n, within)
    # A head keeps its neighbours in within that lie above it or are no head.
    others = ~_packed_ids(n, heads) & within
    start, size, cap = 0, max(1, _BLOCK_FIRST_BITS // n), max(1, _BLOCK_CAP_BITS // n)
    while start < heads.size:
        u = heads[start : start + size]
        start, size = start + size, min(4 * size, cap)
        rows = np.take(g._rows, u, axis=0)
        # The bits above u: all ones, shifted left by each word's count of
        # bits at or below u (numpy shifts a uint64 by 64 or more to 0).
        low = np.maximum((u + 1)[:, None] - word_start, 0).astype(np.uint64)
        keep = (~np.uint64(0) << low) & within | others
        keep &= rows
        # Split flat indices into (row, column) without a division.
        head = np.repeat(np.arange(u.size), _popcounts(keep))
        yield u, rows, head, np.flatnonzero(_bits(keep, n)) - head * n


def _first_closed_pair(
    g: Graph, heads: np.ndarray, within=None, exclude=None
) -> Optional[tuple[int, int, int]]:
    """First pair (h, x) of _pair_stream(g, heads, within) with a common
    neighbour, none of them among the ids ``exclude`` if given, plus its
    smallest common neighbour.

    A head's row is taken from its block's rows, which is cheaper than a
    gather from all of g's rows. The ANDs run in slices of _AND_FIRST
    pairs, doubling up to _SCAN_CAP over the stream: a positive stops
    after little work, and a negative keeps its temporaries cache-sized.
    """
    size = _AND_FIRST
    if exclude is not None:
        exclude = _packed_ids(g.n, exclude)
    for u, rows, head, x in _pair_stream(g, heads, within):
        start = 0
        while start < x.size:
            sl = slice(start, start + size)
            start, size = sl.stop, min(2 * size, _SCAN_CAP)
            common = np.take(g._rows, x[sl], axis=0)
            common &= np.take(rows, head[sl], axis=0)
            if not common.max(initial=0):  # a whole-array test is ~10x faster than per row
                continue
            hit = np.flatnonzero(_fold_words(np.bitwise_or, common))
            if exclude is not None:
                hit = hit[_fold_words(np.bitwise_or, common[hit] & exclude) == 0]
            if hit.size:
                i = int(hit[0])
                return int(u[head[sl][i]]), int(x[sl][i]), _first_bit(common[i])
    return None


def brute_force_triangle(g: Graph) -> Optional[Triangle]:
    """Exhaustive ground-truth search; lexicographically smallest triangle.

    Takes the first edge (u, v), in canonical order, that has a common
    neighbour, and its smallest common neighbour w. Every such w lies above
    v: a w below u would close the earlier edge (w, u), and one between u
    and v the earlier edge (u, w). So (u, v, w) is the minimum sorted
    triple. Classical reference oracle: nothing is charged to any ledger.
    """
    _check_type("g", g, Graph)
    hit = _first_closed_pair(g, np.arange(g.n))
    return None if hit is None else Triangle(*hit)


# -- generators ---------------------------------------------------------


def _drawn_chunks(seed: int, tag: int, height: int, width: int, chunk) -> None:
    """Call chunk(r0, draw) for each _GEN_ROWS-row chunk of a uniform draw.

    The draw is default_rng([seed, tag]).random((height, width)); ``draw``
    holds its rows r0 to r0 + len(draw), in a buffer the next chunk reuses.
    A draw of at least _SPLIT_DRAW uniforms, in a process allowed more than
    one CPU, is split at a chunk boundary into two row ranges, each with
    its own PCG64 on the seed, advanced (in O(log n) steps) to the range's
    first row. The caller runs the first range and one helper thread the
    second; random(out=) releases the GIL, so both fill at once. The thread
    is joined before the call returns, and its exception is raised in the
    caller. The chunks of the two ranges must write disjoint words.
    """
    _check_seed(seed)

    def run(start: int, stop: int) -> None:
        bitgen = np.random.PCG64(np.random.SeedSequence([seed, tag]))
        bitgen.advance(int(start) * int(width))  # advance() rejects numpy integers
        rng = np.random.Generator(bitgen)
        draw = np.empty((min(_GEN_ROWS, stop - start), width))
        for r0 in range(start, stop, _GEN_ROWS):
            h = min(_GEN_ROWS, stop - r0)
            rng.random(out=draw[:h])
            chunk(r0, draw[:h])

    if height * width < _SPLIT_DRAW or height <= _GEN_ROWS or _usable_cpus() < 2:
        run(0, height)
        return
    mid = (height // 2 + _GEN_ROWS // 2) // _GEN_ROWS * _GEN_ROWS  # nearest chunk start
    failed = []

    def second() -> None:
        try:
            run(mid, height)
        except BaseException as exc:  # re-raised in the caller
            failed.append(exc)

    helper = threading.Thread(target=second, name="triwalk-draw")
    helper.start()
    try:
        run(0, mid)
    finally:
        helper.join()
    if failed:
        raise failed[0]


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity outside Linux
        return os.cpu_count() or 1


def erdos_renyi(n: int, p: float, seed: int) -> Graph:
    """G(n, p): each unordered pair is an edge independently with prob p.

    Pair {i < j} is an edge when entry (i, j) of an n x n uniform draw is
    below p. The draw is taken _GEN_ROWS rows at a time (see _drawn_chunks),
    which consumes the stream exactly as one (n, n) draw does; a chunk's
    rows compare only the columns from their first row on. Chunk r0 writes
    the row block rows[r0:r0+h, r0>>6:] and the column block
    rows[r0:, r0>>6:(r0+h+63)>>6]; chunks start at multiples of 128 and
    span at most 128 rows, so the blocks of two chunks share no word.
    """
    _check_real("p", p, "[0, 1]")
    rows = _zero_rows(n)

    def chunk(r0: int, draw: np.ndarray) -> None:
        h = draw.shape[0]
        bits = draw[:, r0:] < p
        bits[:, :h] &= _ABOVE[:h, :h]
        _or_block(rows, r0, r0, bits)

    _drawn_chunks(seed, _TAG_ER, n, n, chunk)
    return Graph._from_rows(n, rows)


def _bipartite_rows(n: int, seed: int) -> np.ndarray:
    """Packed rows of random_bipartite(n, seed): sides [0, left) and [left, n).

    Cross pair (i, left + j) is an edge when entry (i, j) of a left x right
    uniform draw is below 1/2, drawn _GEN_ROWS rows at a time (see
    _drawn_chunks). Chunk r0 writes rows[r0:r0+h, c0>>6:] and
    rows[c0:, r0>>6:(r0+h+63)>>6], where c0 = left & ~63. These blocks of
    two chunks share no word: rows [c0, left) lie in the last chunk, and
    every earlier chunk's columns end by word c0>>6.
    """
    left = (n + 1) // 2
    rows = _zero_rows(n)
    c0 = left & ~63  # the word holding column `left` starts here

    def chunk(r0: int, draw: np.ndarray) -> None:
        bits = np.zeros((draw.shape[0], n - c0), dtype=bool)
        np.less(draw, 0.5, out=bits[:, left - c0 :])
        _or_block(rows, r0, c0, bits)

    _drawn_chunks(seed, _TAG_BIPARTITE, left, n - left, chunk)
    return rows


def random_bipartite(n: int, seed: int) -> Graph:
    """Random balanced bipartite graph, cross edges with prob 1/2.

    Triangle-free by construction: any cycle alternates sides, so it has
    even length.
    """
    _check_int("n", n, 2)
    return Graph._from_rows(n, _bipartite_rows(n, seed))


def planted_triple(n: int, seed: int) -> Triangle:
    """The triangle that planted_instance(n, seed) inserts."""
    _check_int("n", n, 3)
    _check_seed(seed)
    rng = np.random.default_rng([seed, _TAG_PLANT])
    verts = np.sort(rng.choice(n, size=3, replace=False))
    return Triangle(int(verts[0]), int(verts[1]), int(verts[2]))


def planted_instance(n: int, seed: int) -> Graph:
    """Triangle-free bipartite base plus the three edges of planted_triple.

    The base equals random_bipartite(n, seed), so positives and negatives
    with the same seed differ only by the three planted edges. It is not a
    single-triangle family: at least two of the three planted vertices
    share a side, and a planted edge inside a side is also closed by every
    common neighbour of its endpoints on the other side, about n/8 of them
    (planted_instance(512, 0) holds 79 triangles).
    """
    a, b, c = planted_triple(n, seed)
    rows = _bipartite_rows(n, seed)
    for x, y in ((a, b), (a, c), (b, c), (b, a), (c, a), (c, b)):
        rows[x, y >> 6] |= np.uint64(1) << np.uint64(y & 63)
    return Graph._from_rows(n, rows)


# -- serialization ------------------------------------------------------


def write_edge_list(g: Graph, path) -> None:
    """Text form: header line "n <count>", then one "u v" line per edge."""
    _check_type("g", g, Graph)
    _check_type("path", path, _PATH)
    eu, ev = g.edges()
    with open(path, "w") as fh:
        fh.write(f"n {g.n}\n")
        for u, v in zip(eu.tolist(), ev.tolist()):
            fh.write(f"{u} {v}\n")


def read_edge_list(path) -> Graph:
    """Read write_edge_list's form; blank lines are skipped."""
    _check_type("path", path, _PATH)
    with open(path) as fh:
        header = fh.readline()
        try:
            tag, count = header.split()
            if tag != "n":
                raise ValueError
            n = int(count)
        except ValueError:
            got = header.rstrip()
            raise ValueError(f"line 1: expected header 'n <count>', got {got!r}") from None
        return Graph.from_edges(n, _edge_lines(fh))


def _edge_lines(lines):
    """Yield (u, v) from each nonblank line after the header, numbered from 2."""
    for lineno, line in enumerate(lines, 2):
        tokens = line.split()
        if tokens:
            try:
                u, v = tokens
                pair = int(u), int(v)
            except ValueError:
                got = line.rstrip()
                message = f"line {lineno}: expected 'u v', two integer ids, got {got!r}"
                raise ValueError(message) from None
            yield pair


def write_packed(g: Graph, path) -> None:
    """Compact binary form: magic, n, then row-major packed bit rows."""
    _check_type("g", g, Graph)
    _check_type("path", path, _PATH)
    payload = g._rows.view(np.uint8)[:, : (g.n + 7) // 8]
    with open(path, "wb") as fh:
        fh.write(_PACKED_MAGIC)
        fh.write(struct.pack("<Q", g.n))
        fh.write(payload.tobytes())


def read_packed(path) -> Graph:
    _check_type("path", path, _PATH)
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _PACKED_MAGIC:
            raise ValueError("not a packed graph file")
        header = fh.read(8)
        if len(header) != 8:
            raise ValueError("packed graph header is truncated")
        (n,) = struct.unpack("<Q", header)
        payload = fh.read()
    row_bytes = (n + 7) // 8
    if len(payload) != n * row_bytes:
        raise ValueError(f"packed payload does not match the header's n={n}")
    rows = _zero_rows(n)
    rows.view(np.uint8)[:, :row_bytes] = np.frombuffer(payload, np.uint8).reshape(n, row_bytes)
    del payload  # the check then holds the rows and one chunk's bits, not the file too
    _check_rows(n, rows)
    return Graph._from_rows(n, rows)
