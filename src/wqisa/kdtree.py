"""Exact k-d tree over a fixed point set, stored as flat node arrays.

The tree is a row permutation plus per-node arrays: the slice
[start, end) of the permutation the node owns, its tight bounding box, its
split axis and value, and the id of its left child (the right child is the
next id; leaves have -1). It is built level by level from one sort per
axis: each axis keeps every node's point ids in coordinate order, so a
node's box is read off its first and last ids, and all splitting nodes of
a level are median-split along their axis of largest spread at once. Tied
coordinates may lie in any order, so the sorts need not be stable. On its
split axis a node's ids already are its lower then its upper half; only
the other axes' lists move, by one vectorised stable partition each (in
1-D none moves). Nodes of at most LEAF_SIZE points, or whose points all
coincide, are leaves.

Queries take a whole block of points and walk (query, node) pairs one level
at a time, with no recursion and no heap. k-nearest runs in two phases: an
upper bound per query, the k-th smallest squared distance among the points
of the deepest node on its descent path that still holds k points; then a
traversal that keeps every node whose box lies within the bound (closed, so
ties survive). The bound is one partition of the block's descent-node d2,
one inf-padded row per query. The surviving points are ordered by one
default (unstable) sort of a packed integer key, unique by construction, so
it is exactly the (query, distance, index) order: (query * L + rank) * n +
row, where rank is the dense rank of d2 (>= 0, never NaN) among the block's
L distinct values. Radius queries run the same traversal with the bound r^2
and sort query * n + row. A block whose keys could reach KEY_LIMIT (2^63) is
answered in halves; one query's keys stay below n^2.

Every squared distance in the package comes from squared_distances. It
sums (a_k - b_k)^2 over the axes k in order, one array pass per axis, and
that order is the contract for every d; below 8 axes it is also the order
of ((a - b) ** 2).sum(axis=-1), so the bits are the same there, at a
fraction of the cost of numpy's reduction over a short axis. A box's
squared distance is the same sum between the query and its clamp into the
box, from per-axis gaps that can only be smaller, so no node holding a
qualifying point is ever pruned. Points more than about 1.3e154 apart get
d2 = inf without a warning; inf still orders after every finite d2 and
ties break by index. Results equal a brute-force scan exactly: k-nearest
rows are ordered by (distance, index), with ties at the k-th distance
broken by ascending index, and radius queries use the closed ball.

The tree's points and its queries are blocks that pass query_block, the
package's one check of a block of points: (m, d) finite coordinates, one
point per row, or (m,) where d is 1. ``knn`` returns (m, k) indices and
``radius_query`` CSR arrays (indptr, indices).
"""

from __future__ import annotations

import numpy as np

LEAF_SIZE = 16
# packed sort keys stay below this; a query block whose key would reach it
# is answered in halves
KEY_LIMIT = 2**63


def squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances between a and b along their last axis, broadcast
    over the others, summed over the axes in order (see the module doc)."""
    with np.errstate(over="ignore"):
        d2 = np.square(a[..., 0] - b[..., 0])
        for k in range(1, a.shape[-1]):
            gap = a[..., k] - b[..., k]
            gap *= gap
            d2 += gap
    return d2


def query_block(u, d: int | None = None) -> np.ndarray:
    """u as a float (m, d) block of finite points, or a ValueError naming
    what is wrong with it: the package's one rule for a block of points.
    A 1-D u is m points of one coordinate each, taken where d is 1 or None;
    d None takes any width. An empty block passes."""
    q = np.asarray(u, dtype=float)
    if q.ndim == 1 and d in (1, None):
        q = q.reshape(-1, 1)
    if q.ndim != 2:
        raise ValueError(f"points must be an (m, d) block, got shape {q.shape}")
    if d is not None and q.shape[1] != d:
        raise ValueError(f"point dimension {q.shape[1]} != expected dimension {d}")
    if not np.isfinite(q).all():  # the row only on failure
        row = np.flatnonzero(~np.isfinite(q).all(axis=1))[0]
        raise ValueError(f"point coordinates must be finite, not NaN or inf, "
                         f"got {q[row].tolist()} at row {row}")
    return q


def _positions(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Every position of the ranges [starts[j], starts[j] + lens[j]), listed
    range by range."""
    pos = np.repeat(starts - (np.cumsum(lens, dtype=lens.dtype) - lens), lens)
    pos += np.arange(len(pos), dtype=pos.dtype)
    return pos


def _partition(o, lower, start, mid, end):
    """Stable-partition every node [start, end) of the id list o: ids
    flagged in lower move to start + (flagged ids before them in the node),
    the others to mid + (unflagged ids before them)."""
    lens = end - start
    pos = _positions(start, lens)
    halves = mid - start
    before = np.cumsum(halves, dtype=halves.dtype) - halves  # flagged ids of earlier nodes
    ids = o[pos]
    low = lower[ids]
    seen = np.cumsum(low, dtype=pos.dtype)
    seen -= low
    dest = np.repeat(halves + before, lens)
    dest += pos
    dest -= seen
    seen += np.repeat(start - before, lens)
    np.copyto(dest, seen, where=low)
    del seen, low  # the scatter needs the room
    o[dest] = ids


class KdTree:
    """Balanced k-d tree; build O(N log N), immutable afterwards."""

    def __init__(self, points):
        pts = query_block(points)
        if len(pts) == 0:
            raise ValueError("need a nonempty (N, d) point array")
        if pts.flags.writeable:  # a read-only array is shared, anything else copied
            pts = pts.copy()
            pts.setflags(write=False)
        self.points = pts
        self.n, self.d = pts.shape
        self._build()

    def _build(self):
        pts, n = self.points, self.n
        index = np.int32 if n < 2**31 else np.intp  # halves the build's memory
        # per axis, the point ids of every node of the current level, each
        # node's ids contiguous and in coordinate order along that axis, so
        # box faces are a node's first and last entries and a median split
        # leaves the split axis's list as it is
        orders = [np.argsort(pts[:, a]).astype(index) for a in range(self.d)]
        lower = np.zeros(n, dtype=bool)  # ids in the lower half of their node
        start, end = np.array([0], dtype=index), np.array([n], dtype=index)
        levels = []
        count = 1  # nodes numbered so far
        while len(start):
            lo = np.stack([pts[o[start], a] for a, o in enumerate(orders)], axis=1)
            hi = np.stack([pts[o[end - 1], a] for a, o in enumerate(orders)], axis=1)
            spread = hi - lo
            axis = spread.argmax(axis=1)
            splits = np.flatnonzero((end - start > LEAF_SIZE)
                                    & (spread[np.arange(len(start)), axis] > 0.0))
            left = np.full(len(start), -1)
            left[splits] = count + 2 * np.arange(len(splits))
            count += 2 * len(splits)
            s_start, s_end, s_axis = start[splits], end[splits], axis[splits]
            mid = s_start + (s_end - s_start) // 2
            split = np.zeros(len(start))
            for a, o in enumerate(orders):
                on = s_axis == a
                lower[o[_positions(s_start[on], mid[on] - s_start[on])]] = True
                split[splits[on]] = pts[o[mid[on]], a]
            for a, o in enumerate(orders):
                off = s_axis != a
                _partition(o, lower, s_start[off], mid[off], s_end[off])
            lower[:] = False
            levels.append((start, end, lo, hi, axis, split, left))
            start = np.stack([s_start, mid], axis=1).reshape(-1)
            end = np.stack([mid, s_end], axis=1).reshape(-1)
        (start, end, self._lo, self._hi,
         self._axis, self._split, self._left) = (np.concatenate(c) for c in zip(*levels))
        # queries count positions over many nodes per query: no int32 there
        self._start, self._end = start.astype(np.intp), end.astype(np.intp)
        self._perm = orders[0]

    def _points_of(self, q, qi, nodes):
        """(query, row, d2) for every point of each (query, node) pair."""
        lens = self._end[nodes] - self._start[nodes]
        qi, rows = np.repeat(qi, lens), self._perm[_positions(self._start[nodes], lens)]
        return qi, rows, squared_distances(self.points.take(rows, axis=0), q.take(qi, axis=0))

    def _knn_bound(self, q, k: int) -> np.ndarray:
        """Per query, the k-th smallest d2 within the deepest node on its
        descent path that holds at least k points: an upper bound on the
        k-th nearest distance."""
        size = self._end - self._start
        node = np.zeros(len(q), dtype=np.intp)
        live = np.flatnonzero(self._left[node] >= 0)
        while len(live):
            cur = node[live]
            child = self._left[cur] + (q[live, self._axis[cur]] >= self._split[cur])
            deep = size[child] >= k
            live, child = live[deep], child[deep]
            node[live] = child
            live = live[self._left[child] >= 0]
        _, _, d2 = self._points_of(q, np.arange(len(q)), node)
        lens = size[node]
        table = np.full((len(q), lens.max(initial=k)), np.inf)
        table[np.arange(table.shape[1]) < lens[:, None]] = d2  # query by query, row by row
        return np.partition(table, k - 1, axis=1)[:, k - 1]

    def _within(self, q, bound):
        """(query, row, d2) of every point with d2 <= bound[query]; rows of
        one query are not in any particular order."""
        qi = np.arange(len(q))
        node = np.zeros(len(q), dtype=np.intp)
        leaf_q, leaf_node = [qi[:0]], [node[:0]]
        while len(qi):
            at = q.take(qi, axis=0)
            lo, hi = self._lo.take(node, axis=0), self._hi.take(node, axis=0)
            near = squared_distances(at, np.minimum(np.maximum(at, lo), hi)) <= bound[qi]
            qi, node = qi[near], node[near]
            leaf = self._left[node] < 0
            leaf_q.append(qi[leaf])
            leaf_node.append(node[leaf])
            inner = ~leaf
            qi = np.repeat(qi[inner], 2)
            node = (self._left[node[inner], None] + np.array([0, 1])).reshape(-1)
        qi, rows, d2 = self._points_of(q, np.concatenate(leaf_q), np.concatenate(leaf_node))
        hit = d2 <= bound[qi]
        return qi[hit], rows[hit].astype(np.intp), d2[hit]

    def knn(self, u, k: int) -> np.ndarray:
        """(m, k) indices of the k nearest points to each of the (m, d)
        queries, ordered by (distance, index)."""
        q = query_block(u, self.d)
        if not isinstance(k, (int, np.integer)) or not 1 <= k <= self.n:
            raise ValueError(f"k must be an integer in [1, {self.n}], got {k!r}")
        return self._knn(q, k)

    def _knn(self, q, k: int) -> np.ndarray:
        """(m, k) rows for a query block: the points within _knn_bound's
        bound, in one sort of the unique packed keys (query, rank of d2, row),
        which is the (query, distance, index) order; a block whose keys could
        reach KEY_LIMIT is answered in halves (one query's stay below n**2)."""
        m, n = len(q), self.n
        qi, rows, d2 = self._within(q, self._knn_bound(q, k))
        values, rank = np.unique(d2, return_inverse=True)
        if m < 2 or m * len(values) * n < KEY_LIMIT:
            key = qi * len(values)
            key += rank
            key *= n
            key += rows
            key.sort()
            count = np.bincount(qi, minlength=m)
            first = np.cumsum(count) - count  # every query keeps at least k points
            return key[first[:, None] + np.arange(k)] % n
        half = m // 2
        return np.concatenate([self._knn(q[:half], k), self._knn(q[half:], k)])

    def radius_query(self, u, r: float):
        """Points within the closed ball of radius r around each of the
        (m, d) queries, as CSR (indptr, indices) with sorted rows."""
        q = query_block(u, self.d)
        if not r >= 0:  # NaN too
            raise ValueError(f"radius r must be >= 0, got {r}")
        count, rows = self._radius(q, r * r)
        indptr = np.zeros(len(q) + 1, dtype=np.intp)
        np.cumsum(count, out=indptr[1:])
        return indptr, rows

    def _radius(self, q, r2: float):
        """Per query, the number of points with d2 <= r2, and those rows,
        query by query in ascending order, from one sort of the packed keys
        (query, row); answered in halves as in _knn."""
        m, n = len(q), self.n
        if m > 1 and m * n >= KEY_LIMIT:
            halves = self._radius(q[:m // 2], r2), self._radius(q[m // 2:], r2)
            return tuple(np.concatenate(part) for part in zip(*halves))
        qi, rows, _ = self._within(q, np.full(m, r2))
        key = qi * n
        key += rows
        key.sort()
        return np.bincount(qi, minlength=m), key % n
