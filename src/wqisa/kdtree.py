"""Exact k-d tree over a fixed point set, stored as flat node arrays.

The tree is a row permutation plus per-node arrays: the slice
[start, end) of the permutation the node owns, its tight bounding box, its
split axis and value, and the id of its left child (the right child is the
next id; leaves have -1). It is built level by level from one sort per
axis: each axis keeps every node's point ids in coordinate order, so a
node's box is read off its first and last ids, and all splitting nodes of
a level are median-partitioned along their axis of largest spread at once,
by one vectorised stable partition of each axis's ids. Nodes of at most
LEAF_SIZE points, or whose points all coincide, are leaves.

Queries take a whole block of points and walk (query, node) pairs one level
at a time, with no recursion and no heap. k-nearest runs in two phases: an
upper bound per query, the k-th smallest squared distance among the points
of the deepest node on its descent path that still holds k points; then a
traversal that keeps every node whose box lies within the bound (closed, so
ties survive), and one sort of the surviving points by (query, distance,
index). Radius queries run the same traversal with the bound r^2.

Squared distances are ((points - u) ** 2).sum(axis=1), and a box's squared
distance is summed the same way from per-axis gaps that can only be
smaller, so no node holding a qualifying point is ever pruned. Points
more than about 1.3e154 apart get d2 = inf without a warning; inf still
orders after every finite d2 and ties break by index. Results
equal a brute-force scan exactly: k-nearest rows are ordered by (distance,
index), with ties at the k-th distance broken by ascending index, and
radius queries use the closed ball.

A 1-D query is one point: ``knn`` returns (k,) indices and ``radius_query``
sorted indices. A 2-D (m, d) query is a batch: ``knn`` returns (m, k) and
``radius_query`` CSR arrays (indptr, indices).
"""

from __future__ import annotations

import numpy as np

LEAF_SIZE = 16


def _positions(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Every position of the ranges [starts[j], starts[j] + lens[j]), listed
    range by range."""
    pos = np.repeat(starts - (np.cumsum(lens, dtype=lens.dtype) - lens), lens)
    pos += np.arange(len(pos), dtype=pos.dtype)
    return pos


def _partition(orders, lower, start, mid, end):
    """Stable-partition every node [start, end) of each axis's id list: ids
    flagged in lower move to start + (flagged ids before them in the node),
    the others to mid + (unflagged ids before them); then clear the flags."""
    lens = end - start
    pos = _positions(start, lens)
    halves = mid - start
    before = np.cumsum(halves, dtype=halves.dtype) - halves  # flagged ids of earlier nodes
    to_lower = np.repeat(start - before, lens)
    to_upper = np.repeat(halves + before, lens)
    to_upper += pos
    for o in orders:
        ids = o[pos]
        low = lower[ids]
        seen = np.cumsum(low, dtype=pos.dtype)
        seen -= low
        dest = to_upper - seen
        np.add(to_lower, seen, out=seen)
        np.copyto(dest, seen, where=low)
        del seen  # the scatter and the next axis need the room
        o[dest] = ids
        del ids, low, dest
    lower[orders[0][pos]] = False


class KdTree:
    """Balanced k-d tree; build O(N log N), immutable afterwards."""

    def __init__(self, points):
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if pts.ndim != 2 or len(pts) == 0:
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
        # is a stable partition of every list
        orders = [np.argsort(pts[:, a], kind="stable").astype(index) for a in range(self.d)]
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
            _partition(orders, lower, s_start, mid, s_end)
            levels.append((start, end, lo, hi, axis, split, left))
            start = np.stack([s_start, mid], axis=1).reshape(-1)
            end = np.stack([mid, s_end], axis=1).reshape(-1)
        (start, end, self._lo, self._hi,
         self._axis, self._split, self._left) = (np.concatenate(c) for c in zip(*levels))
        # queries count positions over many nodes per query: no int32 there
        self._start, self._end = start.astype(np.intp), end.astype(np.intp)
        self._perm = orders[0]

    def _queries(self, u) -> tuple[np.ndarray, bool]:
        """(m, d) query block and whether u was a single point."""
        q = np.asarray(u, dtype=float)
        single = q.ndim <= 1
        if single:
            q = q.reshape(1, -1)
        if q.ndim != 2 or q.shape[1] != self.d:
            raise ValueError(f"query dimension {q.shape[-1]} != tree dimension {self.d}")
        if np.isnan(q).any():
            raise ValueError("query coordinates must not be NaN")
        return q, single

    def _points_of(self, q, qi, nodes):
        """(query, row, d2) for every point of each (query, node) pair."""
        lens = self._end[nodes] - self._start[nodes]
        qi, rows = np.repeat(qi, lens), self._perm[_positions(self._start[nodes], lens)]
        # ((points - u) ** 2).sum(axis=1), in place to keep block queries small
        sq = self.points.take(rows, axis=0)
        with np.errstate(over="ignore"):  # inf d2 still orders exactly
            sq -= q.take(qi, axis=0)
            sq **= 2
            return qi, rows, sq.sum(axis=1)

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
        qi, _, d2 = self._points_of(q, np.arange(len(q)), node)
        first = np.cumsum(size[node]) - size[node]
        return d2[np.lexsort((d2, qi))][first + k - 1]

    def _within(self, q, bound):
        """(query, row, d2) of every point with d2 <= bound[query]; rows of
        one query are not in any particular order."""
        qi = np.arange(len(q))
        node = np.zeros(len(q), dtype=np.intp)
        leaf_q, leaf_node = [qi[:0]], [node[:0]]
        while len(qi):
            at = q.take(qi, axis=0)
            gap = np.maximum(self._lo.take(node, axis=0) - at, at - self._hi.take(node, axis=0))
            np.maximum(gap, 0.0, out=gap)
            with np.errstate(over="ignore"):
                near = (gap**2).sum(axis=1) <= bound[qi]
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
        """Indices of the k nearest points to each query, ordered by
        (distance, index): (k,) for one point, (m, k) for a batch."""
        q, single = self._queries(u)
        if not 1 <= k <= self.n:
            raise ValueError(f"k={k} out of range [1, {self.n}]")
        qi, rows, d2 = self._within(q, self._knn_bound(q, k))
        order = np.lexsort((rows, d2, qi))
        first = np.searchsorted(qi[order], np.arange(len(q)))
        out = rows[order[(first[:, None] + np.arange(k)).reshape(-1)]].reshape(len(q), k)
        return out[0] if single else out

    def radius_query(self, u, r: float):
        """Points within the closed ball of radius r around each query:
        sorted indices for one point, CSR (indptr, indices) for a batch."""
        q, single = self._queries(u)
        if r < 0:
            raise ValueError(f"radius must be >= 0, got {r}")
        qi, rows, _ = self._within(q, np.full(len(q), r * r))
        order = np.lexsort((rows, qi))
        if single:
            return rows[order]
        indptr = np.zeros(len(q) + 1, dtype=np.intp)
        np.cumsum(np.bincount(qi, minlength=len(q)), out=indptr[1:])
        return indptr, rows[order]
