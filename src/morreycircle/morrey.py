"""Morrey ratio over arcs and its exact supremum for step functions.

The ratio under study is m(w)^(-lambda) * integral over the arc w of
|f|^p dm; the norm is the p-th root of its supremum over all arcs.  For
a step function and lambda < 1 the supremum is attained on an arc whose
endpoints are segment breakpoints: along any one-parameter family that
grows an arc into a constant-density segment, the ratio is first
decreasing then increasing (the derivative numerator A*(L0+s) -
lambda*(C+A*s) is increasing in s), so interior stationary points are
minima and every rectangle of partial-coverage lengths is maximized at
a corner.  The optimizer therefore takes arcs made of whole segments,
read off circular prefix sums, plus the full circle.  It and the grid
oracle share one scan over (start, end) pairs cut into square tiles,
grouped TILE x TILE into super-tiles.  Rectangles of pairs are bounded
from the corner values of the prefix sums, all super-tiles of a block of
rows, all tiles of a super-tile or every column of a batch of tiles in
one call, and visited best bound first, so only the few super-tiles and
tiles whose bound reaches the best ratio found are split or bounded
column by column, and of a tile only the columns from the first to the
last whose own bound reaches it are evaluated (see _best_first).
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from math import tau

import numpy as np

from .circle_step import Arc, gap_lengths, integral_p
from .errors import (LambdaOutOfRange, NonFiniteNumber, POutOfRange,
                     RefinementOutOfRange, ZeroMeasureArc)

MAX_REFINEMENT = 65536      # largest grid accepted by grid_search
TILE = 64                   # side of the square tiles of (start, end) pairs

# _ratio_bound widens a computed quotient q to q * _WIDEN + _TINY; the
# derivation is in its docstring
_WIDEN = 1.0 + 2.0 ** -50
_TINY = 2.0 ** -1070
_MIN_NORMAL = 2.0 ** -1022


@dataclass(frozen=True)
class MorreyParams:
    """Exponent pair (p, lam): 1 <= p < inf, 0 <= lam < 1."""

    p: float
    lam: float

    def __post_init__(self):
        if not (self.p >= 1 and math.isfinite(self.p)):
            raise POutOfRange(f"p must satisfy 1 <= p < inf, got {self.p}")
        if not (0.0 <= self.lam < 1.0):
            raise LambdaOutOfRange(f"lambda must satisfy 0 <= lambda < 1, got {self.lam}")


@dataclass(frozen=True)
class NormResult:
    value: float        # the norm, ratio_sup ** (1/p)
    ratio_sup: float    # supremum of the un-rooted ratio
    argmax: Arc
    # (start, end) pairs whose ratio the scan computed: in each evaluated
    # tile, its rows times its columns from the first to the last that may win
    pairs: int = field(default=0, compare=False)
    # rectangles of pairs the scan bounded: super-tiles, tiles and columns
    bounded: int = field(default=0, compare=False)


def morrey_ratio(f, arc, params):
    """m(arc)^(-lambda) * integral of |f|^p over the arc."""
    m = arc.measure
    if m <= 0.0:
        raise ZeroMeasureArc("arc has zero measure")
    return integral_p(f, arc, params.p) / m ** params.lam


def _ratio_bound(ihi, mlo, lam):
    """Upper bounds on fl(I / fl(M ** lam)) over floats I <= ihi, M >= mlo.

    Soundness, under round-to-nearest with unit roundoff u = 2^-53.  Let
    P(x) be numpy's array x ** lam, which lies within one ulp of x^lam
    (test_pow_within_one_ulp_for_numpy_arrays checks it), so P(x) = x^lam
    (1 + e) with |e| <= d = 2^-52 whenever x^lam is normal.  That holds for
    every M >= mlo >= 2^-1022, since then M^lam >= min(M, 1) >= 2^-1022; a
    smaller mlo gets the bound inf.  An ihi <= 0 gets the bound 0, as no ratio is then
    positive.  Otherwise P(M) >= M^lam (1 - d) >= mlo^lam (1 - d) >=
    P(mlo) (1 - d) / (1 + d), and rounding is monotone, so
        fl(I / P(M)) <= fl(ihi / P(M)) <= fl(y),
        y = ihi / P(mlo) * (1 + d) / (1 - d).
    The computed quotient q = fl(ihi / P(mlo)) satisfies ihi / P(mlo) <=
    (q + h) / (1 - u), with h <= 2^-1075 covering underflow, so y <= (q +
    h) c with c = (1 + d) / ((1 - d)(1 - u)) < 1 + 5.01 * 2^-53.  The bound
    is U = fl(fl(q W) + T) with W = 1 + 2^-50 and T = 2^-1070:
    - q W >= 2^-1022: U >= q W (1 - u), and W (1 - u) - c > 1.9 * 2^-53,
      so U - y >= q * 1.9 * 2^-53 - h c > 0.
    - q W < 2^-1022: fl(q W) >= q, and adding T to it errs by at most
      2^-1075, while y <= q + q (c - 1) + h c < q + 2^-1072, so U > y.
    U is a float at or above y, hence at or above fl(y).
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ub = ihi / mlo ** lam * _WIDEN + _TINY
    ub[mlo < _MIN_NORMAL] = np.inf
    ub[ihi <= 0.0] = 0.0
    return ub


def _tile_min(a):
    """Minimum of a over each TILE-row tile of its rows."""
    return np.minimum.reduceat(a, np.arange(0, len(a), TILE))


def _may_win(ub, best, low):
    """Mask of the bounds U under which a pair may still win: those with
    (-U, *low) below the best key."""
    return (ub > -best[0]) | ((ub == -best[0]) & (low < best[1:]))


def _best_first(n, extent, bounds, evaluate, best, low):
    """Smallest pair key of a tiled scan, visiting tiles best bound first.

    The kernel owns the tiling.  It cuts rows 0..n-1 into TILE-row tiles,
    and the columns [c_lo, c_hi) = ``extent(r0, r1)`` of row tile [r0, r1),
    which must not be empty, into TILE-column tiles; ``extent`` takes
    (R, 1) arrays of row tiles.  TILE row tiles make a block, and the tiles
    numbered TILE * J to TILE * J + TILE - 1 in each of a block's row tiles
    make its super-tile J.  ``evaluate(r0, r1, c0, c1, best)`` returns the
    smallest key of the pairs in rows [r0, r1) x columns [c0, c1), part of
    one tile, or ``best`` once it sees that none is below it.  A key is a
    tuple: minus the ratio, then a tail at or above ``low`` for every pair.

    ``bounds(r0, r1, c0, c1)`` bounds a grid of rectangles in one call: r0
    and r1 are (R, 1) arrays of row tiles, in any order and repeats
    allowed, c0 and c1 (R, C) arrays of column ranges, and entry [i, j] of
    the result is an upper bound on the ratios of the pairs in rows
    [r0[i], r1[i]) x columns [c0[i, j], c1[i, j]).

    The search is best-first branch and bound over three levels of
    rectangles: super-tiles, tiles and columns (Land & Doig 1960; Lawler &
    Wood 1966).  Each block bounds, in one call, every row tile's part of
    each of its super-tiles, and a super-tile's bound is the largest of its
    parts; a visited super-tile bounds all of its tiles in one call.  Of
    either call only the rectangles whose bound U may still win, with (-U,
    *low) below the best key, are kept, in decreasing order of U, as a
    cursor: one per block over its super-tiles, one per visited super-tile
    over its tiles.  One heap holds the cursors, keyed by their next bound.
    The scan pops the largest bound: a super-tile gets a cursor, and a tile
    joins a batch of up to TILE tiles popped in bound order, which ends
    early where the heap's top is a super-tile.  One call bounds every
    column of the batch's tiles as its own rectangle; each tile, in turn,
    is then evaluated from its first to its last column that may still win
    against the best key found so far, or skipped if it has none.  The scan
    stops at the first bound U with (-U, *low) not below the best key,
    since no pair under it can win.  So a column whose bound ties the best
    ratio is evaluated, as a tie may win on the tail, unless the best key's
    tail is below ``low``, as a seed's can be.

    A scan's ``bounds`` must be sound on any rectangle of rows x columns,
    not only on tiles, so that the kernel alone chooses the rectangles it
    bounds.  Both scans' bounds are: they read the corner values of
    cumulative sums of nonnegative terms, which are monotone in floating
    point, through subtractions, additions of a constant and divisions by
    tau, which are monotone under round-to-nearest, and clamp the measure
    by the shortest single-step arc of each row tile; the only
    non-monotone step, ** lam, is covered by _ratio_bound.  Bound work is
    O(n^2 / TILE^3) for the blocks plus TILE^2 per visited super-tile and
    TILE per popped tile.  A cursor keeps its rectangles' bounds and
    numbers, not the matrices they came from, so memory is O(n^2 / TILE^4)
    for the block cursors plus O(TILE^2) per visited super-tile, beyond
    O(n / TILE) for the row tiles and for one block's call and O(TILE^2)
    for one batch's.  Returns the best key, the ratios computed, and the
    rectangles bounded.
    """
    r0 = np.arange(0, n, TILE)[:, None]
    r1 = np.minimum(r0 + TILE, n)
    c_lo, c_hi = (np.broadcast_to(c, r0.shape) for c in extent(r0, r1))
    heap, tick = [], itertools.count()
    pairs = bounded = 0

    def bound(rows, cols, side):
        # bounds and cuts of the side-wide column tiles numbered cols of the
        # row tiles rows; a tile past its row's extent gets the bound -inf,
        # and cuts moved inside the extent so that bounds can read them
        nonlocal bounded
        c0 = c_lo[rows] + side * cols
        live = c0 < c_hi[rows]
        c0 = np.minimum(c0, c_hi[rows] - 1)
        c1 = np.minimum(c0 + side, c_hi[rows])
        ub = bounds(r0[rows], r1[rows], c0, c1)
        ub[~live] = -np.inf
        bounded += int(live.sum())
        return ub, c0, c1

    def push(level, ub, *item):
        # a cursor over the rectangles whose bound may still win
        shape, ub = ub.shape, ub.ravel()
        keep = np.flatnonzero(_may_win(ub, best, low))
        keep = keep[np.argsort(-ub[keep], kind="stable")]
        if keep.size:
            cur = (ub[keep], *(np.broadcast_to(x, shape).ravel()[keep] for x in item))
            heapq.heappush(heap, (-float(cur[0][0]), next(tick), 0, level, cur))

    def pop():
        # the item under the heap's largest bound, and its cursor moved on
        _, _, pos, level, cur = heapq.heappop(heap)
        if pos + 1 < len(cur[0]):
            heapq.heappush(heap, (-float(cur[0][pos + 1]), next(tick), pos + 1, level, cur))
        return [int(x[pos]) for x in cur[1:]]

    def more():
        # whether a pair under the heap's largest bound may still win
        return heap and (heap[0][0], *low) < best

    for b in range(0, len(r0), TILE):
        rows = slice(b, b + TILE)
        sup = np.arange(-(-int((c_hi[rows] - c_lo[rows]).max()) // (TILE * TILE)))
        push(1, bound(rows, sup, TILE * TILE)[0].max(axis=0), b, sup)

    while more():
        if heap[0][3]:
            b, sup = pop()
            rows, tiles = slice(b, b + TILE), TILE * sup + np.arange(TILE)
            ub = bound(rows, tiles, TILE)[0]
            push(0, ub, np.arange(b, b + len(ub))[:, None], tiles)
            continue
        batch = [pop()]
        while len(batch) < TILE and more() and not heap[0][3]:
            batch.append(pop())
        rows, tiles = np.array(batch).T
        ub, c0, c1 = bound(rows, TILE * tiles[:, None] + np.arange(TILE), 1)
        seen = None
        for k, i in enumerate(rows.tolist()):
            if seen != best:
                # each tile's first and last column that may win, found
                # again for the whole batch whenever the best key moves
                seen, live = best, _may_win(ub, best, low)
                has, first = live.any(axis=1).tolist(), live.argmax(axis=1).tolist()
                last = (TILE - 1 - live[:, ::-1].argmax(axis=1)).tolist()
            if has[k]:
                t0, t1 = int(r0[i, 0]), int(r1[i, 0])
                a, z = int(c0[k, first[k]]), int(c1[k, last[k]])
                best = min(best, evaluate(t0, t1, a, z, best))
                pairs += (t1 - t0) * (z - a)
    return best, pairs, bounded


def morrey_norm_exact(f, params):
    """Exact supremum of the Morrey ratio over all arcs, with a maximizer.

    Segments are measured by breakpoint gaps, as in integral_p and
    grid_search, so morrey_ratio at the maximizer matches ratio_sup to
    rounding.  The arcs are the circular runs of segments from a nonzero
    segment to a nonzero segment, and the full circle; ties are broken by
    smallest measure, then smallest start index, then smallest end index,
    and the full circle, the only whole-circle candidate, is seeded first.
    Raises NonFiniteNumber if the integral of |f|^p is not finite, or if
    the supremum is not: it rounds to inf when a segment's measure, a
    difference of cumulative sums, rounds to 0 while its integral does not.
    """
    p, lam = params.p, params.lam
    bps = f.breakpoints
    lens = gap_lengths(bps)
    with np.errstate(over="ignore"):    # overflow shows in the total below
        dens = np.abs(f.values) ** p
        # numpy's own sum: a BLAS dot's bits would follow its thread count
        total = _finite(float(np.sum(dens * lens) / tau))
    k = len(lens)

    if lam == 0.0:
        whole = Arc.from_endpoints(float(bps[0]), float(bps[0]))
        return NormResult(total ** (1.0 / p), total, whole)

    meas = lens / tau
    cm = np.concatenate(([0.0], np.cumsum(np.tile(meas, 2))))
    ci = np.concatenate(([0.0], np.cumsum(np.tile(dens * meas, 2))))

    nz = np.flatnonzero(dens > 0.0)
    n = len(nz)
    # start nz[pos] pairs with the prefix indices ends[pos:pos + span], just
    # past the nonzero segments in circular order from it; with no zero
    # segment the last of them closes the circle, which the seed stands for
    ends = np.concatenate((nz, nz + k)) + 1
    cm_end, ci_end = cm[ends], ci[ends]
    span = n - (n == k)
    step = cm_end[:n] - cm[nz]
    # a row whose one-segment ratio is 0 / 0 never wins, as in a per-start
    # scan whose argmax stops at the NaN
    with np.errstate(divide="ignore", invalid="ignore"):
        dead = np.isnan((ci_end[:n] - ci[nz]) / step ** lam)

    smin = _tile_min(step)

    def bounds(p0, p1, q0, q1):
        # a pair (pos, q) has q >= pos, so its measure is at least step[pos],
        # hence at least the smallest step of its row tile
        mlo = np.maximum(cm_end[q0] - cm[nz[p1 - 1]], smin[p0 // TILE])
        return _ratio_bound(ci_end[q1 - 1] - ci[nz[p0]], mlo, lam)

    def evaluate(p0, p1, q0, q1, best):
        s = nz[p0:p1, None]
        m = cm_end[q0:q1] - cm[s]
        r = (ci_end[q0:q1] - ci[s]) / m ** lam
        # an end q pairs with a start pos when 0 <= q - pos < span; each mask
        # is skipped where the corner indices show that every pair passes
        # its test, or that no row is dead
        if q0 < p1 - 1:
            r[np.tri(p1 - p0, q1 - q0, p0 - q0 - 1, dtype=bool)] = -np.inf
        if q1 - p0 > span:
            r[~np.tri(p1 - p0, q1 - q0, p0 - q0 + span - 1, dtype=bool)] = -np.inf
        if dead[p0:p1].any():
            r[dead[p0:p1]] = -np.inf
        top = r.max()
        if top < -best[0]:
            return best
        # row-major order within the tile is (start, end) order
        a, b = divmod(int(np.argmin(np.where(r == top, m, np.inf))), q1 - q0)
        return -float(top), float(m[a, b]), int(s[a, 0]), int(ends[q0 + b])

    # with span 0 the one start has no end but the seed's whole circle
    with np.errstate(divide="ignore", invalid="ignore"):
        (neg_r, _, i, j), pairs, bounded = _best_first(
            n if span else 0, lambda p0, p1: (p0, p1 - 1 + span), bounds, evaluate,
            (-total, 1.0, 0, k), (0.0, 0, 0))
    _finite(-neg_r, "supremum of the Morrey ratio")
    arc = Arc.from_endpoints(float(bps[i]), float(bps[j % k]))
    return NormResult((-neg_r) ** (1.0 / p), -neg_r, arc, pairs, bounded)


def _finite(x, what="integral of |f|^p over the circle"):
    if not math.isfinite(x):
        raise NonFiniteNumber(f"{what} is {x}")
    return x


def grid_search(f, params, refinement):
    """Best arc whose endpoints lie on breakpoints plus a uniform grid.

    The points are f's breakpoints, -pi entered as pi, and the grid points
    -pi + tau * k / refinement, k = 1..refinement, at or below pi.  No
    breakpoint lies inside a cell, so a cell takes its left end's segment.
    Every (start, end) pair is a candidate; the first maximum in (start,
    end) order wins, and the full circle, reported from the first
    breakpoint, wins a tie with it.  Raises NonFiniteNumber if the
    integral of |f|^p is not finite.
    """
    if not (2 <= refinement <= MAX_REFINEMENT):
        raise RefinementOutOfRange(
            f"refinement must lie in [2, {MAX_REFINEMENT}], got {refinement}"
        )
    p, lam = params.p, params.lam
    n = int(refinement)
    bps = f.breakpoints
    pts = np.union1d(np.where(bps == -math.pi, math.pi, bps),
                     -math.pi + tau * np.arange(1, n + 1) / n)
    pts = pts[pts <= math.pi]
    idx = np.searchsorted(bps, np.where(pts == math.pi, -math.pi, pts), side="right") - 1
    with np.errstate(over="ignore"):    # overflow shows in the total below
        dens = np.abs(f.values) ** p
    contrib = dens[idx] * gap_lengths(pts) / tau
    total = _finite(float(np.sum(contrib)))
    npts = len(pts)
    pre = np.concatenate(([0.0], np.cumsum(contrib)))[:npts]
    # the forward arc from a to a + 1 is the shortest one starting at a;
    # smin holds the shortest of each row tile
    smin = _tile_min((np.append(pts[1:], np.inf) - pts) / tau)

    def bounds(a0, a1, b0, b1):
        ihi = pre[b1 - 1] - pre[a0]
        lo = (pts[b0] - pts[a1 - 1]) / tau
        # pairs with b > a do not wrap (a measure that rounds to 0 becomes
        # 1.0, above any bound used here); pairs with b < a wrap and add
        # total and 1.0; the pair b == a scores 0.0 and never wins
        fwd = _ratio_bound(ihi, np.maximum(lo, smin[a0 // TILE]), lam)
        wrap = _ratio_bound(ihi + total, lo + 1.0, lam)
        fwd[pts[b1 - 1] <= pts[a0]] = -np.inf
        wrap[pts[b0] >= pts[a1 - 1]] = -np.inf
        return np.where(fwd > wrap, fwd, wrap)

    def evaluate(a0, a1, b0, b1, best):
        integ = pre[b0:b1] - pre[a0:a1, None]
        meas = (pts[b0:b1] - pts[a0:a1, None]) / tau
        # each mask is skipped where the tile's corner values prove it a
        # no-op: no pair wraps, or the smallest measure is positive (a
        # subnormal gap can still round to 0, hence the second test)
        if pts[b0] <= pts[a1 - 1]:
            integ[pts[b0:b1] < pts[a0:a1, None]] += total
        if not (pts[b0] - pts[a1 - 1]) / tau > 0:
            meas[meas <= 0] += 1.0
        ratio = integ / meas ** lam
        a, b = divmod(int(np.argmax(ratio)), b1 - b0)
        return -float(ratio[a, b]), a0 + a, b0 + b

    (neg_r, a, b), pairs, bounded = _best_first(npts, lambda a0, a1: (0, npts), bounds,
                                                evaluate, (-total, -1, -1), (0, 0))
    # the seed's index -1 reads bps[0]: the whole circle, as in the exact scan
    arc = Arc.from_endpoints(*np.append(pts, bps[0])[[a, b]].tolist())
    return NormResult((-neg_r) ** (1.0 / p), -neg_r, arc, pairs, bounded)


def morrey_norm_grid(f, params, refinement):
    """Grid-search lower bound on the Morrey norm, nondecreasing under
    grid refinement (for nested grids)."""
    return grid_search(f, params, refinement).value
