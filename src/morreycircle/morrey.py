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
oracle share one branch and bound over (start, end) index pairs
(_best_first): squares of pairs, from one over all of them down to
LEAF x LEAF leaves, are bounded from the corner values of the prefix
sums a chunk at a time and split best bound first, and of a chunk of
leaves only the columns whose own bound reaches the best ratio found
are evaluated, in one call.  When every density of |f|^p exceeds lambda
times its mean, the whole circle can win, and the corner bounds cannot
prune the arcs near it; both scans then also bound an arc by its
complement's least density (_complement_bound).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from math import tau

import numpy as np

from .circle_step import Arc, gap_lengths, integral_p
from .errors import (LambdaOutOfRange, NonFiniteNumber, POutOfRange,
                     RefinementOutOfRange, ZeroMeasureArc)

MAX_REFINEMENT = 65536      # largest grid accepted by grid_search
LEAF = 16                   # side of the square leaves of (start, end) pairs
CHUNK = 512                 # most rectangles bounded in one call
_LEAF_LEV = LEAF.bit_length() - 1

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
    # (start, end) pairs whose ratio the scan computed: the rows of each
    # column of a leaf whose bound may win
    pairs: int = field(default=0, compare=False)
    # rectangles of pairs the scan bounded: squares and columns of leaves
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
    U is a float at or above y, hence at or above fl(y).  As P(mlo) <= mlo^lam
    (1 + d), also U >= y >= ihi / ((1 - d) mlo^lam), which _complement_bound
    relies on.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ub = ihi / mlo ** lam * _WIDEN + _TINY
    ub[mlo < _MIN_NORMAL] = np.inf
    ub[ihi <= 0.0] = 0.0
    return ub


def _complement_bound(total, dmin, measure, terms, lam):
    """Bound on the ratios of arcs that leave part of the circle out, from
    the least density dmin of |f|^p on that part.

    ``total`` and ``measure`` are a scan's computed integral and measure of
    the whole circle (its S and M below), and ``terms`` is n, the length of
    its longest prefix-sum table.  Returns ``near(mlo, mhi)``, which bounds,
    for arrays of rectangles, the computed ratio fl(I / fl(m ** lam)) of
    every pair whose computed measure m lies in [mlo, mhi] and whose
    computed integral I satisfies
        (*)  I <= S - D + dmin m + 6 gamma (S + D) + 2 n eta,
    with D = fl(dmin M), u = 2^-53, eta = 2^-1075 and gamma = gamma_n = n u
    / (1 - n u) (Higham, Accuracy and Stability, 2nd ed., section 3.1); so
    1.1 n u >= gamma >= 2 u.  mhi must be at most 1.01 M.  The near-full
    arcs it is built for have a measure close to M and an integral close to
    S - dmin (M - m), so it prunes them where the corner bounds, which pair
    the integral of the longest arc with the measure of the shortest,
    cannot.

    Why (*) holds.  An arc's complement carries at least dmin times its
    measure; a product or quotient rounds to fl(z) >= z (1 - u) - eta, and
    each entry of a cumulative sum of k terms >= 0, and any sum of them,
    is within gamma_(k-1) times the sum of its terms of the exact sum
    (Higham section 4.2).
    - Exact scan, n = 2k for k segments, all of density >= dmin > 0: cm and
      ci sum mu_j = meas_j and c_j = fl(dens_j mu_j) over two laps, with one
      lap's exact sums Tm and Tc.  A pair covers segments J, one lap less a
      non-empty J'.  Its end entry lies within two laps and its start entry
      within one, so a difference errs by at most 3 gamma times one lap's
      sum: sum_J mu <= m (1 + 1.01 u) + 3 gamma Tm, I <= (1 + u) (sum_J c +
      3 gamma Tc), and sum_J' c >= (1 - u) dmin sum_J' mu - k eta with
      sum_J' mu = Tm - sum_J mu.  With Tm >= M (1 - gamma / 2), Tc <= S (1 +
      0.51 gamma), m <= 1.01 M and dmin M <= D (1 + u) + eta this gives I <=
      S - D + dmin m + 4.03 gamma S + 5.03 gamma D + (k + 2) eta.
    - Grid, n = npts points: cell i contributes c_i = fl(fl(d_i g_i) / tau)
      >= dmin g_i (1 - u)^2 / tau - 2 eta, with gap g_i >= (1 - u) times the
      cell's length (less 1.5 u tau for the last cell, whose end pts[0] + tau
      is rounded).  A pair's cells J leave out the non-empty J', of length L
      with L / tau >= 1 - m - 4 u, for a forward pair with m normal and for
      any wrapping one (L = pts[a] - pts[b], m <= 1); so sum_J' c >= dmin (1
      - m - 8.5 u) - 2 n eta.  Forward pairs have I <= (1 + u) (sum_J c + 2
      gamma Tc), wrapping ones I <= (pre[b] - pre[a] + total) + 3.04 u Tc,
      both at most Tc (1 + 3 gamma + 3.04 u) - sum_J' c; with Tc <= S (1 +
      1.01 gamma), (*) follows, D = dmin.

    Soundness of near.  Let A = S - D + 6 gamma (S + D) + 2 n eta and
    phi(m) = (A + dmin m) / m^lam for m > 0.  Its derivative is m^(-lam-1)
    (dmin (1 - lam) m - lam A), whose sign does not decrease with m: phi
    falls and then rises, so on [mlo, mhi] it is largest at an end, and by
    (*) every pair there has I / m^lam <= max(phi(mlo), phi(mhi)).  The
    ends are bounded through ihi = fl(a + fl(dmin m_end)), with a = fl(fl(
    fl(S - D) + fl(11 n u fl(S + D))) + n 2^-1070), 11 n u exact and n u <=
    0.01.  As far as they reach ihi, its seven roundings err by at most u
    times S + D, 0.11 (S + D) twice, 1.21 (S + D) twice, 1.02 D and 2.3 (S +
    D), plus eta for each product: less than 7 u (S + D) + 3 eta in all.
    11 n u (S + D) exceeds 6 gamma (S + D) by 4.4 n u (S + D) >= 8.8 u (S +
    D), and n 2^-1070 = 32 n eta exceeds 2 n eta by 30 n eta >= 60 eta, so
    ihi >= A + dmin m_end.  _ratio_bound returns U >= ihi / ((1 - d)
    m_end^lam) >= phi(m_end) / (1 - d), or inf for an mlo below 2^-1022,
    and fl(m ** lam) >= m^lam (1 - d); so I / fl(m ** lam) <= max(U_lo,
    U_hi), a float, and so is the quotient's rounding.
    """
    mass = dmin * measure
    a = (total - mass) + 11 * terms * 2.0 ** -53 * (total + mass) + terms * 2.0 ** -1070

    def near(mlo, mhi):
        return np.maximum(_ratio_bound(a + dmin * mlo, mlo, lam),
                          _ratio_bound(a + dmin * mhi, mhi, lam))

    return near


def _block_min(a):
    """Lookup (lev, i) -> the minimum of a[i:i + 2**lev], for i a multiple
    of 2**lev and lev >= log2(LEAF).

    The minima of a's aligned blocks of LEAF entries are taken once, padded
    with inf to a power of two, and halved by np.minimum of pairs into one
    table per level; the top table, one block over all of a, stands for
    every higher level.  The tables hold at most 4 len(a) / LEAF + 1 entries.
    """
    t = np.minimum.reduceat(a, np.arange(0, len(a), LEAF)) if len(a) else a
    size = 1 << max(len(t) - 1, 0).bit_length()
    table = [np.concatenate((t, np.full(size - len(t), np.inf)))]
    while len(table[-1]) > 1:
        table.append(np.minimum(table[-1][0::2], table[-1][1::2]))
    return lambda lev, i: table[min(lev - _LEAF_LEV, len(table) - 1)][i >> lev]


def _may_win(ub, best, low):
    """Mask of the bounds U under which a pair may still win: those with
    (-U, *low) below the best key."""
    return (ub > -best[0]) | ((ub == -best[0]) & (low < best[1:]))


def _best_first(rows, cols, bounds, evaluate, best, low):
    """Smallest key of the (row, column) index pairs in rows x cols, by
    best-first dyadic branch and bound (Land & Doig 1960; Lawler & Wood
    1966).

    A key is a tuple: minus the ratio of a pair, then a tail at or above
    ``low`` for every pair; ``best`` is the key of a seed that a pair must
    beat.  The search starts from one square over all pairs, whose side is
    the smallest power of two at or above LEAF, rows and cols, and splits
    squares into their four aligned quarters down to LEAF x LEAF leaves;
    each rectangle is cut at the last row and column.  A rectangle whose
    bound U puts (-U, *low) below the best key may still win; so one whose
    bound ties the best ratio is kept, as a tie may win on the tail, unless
    the best key's tail is below ``low``, as a seed's can be.  One call
    bounds all the quarters of up to CHUNK // 4 squares, and those that may
    win become a run: arrays of bounds, first rows and first columns, in
    decreasing order of bound.  One heap holds the runs, keyed by their
    first bound, then by their level, smallest squares first.  The scan pops
    the top run and takes from its front the squares that may win, up to
    CHUNK // 4, or up to CHUNK // LEAF leaves; the rest goes back on the
    heap unless one of those could not win.  A chunk of leaves is split into
    columns instead: one call bounds each leaf's LEAF columns of LEAF rows,
    and one call evaluates the columns that may win.  The scan stops once
    the top run's first bound cannot win.  The best key
    only falls, so a rectangle dropped at any time holds no pair below the
    final best key, which is thus the smallest key over all pairs.

    ``bounds(lev, r0, r1, c0, c1)`` takes arrays of rectangles, rows [r0,
    r1) x columns [c0, c1) with r0 a multiple of 2**lev, r1 - r0 <= 2**lev,
    [c0, c1) inside one aligned block of 2**lev columns and 2**lev >= LEAF,
    and returns an upper bound on the ratios of each one's pairs, -inf for
    one that holds none.  ``evaluate(p, q, best)`` takes an (M, LEAF) array
    of rows, which repeats the last row past the end, and an (M, 1) array
    of columns; it returns the smallest key of those pairs, or ``best``
    once it sees that none is below it.

    Both scans' bounds are sound on any such rectangle.  They read the
    corner values of cumulative sums of nonnegative terms, which are
    monotone in floating point, through subtractions, additions of a
    constant and divisions by tau, which are monotone under round-to-nearest.
    They clamp the measure from below by the shortest one-step arc of the
    aligned block of 2**lev rows that holds the rectangle's rows, read from
    a table of block minima (_block_min): a minimum over more rows is no
    larger.  The only non-monotone step, ** lam, is covered by _ratio_bound.
    Where every density exceeds lam times the mean, they take the smaller
    of that bound and _complement_bound's, which needs the rectangle's
    longest measure too: the corner one, or, where the band or the wrap
    cuts the rectangle, the largest longest arc of a row of its aligned row
    block (exact scan), or 1.0 less the shortest step of its aligned column
    block (grid), again from block tables.

    One call holds at most CHUNK rectangles, or CHUNK // LEAF * LEAF**2
    pairs.  Runs keep only the rectangles that could win when they were
    bounded; those that a later best key rules out stay on the heap until
    their run is popped.  Returns the best key, the pairs computed (the
    rows of each column evaluated), and the rectangles bounded.
    """
    if not rows:
        return best, 0, 0
    top = (max(rows, cols, LEAF) - 1).bit_length()
    # the square over all pairs needs no bound; the third field of a heap
    # entry numbers the runs, so that ties never compare arrays
    heap = [(-np.inf, top, 0, np.array([np.inf]), np.zeros(1, np.intp), np.zeros(1, np.intp))]
    pairs = bounded = runs = 0
    while heap and (heap[0][0], *low) < best:
        _, lev, _, ub, r0, c0 = heapq.heappop(heap)
        take = CHUNK // (LEAF if lev == _LEAF_LEV else 4)
        k = int(_may_win(ub[:take], best, low).sum())
        if k == take < len(ub):
            runs += 1
            heapq.heappush(heap, (-ub[k], lev, runs, ub[k:], r0[k:], c0[k:]))
        r0, c0 = r0[:k], c0[:k]
        if lev == _LEAF_LEV:
            c = c0[:, None] + np.arange(LEAF)
            r1 = np.minimum(r0 + LEAF, rows)[:, None]
            ub = bounds(lev, r0[:, None], r1, np.minimum(c, cols - 1), np.minimum(c + 1, cols))
            inside = c < cols
            i, j = np.nonzero(inside & _may_win(ub, best, low))
            bounded += int(inside.sum())
            if len(i):
                pairs += int((r1[i, 0] - r0[i]).sum())
                p = np.minimum(r0[i, None] + np.arange(LEAF), rows - 1)
                best = min(best, evaluate(p, c[i, j, None], best))
            continue
        lev -= 1
        h = 1 << lev
        r0 = (r0[:, None] + [0, 0, h, h]).ravel()
        c0 = (c0[:, None] + [0, h, 0, h]).ravel()
        inside = (r0 < rows) & (c0 < cols)
        r0, c0 = r0[inside], c0[inside]
        ub = bounds(lev, r0, np.minimum(r0 + h, rows), c0, np.minimum(c0 + h, cols))
        bounded += len(ub)
        keep = np.flatnonzero(_may_win(ub, best, low))
        if len(keep):
            keep = keep[np.argsort(-ub[keep], kind="stable")]
            runs += 1
            heapq.heappush(heap, (-ub[keep[0]], lev, runs, ub[keep], r0[keep], c0[keep]))
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

    # dead rows never win, so their steps do not clamp the others' measures
    smin = _block_min(np.where(dead, np.inf, step))
    # when every density exceeds lam times the mean, arcs near the whole
    # circle are bounded from their complements too; then n == k, and a
    # start's longest arc, to q = pos + span - 1, leaves out one segment
    dmin = dens.min()
    near = None
    if span and dmin > lam * total:
        near = _complement_bound(ci[k], dmin, cm[k], 2 * k, lam)
        # minus the longest arcs' measures, so that block minima are maxima
        longest = _block_min(cm[nz] - cm_end[span - 1:span - 1 + n])

    def bounds(lev, p0, p1, q0, q1):
        # a pair (pos, q) has q >= pos, so its measure is at least step[pos],
        # hence at least the smallest step of its aligned block of 2**lev rows
        mlo = np.maximum(cm_end[q0] - cm[nz[p1 - 1]], smin(lev, p0))
        ub = _ratio_bound(ci_end[q1 - 1] - ci[nz[p0]], mlo, lam)
        if near is not None:
            # and at most its row's longest arc: the corner value alone can
            # span the whole circle, as the band cuts the rectangle
            mhi = np.minimum(cm_end[q1 - 1] - cm[nz[p0]], -longest(lev, p0))
            ub = np.minimum(ub, near(mlo, mhi))
        # an end q pairs with a start pos when 0 <= q - pos < span
        ub[(q1 <= p0) | (q0 - p1 >= span - 1)] = -np.inf
        return ub

    def evaluate(p, q, best):
        s = nz[p]
        m = cm_end[q] - cm[s]
        r = (ci_end[q] - ci[s]) / m ** lam
        r[(q < p) | (q - p >= span) | dead[p]] = -np.inf
        top = r.max()
        if top < -best[0]:
            return best
        # of the pairs at the top ratio, the smallest key (m, start, end)
        a, b = np.nonzero(r == top)
        m, s, e = m[a, b], s[a, b], ends[q[a, 0]]
        o = np.lexsort((e, s, m))[0]
        return -float(top), float(m[o]), int(s[o]), int(e[o])

    # with span 0 the one start has no end but the seed's whole circle
    with np.errstate(divide="ignore", invalid="ignore"):
        (neg_r, _, i, j), pairs, bounded = _best_first(
            n if span else 0, n + span - 1, bounds, evaluate, (-total, 1.0, 0, k), (0.0, 0, 0))
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

    No arc's ratio exceeds the supremum, but ratio_sup is a lower bound on
    morrey_norm_exact's only up to rounding: the two scans sum different
    prefix tables, and on random step functions the grid has come out above
    the exact scan by up to 1.8e-13 relative.
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
    # smin looks up the shortest over an aligned block of starts
    smin = _block_min((np.append(pts[1:], np.inf) - pts) / tau)

    # as in the exact scan, arcs near the whole circle are bounded from their
    # complements when every density exceeds lam times the mean
    dmin = dens.min()
    near = _complement_bound(total, dmin, 1.0, npts, lam) if dmin > lam * total else None

    def bounds(lev, a0, a1, b0, b1):
        ihi = pre[b1 - 1] - pre[a0]
        lo = (pts[b0] - pts[a1 - 1]) / tau
        # pairs with b > a do not wrap (a measure that rounds to 0 becomes
        # 1.0, above any bound used here); pairs with b < a wrap and add
        # total and 1.0; the pair b == a scores 0.0 and never wins
        fwd_lo = np.maximum(lo, smin(lev, a0))
        fwd = _ratio_bound(ihi, fwd_lo, lam)
        wrap = _ratio_bound(ihi + total, lo + 1.0, lam)
        if near is not None:
            hi = (pts[b1 - 1] - pts[a0]) / tau
            fwd = np.minimum(fwd, near(fwd_lo, hi))
            # a wrapping pair leaves out the cells from b to a, so at least
            # cell b: its measure is at most 1.0 less its column's step
            wrap = np.minimum(wrap, near(lo + 1.0, np.minimum(hi + 1.0, 1.0 - smin(lev, b0))))
        fwd[pts[b1 - 1] <= pts[a0]] = -np.inf
        wrap[pts[b0] >= pts[a1 - 1]] = -np.inf
        return np.where(fwd > wrap, fwd, wrap)

    def evaluate(a, b, best):
        integ = pre[b] - pre[a]
        meas = (pts[b] - pts[a]) / tau
        # pairs with b < a wrap and add the whole circle's integral; they, b
        # == a, and any measure that rounds to 0 add its measure, 1.0
        integ = np.where(b < a, integ + total, integ)
        meas = np.where(meas <= 0, meas + 1.0, meas)
        ratio = integ / meas ** lam
        top = ratio.max()
        if top < -best[0]:
            return best
        # of the pairs at the top ratio, the first in (start, end) order
        i, j = np.nonzero(ratio == top)
        a, b = a[i, j], b[i, 0]
        o = np.lexsort((b, a))[0]
        return -float(top), int(a[o]), int(b[o])

    (neg_r, a, b), pairs, bounded = _best_first(npts, npts, bounds, evaluate,
                                                (-total, -1, -1), (0, 0))
    # the seed's index -1 reads bps[0]: the whole circle, as in the exact scan
    arc = Arc.from_endpoints(*np.append(pts, bps[0])[[a, b]].tolist())
    return NormResult((-neg_r) ** (1.0 / p), -neg_r, arc, pairs, bounded)


def morrey_norm_grid(f, params, refinement):
    """Grid-search lower bound on the Morrey norm up to rounding (see
    grid_search), nondecreasing under grid refinement (for nested grids)."""
    return grid_search(f, params, refinement).value
