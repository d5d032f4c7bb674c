"""Morrey ratio over arcs and its exact supremum for step functions.

The ratio under study is m(w)^(-lambda) * integral over the arc w of
|f|^p dm; the norm is the p-th root of its supremum over all arcs.  For
a step function and lambda < 1 the supremum is attained on an arc whose
endpoints are segment breakpoints: along any one-parameter family that
grows an arc into a constant-density segment, the ratio is first
decreasing then increasing (the derivative numerator A*(L0+s) -
lambda*(C+A*s) is increasing in s), so interior stationary points are
minima and every rectangle of partial-coverage lengths is maximized at
a corner.  The optimizer therefore enumerates arcs made of whole
segments, in O(n^2) via circular prefix sums, plus the full circle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import tau

import numpy as np

from .circle_step import Arc, integral_p
from .errors import (LambdaOutOfRange, NonFiniteNumber, POutOfRange,
                     RefinementOutOfRange, ZeroMeasureArc)

MAX_REFINEMENT = 65536      # largest grid accepted by grid_search


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


def morrey_ratio(f, arc, params):
    """m(arc)^(-lambda) * integral of |f|^p over the arc."""
    m = arc.measure
    if m <= 0.0:
        raise ZeroMeasureArc("arc has zero measure")
    return integral_p(f, arc, params.p) / m ** params.lam


def morrey_norm_exact(f, params):
    """Exact supremum of the Morrey ratio over all arcs, with a maximizer.

    Segments are measured by breakpoint gaps, as in integral_p and
    grid_search, so morrey_ratio at the maximizer matches ratio_sup to
    rounding.
    Ties are broken by smallest arc length, then smallest start angle.
    Raises NonFiniteNumber if the integral of |f|^p is not finite.
    """
    p, lam = params.p, params.lam
    bps = np.asarray(f.breakpoints)
    lens = np.diff(np.append(bps, bps[0] + tau)) if len(bps) > 1 else np.array([tau])
    with np.errstate(over="ignore"):    # overflow shows in the total below
        dens = np.abs(np.asarray(f.values)) ** p
    k = len(lens)
    total = _finite_total(float(np.dot(dens, lens) / tau))

    if lam == 0.0:
        return NormResult(total ** (1.0 / p), total, Arc(f.breakpoints[0], tau))

    meas = lens / tau
    cm = np.concatenate(([0.0], np.cumsum(np.tile(meas, 2))))
    ci = np.concatenate(([0.0], np.cumsum(np.tile(dens * meas, 2))))

    nz = np.flatnonzero(dens > 0.0)
    n = len(nz)
    # ends[pos:pos + n] are the prefix indices just past the nonzero segments
    # in circular order from nz[pos]: measures increase along the slice, so
    # argmax picks the shortest maximizing arc that starts there
    ends = np.concatenate((nz, nz + k)) + 1
    cm_end, ci_end = cm[ends], ci[ends]
    # largest ratio, then smallest measure, then smallest start, seeded with
    # the full circle; a NaN ratio compares false, so its row never wins
    best = (-total, 1.0, 0, k)
    for pos, qi in enumerate(nz):
        m = cm_end[pos:pos + n] - cm[qi]
        r = (ci_end[pos:pos + n] - ci[qi]) / m ** lam
        jb = int(np.argmax(r))
        best = min(best, (-float(r[jb]), float(m[jb]), int(qi), int(ends[pos + jb])))

    best_r, i, j = -best[0], best[2], best[3]
    arc = Arc.from_endpoints(f.breakpoints[i], f.breakpoints[j % k])
    return NormResult(best_r ** (1.0 / p), best_r, arc)


def _finite_total(total):
    if not math.isfinite(total):
        raise NonFiniteNumber(f"integral of |f|^p over the circle is {total}")
    return total


def grid_search(f, params, refinement):
    """Best arc whose endpoints lie on breakpoints plus a uniform grid.

    The arcs are scanned one start point at a time, as one vector over all
    end points; the first maximum in (start, end) order wins.  Raises
    NonFiniteNumber if the integral of |f|^p is not finite.
    """
    if not (2 <= refinement <= MAX_REFINEMENT):
        raise RefinementOutOfRange(
            f"refinement must lie in [2, {MAX_REFINEMENT}], got {refinement}"
        )
    p, lam = params.p, params.lam
    n = int(refinement)
    bps = np.asarray(f.breakpoints)
    pts = np.union1d(bps, -math.pi + tau * np.arange(1, n + 1) / n)
    pts = pts[(pts > -math.pi) & (pts <= math.pi)]
    gaps = np.diff(np.concatenate((pts, [pts[0] + tau])))
    mids = pts + 0.5 * gaps
    mids = np.where(mids > math.pi, mids - tau, mids)
    idx = np.searchsorted(bps, mids, side="right") - 1
    with np.errstate(over="ignore"):    # overflow shows in the total below
        dens = np.abs(np.asarray(f.values)) ** p
    contrib = dens[idx] * gaps / tau
    total = _finite_total(float(np.sum(contrib)))
    pre = np.concatenate(([0.0], np.cumsum(contrib)))[:len(pts)]

    # the degenerate arc from a to a scores 0.0 / 1.0 ** lam, never above total
    best_r, best_a, best_b = total, None, None
    for a in range(len(pts)):
        integ = pre - pre[a]
        integ[:a] += total      # end index below start index: the arc wraps
        meas = (pts - pts[a]) / tau
        meas[meas <= 0] += 1.0
        ratio = integ / meas ** lam
        b = int(np.argmax(ratio))
        if ratio[b] > best_r:
            best_r, best_a, best_b = float(ratio[b]), a, b

    if best_a is None:
        arc = Arc(f.breakpoints[0], tau)
    else:
        arc = Arc.from_endpoints(float(pts[best_a]), float(pts[best_b]))
    return NormResult(best_r ** (1.0 / p), best_r, arc)


def morrey_norm_grid(f, params, refinement):
    """Grid-search lower bound on the Morrey norm, nondecreasing under
    grid refinement (for nested grids)."""
    return grid_search(f, params, refinement).value
