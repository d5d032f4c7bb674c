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

from .circle_step import Arc, StepFunction, integral_p, wrap_angle
from .errors import (LambdaOutOfRange, POutOfRange, RefinementOutOfRange,
                     TOutOfRange, ZeroMeasureArc)

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

    Ties are broken by smallest arc length, then smallest start angle.
    """
    p, lam = params.p, params.lam
    bps = np.asarray(f.breakpoints)
    lens = np.asarray(f.lengths)
    dens = np.abs(np.asarray(f.values)) ** p
    k = len(bps)
    total = float(np.dot(dens, lens) / tau)
    full = Arc(f.breakpoints[0], tau)

    if lam == 0.0:
        return NormResult(total ** (1.0 / p), total, full)

    meas = lens / tau
    cm = np.concatenate(([0.0], np.cumsum(np.tile(meas, 2))))
    ci = np.concatenate(([0.0], np.cumsum(np.tile(dens * meas, 2))))
    cl = np.concatenate(([0.0], np.cumsum(np.tile(lens, 2))))

    nz = np.flatnonzero(dens > 0.0)
    best_r, best_len, best_start = total, tau, full.start
    for pos, qi in enumerate(nz):
        # end segments in circular order from qi: lengths increase along
        # the vector, so argmax picks the shortest maximizing arc
        pj = np.concatenate((nz[pos:], nz[:pos] + k))
        m = cm[pj + 1] - cm[qi]
        integ = ci[pj + 1] - ci[qi]
        r = integ / m ** lam
        jb = int(np.argmax(r))
        rb = float(r[jb])
        length = float(cl[pj[jb] + 1] - cl[qi])
        start = float(bps[qi])
        if (rb > best_r
                or (rb == best_r and (length, start) < (best_len, best_start))):
            best_r, best_len, best_start = rb, length, start

    length = min(best_len, tau)
    arc = full if length == tau else Arc(wrap_angle(best_start), length)
    return NormResult(best_r ** (1.0 / p), best_r, arc)


def grid_search(f, params, refinement):
    """Best arc whose endpoints lie on breakpoints plus a uniform grid.

    The pair matrix is scanned in blocks of about 2^20 elements (255 rows
    at refinement 4096); the first maximum in row-major order wins, so the
    result does not depend on the block size.
    """
    if not (2 <= refinement <= MAX_REFINEMENT):
        raise RefinementOutOfRange(
            f"refinement must lie in [2, {MAX_REFINEMENT}], got {refinement}"
        )
    p, lam = params.p, params.lam
    n = int(refinement)
    pts = np.union1d(np.asarray(f.breakpoints), -math.pi + tau * np.arange(1, n + 1) / n)
    pts = pts[(pts > -math.pi) & (pts <= math.pi)]
    m_count = len(pts)
    bps = np.asarray(f.breakpoints)
    gaps = np.diff(np.concatenate((pts, [pts[0] + tau])))
    mids = pts + 0.5 * gaps
    mids = np.where(mids > math.pi, mids - tau, mids)
    idx = np.searchsorted(bps, mids, side="right") - 1
    dens = np.abs(np.asarray(f.values)) ** p
    gap_dens = dens[idx]
    contrib = gap_dens * gaps / tau
    total = float(np.sum(contrib))
    pre = np.concatenate(([0.0], np.cumsum(contrib)))[:m_count]

    block = max(1, (1 << 20) // m_count)
    best_r, best_a, best_b = total, None, None
    for lo in range(0, m_count, block):
        hi = min(lo + block, m_count)
        ia = pre[lo:hi, None]
        integ = pre[None, :] - ia
        # arcs with end index below start index wrap past the cut
        integ[np.tri(hi - lo, m_count, lo - 1, dtype=bool)] += total
        meas = (pts[None, :] - pts[lo:hi, None]) / tau
        meas[meas <= 0] += 1.0
        np.fill_diagonal(integ[:, lo:hi], 0.0)  # skip degenerate a == b arcs
        np.fill_diagonal(meas[:, lo:hi], 1.0)
        ratio = integ / meas ** lam if lam else integ
        a_off, b = np.unravel_index(np.argmax(ratio), ratio.shape)
        r = float(ratio[a_off, b])
        if r > best_r:
            best_r, best_a, best_b = r, lo + int(a_off), int(b)

    if best_a is None:
        arc = Arc(f.breakpoints[0], tau)
    else:
        arc = Arc.from_endpoints(float(pts[best_a]), float(pts[best_b]))
    return NormResult(best_r ** (1.0 / p), best_r, arc)


def morrey_norm_grid(f, params, refinement):
    """Grid-search lower bound on the Morrey norm, nondecreasing under
    grid refinement (for nested grids)."""
    return grid_search(f, params, refinement).value


def sup_over_prefix_arcs(f, params, t_list):
    """Morrey ratio on the prefix arcs (0, t), one row (t, ratio) per t."""
    rows = []
    for t in t_list:
        if not (0.0 < t < math.pi):
            raise TOutOfRange(f"t must lie in (0, pi), got {t}")
        rows.append((t, morrey_ratio(f, Arc(0.0, t), params)))
    return rows
