"""Plain reference implementations that the library's fast paths must match
bit for bit: one start at a time for the two Morrey supremum scans, and a
dict of fsum buckets for the distribution.
"""

from math import fsum, pi, tau

import numpy as np

from morreycircle import Arc, DistributionSummary, NormResult


def exact_scan(f, params):
    """morrey_norm_exact, one vector of ends per nonzero start segment."""
    p, lam = params.p, params.lam
    bps = np.asarray(f.breakpoints)
    lens = np.diff(np.append(bps, bps[0] + tau)) if len(bps) > 1 else np.array([tau])
    dens = np.abs(np.asarray(f.values)) ** p
    k = len(lens)
    total = float(np.dot(dens, lens) / tau)
    whole = Arc.from_endpoints(f.breakpoints[0], f.breakpoints[0])
    if lam == 0.0:
        return NormResult(total ** (1.0 / p), total, whole)
    meas = lens / tau
    cm = np.concatenate(([0.0], np.cumsum(np.tile(meas, 2))))
    ci = np.concatenate(([0.0], np.cumsum(np.tile(dens * meas, 2))))
    nz = np.flatnonzero(dens > 0.0)
    n = len(nz)
    ends = np.concatenate((nz, nz + k)) + 1
    cm_end, ci_end = cm[ends], ci[ends]
    span = n - (n == k)     # the whole circle is the seed's alone
    best = (-total, 1.0, 0, k)
    with np.errstate(divide="ignore", invalid="ignore"):
        for pos, qi in enumerate(nz):
            if span == 0:
                break
            m = cm_end[pos:pos + span] - cm[qi]
            r = (ci_end[pos:pos + span] - ci[qi]) / m ** lam
            jb = int(np.argmax(r))
            best = min(best, (-float(r[jb]), float(m[jb]), int(qi), int(ends[pos + jb])))
    best_r, i, j = -best[0], best[2], best[3]
    arc = Arc.from_endpoints(f.breakpoints[i], f.breakpoints[j % k])
    return NormResult(best_r ** (1.0 / p), best_r, arc)


def grid_scan(f, params, refinement):
    """grid_search, one vector of ends per start point."""
    p, lam = params.p, params.lam
    n = int(refinement)
    bps = np.asarray(f.breakpoints)
    pts = np.union1d(bps, -pi + tau * np.arange(1, n + 1) / n)
    pts = pts[(pts > -pi) & (pts <= pi)]
    gaps = np.diff(np.concatenate((pts, [pts[0] + tau])))
    mids = pts + 0.5 * gaps
    mids = np.where(mids > pi, mids - tau, mids)
    idx = np.searchsorted(bps, mids, side="right") - 1
    dens = np.abs(np.asarray(f.values)) ** p
    contrib = dens[idx] * gaps / tau
    total = float(np.sum(contrib))
    pre = np.concatenate(([0.0], np.cumsum(contrib)))[:len(pts)]
    best_r, best_a, best_b = total, None, None
    for a in range(len(pts)):
        integ = pre - pre[a]
        integ[:a] += total
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


def distribution(f):
    """circle_step.distribution, bucketing magnitudes in a dict."""
    buckets = {}
    for v, length in zip(f.values, f.lengths):
        mag = abs(v)
        if mag == 0.0:
            continue
        buckets.setdefault(mag, []).append(length)
    mags = sorted(buckets, reverse=True)
    radians = tuple(fsum(buckets[m]) for m in mags)
    entries = tuple((m, rad / tau) for m, rad in zip(mags, radians))
    zero = 1.0 - fsum(meas for _, meas in entries)
    return DistributionSummary(entries, max(0.0, zero), radians)
