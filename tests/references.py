"""Plain reference implementations that the library's fast paths must match
bit for bit: one start at a time for the two Morrey supremum scans, a dict
of fsum buckets for grouping |f| by magnitude, loops over Python floats
for building g, wrapping angles and laying out the decreasing rearrangement,
overlaps with every segment for integrals over arcs, and json's own encoder
for writing step-function files.
"""

import json
import math
from math import fsum, pi, tau

import numpy as np

from morreycircle import Arc, NormResult, StepFunction, constant, make_step, wrap_angle
from morreycircle.errors import NonFiniteNumber, OverlapDetected, UnsortedBreakpoints


def exact_scan(f, params):
    """morrey_norm_exact, one vector of ends per nonzero start segment."""
    p, lam = params.p, params.lam
    bps = np.asarray(f.breakpoints)
    lens = np.diff(np.append(bps, bps[0] + tau)) if len(bps) > 1 else np.array([tau])
    dens = np.abs(np.asarray(f.values)) ** p
    k = len(lens)
    total = float(np.sum(dens * lens) / tau)
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
    pts = np.union1d(np.where(bps == -pi, pi, bps), -pi + tau * np.arange(1, n + 1) / n)
    pts = pts[pts <= pi]
    gaps = np.diff(np.concatenate((pts, [pts[0] + tau])))
    # each cell lies in the segment of its left end; pi starts the one at -pi
    idx = np.searchsorted(bps, np.where(pts == pi, -pi, pts), side="right") - 1
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
        arc = Arc.from_endpoints(f.breakpoints[0], f.breakpoints[0])
    else:
        arc = Arc.from_endpoints(float(pts[best_a]), float(pts[best_b]))
    return NormResult(best_r ** (1.0 / p), best_r, arc)


def grouped(f):
    """circle_step._grouped, bucketing magnitudes in a dict: the nonzero
    magnitudes, decreasing, their fsummed lengths, and the zero set's measure,
    0.0 where no segment is zero."""
    buckets = {}
    has_zero = False
    for v, length in zip(f.values.tolist(), f.lengths.tolist()):
        mag = abs(v)
        if mag == 0.0:
            has_zero = True
            continue
        buckets.setdefault(mag, []).append(length)
    mags = sorted(buckets, reverse=True)
    radians = [fsum(buckets[m]) for m in mags]
    zero = 1.0 - fsum(rad / tau for rad in radians) if has_zero else 0.0
    return mags, radians, max(0.0, zero)


def integral_p(f, arc, p):
    """circle_step.integral_p, overlapping every segment and its 2*pi
    translate with the arc."""
    b0 = float(f.breakpoints[0])
    a = b0 + ((arc.start - b0) % tau)
    hi = a + arc.length
    starts = f.breakpoints
    ends = np.append(starts[1:], b0 + tau)
    ov = (np.maximum(0.0, np.minimum(ends, hi) - np.maximum(starts, a))
          + np.maximum(0.0, np.minimum(ends + tau, hi) - np.maximum(starts + tau, a)))
    hit = ov > 0.0
    with np.errstate(over="ignore"):
        terms = np.abs(f.values[hit]) ** p * ov[hit]
    try:
        s = fsum(terms.tolist())
    except OverflowError:
        s = math.inf
    if not math.isfinite(s):
        raise NonFiniteNumber(f"integral of |f|^p over the arc is {s}")
    return s / tau


def save_step_function(f, path):
    """io.save_step_function through json's own encoder."""
    doc = {
        "breakpoints_rad": f.breakpoints.tolist(),
        "values": f.values.tolist(),
        "segment_lengths_rad": f.lengths.tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def build_g(params, N):
    """counterexample.build_g, one block at a time."""
    alpha = params.alpha
    bps, vals = [], []
    prev_gr = 0.0
    for n in range(N, 15, -1):
        gr = 1.0 / math.sqrt(n)
        gl = gr - 1.0 / (n * (n + 1))
        if gl <= prev_gr:
            raise OverlapDetected(f"block arcs for n={n + 1} and n={n} overlap")
        bps.extend((gl, gr))
        vals.extend((float(n) ** alpha, 0.0))
        prev_gr = gr
    return make_step(bps, vals)


def build_f(params, N):
    """counterexample.build_f on the reference g, rearrangement and rotation."""
    g_star = decreasing_rearrangement(build_g(params, N))
    return rotated(g_star, 1.0 / 16.0 - float(g_star.breakpoints[-1]))


def circular(angles, values, lengths):
    """circle_step._circular, wrapping one angle at a time with wrap_angle."""
    wrapped = [wrap_angle(b) for b in angles]
    i = wrapped.index(min(wrapped))
    bps = wrapped[i:] + wrapped[:i]
    if any(a >= b for a, b in zip(bps, bps[1:])):
        raise UnsortedBreakpoints("two breakpoints collapsed onto one angle")
    values, lengths = list(values), list(lengths)
    return StepFunction(bps, values[i:] + values[:i], lengths[i:] + lengths[:i])


def rotated(f, phi):
    """StepFunction.rotated, one breakpoint at a time."""
    return circular([b + phi for b in f.breakpoints.tolist()], f.values.tolist(),
                    f.lengths.tolist())


def decreasing_rearrangement(f):
    """circle_step.decreasing_rearrangement, laying the cuts out one at a time."""
    mags, rads, zero = grouped(f)
    if not mags:
        return constant(0.0)
    cuts = [0.0]
    for rad in rads:
        nxt = cuts[-1] + rad
        while nxt <= cuts[-1]:        # guard against underflow collisions
            nxt = math.nextafter(nxt, math.inf)
        cuts.append(nxt)
    if zero > 0.0 and cuts[-1] < tau:
        return circular(cuts, mags + [0.0], rads + [tau - cuts[-1]])
    return circular(cuts[:-1], mags, rads)
