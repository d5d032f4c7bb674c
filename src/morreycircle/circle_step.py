"""Piecewise-constant functions on the unit circle.

Angles live in (-pi, pi]; the circle carries the normalized Lebesgue
measure m (arc length / 2*pi, so m of the whole circle is 1).  A step
function is a strictly increasing list of breakpoints plus one value per
circular gap: ``values[i]`` is taken on the arc from ``breakpoints[i]``
to the next breakpoint (wrapping past the cut for the last one).

Each segment also carries its angular length.  By default lengths are
the breakpoint differences (each a single IEEE subtraction, hence
correctly rounded); internal constructors may supply lengths that are
consistent within one ulp, which lets distribution computations stay
bit-for-bit stable under rotation and rearrangement.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from math import fsum, tau

from .errors import (
    AngleOutOfRange,
    LengthMismatch,
    UnsortedBreakpoints,
    ZeroMeasureArc,
)

PI = math.pi
# stored segment lengths may disagree with breakpoint gaps only at rounding level
_LENGTH_SLACK = 1e-9


def wrap_angle(theta):
    """Reduce an angle to the canonical interval (-pi, pi]."""
    w = math.remainder(theta, tau)
    if w == -PI:
        w = PI
    return w


@dataclass(frozen=True)
class Arc:
    """A connected subset of the circle: start angle plus angular length.

    ``start`` is in (-pi, pi]; ``length`` is in (0, 2*pi], the full
    circle being the degenerate maximal arc.
    """

    start: float
    length: float

    def __post_init__(self):
        if not (-PI <= self.start <= PI):
            raise AngleOutOfRange(f"arc start {self.start} not in [-pi, pi]")
        if not (0.0 < self.length <= tau):
            raise ZeroMeasureArc(f"arc length {self.length} not in (0, 2*pi]")

    @property
    def measure(self):
        """Normalized measure, length / (2*pi), in (0, 1]."""
        return self.length / tau

    @property
    def end(self):
        """Unwrapped end angle, start + length (may exceed pi)."""
        return self.start + self.length

    @classmethod
    def from_endpoints(cls, start, end):
        """Arc running counterclockwise from ``start`` to ``end``."""
        length = (end - start) % tau
        if length == 0.0:
            length = tau
        return cls(wrap_angle(start), length)


@dataclass(frozen=True)
class StepFunction:
    """Piecewise-constant real function on the circle."""

    breakpoints: tuple
    values: tuple
    lengths: tuple = field(default=())

    def __post_init__(self):
        if not self.lengths:
            object.__setattr__(self, "lengths", _gap_lengths(self.breakpoints))

    @property
    def num_segments(self):
        return len(self.breakpoints)

    def segments(self):
        """Yield (start, end, value) with end unwrapped past the cut."""
        bps = self.breakpoints
        k = len(bps)
        for i in range(k):
            end = bps[i + 1] if i + 1 < k else bps[0] + tau
            yield bps[i], end, self.values[i]

    def value_at(self, theta):
        """Value on the segment containing ``theta`` (endpoints go left)."""
        theta = wrap_angle(theta)
        i = bisect_right(self.breakpoints, theta) - 1
        if i < 0:
            i = len(self.breakpoints) - 1
        return self.values[i]

    def rotated(self, phi):
        """Rotate counterclockwise by ``phi``; segment lengths are kept."""
        shifted = [wrap_angle(b + phi) for b in self.breakpoints]
        k = len(shifted)
        if k == 1:
            return StepFunction((shifted[0],), self.values, self.lengths)
        pivot = min(range(k), key=shifted.__getitem__)
        order = list(range(pivot, k)) + list(range(pivot))
        bps = tuple(shifted[i] for i in order)
        for a, b in zip(bps, bps[1:]):
            if a >= b:
                raise UnsortedBreakpoints(
                    "rotation collapsed two breakpoints; choose another angle"
                )
        return StepFunction(
            bps,
            tuple(self.values[i] for i in order),
            tuple(self.lengths[i] for i in order),
        )

    def canonicalize(self):
        """Merge circularly adjacent segments carrying equal values."""
        vals = self.values
        k = len(vals)
        if all(v == vals[0] for v in vals):
            return StepFunction((self.breakpoints[0],), (vals[0],), (tau,))
        pivot = next(i for i in range(k) if vals[i - 1] != vals[i])
        order = list(range(pivot, k)) + list(range(pivot))
        bps, out_vals, out_lens = [], [], []
        run_lens = []
        for idx in order:
            v = vals[idx]
            if out_vals and v == out_vals[-1]:
                run_lens.append(self.lengths[idx])
            else:
                if run_lens:
                    out_lens.append(fsum(run_lens))
                run_lens = [self.lengths[idx]]
                bps.append(self.breakpoints[idx])
                out_vals.append(v)
        out_lens.append(fsum(run_lens))
        return StepFunction(tuple(bps), tuple(out_vals), tuple(out_lens))


def _gap_lengths(breakpoints):
    k = len(breakpoints)
    if k == 1:
        return (tau,)
    out = [breakpoints[i + 1] - breakpoints[i] for i in range(k - 1)]
    out.append(breakpoints[0] + tau - breakpoints[k - 1])
    return tuple(out)


def make_step(breakpoints, values, lengths=None):
    """Validated StepFunction constructor.

    ``lengths``, when given, must agree with the breakpoint gaps to
    within ``_LENGTH_SLACK`` and is stored as the authoritative segment
    lengths (used by saved rearrangements to survive a round trip).
    """
    bps = tuple(float(b) for b in breakpoints)
    vals = tuple(float(v) for v in values)
    if not bps or not vals:
        raise LengthMismatch("breakpoints and values must be non-empty")
    if len(bps) != len(vals):
        raise LengthMismatch(
            f"{len(bps)} breakpoints but {len(vals)} values"
        )
    for b in bps:
        # -pi and pi name the same point on the cut; accept either end
        if not (-PI <= b <= PI):
            raise AngleOutOfRange(f"breakpoint {b} not in [-pi, pi]")
        if math.isnan(b):
            raise AngleOutOfRange("breakpoint is NaN")
    if len(bps) > 1 and bps[0] == -PI and bps[-1] == PI:
        raise AngleOutOfRange("breakpoints -pi and pi coincide on the circle")
    for a, b in zip(bps, bps[1:]):
        if a >= b:
            raise UnsortedBreakpoints(f"breakpoints not strictly increasing: {a} >= {b}")
    if lengths is None:
        return StepFunction(bps, vals)
    lens = tuple(float(x) for x in lengths)
    if len(lens) != len(bps):
        raise LengthMismatch(f"{len(bps)} breakpoints but {len(lens)} segment lengths")
    for got, gap in zip(lens, _gap_lengths(bps)):
        if not (0.0 < got <= tau and abs(got - gap) <= _LENGTH_SLACK):
            raise LengthMismatch(f"segment length {got} inconsistent with breakpoints")
    return StepFunction(bps, vals, lens)


def constant(c):
    """The constant function c on the whole circle."""
    return make_step([0.0], [c])


def indicator(arc):
    """Indicator function of an arc."""
    if arc.length == tau:
        return constant(1.0)
    start = arc.start
    end = wrap_angle(arc.start + arc.length)
    if start < end:
        return make_step([start, end], [1.0, 0.0])
    return make_step([end, start], [0.0, 1.0])


def _overlap(lo1, hi1, lo2, hi2):
    return max(0.0, min(hi1, hi2) - max(lo1, lo2))


def integral_p(f, arc, p):
    """Exact integral of |f|^p over an arc, w.r.t. normalized measure.

    Sums |value|^p times the overlap of each segment with the arc; arcs
    wrapping the -pi/pi cut are handled by considering each segment and
    its 2*pi translate.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    a = arc.start
    b0 = f.breakpoints[0]
    a = b0 + ((a - b0) % tau)
    hi = a + arc.length
    total = 0.0
    for s, e, v in f.segments():
        if v == 0.0:
            continue
        ov = _overlap(s, e, a, hi) + _overlap(s + tau, e + tau, a, hi)
        if ov > 0.0:
            total += abs(v) ** p * ov
    return total / tau


@dataclass(frozen=True)
class DistributionSummary:
    """Multiset of (|value|, measure) pairs, magnitudes strictly decreasing.

    The measures of the listed entries sum to at most 1; the remainder
    ``zero_measure`` is the measure of the set where |f| = 0.
    """

    entries: tuple          # ((magnitude, measure), ...) sorted descending
    zero_measure: float
    radian_lengths: tuple = ()   # aggregated angular length per entry

    def measure_above(self, t):
        """m{ |f| > t }, exact at every threshold t >= 0."""
        return fsum(meas for mag, meas in self.entries if mag > t)


def distribution(f):
    """Aggregate |f| into a DistributionSummary.

    Per-magnitude angular lengths are combined with ``math.fsum`` so the
    result depends only on the multiset of (magnitude, length) pairs,
    not on segment order.
    """
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


def equimeasurable(f, g, tol=0.0):
    """True iff f and g have identical distribution functions.

    Magnitudes are compared relatively and measures absolutely, both to
    ``tol``; tol = 0 demands exact agreement.
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    df, dg = distribution(f), distribution(g)
    if len(df.entries) != len(dg.entries):
        return False
    for (m1, s1), (m2, s2) in zip(df.entries, dg.entries):
        if abs(m1 - m2) > tol * max(m1, m2):
            return False
        if abs(s1 - s2) > tol:
            return False
    return abs(df.zero_measure - dg.zero_measure) <= tol


def decreasing_rearrangement(f):
    """Canonical nonincreasing representative equimeasurable with |f|.

    Starting at angle 0 and proceeding counterclockwise, the magnitudes
    of f are laid out in decreasing order, each on an arc of the same
    aggregated length; any zero set fills the remainder of the circle.
    """
    summary = distribution(f)
    if not summary.entries:
        return constant(0.0)
    mags = [m for m, _ in summary.entries]
    rads = list(summary.radian_lengths)
    cuts = [0.0]
    for rad in rads:
        nxt = cuts[-1] + rad
        while nxt <= cuts[-1]:        # guard against underflow collisions
            nxt = math.nextafter(nxt, math.inf)
        cuts.append(nxt)
    if summary.zero_measure > 0.0 and cuts[-1] < tau:
        bps = cuts[:-1] + [cuts[-1]]
        vals = mags + [0.0]
        lens = rads + [tau - cuts[-1]]
    else:
        bps = cuts[:-1]
        vals = mags
        lens = rads
    # fold angles beyond pi back to (-pi, 0) and restore circular order
    wrapped = [b if b <= PI else b - tau for b in bps]
    k = len(wrapped)
    pivot = min(range(k), key=wrapped.__getitem__)
    order = list(range(pivot, k)) + list(range(pivot))
    return StepFunction(
        tuple(wrapped[i] for i in order),
        tuple(vals[i] for i in order),
        tuple(lens[i] for i in order),
    )
