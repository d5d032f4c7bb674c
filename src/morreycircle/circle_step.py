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
bit-for-bit stable under rotation and rearrangement.  Only that side
reads them (distribution, rotation, rearrangement and io); integrals and
Morrey suprema measure arcs by breakpoint gaps.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from math import fsum, tau

import numpy as np

from .errors import (
    AngleOutOfRange,
    LengthMismatch,
    NonFiniteNumber,
    POutOfRange,
    TolOutOfRange,
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

    def value_at(self, theta):
        """Value on the segment containing ``theta`` (endpoints go left)."""
        theta = wrap_angle(theta)
        i = bisect_right(self.breakpoints, theta) - 1
        if i < 0:
            i = len(self.breakpoints) - 1
        return self.values[i]

    def rotated(self, phi):
        """Rotate counterclockwise by ``phi``; segment lengths are kept."""
        return _circular([b + phi for b in self.breakpoints], self.values, self.lengths)


def _gap_lengths(breakpoints):
    k = len(breakpoints)
    if k == 1:
        return (tau,)
    out = [breakpoints[i + 1] - breakpoints[i] for i in range(k - 1)]
    out.append(breakpoints[0] + tau - breakpoints[k - 1])
    return tuple(out)


def _circular(angles, values, lengths):
    """StepFunction from segments listed in circular order from any start.

    Each angle is wrapped into (-pi, pi], and all three sequences are
    rotated so that the smallest angle comes first.
    """
    wrapped = [wrap_angle(b) for b in angles]
    i = wrapped.index(min(wrapped))
    bps = tuple(wrapped[i:] + wrapped[:i])
    if any(a >= b for a, b in zip(bps, bps[1:])):
        raise UnsortedBreakpoints("two breakpoints collapsed onto one angle")
    return StepFunction(bps, tuple(values[i:] + values[:i]),
                        tuple(lengths[i:] + lengths[:i]))


def _floats(xs, what):
    try:
        # a list first gives the tuple its exact size: tuple(map(...)) resizes
        # a guessed one, and CPython's per-size free lists then fill with the
        # results, raising a long-running process's peak RSS by about 1 MB
        return tuple(list(map(float, xs)))
    except (TypeError, ValueError) as exc:
        raise NonFiniteNumber(f"{what} must be numbers: {exc}") from exc


def make_step(breakpoints, values, lengths=None):
    """Validated StepFunction constructor.

    ``lengths``, when given, must agree with the breakpoint gaps to
    within ``_LENGTH_SLACK`` and is stored as the authoritative segment
    lengths (used by saved rearrangements to survive a round trip).
    """
    bps = _floats(breakpoints, "breakpoints")
    vals = _floats(values, "values")
    if not all(map(math.isfinite, bps + vals)):
        raise NonFiniteNumber("breakpoints and values must be finite")
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
    if len(bps) > 1 and bps[0] == -PI and bps[-1] == PI:
        raise AngleOutOfRange("breakpoints -pi and pi coincide on the circle")
    for a, b in zip(bps, bps[1:]):
        if a >= b:
            raise UnsortedBreakpoints(f"breakpoints not strictly increasing: {a} >= {b}")
    if lengths is None:
        return StepFunction(bps, vals)
    lens = _floats(lengths, "segment lengths")
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


def integral_p(f, arc, p):
    """Exact integral of |f|^p over an arc, w.r.t. normalized measure.

    The arc is placed at or after the first breakpoint, and each segment,
    together with its 2*pi translate, is overlapped with it; arcs through
    the -pi/pi cut meet the translates.  The overlaps are taken over numpy
    arrays, and the products |value|^p * overlap are summed by fsum.
    Raises NonFiniteNumber if |value|^p overflows on a segment the arc meets.
    """
    if not (p >= 1 and math.isfinite(p)):
        raise POutOfRange(f"p must satisfy 1 <= p < inf, got {p}")
    b0 = f.breakpoints[0]
    a = b0 + ((arc.start - b0) % tau)
    hi = a + arc.length
    starts = np.asarray(f.breakpoints)
    ends = np.append(starts[1:], b0 + tau)
    ov = (np.maximum(0.0, np.minimum(ends, hi) - np.maximum(starts, a))
          + np.maximum(0.0, np.minimum(ends + tau, hi) - np.maximum(starts + tau, a)))
    hit = ov > 0.0
    with np.errstate(over="ignore"):    # overflow shows in the sum below
        terms = np.abs(np.asarray(f.values)[hit]) ** p * ov[hit]
    s = fsum(terms.tolist())
    if not math.isfinite(s):
        raise NonFiniteNumber(f"integral of |f|^p over the arc is {s}")
    return s / tau


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
    not on segment order.  A magnitude on one segment keeps that
    segment's length, which is what fsum of one term returns.
    """
    mags = np.abs(np.asarray(f.values))
    keep = mags > 0.0
    order = np.argsort(-mags[keep], kind="stable")
    mags = mags[keep][order]
    lens = np.asarray(f.lengths)[keep][order]
    heads = np.flatnonzero(np.diff(mags, prepend=np.inf) != 0.0)
    tails = np.append(heads[1:], len(mags))
    radians = lens[heads]
    for g in np.flatnonzero(tails - heads > 1):
        radians[g] = fsum(lens[heads[g]:tails[g]].tolist())
    meas = (radians / tau).tolist()
    zero = 1.0 - fsum(meas)
    return DistributionSummary(tuple(zip(mags[heads].tolist(), meas)), max(0.0, zero),
                               tuple(radians.tolist()))


def equimeasurable(f, g, tol=0.0):
    """True iff f and g have identical distribution functions.

    Magnitudes are compared relatively and measures absolutely, both to
    ``tol``; tol = 0 demands exact agreement.
    """
    if not tol >= 0.0:
        raise TolOutOfRange(f"tol must be a nonnegative number, got {tol}")
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
        return _circular(cuts, mags + [0.0], rads + [tau - cuts[-1]])
    return _circular(cuts[:-1], mags, rads)
