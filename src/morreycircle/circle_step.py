"""Piecewise-constant functions on the unit circle.

Angles live in (-pi, pi]; the circle carries the normalized Lebesgue
measure m (arc length / 2*pi, so m of the whole circle is 1).  A step
function holds three read-only 1-D float64 numpy arrays of one length:
strictly increasing ``breakpoints``; ``values``, where ``values[i]`` is
taken on the arc from ``breakpoints[i]`` to the next breakpoint (wrapping
past the cut for the last one); and the segments' angular ``lengths``.

By default lengths are the breakpoint differences (each a single IEEE
subtraction, hence correctly rounded); internal constructors may supply
lengths that are consistent within one ulp, which keeps _grouped, the
summary of |f| by magnitude behind equimeasurable and the decreasing
rearrangement, bit-for-bit stable under rotation and rearrangement.
Only _grouped reads them; integrals and Morrey suprema measure arcs by
breakpoint gaps, which gap_lengths, the one gap routine, computes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
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


@dataclass(frozen=True, eq=False)
class StepFunction:
    """Piecewise-constant real function on the circle.  Inputs are converted
    to float64, and copied unless they are read-only float64 arrays."""

    breakpoints: np.ndarray
    values: np.ndarray
    lengths: np.ndarray = None

    def __post_init__(self):
        lengths = gap_lengths(self.breakpoints) if self.lengths is None else self.lengths
        for fld, x in zip(fields(self), (self.breakpoints, self.values, lengths)):
            if not (isinstance(x, np.ndarray) and x.dtype == np.float64
                    and not x.flags.writeable):
                x = np.array(x, dtype=np.float64)
                x.flags.writeable = False
            object.__setattr__(self, fld.name, x)

    def __eq__(self, other):
        return isinstance(other, StepFunction) and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))

    @property
    def num_segments(self):
        return len(self.breakpoints)

    def value_at(self, theta):
        """Value at ``theta``; a breakpoint takes the segment it starts, but +-pi the last."""
        # index -1, before the first breakpoint, is the segment past the cut
        i = np.searchsorted(self.breakpoints, wrap_angle(theta), side="right") - 1
        return float(self.values[i])

    def rotated(self, phi):
        """Rotate counterclockwise by ``phi``; segment lengths are kept."""
        return _circular(self.breakpoints + phi, self.values, self.lengths)


def gap_lengths(bps):
    """Angle from each breakpoint to the next, the last wrapping past the cut."""
    return np.append(np.diff(bps), bps[0] + tau - bps[-1]) if len(bps) > 1 else np.array([tau])


def _circular(angles, values, lengths):
    """StepFunction from segments listed in circular order from any start.

    Each angle is wrapped into (-pi, pi], and all three arrays are rotated
    so that the smallest angle comes first.  The wrap equals wrap_angle's:
    np.fmod(x, tau) is exact, in (-tau, tau) with the sign of x; w > pi
    becomes w - tau and w <= -pi becomes w + tau, exact by Sterbenz's lemma
    (tau/2 <= |w| < tau).  So both give the one x - n*tau (n an integer)
    in (-pi, pi], as remainder is exact too, and a zero has x's sign.
    """
    w = np.fmod(angles, tau)
    w[w > PI] -= tau
    w[w <= -PI] += tau
    i = -int(np.argmin(w))
    bps = np.roll(w, i)
    if np.any(bps[:-1] >= bps[1:]):
        raise UnsortedBreakpoints("two breakpoints collapsed onto one angle")
    return StepFunction(bps, np.roll(values, i), np.roll(lengths, i))


def _floats(xs, what):
    """xs as a new read-only 1-D float64 array."""
    try:
        a = np.asarray(xs)
        if a.dtype.kind not in "biuf":      # None and complex raise, as float() does
            a = np.frompyfunc(float, 1, 1)(a)
        a = np.array(a, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise NonFiniteNumber(f"{what} must be numbers: {exc}") from exc
    if a.ndim != 1:
        raise NonFiniteNumber(f"{what} must be a flat list of numbers, not {a.ndim}-D")
    a.flags.writeable = False
    return a


def make_step(breakpoints, values, lengths=None):
    """Validated StepFunction constructor.

    ``lengths``, when given, must agree with the breakpoint gaps to
    within ``_LENGTH_SLACK`` and is stored as the authoritative segment
    lengths (used by saved rearrangements to survive a round trip).
    Each error names the first offending entry.
    """
    bps = _floats(breakpoints, "breakpoints")
    vals = _floats(values, "values")
    if not (np.isfinite(bps).all() and np.isfinite(vals).all()):
        raise NonFiniteNumber("breakpoints and values must be finite")
    if not bps.size or not vals.size:
        raise LengthMismatch("breakpoints and values must be non-empty")
    if len(bps) != len(vals):
        raise LengthMismatch(f"{len(bps)} breakpoints but {len(vals)} values")
    # -pi and pi name the same point on the cut; accept either end
    bad = np.flatnonzero((bps < -PI) | (bps > PI))
    if bad.size:
        raise AngleOutOfRange(f"breakpoint {float(bps[bad[0]])} not in [-pi, pi]")
    if len(bps) > 1 and bps[0] == -PI and bps[-1] == PI:
        raise AngleOutOfRange("breakpoints -pi and pi coincide on the circle")
    bad = np.flatnonzero(bps[:-1] >= bps[1:])
    if bad.size:
        a, b = bps[bad[0]:bad[0] + 2].tolist()
        raise UnsortedBreakpoints(f"breakpoints not strictly increasing: {a} >= {b}")
    if lengths is None:
        return StepFunction(bps, vals)
    lens = _floats(lengths, "segment lengths")
    if len(lens) != len(bps):
        raise LengthMismatch(f"{len(bps)} breakpoints but {len(lens)} segment lengths")
    bad = np.flatnonzero(~((0.0 < lens) & (lens <= tau)
                           & (np.abs(lens - gap_lengths(bps)) <= _LENGTH_SLACK)))
    if bad.size:
        raise LengthMismatch(
            f"segment length {float(lens[bad[0]])} inconsistent with breakpoints")
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
    the -pi/pi cut meet the translates.  Only the segments the arc can
    meet are read: those found by a binary search for the arc's ends,
    and, once the arc passes the first breakpoint's translate, those whose
    translates start before its end.  The overlaps are taken over numpy
    arrays, and the products |value|^p * overlap are summed by fsum.
    Raises NonFiniteNumber if |value|^p overflows on a segment the arc meets,
    or if the sum does.
    """
    if not (p >= 1 and math.isfinite(p)):
        raise POutOfRange(f"p must satisfy 1 <= p < inf, got {p}")
    bps = f.breakpoints
    b0 = float(bps[0])
    a = b0 + ((arc.start - b0) % tau)
    hi = a + arc.length
    # b0 <= a <= hi; segments before lo end at or before a, and those from up
    # on start at or after hi
    lo = int(np.searchsorted(bps, a, side="right")) - 1
    up = int(np.searchsorted(bps, hi, side="left"))
    # a translate starting at or after the real hi - tau starts, rounded, at or
    # after hi; nextafter bounds that real number from above
    wrap = (0 if hi <= b0 + tau
            else int(np.searchsorted(bps, math.nextafter(hi - tau, math.inf), side="left")))
    terms = []
    for i, j in ((0, wrap), (lo, up)) if wrap < lo else ((0, max(up, wrap)),):
        starts = bps[i:j]
        ends = bps[i + 1:j + 1] if j < len(bps) else np.append(bps[i + 1:], b0 + tau)
        ov = (np.maximum(0.0, np.minimum(ends, hi) - np.maximum(starts, a))
              + np.maximum(0.0, np.minimum(ends + tau, hi) - np.maximum(starts + tau, a)))
        hit = ov > 0.0
        with np.errstate(over="ignore"):    # overflow shows in the sum below
            terms += (np.abs(f.values[i:j][hit]) ** p * ov[hit]).tolist()
    try:
        s = fsum(terms)
    except OverflowError:   # fsum raises where a partial sum overflows
        s = math.inf
    if not math.isfinite(s):
        raise NonFiniteNumber(f"integral of |f|^p over the arc is {s}")
    return s / tau


def _grouped(f):
    """|f|'s nonzero magnitudes, decreasing, their summed angular lengths and
    measures, and the zero set's measure, 0.0 where no segment is zero (so
    that measures summing to just below 1 lay no zero segment).  Lengths are
    summed by fsum, so the result depends only on the multiset of
    (magnitude, length) pairs; fsum of one length is that length.
    """
    mags = np.abs(f.values)
    keep = mags > 0.0
    order = np.argsort(-mags[keep], kind="stable")
    mags = mags[keep][order]
    lens = f.lengths[keep][order]
    heads = np.flatnonzero(np.diff(mags, prepend=np.inf) != 0.0)
    tails = np.append(heads[1:], len(mags))
    radians = lens[heads]
    for g in np.flatnonzero(tails - heads > 1):
        radians[g] = fsum(lens[heads[g]:tails[g]].tolist())
    meas = radians / tau
    zero = 0.0 if keep.all() else max(0.0, 1.0 - fsum(meas.tolist()))
    return mags[heads], radians, meas, zero


def equimeasurable(f, g, tol=0.0):
    """True iff f and g have identical distribution functions.

    Magnitudes are compared relatively and measures absolutely, both to
    ``tol``; tol = 0 demands exact agreement.
    """
    if not tol >= 0.0:
        raise TolOutOfRange(f"tol must be a nonnegative number, got {tol}")
    m1, _, s1, z1 = _grouped(f)
    m2, _, s2, z2 = _grouped(g)
    return bool(len(m1) == len(m2)
                and not np.any(np.abs(m1 - m2) > tol * np.maximum(m1, m2))
                and not np.any(np.abs(s1 - s2) > tol)
                and abs(z1 - z2) <= tol)


def decreasing_rearrangement(f):
    """Canonical nonincreasing representative equimeasurable with |f|.

    Starting at angle 0 and proceeding counterclockwise, the magnitudes
    of f are laid out in decreasing order, each on an arc of the same
    aggregated length; any zero set fills the remainder of the circle.
    The cuts are running sums (np.cumsum adds in order) over windows twice
    as long as the last stretch laid; a length too small to move its cut
    moves it to the next float instead, and the sums resume from there.
    """
    mags, rads, _, zero = _grouped(f)
    if not mags.size:
        return constant(0.0)
    cuts, i, size = np.zeros(len(rads) + 1), 0, len(rads)    # cuts[:i + 1] are laid out
    while i < len(rads):
        run = np.cumsum(np.append(cuts[i], rads[i:i + size]))
        hit = np.flatnonzero(run[1:] <= run[:-1])
        m = int(hit[0]) + 1 if hit.size else len(run) - 1
        cuts[i + 1:i + m + 1] = run[1:m + 1]
        cuts[i + m] = np.nextafter(run[m - 1], np.inf) if hit.size else run[m]
        i, size = i + m, 2 * m
    if zero > 0.0 and cuts[-1] < tau:
        return _circular(cuts, np.append(mags, 0.0), np.append(rads, tau - cuts[-1]))
    return _circular(cuts[:-1], mags, rads)
