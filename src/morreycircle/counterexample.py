"""The equimeasurable pair (f, g) separating membership in the Morrey space.

g carries the blocks n^((1-lam+eps)/p) on the short, well-separated arcs
gamma_n near 1/sqrt(n), which keeps its ratio uniformly bounded.  f is
g's decreasing rearrangement turned to end at 1/16: the same blocks on
consecutive intervals near (1/(n+1), 1/n), so prefix arcs (0, t) see a
ratio growing like t^(-eps).  Rearrangement and rotation carry g's
segment lengths unchanged, so the two compare equimeasurable at
tolerance 0.  Both functions use blocks n = 16..N; analytic evaluators
with certified tail enclosures cover statements about the untruncated f.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import fsum, tau

import numpy as np

from .circle_step import Arc, decreasing_rearrangement, make_step
from .errors import (
    ArcOutsideDomain,
    EpsOutOfRange,
    IndexOutOfRange,
    LambdaOutOfRange,
    NTooSmall,
    OverlapDetected,
    TOutOfRange,
    TolOutOfRange,
    ToleranceUnreachable,
    YOutOfRange,
)
from .morrey import MorreyParams

N_MIN = 16


@dataclass(frozen=True)
class CounterexampleParams(MorreyParams):
    """(p, lam, eps) with 0 < lam < 1 and 0 < eps < min(lam/2, 1 - lam)."""

    eps: float

    def __post_init__(self):
        super().__post_init__()
        if not self.lam > 0.0:
            raise LambdaOutOfRange(f"lambda must lie in (0, 1), got {self.lam}")
        cap = min(self.lam / 2.0, 1.0 - self.lam)
        if not (0.0 < self.eps < cap):
            raise EpsOutOfRange(
                f"eps must lie in (0, {cap}) for lambda={self.lam}, got {self.eps}"
            )

    @property
    def alpha(self):
        """Block-height exponent (1 - lam + eps) / p."""
        return (1.0 - self.lam + self.eps) / self.p


def validate_params(p, lam, eps):
    return CounterexampleParams(float(p), float(lam), float(eps))


@dataclass(frozen=True)
class BoundedValue:
    """Certified interval enclosure [lo, hi] of an exact quantity."""

    lo: float
    hi: float

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"invalid enclosure [{self.lo}, {self.hi}]")

    @property
    def width(self):
        return self.hi - self.lo


def _gamma_endpoints(n):
    gr = 1.0 / math.sqrt(n)
    gl = gr - 1.0 / (n * (n + 1))
    return gl, gr


def gamma_arc(n):
    """The n-th block arc (1/sqrt(n) - 1/(n(n+1)), 1/sqrt(n)), n >= 16."""
    if n < N_MIN:
        raise NTooSmall(f"block arcs exist for n >= {N_MIN}, got {n}")
    gl, gr = _gamma_endpoints(n)
    return Arc(gl, gr - gl)


def build_g(params, N):
    """Step function with value n^alpha on gamma_n for n = 16..N, else 0.
    Heights use Python's float **, as numpy's array ** is only within 1 ulp."""
    if N < N_MIN:
        raise NTooSmall(f"N must be >= {N_MIN}, got {N}")
    alpha = params.alpha
    n = np.arange(N, N_MIN - 1, -1, dtype=np.float64)
    gr = 1.0 / np.sqrt(n)
    gl = gr - 1.0 / (n * (n + 1.0))
    bad = np.flatnonzero(gl <= np.append(0.0, gr[:-1]))
    if bad.size:
        m = N - bad[0]
        raise OverlapDetected(f"block arcs for n={m + 1} and n={m} overlap")
    vals = np.zeros(2 * len(n))
    vals[::2] = [float(k) ** alpha for k in range(N, N_MIN - 1, -1)]
    return make_step(np.column_stack((gl, gr)).ravel(), vals)


def build_f(params, N, g=None):
    """g's decreasing rearrangement, turned to end at 1/16.

    The blocks stand in decreasing order on consecutive intervals whose
    breakpoints lie within rounding of the ideal 1/(n+1), 1/n; the top
    one is exactly 1/16.  Rearrangement and rotation keep g's segment
    lengths, so f's lengths are g's.  A caller that already holds
    build_g(params, N) passes it as ``g``, and g is not built again.
    """
    g_star = decreasing_rearrangement(build_g(params, N) if g is None else g)
    return g_star.rotated(1.0 / 16.0 - g_star.breakpoints[-1])


def arc_index_bounds(arc):
    """Raw index bounds (n0, n1) for an arc inside (0, 1/4), over all n.

    n1 is the largest n with inf < 1/sqrt(n); n0 the smallest n whose
    block-arc left endpoint lies below sup.  The arc meets a block arc
    gamma_n (n >= 16) exactly when max(n0, 16) <= n1.
    """
    inf_t = arc.start
    sup_t = arc.start + arc.length
    if not (0.0 < inf_t and sup_t <= 0.25):
        raise ArcOutsideDomain(
            f"arc ({inf_t}, {sup_t}) not contained in (0, 1/4)"
        )

    n1 = max(1, int(1.0 / inf_t ** 2) - 2)
    while inf_t < 1.0 / math.sqrt(n1 + 1):
        n1 += 1
    while n1 > 1 and not inf_t < 1.0 / math.sqrt(n1):
        n1 -= 1

    # the left endpoint gl_n is decreasing for n >= 2; sup < 1/4 keeps n0
    # well past the non-monotone head, but scan defensively
    n0 = max(2, int(1.0 / sup_t ** 2) - 2)
    while not sup_t > _gamma_endpoints(n0)[0]:
        n0 += 1
    while n0 > 2 and sup_t > _gamma_endpoints(n0 - 1)[0]:
        n0 -= 1
    return n0, n1


def divergence_lower_bound(params, t):
    """The analytic lower bound C(lam, eps) * t^(-eps) on the prefix
    ratio of the untruncated f, valid for 0 < t < 1/16."""
    if not (0.0 < t < 1.0 / 16.0):
        raise TOutOfRange(f"t must lie in (0, 1/16), got {t}")
    lam, eps = params.lam, params.eps
    c = (4.0 * math.pi) ** (lam - 1.0) / (2.0 ** eps * (lam - eps))
    return c * t ** (-eps)


# unit roundoff of IEEE binary64
_U = 2.0 ** -53


def f_prefix_ratio(params, t, tail_tol):
    """Certified enclosure of the Morrey ratio of the untruncated f on
    the prefix arc (0, t), with hi - lo <= tail_tol * lo.

    The ratio is tau^(lam-1) t^(-lam) S, S = n_b^a (t - 1/(n_b+1)) +
    sum_{n>n_b} h(n) with n_b = floor(1/t), h(x) = x^(a-1)/(x+1),
    a = 1-lam+eps and beta = lam-eps.  The head n_b < n <= M is summed by
    fsum.  h is positive, decreasing and convex, so the trapezoid and
    midpoint rules put the tail between int_{M+1}^inf h + h(M+1)/2 and
    int_{M+1/2}^inf h, and x^(-1-beta) - x^(-2-beta) <= h(x) <= the same
    + x^(-3-beta) (x >= 1) makes both integrals elementary.  M grows from
    n_b, predicted from the M^(-2-beta) decay of the bracket width.

    Rounding (u = 2^-53, ``**`` within 1 ulp as test_pow_within_one_ulp
    checks against mpmath, l = ln(M+1) bounding the log of every base):
    exponents are within 4u, so with a rounded base each power is within
    (5+4l)u and each summand within (8+4l)u; the magnitudes total at most
    17/16 S (the negative term is below S/32), the partial block's
    cancellation adds 1.2uS and the two fsums 2u, so S is within
    (11.7+4.25l)u however long the head; tau^(lam-1) t^(-lam) adds 8u,
    the last product and the widening 3u.
    lo and hi are widened by (24+5l)u, which covers this and second-order
    terms.  A tail_tol that is not positive raises TolOutOfRange, and one
    below twice that relative width ToleranceUnreachable.
    """
    if not tail_tol > 0.0:
        raise TolOutOfRange(f"tail_tol must be a positive number, got {tail_tol}")
    if not (0.0 < t < 1.0 / 16.0 and 1.0 / t < math.inf):
        raise TOutOfRange(f"t must lie in (0, 1/16) with 1/t finite, got {t}")
    lam, eps = params.lam, params.eps
    a, beta = 1.0 - lam + eps, lam - eps

    def h(x):
        return x ** -beta / (x + 1.0)

    def envelope_integral(x, terms):
        # int_x^inf of sum_{j < terms} (-1)^j y^(-1-j-beta) dy
        return [(-1) ** j * x ** (-j - beta) / (j + beta) for j in range(terms)]

    n_b = math.floor(1.0 / t)
    partial = float(n_b) ** a * max(0.0, t - 1.0 / (n_b + 1))
    factor = tau ** (lam - 1.0) * t ** (-lam)
    m = n_b
    while True:
        head = fsum(h(float(n)) for n in range(n_b + 1, m + 1))
        s_lo = fsum([partial, head, h(m + 1.0) / 2.0,
                     *envelope_integral(m + 1.0, 2)])
        s_hi = fsum([partial, head, *envelope_integral(m + 0.5, 3)])
        k = 24.0 + 5.0 * math.log(m + 1.0)
        lo = s_lo * factor * (1.0 - k * _U)
        hi = s_hi * factor * (1.0 + k * _U)
        if hi - lo <= tail_tol * lo:
            return BoundedValue(lo, hi)
        rounding = k * _U * (s_lo + s_hi) * factor
        if not rounding <= tail_tol * lo / 2.0:
            raise ToleranceUnreachable(
                f"tail_tol={tail_tol} is below twice the rounding bound "
                f"{rounding / lo:.3g} of the enclosure"
            )
        shrink = (hi - lo - rounding) / (tail_tol * lo - rounding)
        m = max(m + 1, math.ceil(m * shrink ** (1.0 / (2.0 + beta))))


def phi(lam, y):
    """The ratio-control function (sqrt(y) - 1)^(-lam) (y^(lam/2) - 1)."""
    if not (y > 1.0):
        raise YOutOfRange(f"phi is defined for y > 1, got {y}")
    return (math.sqrt(y) - 1.0) ** (-lam) * (y ** (lam / 2.0) - 1.0)


def phi_sup(lam):
    """Supremum of phi over (1, inf): exactly 1, and never attained.

    With s = sqrt(y) > 1, phi = (s^lam - 1) / (s - 1)^lam, and
    d/ds log phi = lam s^(lam-1) / (s^lam - 1) - lam / (s - 1) has the
    sign of (s - 1) s^(lam-1) - (s^lam - 1) = 1 - s^(lam-1) > 0 for
    0 < lam < 1.  So phi rises strictly from 0 (s -> 1) toward its
    limit 1 (s -> inf).
    """
    if not (0.0 < lam < 1.0):
        raise LambdaOutOfRange(f"lambda must lie in (0, 1), got {lam}")
    return 1.0


def g_ratio_upper_bound(params):
    """Upper bound on the Morrey ratio of g over all arcs.

    The multi-block case is bounded by 2^(lam+3) * M_lam / (pi * lam)
    with M_lam = phi_sup(lam) = 1; single-block arcs are below 1, hence
    the max with 1.
    """
    lam = params.lam
    return max(1.0, 2.0 ** (lam + 3.0) / (math.pi * lam))


def measure_lower_bound_check(n0, n1):
    """Verify the arc-measure lower bound used in the boundedness proof:
    1/sqrt(n0) - 1/(n0(n0+1)) - 1/sqrt(n1) >= (1/sqrt(n0) - 1/sqrt(n1))/2."""
    if not (N_MIN <= n0 < n1):
        raise IndexOutOfRange(f"need 16 <= n0 < n1, got ({n0}, {n1})")
    gl0, gr0 = _gamma_endpoints(n0)
    gr1 = _gamma_endpoints(n1)[1]
    return gl0 - gr1 >= 0.5 * (gr0 - gr1)
