import math
from math import pi, tau

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from morreycircle import (
    Arc,
    MorreyParams,
    arc_index_bounds,
    build_f,
    build_g,
    divergence_lower_bound,
    equimeasurable,
    f_prefix_ratio,
    g_ratio_upper_bound,
    gamma_arc,
    integral_p,
    measure_lower_bound_check,
    morrey_norm_exact,
    morrey_ratio,
    phi,
    phi_sup,
    validate_params,
)
from morreycircle.errors import (
    ArcOutsideDomain,
    EpsOutOfRange,
    IndexOutOfRange,
    LambdaOutOfRange,
    NTooSmall,
    TOutOfRange,
    TolOutOfRange,
    ToleranceUnreachable,
    YOutOfRange,
)

PRM = validate_params(1.0, 0.5, 0.2)


# --- parameter validation ---

def test_validate_params_accepts_reference_values():
    prm = validate_params(1.0, 0.5, 0.2)
    assert prm.alpha == pytest.approx(0.7, rel=1e-15)
    assert isinstance(prm, MorreyParams)

def test_validate_params_eps_at_half_lambda_rejected():
    with pytest.raises(EpsOutOfRange):
        validate_params(2.0, 0.5, 0.25)

def test_validate_params_eps_above_one_minus_lambda_rejected():
    with pytest.raises(EpsOutOfRange):
        validate_params(1.0, 0.9, 0.2)

def test_validate_params_lambda_endpoints_rejected():
    for lam in (0.0, 1.0):
        with pytest.raises((LambdaOutOfRange, EpsOutOfRange)):
            validate_params(1.0, lam, 0.01)


# --- constructions ---

def test_build_f_first_block_value():
    f = build_f(PRM, 16)
    theta = 0.5 * (1.0 / 17 + 1.0 / 16)
    assert f.value_at(theta) == pytest.approx(2.0 ** 2.8, rel=1e-12)

def test_build_f_vanishes_off_support():
    f = build_f(PRM, 100)
    for theta in (-1.0, -1e-6, 1.0 / 16 + 1e-9, 1.0, pi):
        assert f.value_at(theta) == 0.0

def test_build_f_rejects_small_n():
    with pytest.raises(NTooSmall):
        build_f(PRM, 8)

def test_build_f_breakpoints_near_ideal():
    for n_top in (1000, 30000):
        # the rearranged breakpoints track 1/(n+1), 1/n to well below any
        # tolerance used, and the top one is 1/16 exactly
        bps = build_f(PRM, n_top).breakpoints
        ideal = [1.0 / (n_top + 1)] + [1.0 / n for n in range(n_top, 15, -1)]
        assert len(bps) == len(ideal)
        for got, want in zip(bps, ideal):
            assert got == pytest.approx(want, abs=1e-12)
        assert bps[-1] == 1.0 / 16.0

def test_build_g_first_block():
    g = build_g(PRM, 16)
    a = gamma_arc(16)
    assert a.start == pytest.approx(0.25 - 1.0 / 272, rel=1e-14)
    assert a.length == pytest.approx(1.0 / 272, rel=1e-10)
    assert g.value_at(0.25 - 1e-5) == pytest.approx(16.0 ** 0.7, rel=1e-12)

def test_build_g_vanishes_outside_t_plus():
    g = build_g(PRM, 200)
    for theta in (-2.0, -1e-9, 0.26, 1.0, pi):
        assert g.value_at(theta) == 0.0

def test_gamma_arc_measure():
    assert gamma_arc(16).measure == pytest.approx(1.0 / (272 * tau), rel=1e-12)
    with pytest.raises(NTooSmall):
        gamma_arc(15)

def test_gamma_arcs_pairwise_disjoint_up_to_1e4():
    prev_left = math.inf
    for n in range(16, 10 ** 4 + 1):
        a = gamma_arc(n)
        assert a.start + a.length < prev_left or n == 16
        prev_left = a.start
    # brute-force the defining inequality as well
    ns = np.arange(16, 10 ** 4 + 1)
    right_next = 1.0 / np.sqrt(ns + 1)
    left = 1.0 / np.sqrt(ns) - 1.0 / (ns * (ns + 1))
    assert np.all(right_next < left)

def test_f_g_equimeasurable_for_various_n():
    for n in (16, 33, 250, 5000, 30000):
        assert equimeasurable(build_f(PRM, n), build_g(PRM, n), 0.0)

def test_f_lengths_match_g_lengths_exactly():
    n_top = 10 ** 4
    f, g = build_f(PRM, n_top), build_g(PRM, n_top)
    f_lens = sorted(f.lengths[:-1])
    g_block_lens = sorted(l for l, v in zip(g.lengths, g.values) if v != 0.0)
    assert f_lens == g_block_lens


# --- index bounds ---

def test_arc_index_bounds_example():
    res = arc_index_bounds(Arc(0.15, 0.05))
    # direct evaluation of the defining inequalities
    assert 0.15 < 1.0 / math.sqrt(44) and not 0.15 < 1.0 / math.sqrt(45)
    h = lambda n: 1.0 / math.sqrt(n) - 1.0 / (n * (n + 1))
    assert 0.2 > h(25) and not 0.2 > h(24)
    assert res == (25, 44)

def test_arc_index_bounds_brute_force(rng):
    h = lambda n: 1.0 / math.sqrt(n) - 1.0 / (n * (n + 1))
    for _ in range(100):
        lo = rng.uniform(0.01, 0.2)
        hi = rng.uniform(lo + 1e-4, 0.25)
        res = arc_index_bounds(Arc(lo, hi - lo))
        n1_oracle = max(n for n in range(1, int(1 / lo ** 2) + 3) if lo < 1 / math.sqrt(n))
        n0_oracle = min(n for n in range(1, int(1 / hi ** 2) + 10) if hi > h(n))
        assert res == (n0_oracle, n1_oracle)

def test_arc_exactly_one_gamma_gives_equal_indices():
    for n in (16, 40, 123, 999):
        n0, n1 = arc_index_bounds(gamma_arc(n))
        assert (n0, n1) == (n, n)
        assert (max(n0, 16), n1) == (n, n)

def test_arc_in_gap_meets_no_gamma():
    g17, g16 = gamma_arc(17), gamma_arc(16)
    lo = g17.start + g17.length + 1e-6
    hi = g16.start - 1e-6
    n0, n1 = arc_index_bounds(Arc(lo, hi - lo))
    assert max(n0, 16) > n1

def test_index_order_when_gamma_met(rng):
    for _ in range(50):
        n = int(rng.integers(16, 2000))
        a = gamma_arc(n)
        lo = max(1e-4, a.start - rng.uniform(0, 0.01))
        hi = min(0.25, a.start + a.length + rng.uniform(0, 0.01))
        n0, n1 = arc_index_bounds(Arc(lo, hi - lo))
        assert n0 <= n1

def test_arc_outside_domain_rejected():
    with pytest.raises(ArcOutsideDomain):
        arc_index_bounds(Arc(-0.1, 0.2))
    with pytest.raises(ArcOutsideDomain):
        arc_index_bounds(Arc(0.2, 0.2))


# --- divergence of f ---

def test_divergence_bound_value():
    c = (4 * pi) ** (-0.5) / (2 ** 0.2 * 0.3)
    assert divergence_lower_bound(PRM, 1e-2) == pytest.approx(c * 10 ** 0.4, rel=1e-12)
    assert divergence_lower_bound(PRM, 1e-2) == pytest.approx(2.0562, rel=1e-4)

def test_divergence_bound_power_law():
    for t in (1e-3, 5e-3, 1e-5):
        ratio = divergence_lower_bound(PRM, t / 100) / divergence_lower_bound(PRM, t)
        assert ratio == pytest.approx(100 ** 0.2, rel=1e-12)

def test_divergence_bound_monotone_blowup():
    ts = [10 ** (-k) for k in range(2, 9)]
    vals = [divergence_lower_bound(PRM, t) for t in ts]
    assert all(a < b for a, b in zip(vals, vals[1:]))

def test_divergence_bound_domain():
    for t in (0.0, 1.0 / 16, 0.5):
        with pytest.raises(TOutOfRange):
            divergence_lower_bound(PRM, t)

def test_f_prefix_ratio_dominates_divergence_bound():
    for t in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        enc = f_prefix_ratio(PRM, t, 1e-6)
        assert enc.lo >= divergence_lower_bound(PRM, t)

def test_f_prefix_ratio_enclosure_well_formed():
    enc = f_prefix_ratio(PRM, 1e-3, 1e-8)
    assert enc.lo <= enc.hi
    assert enc.width <= 1e-8 * enc.lo

def test_f_prefix_ratio_width_shrinks_with_tolerance():
    widths = [f_prefix_ratio(PRM, 1e-3, tol).width for tol in (1e-4, 1e-6, 1e-8)]
    assert all(a >= b for a, b in zip(widths, widths[1:]))

def test_f_prefix_ratio_against_materialized_truncation():
    # the analytic exact-term machinery must agree with the materialized
    # step function; compare at matching truncation since the certified
    # enclosure additionally carries the infinite tail
    n_top = 10 ** 5
    t = 1.0 / 17
    f = build_f(PRM, n_top)
    materialized = morrey_ratio(f, Arc(0.0, t), MorreyParams(PRM.p, PRM.lam))
    n_b = math.floor(1.0 / t)
    partial = n_b ** 0.7 * max(0.0, t - 1.0 / (n_b + 1))
    s = partial + sum(n ** 0.7 / (n * (n + 1)) for n in range(n_b + 1, n_top + 1))
    analytic = s * tau ** (0.5 - 1.0) * t ** (-0.5)
    assert materialized == pytest.approx(analytic, rel=1e-9)
    # and the untruncated enclosure sits strictly above the truncation
    enc = f_prefix_ratio(PRM, t, 1e-8)
    assert enc.lo > materialized

def test_f_prefix_ratio_rejects_bad_inputs():
    # 1/t overflows for the last two
    for t in (0.2, 5e-324, 1e-310):
        with pytest.raises(TOutOfRange):
            f_prefix_ratio(PRM, t, 1e-8)
    with pytest.raises(ValueError):
        f_prefix_ratio(PRM, 1e-3, 0.0)

def test_f_prefix_ratio_unreachable_tolerance_raises():
    # rounding alone widens the enclosure by ~1e-14 relative
    with pytest.raises(ToleranceUnreachable):
        f_prefix_ratio(PRM, 1e-3, 1e-17)
    # a tolerance that is not positive is refused before the rounding test
    for tol in (0.0, -1e-8, float("nan")):
        with pytest.raises(TolOutOfRange, match="tail_tol must be a positive number"):
            f_prefix_ratio(PRM, 1e-3, tol)

def _prefix_ratio_oracle(lam, eps, t, dps=40):
    """The untruncated prefix ratio to ~dps digits: the partial block plus
    sum_{n > n_b} n^(a-1)/(n+1) = sum_k (-1)^k zeta(2-a+k, n_b+1)."""
    with mpmath.workdps(dps):
        lam, eps, t = mpmath.mpf(lam), mpmath.mpf(eps), mpmath.mpf(t)
        a = 1 - lam + eps
        n_b = int(mpmath.floor(1 / t))
        s = n_b ** a * (t - mpmath.mpf(1) / (n_b + 1))
        for k in range(200):
            term = (-1) ** k * mpmath.zeta(2 - a + k, n_b + 1)
            s += term
            if abs(term) < mpmath.mpf(10) ** (-dps) * s:
                break
        else:
            raise AssertionError("alternating zeta series did not converge")
        return s * (2 * mpmath.pi) ** (lam - 1) * t ** (-lam)

@pytest.mark.parametrize("lam,eps", [(0.5, 0.2), (0.3, 0.05), (0.9, 0.04)])
@pytest.mark.parametrize("t", [1e-2, 1e-4, 1e-6, 1e-8])
def test_f_prefix_ratio_contains_zeta_oracle(lam, eps, t):
    enc = f_prefix_ratio(validate_params(1.0, lam, eps), t, 1e-8)
    truth = _prefix_ratio_oracle(lam, eps, t)
    assert enc.lo <= truth <= enc.hi
    assert enc.width <= 1e-8 * enc.lo

def _worst_ulps(bases, e, powers):
    with mpmath.workdps(50):
        return max(float(abs(mpmath.mpf(got) - mpmath.mpf(x) ** mpmath.mpf(e))) / math.ulp(got)
                   for x, got in zip(bases, powers))

@pytest.mark.parametrize("lam,eps", [(0.5, 0.2), (0.3, 0.05), (0.9, 0.04)])
def test_pow_within_one_ulp(lam, eps):
    # f_prefix_ratio's rounding bound assumes the platform's ** is within
    # 1 ulp; sample the powers it evaluates against 50-digit mpmath values
    a, beta = 1.0 - lam + eps, lam - eps
    exponents = (-beta, -1 - beta, -2 - beta, a, lam - 1.0, -lam)
    bases = [tau, *(10.0 ** np.random.default_rng(7).uniform(-8.0, 9.0, 300)).tolist()]
    assert max(_worst_ulps(bases, e, [x ** e for x in bases]) for e in exponents) <= 1.0

@pytest.mark.parametrize("lam", [0.05, 0.3, 0.5, 0.7, 0.95])
def test_pow_within_one_ulp_for_numpy_arrays(lam):
    # the Morrey scans' tile bounds assume numpy's array ** (a SIMD loop on
    # some hosts, which need not agree with the scalar **) is within 1 ulp;
    # sample arc measures from 1e-17 to 1, raised as one array
    bases = 10.0 ** np.random.default_rng(8).uniform(-17.0, 0.0, 4000)
    assert _worst_ulps(bases.tolist(), lam, (bases ** lam).tolist()) <= 1.0


# --- phi and the boundedness of g ---

def test_phi_value_at_four():
    assert phi(0.5, 4.0) == pytest.approx(math.sqrt(2) - 1, rel=1e-12)

def test_phi_limits():
    assert phi(0.5, 1.0 + 1e-12) < 1e-5
    assert abs(phi(0.5, 1e30) - 1.0) < 1e-6

def test_phi_domain():
    for y in (1.0, 0.5, -2.0):
        with pytest.raises(YOutOfRange):
            phi(0.5, y)

@given(st.floats(0.01, 0.99), st.floats(-4.0, 12.0), st.floats(-4.0, 12.0))
def test_hyp_phi_nondecreasing(lam, s1, s2):
    y1, y2 = sorted((1.0 + 10.0 ** s1, 1.0 + 10.0 ** s2))
    if y1 < y2:
        assert phi(lam, y1) <= phi(lam, y2) * (1.0 + 1e-9)
    assert phi(lam, y2) <= phi_sup(lam) + 1e-12

def test_phi_sup_is_one_for_midrange_lambda():
    # oracle: dense log-grid sampling never exceeds 1, limit at infinity is 1
    for lam in (0.3, 0.5):
        u = np.logspace(-8, 14, 200_000)
        y = 1.0 + u
        samples = (np.sqrt(y) - 1) ** (-lam) * (y ** (lam / 2) - 1)
        assert np.max(samples) <= 1.0 + 1e-12
        assert phi_sup(lam) == pytest.approx(1.0, abs=1e-9)

def test_phi_sup_finite_on_lambda_grid():
    for lam in np.arange(0.1, 0.95, 0.1):
        m = phi_sup(float(lam))
        assert math.isfinite(m)
        assert m >= 1.0 - 1e-9

def test_g_ratio_upper_bound_value_and_floor():
    assert g_ratio_upper_bound(PRM) == pytest.approx(2 ** 3.5 / (0.5 * pi), rel=1e-9)
    assert g_ratio_upper_bound(PRM) == pytest.approx(7.2025, rel=1e-4)
    for lam in (0.1, 0.3, 0.7, 0.9):
        eps = 0.4 * min(lam / 2, 1 - lam)
        assert g_ratio_upper_bound(validate_params(1.0, lam, eps)) >= 1.0

def test_g_norm_below_upper_bound():
    bound = g_ratio_upper_bound(PRM)
    mp = MorreyParams(1.0, 0.5)
    sups = []
    for n in (100, 300, 1000):
        sups.append(morrey_norm_exact(build_g(PRM, n), mp).ratio_sup)
        assert sups[-1] <= bound
    assert all(a <= b * (1 + 1e-12) for a, b in zip(sups, sups[1:]))


# --- measure lower bound ---

def test_measure_lower_bound_examples():
    assert measure_lower_bound_check(16, 17)
    assert measure_lower_bound_check(16, 10 ** 6)

def test_measure_lower_bound_rejects_bad_indices():
    for pair in ((15, 20), (20, 20), (30, 16)):
        with pytest.raises(IndexOutOfRange):
            measure_lower_bound_check(*pair)

def test_measure_lower_bound_vectorized_scan():
    n0 = np.arange(16, 2001)[:, None].astype(float)
    n1 = np.arange(16, 2001)[None, :].astype(float)
    lhs = 1 / np.sqrt(n0) - 1 / (n0 * (n0 + 1)) - 1 / np.sqrt(n1)
    rhs = 0.5 * (1 / np.sqrt(n0) - 1 / np.sqrt(n1))
    mask = n0 < n1
    assert np.all(lhs[mask] >= rhs[mask])
