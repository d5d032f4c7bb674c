import math
from math import pi, tau

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from morreycircle import (
    Arc,
    StepFunction,
    constant,
    decreasing_rearrangement,
    equimeasurable,
    indicator,
    integral_p,
    make_step,
    validate_params,
    wrap_angle,
    build_f,
    build_g,
)
from morreycircle.errors import (
    AngleOutOfRange,
    LengthMismatch,
    NonFiniteNumber,
    POutOfRange,
    TolOutOfRange,
    UnsortedBreakpoints,
)

from morreycircle.circle_step import _grouped

import references
from conftest import random_step


PRM = validate_params(1.0, 0.5, 0.2)


# --- construction ---

def test_make_step_two_segment_indicator():
    f = make_step([-pi, 0.0], [0.0, 1.0])
    assert f.value_at(1.0) == 1.0
    assert f.value_at(pi) == 1.0
    assert f.value_at(-1.0) == 0.0
    assert all(type(f.value_at(t)) is float for t in (1.0, pi, -1.0, -pi))

def test_step_function_fields_are_frozen_float_arrays():
    bps = np.array([0.0, 1.0])
    f = StepFunction(bps, [1, 2])
    bps[0] = -1.0                       # a writeable input is copied
    for field in (f.breakpoints, f.values, f.lengths):
        assert field.dtype == np.float64 and field.ndim == 1
        assert not field.flags.writeable
        with pytest.raises(ValueError):
            field[0] = 5.0
    assert f.breakpoints.tolist() == [0.0, 1.0]
    assert f.lengths.tolist() == [1.0, tau - 1.0]
    # a read-only float64 array is kept as it is
    assert StepFunction(f.breakpoints, f.values, f.lengths).values is f.values
    assert f == make_step([0.0, 1.0], [1.0, 2.0])
    assert f != make_step([0.0, 1.0], [1.0, 3.0])
    assert f != make_step([0.0, 1.0], [1.0, 2.0], [1.0, tau - 1.0 + 1e-12])
    assert f != (f.breakpoints, f.values, f.lengths)

def test_make_step_constant_wraps():
    f = make_step([0.0], [3.5])
    for theta in (-3.0, 0.0, 1.0, pi):
        assert f.value_at(theta) == 3.5

def test_make_step_length_mismatch():
    with pytest.raises(LengthMismatch):
        make_step([0.0, 1.0, 2.0], [1.0, 2.0])

def test_make_step_unsorted():
    with pytest.raises(UnsortedBreakpoints):
        make_step([1.0, 0.0], [1.0, 2.0])
    with pytest.raises(UnsortedBreakpoints, match=r"increasing: 2\.0 >= 1\.5$"):
        make_step([0.0, 2.0, 1.5, 1.0, 1.0], [1.0] * 5)

def test_make_step_angle_out_of_range():
    with pytest.raises(AngleOutOfRange):
        make_step([0.0, 4.0], [1.0, 2.0])
    with pytest.raises(AngleOutOfRange, match=r"^breakpoint -3\.5 not"):
        make_step([-3.5, 0.0, 4.0], [1.0, 2.0, 3.0])

def test_make_step_empty():
    with pytest.raises(LengthMismatch):
        make_step([], [])

def test_make_step_inconsistent_lengths():
    make_step([0.0, 1.0], [1.0, 2.0], [1.0, tau - 1.0 + 1e-12])
    for lengths in ([1.0, tau - 1.0 + 1e-6], [1.0 + 1e-6, tau - 1.0], [1.0],
                    [1.0, tau - 1.0, 0.5], [1.0, float("nan")]):
        with pytest.raises(LengthMismatch):
            make_step([0.0, 1.0], [1.0, 2.0], lengths)
    with pytest.raises(LengthMismatch, match=r"^segment length 1\.5 inconsistent"):
        make_step([0.0, 1.0, 2.0], [1.0, 2.0, 3.0], [1.0, 1.5, 0.0])

def test_make_step_rejects_non_numbers():
    nan, inf = float("nan"), float("inf")
    for bps, vals in (([0.0, 1.0], ["abc", 2.0]), ([[0.0], 1.0], [1.0, 2.0]),
                      ([0.0, 1.0], [nan, 2.0]), ([0.0, 1.0], [inf, 2.0]),
                      ([0.0, nan], [1.0, 2.0]), ([-inf, 0.0], [1.0, 2.0]),
                      ([[0.0], [1.0]], [1.0, 2.0]), ([0.0, 1.0], [None, 2.0]),
                      ([0.0, 1.0], [1j, 2.0]), (0.0, 1.0)):
        with pytest.raises(NonFiniteNumber):
            make_step(bps, vals)
    for lengths in (["x", 2.0], [None, tau - 1.0], [[1.0], [tau - 1.0]]):
        with pytest.raises(NonFiniteNumber):
            make_step([0.0, 1.0], [1.0, 2.0], lengths)


# --- integral ---

def test_integral_indicator_half_circle():
    arc = Arc(0.0, pi)
    f = indicator(arc)
    assert integral_p(f, arc, 2.0) == pytest.approx(0.5, rel=1e-14)

def test_integral_constant_full_circle():
    assert integral_p(constant(3.0), Arc(0.0, tau), 1.0) == pytest.approx(3.0, rel=1e-14)

def test_integral_rejects_p_outside_one_to_infinity():
    f = make_step([0.0, 1.0], [1.0, 2.0])
    for p in (0.5, math.nan, math.inf):
        with pytest.raises(POutOfRange):
            integral_p(f, Arc(0.0, 1.0), p)

def test_integral_counterexample_f_truncated_against_direct_sum():
    f = build_f(PRM, 100)
    oracle = sum(n ** 0.7 / (n * (n + 1)) for n in range(16, 101)) / tau
    assert integral_p(f, Arc(0.0, tau), 1.0) == pytest.approx(oracle, rel=1e-12)

def test_integral_additivity_random(rng):
    for _ in range(50):
        f = random_step(rng)
        start = rng.uniform(-pi, pi)
        length = rng.uniform(1e-6, tau)
        cut = rng.uniform(1e-9, length - 1e-9)
        p = float(rng.choice([1.0, 2.0, 3.0]))
        whole = integral_p(f, Arc(start, length), p)
        from morreycircle import wrap_angle
        part1 = integral_p(f, Arc(start, cut), p)
        part2 = integral_p(f, Arc(wrap_angle(start + cut), length - cut), p)
        assert part1 + part2 == pytest.approx(whole, rel=1e-12, abs=1e-15)


def _integral_by_segments(f, arc, p):
    """Oracle: a loop over the segments, placing the arc as integral_p does
    and adding |value|^p times the overlap of each segment and of its 2*pi
    translate with the arc."""
    bps, k = f.breakpoints, f.num_segments
    a = bps[0] + ((arc.start - bps[0]) % tau)
    hi = a + arc.length
    total = 0.0
    for i, v in enumerate(f.values):
        s, e = bps[i], (bps[i + 1] if i + 1 < k else bps[0] + tau)
        ov = (max(0.0, min(e, hi) - max(s, a))
              + max(0.0, min(e + tau, hi) - max(s + tau, a)))
        total += abs(v) ** p * ov
    return total / tau

@pytest.mark.parametrize("p", [1.0, 2.5])
def test_integral_matches_segment_loop_on_rotated_g(rng, p):
    # g's support (0.0099, 0.25), turned by 2.9, runs through the cut at pi
    g = build_g(PRM, 10_000).rotated(2.9)
    assert g.breakpoints[0] < -3.0 and g.breakpoints[-1] > 3.0
    arcs = [Arc(0.0, tau), Arc(g.breakpoints[0], tau), Arc(3.0, 0.5), Arc(pi, 0.2),
            Arc(-pi + 1e-3, tau - 2e-3), Arc(g.breakpoints[-1], 1.0)]
    # per sampled block: an arc inside it, and an arc from its start onward
    blocks = [i for i, v in enumerate(g.values) if v > 0.0]
    for i in rng.choice(blocks, size=8, replace=False):
        start, length = g.breakpoints[i], g.lengths[i]
        arcs.append(Arc(start + 0.25 * length, 0.5 * length))
        arcs.append(Arc(start, float(rng.uniform(length, 0.3))))
    for start, length in zip(rng.uniform(2.8, 3.3, size=10),
                             np.exp(rng.uniform(math.log(1e-9), 0.0, size=10))):
        arcs.append(Arc(wrap_angle(float(start)), float(length)))
    for arc in arcs:
        want = _integral_by_segments(g, arc, p)
        assert integral_p(g, arc, p) == pytest.approx(want, rel=1e-12, abs=0.0)


def _arcs_meeting_few_and_all_segments(rng, f):
    """Arcs from everywhere and from breakpoints, through the cut, around the
    whole circle, of 1e-300 rad, and from just below the first breakpoint."""
    bps = f.breakpoints.tolist()
    starts = ([-pi, pi, float(np.nextafter(bps[0], -np.inf))] + bps[:6]
              + rng.choice(bps, size=6).tolist() + rng.uniform(-pi, pi, size=6).tolist()
              + rng.uniform(2.5, pi, size=6).tolist())
    arcs = []
    for start in starts:
        start = min(max(start, -pi), pi)
        lengths = np.exp(rng.uniform(math.log(1e-12), math.log(tau), size=3))
        arcs += [Arc(start, length) for length in [tau, 1e-300, *lengths.tolist()]]
    # arcs from one breakpoint to another, the long way round too
    for i, j in rng.integers(len(bps), size=(6, 2)):
        arcs.append(Arc.from_endpoints(bps[i], bps[j]))
    return arcs

@pytest.mark.parametrize("p", [1.0, 2.0, 3.7])
def test_integral_equals_sum_over_every_segment(rng, p):
    # integral_p reads only the segments an arc can meet; the same terms
    # summed by fsum give the same bits as overlapping every segment
    cases = [build_g(PRM, 3000).rotated(2.9), build_f(PRM, 3000), constant(-2.0),
             make_step([-pi, -1.0, 0.5, 2.0], [1.5, 0.0, -2.0, 4.0]),
             make_step([-pi, pi - 1e-9], [3.0, -1.0]),
             make_step([pi], [2.0])]
    cases += [random_step(rng, max_segments=40) for _ in range(30)]
    for f in cases:
        for arc in _arcs_meeting_few_and_all_segments(rng, f):
            assert integral_p(f, arc, p) == references.integral_p(f, arc, p)


# --- distribution ---

def test_distribution_zero_function():
    assert decreasing_rearrangement(constant(0.0)) == constant(0.0)

def test_distribution_quarter_indicator():
    r = decreasing_rearrangement(indicator(Arc(0.0, tau / 4.0)))
    assert r.values.tolist() == [1.0, 0.0]
    mass, zero = (r.lengths / tau).tolist()
    assert mass == pytest.approx(0.25, abs=1e-15)
    assert zero == pytest.approx(0.75, abs=1e-15)

def test_distribution_support_measure_approaches_limit():
    # telescoping: support measure at cutoff N is (1/16 - 1/(N+1)) / (2 pi)
    f = build_f(PRM, 10 ** 5)
    support = math.fsum(f.lengths[f.values != 0.0].tolist()) / tau
    assert support == pytest.approx((1.0 / 16 - 1.0 / (10 ** 5 + 1)) / tau, rel=1e-9)
    assert abs(support - 1.0 / (32 * pi)) < 2e-6

def test_distribution_matches_dict_reference(rng):
    # the pair at N=1000, two constants, two functions with no zero set whose
    # measures fsum to 1 and to 1 - 1.1e-16, a function whose zero measure
    # sum() would round differently from fsum(), and random functions
    cases = [build_f(PRM, 1000), build_g(PRM, 1000), constant(0.0), constant(-2.0),
             make_step([-3.0, -2.7, -1.1], [1.0, 3.0, 2.0]),
             make_step([-3.1, -3.0, 1.6], [2.0, 3.0, 1.0]),
             make_step([-2.4, -2.0, -1.7, -0.7, 1.5], [0.0, 3.0, 2.0, 1.0, 3.0])]
    for c in range(400):
        f = random_step(rng, max_segments=60)
        if c % 2:
            # few magnitudes, both signs: most groups hold several segments
            vals = rng.choice([-3.0, -1.5, -0.0, 0.0, 1.5, 2.0, 3.0, 7.25], len(f.values))
            f = make_step(f.breakpoints, vals.tolist())
        cases.append(f)
    for f in cases:
        mags, radians, meas, zero = _grouped(f)
        want_mags, want_radians, want_zero = references.grouped(f)
        assert mags.tolist() == want_mags
        assert radians.tolist() == want_radians
        assert meas.tolist() == [r / tau for r in want_radians]
        assert type(zero) is float and zero == want_zero
        assert _same_bits(decreasing_rearrangement(f),
                          references.decreasing_rearrangement(f))

def test_rearrangement_without_zero_set_lays_no_zero_segment(rng):
    # its measures fsum to 1 - 1.1e-16 and its cuts end below tau
    f = make_step([-3.1, -3.0, 1.6], [2.0, 3.0, 1.0])
    assert _grouped(f)[3] == 0.0
    assert decreasing_rearrangement(f).values.tolist() == [2.0, 1.0, 3.0]
    for _ in range(300):
        f = random_step(rng, max_segments=30)
        vals = rng.choice([-3.0, -1.5, 1.5, 2.0, 3.0, 7.25], len(f.values))
        f = make_step(f.breakpoints, vals.tolist())
        assert _grouped(f)[3] == 0.0
        assert 0.0 not in decreasing_rearrangement(f).values

def test_distribution_rotation_invariant_exactly(rng):
    for _ in range(25):
        f = random_step(rng)
        assert equimeasurable(f, f.rotated(rng.uniform(-10, 10)), 0.0)


# --- equimeasurability ---

def test_equimeasurable_reflexive(rng):
    f = random_step(rng)
    assert equimeasurable(f, f, 0.0)

def test_equimeasurable_scaling_breaks():
    f = indicator(Arc(0.0, 1.0))
    g = make_step(f.breakpoints, [2.0 * v for v in f.values])
    assert not equimeasurable(f, g, 0.0)

def test_equimeasurable_symmetric(rng):
    for _ in range(20):
        f, g = random_step(rng), random_step(rng)
        tol = float(rng.choice([0.0, 1e-12, 1e-3]))
        assert equimeasurable(f, g, tol) == equimeasurable(g, f, tol)

def test_equimeasurable_rejects_bad_tolerance():
    f = constant(1.0)
    for tol in (-1.0, float("nan")):
        with pytest.raises(TolOutOfRange):
            equimeasurable(f, f, tol)

def test_counterexample_pair_equimeasurable_at_zero_tolerance():
    for n in (16, 17, 100, 1000):
        assert equimeasurable(build_f(PRM, n), build_g(PRM, n), 0.0)


# --- decreasing rearrangement ---

def test_rearrangement_of_constant():
    r = decreasing_rearrangement(constant(-2.5))
    assert r.values.tolist() == [2.5]
    assert r.breakpoints.tolist() == [0.0]
    assert r.lengths.tolist() == [tau]

def test_rearrangement_of_indicator_starts_at_zero():
    s = 0.3
    r = decreasing_rearrangement(indicator(Arc(1.2, s * tau)))
    assert r.breakpoints[0] == 0.0
    assert r.values[0] == 1.0
    assert r.lengths[0] / tau == pytest.approx(s, rel=1e-12)

def test_rearrangement_counterexample_g_sorted_blocks():
    n_top = 20
    r = decreasing_rearrangement(build_g(PRM, n_top))
    # sort-by-magnitude oracle
    expected = sorted((float(n) ** 0.7 for n in range(16, n_top + 1)), reverse=True)
    assert list(r.values[: len(expected)]) == pytest.approx(expected, rel=0)
    for n, length in zip(range(n_top, 15, -1), r.lengths):
        assert length == pytest.approx(1.0 / (n * (n + 1)), rel=1e-10)

def test_rearrangement_equimeasurable_exactly(rng):
    for _ in range(50):
        f = random_step(rng)
        assert equimeasurable(f, decreasing_rearrangement(f), 0.0)

def test_rearrangement_values_nonincreasing(rng):
    for _ in range(10):
        f = random_step(rng)
        r = decreasing_rearrangement(f)
        k = r.breakpoints.tolist().index(0.0)   # magnitudes descend from angle 0
        circ = r.values[k:].tolist() + r.values[:k].tolist()
        mags = [v for v in circ if v > 0]
        assert mags == sorted(mags, reverse=True)


def test_rearrangement_steps_past_colliding_cuts():
    # each subnormal segment follows a cut near 3.0, where adding it changes
    # nothing; the cut moves one float up and the later cuts add on from it
    tiny = 5e-324
    for bps, vals in (([-3.0, 0.0, tiny], [2.0, 1.0, 0.0]),
                      ([-3.0, 0.0, tiny, 2 * tiny], [3.0, 2.0, 1.0, 0.0]),
                      ([-3.0, 0.0, tiny, 0.5], [4.0, 3.0, 2.0, 1.0])):
        f = make_step(bps, vals)
        r = decreasing_rearrangement(f)
        assert r == references.decreasing_rearrangement(f)
        assert {3.0, math.nextafter(3.0, math.inf)} <= set(r.breakpoints.tolist())
        assert np.all(np.diff(r.breakpoints) > 0.0)
        assert equimeasurable(f, r, 0.0)


# --- bit identity with the scalar references ---

def _same_bits(f, g):
    return all(getattr(f, field).tobytes() == getattr(g, field).tobytes()
               for field in ("breakpoints", "values", "lengths"))

@pytest.mark.parametrize("n", [16, 17, 100, 10_000, 30_000, 100_000])
def test_counterexample_pair_matches_references(n):
    assert _same_bits(build_g(PRM, n), references.build_g(PRM, n))
    assert _same_bits(build_f(PRM, n), references.build_f(PRM, n))

def test_rotation_and_rearrangement_match_references(rng):
    angles = [pi, -pi, tau, -tau, 1e6, -1e6, 0.0]
    cases = []
    for c in range(1000):
        f = random_step(rng, max_segments=20)
        if c % 3 == 0:
            # repeated magnitudes of both signs, so that lengths are fsummed
            vals = rng.choice([-2.0, -0.5, 0.0, 0.5, 2.0], len(f.values))
            f = make_step(f.breakpoints, vals)
        cases.append((f, [*angles, float(rng.uniform(-10.0, 10.0))]))
    for f, phis in cases:
        for phi in phis:
            try:
                want = references.rotated(f, phi)
            except UnsortedBreakpoints:
                with pytest.raises(UnsortedBreakpoints):
                    f.rotated(phi)
                continue
            got = f.rotated(phi)
            assert _same_bits(got, want)
            assert _same_bits(decreasing_rearrangement(got),
                              references.decreasing_rearrangement(want))

@pytest.mark.parametrize("x", [
    pi, -pi, tau, -tau, 3 * pi, -3 * pi, 0.0, -0.0, 1e300, -1e300, 5e-324,
    math.nextafter(pi, 0.0), math.nextafter(pi, 4.0),
    math.nextafter(-pi, 0.0), math.nextafter(-pi, -4.0)])
def test_rotation_wraps_as_wrap_angle(x):
    # -0.0 + x is x, zeros included, so the rotated breakpoint is the wrap of x
    got = make_step([-0.0], [1.0]).rotated(x).breakpoints
    assert got.tobytes() == np.float64(wrap_angle(x)).tobytes()


# --- rotate ---

def test_rotate_round_trip(rng):
    f = random_step(rng)
    g = f.rotated(1.234).rotated(-1.234)
    for b1, b2 in zip(f.breakpoints, g.breakpoints):
        assert b1 == pytest.approx(b2, abs=1e-12)

def test_rotate_collapsing_breakpoints_raises():
    # 1.0 + 1e-17 rounds to 1.0
    with pytest.raises(UnsortedBreakpoints):
        make_step([0.0, 1e-17], [1.0, 2.0]).rotated(1.0)


# --- hypothesis properties ---

angles = st.floats(min_value=-math.pi + 1e-9, max_value=math.pi - 1e-9)
values = st.floats(min_value=-100.0, max_value=100.0)


@st.composite
def step_functions(draw):
    bps = draw(
        st.lists(angles, min_size=1, max_size=8, unique=True).map(sorted)
    )
    if len(bps) > 1 and min(b - a for a, b in zip(bps, bps[1:])) < 1e-9:
        bps = [bps[0]]
    vals = draw(st.lists(values, min_size=len(bps), max_size=len(bps)))
    return make_step(bps, vals)


@given(step_functions())
@settings(max_examples=60, deadline=None)
def test_hyp_rearrangement_equimeasurable(f):
    assert equimeasurable(f, decreasing_rearrangement(f), 0.0)


@given(step_functions(), st.floats(min_value=-pi, max_value=pi),
       st.one_of(st.floats(min_value=5e-324, max_value=tau), st.sampled_from([1e-300, tau])),
       st.sampled_from([1.0, 2.0, 3.7]))
@settings(max_examples=200, deadline=None)
def test_hyp_integral_equals_sum_over_every_segment(f, start, length, p):
    arc = Arc(start, length)
    assert integral_p(f, arc, p) == references.integral_p(f, arc, p)


@given(step_functions(), st.floats(min_value=1e-6, max_value=tau),
       st.floats(min_value=1e-3, max_value=1.0 - 1e-3))
@settings(max_examples=60, deadline=None)
def test_hyp_integral_additivity(f, length, frac):
    from morreycircle import wrap_angle
    cut = length * frac
    whole = integral_p(f, Arc(0.5, length), 2.0)
    a = integral_p(f, Arc(0.5, cut), 2.0)
    b = integral_p(f, Arc(wrap_angle(0.5 + cut), length - cut), 2.0)
    assert a + b == pytest.approx(whole, rel=1e-11, abs=1e-12)
