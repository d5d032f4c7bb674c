import math
import tracemalloc
import warnings
from math import pi, tau

import numpy as np
import pytest

from morreycircle import (
    Arc,
    MorreyParams,
    constant,
    indicator,
    integral_p,
    make_step,
    morrey_norm_exact,
    morrey_norm_grid,
    morrey_ratio,
    validate_params,
    build_f,
    build_g,
    grid_search,
)
from morreycircle.errors import (
    LambdaOutOfRange,
    NonFiniteNumber,
    POutOfRange,
    RefinementOutOfRange,
    ZeroMeasureArc,
)
from morreycircle import morrey
from morreycircle.morrey import LEAF, MAX_REFINEMENT

from conftest import random_step
from references import exact_scan, grid_scan


def test_params_validation():
    MorreyParams(1.0, 0.0)
    MorreyParams(2.5, 0.99)
    with pytest.raises(POutOfRange):
        MorreyParams(0.5, 0.5)
    with pytest.raises(LambdaOutOfRange):
        MorreyParams(1.0, 1.0)
    with pytest.raises(LambdaOutOfRange):
        MorreyParams(1.0, -0.1)


# --- ratio on a single arc ---

def test_ratio_constant_quarter_arc():
    mp = MorreyParams(3.0, 0.5)
    r = morrey_ratio(constant(1.0), Arc(0.0, tau / 4), mp)
    assert r == pytest.approx(0.25 ** 0.5, rel=1e-14)

def test_ratio_lambda_zero_is_plain_integral():
    f = make_step([-1.0, 0.5], [2.0, -3.0])
    mp = MorreyParams(2.0, 0.0)
    full = Arc(0.0, tau)
    assert morrey_ratio(f, full, mp) == pytest.approx(integral_p(f, full, 2.0), rel=1e-14)

def test_ratio_indicator_on_itself():
    a = Arc(0.0, tau / 4)
    r = morrey_ratio(indicator(a), a, MorreyParams(1.0, 0.5))
    assert r == pytest.approx(0.5, rel=1e-14)

def test_ratio_overflowing_power_raises_without_warning():
    # 1e200 is finite, but its 2.5-th power is not; the second arc misses it
    f = make_step([0.0, 1.0], [1e200, 2.0])
    mp = MorreyParams(2.5, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteNumber):
            morrey_ratio(f, Arc(0.0, 0.5), mp)
        r = morrey_ratio(f, Arc(1.5, 0.5), mp)
    assert r == pytest.approx(2.0 ** 2.5 * (0.5 / tau) ** 0.5, rel=1e-14)


def test_overflowing_sum_raises_without_warning():
    # each |v|^p * length is finite, but their sum is not
    f = make_step([0.0, 1.0, 2.0], [1e154, 1e154, 0.0])
    mp = MorreyParams(2.0, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteNumber):
            morrey_ratio(f, Arc(0.0, 2.0), mp)
        with pytest.raises(NonFiniteNumber, match="integral"):
            morrey_norm_exact(f, mp)


# --- exact norm ---

def test_norm_constant_attains_full_circle():
    res = morrey_norm_exact(constant(-4.0), MorreyParams(2.0, 0.5))
    assert res.value == pytest.approx(4.0, rel=1e-12)
    assert res.argmax.length == tau

def test_norm_indicator_attains_its_arc():
    a = Arc(0.1, tau / 4)
    res = morrey_norm_exact(indicator(a), MorreyParams(1.0, 0.5))
    assert res.value == pytest.approx(0.5, rel=1e-12)
    assert res.argmax.start == pytest.approx(a.start, abs=1e-12)
    assert res.argmax.length == pytest.approx(a.length, rel=1e-12)

def test_norm_zero_function():
    res = morrey_norm_exact(constant(0.0), MorreyParams(1.0, 0.5))
    assert res.value == 0.0 and res.ratio_sup == 0.0

def test_norm_result_consistency(rng):
    for _ in range(30):
        f = random_step(rng)
        mp = MorreyParams(float(rng.choice([1.0, 2.0])), float(rng.uniform(0.05, 0.95)))
        res = morrey_norm_exact(f, mp)
        assert res.value == pytest.approx(res.ratio_sup ** (1.0 / mp.p), rel=1e-12)
        if res.ratio_sup > 0:
            r = morrey_ratio(f, res.argmax, mp)
            assert r == pytest.approx(res.ratio_sup, rel=1e-10)

@pytest.mark.parametrize("phi", [0.0, 2.9, -1.3, 0.7])
def test_exact_argmax_ratio_matches_sup_on_rotated_g(phi):
    # rotation keeps the stored lengths but rounds the breakpoints; the scan
    # measures breakpoint gaps, as morrey_ratio does, so the two agree
    mp = MorreyParams(1.0, 0.5)
    g = build_g(validate_params(1.0, 0.5, 0.2), 10 ** 4).rotated(phi)
    res = morrey_norm_exact(g, mp)
    assert morrey_ratio(g, res.argmax, mp) == pytest.approx(res.ratio_sup, rel=1e-13)

def test_norm_homogeneity(rng):
    for _ in range(25):
        f = random_step(rng)
        c = float(rng.uniform(-5.0, 5.0))
        if c == 0:
            continue
        g = make_step(f.breakpoints, [c * v for v in f.values])
        mp = MorreyParams(2.0, 0.5)
        n_f = morrey_norm_exact(f, mp).value
        n_g = morrey_norm_exact(g, mp).value
        assert n_g == pytest.approx(abs(c) * n_f, rel=1e-10)

def test_norm_rotation_invariance(rng):
    for _ in range(25):
        f = random_step(rng)
        mp = MorreyParams(1.0, 0.3)
        n1 = morrey_norm_exact(f, mp).value
        n2 = morrey_norm_exact(f.rotated(rng.uniform(-6, 6)), mp).value
        assert n2 == pytest.approx(n1, rel=1e-10)

def test_norm_monotone_under_pointwise_domination(rng):
    for _ in range(25):
        f = random_step(rng, value_lo=0.0, value_hi=5.0)
        bigger = make_step(
            f.breakpoints, [v + abs(rng.uniform(0, 2.0)) for v in f.values]
        )
        mp = MorreyParams(1.0, 0.6)
        assert (morrey_norm_exact(f, mp).value
                <= morrey_norm_exact(bigger, mp).value * (1 + 1e-10))

def test_norm_lambda_zero_degenerates_to_lp(rng):
    for _ in range(25):
        f = random_step(rng)
        p = float(rng.choice([1.0, 2.0, 3.0]))
        res = morrey_norm_exact(f, MorreyParams(p, 0.0))
        expect = integral_p(f, Arc(0.0, tau), p) ** (1.0 / p)
        assert res.value == pytest.approx(expect, rel=1e-12)

def test_ratio_dominated_by_sup(rng):
    for _ in range(20):
        f = random_step(rng)
        mp = MorreyParams(1.0, 0.5)
        sup = morrey_norm_exact(f, mp).ratio_sup
        for _ in range(20):
            arc = Arc(rng.uniform(-pi, pi), rng.uniform(1e-6, tau))
            assert morrey_ratio(f, arc, mp) <= sup * (1 + 1e-12) + 1e-15


# --- grid oracle ---

def test_grid_constant():
    assert morrey_norm_grid(constant(1.0), MorreyParams(1.0, 0.5), 16) == pytest.approx(1.0)

def test_grid_indicator_exact_when_breakpoints_included():
    f = indicator(Arc(0.0, tau / 4))
    assert morrey_norm_grid(f, MorreyParams(1.0, 0.5), 8) == 0.5

def test_grid_refinement_rejected():
    with pytest.raises(ValueError):
        morrey_norm_grid(constant(1.0), MorreyParams(1.0, 0.5), 1)
    for refinement in (0, 1, MAX_REFINEMENT + 1):
        with pytest.raises(RefinementOutOfRange):
            grid_search(constant(1.0), MorreyParams(1.0, 0.5), refinement)

def test_grid_search_result_consistency(rng):
    for _ in range(5):
        f = random_step(rng, value_lo=0.0)
        mp = MorreyParams(1.0, 0.5)
        res = grid_search(f, mp, 256)
        assert res.value == morrey_norm_grid(f, mp, 256)
        assert res.value == res.ratio_sup
        assert morrey_ratio(f, res.argmax, mp) == pytest.approx(res.ratio_sup, rel=1e-9)

def test_grid_finds_arc_through_cut_carrying_all_mass():
    # f vanishes only on [0, 1), so the best arc runs from 1 through the cut
    # to 0; the prefix sums at its two ends are equal
    f = make_step([-1.0, 0.0, 1.0], [1.0, 0.0, 1.0])
    mp = MorreyParams(1.0, 0.5)
    want = ((tau - 1.0) / tau) ** 0.5
    assert morrey_norm_exact(f, mp).value == pytest.approx(want, rel=1e-15)
    # at refinement 2 no grid point falls in [0, 1), so the arc ends on the
    # point just before its start
    for refinement in (2, 4096):
        res = grid_search(f, mp, refinement)
        assert res.value == pytest.approx(want, rel=1e-12)
        assert res.argmax.start == 1.0

def test_tied_blocks_go_to_the_smallest_start():
    # the blocks [-2, -1) and [1, 2), and the arc [-2, 2) over both, tie bit
    # for bit: in the exact scan, and in the grid at refinements 2 to 4
    f = make_step([-2.0, -1.0, 1.0, 2.0], [1.0, 0.0, 1.0, 0.0])
    mp = MorreyParams(1.0, 0.5)
    res = morrey_norm_exact(f, mp)
    assert (res.ratio_sup == morrey_ratio(f, Arc(1.0, 1.0), mp)
            == morrey_ratio(f, Arc(-2.0, 4.0), mp))
    assert res.argmax == Arc(-2.0, 1.0)
    for refinement in (2, 3, 4):
        assert grid_search(f, mp, refinement).argmax == Arc(-2.0, 1.0)

def test_grid_tie_goes_to_the_smaller_start_before_the_smaller_end():
    # f has period pi, so the arc [-pi/2, pi), points 0 to 3, and its half
    # turn [pi/2, 2 pi), points 2 round to 1, tie bit for bit; the two pairs
    # order one way by start and the other by end
    f = make_step(-pi + tau * np.arange(4) / 4, [0.0, 2.0, 0.0, 2.0])
    mp = MorreyParams(1.0, 0.5)
    res = grid_search(f, mp, 4)
    assert res.ratio_sup == morrey_ratio(f, Arc(pi / 2, 1.5 * pi), mp)
    assert res == grid_scan(f, mp, 4)
    assert res.argmax == Arc(-pi / 2, 1.5 * pi)

def test_exact_tie_goes_to_the_shorter_arc_before_the_smaller_start():
    # [-2, -1) at value 1 and [1, 1.25) at value 2 tie bit for bit
    f = make_step([-2.0, -1.0, 1.0, 1.25], [1.0, 0.0, 2.0, 0.0])
    mp = MorreyParams(1.0, 0.5)
    res = morrey_norm_exact(f, mp)
    assert (res.ratio_sup == morrey_ratio(f, Arc(-2.0, 1.0), mp)
            == morrey_ratio(f, Arc(1.0, 0.25), mp))
    assert res.argmax == Arc(1.0, 0.25)

def test_whole_circle_is_reported_from_the_first_breakpoint():
    # with no zero segment every circular run of all segments is the whole
    # circle; only the seed stands for it, and -pi wraps to pi
    f = make_step([-pi, 0.0], [1.0, 1.0])
    for lam in (0.0, 0.1):
        res = morrey_norm_exact(f, MorreyParams(1.0, lam))
        assert res.ratio_sup == 1.0
        assert res.argmax == Arc(pi, tau)
        # the grid sums 64 cells into its total, which may round below 1.0
        assert grid_search(f, MorreyParams(1.0, lam), 64).argmax == Arc(pi, tau)

def test_grid_reads_a_one_ulp_segment():
    # the spike's cell is one ulp wide, and its midpoint would round onto the
    # next breakpoint; at 3.0 instead of an odd mantissa it would round back
    x = np.nextafter(3.0, 4.0)
    f = make_step([0.0, x, np.nextafter(x, 4.0)], [0.0, 1e8, 0.0])
    mp = MorreyParams(1.0, 0.5)
    want = morrey_ratio(f, morrey_norm_exact(f, mp).argmax, mp)
    assert want == 0.8407079928334896
    res = grid_search(f, mp, 4096)
    assert res.ratio_sup == want
    assert res == grid_scan(f, mp, 4096)

@pytest.mark.parametrize("refinement", [13, 26, 4096])
def test_grid_keeps_a_breakpoint_at_minus_pi(refinement):
    # at refinements 13 and 26 no grid point lands on pi, so only the
    # breakpoint itself, entered as pi, opens the heavy half circle
    f = make_step([-pi, 0.0], [100.0, 1.0])
    mp = MorreyParams(1.0, 0.5)
    assert morrey_norm_exact(f, mp).ratio_sup == 70.71067811865474
    res = grid_search(f, mp, refinement)
    assert abs(res.ratio_sup - 70.71067811865474) <= 1e-12
    assert res == grid_scan(f, mp, refinement)


def test_scan_results_hold_python_floats():
    # numpy scalars would print as np.float64(...) in reprs and reports
    g = build_g(validate_params(1.0, 0.5, 0.2), 100)
    cases = [(f, lam) for f in (g, g.rotated(2.9), constant(2.0), constant(0.0),
                                make_step([-pi, 0.0], [1.0, 1.0]))
             for lam in (0.0, 0.5)]
    for f, lam in cases:
        params = MorreyParams(1.0, lam)
        for res in (morrey_norm_exact(f, params), grid_search(f, params, 64)):
            fields = (res.value, res.ratio_sup, res.argmax.start, res.argmax.length)
            assert all(type(x) is float for x in fields), (res, lam)


# --- the tiled scans against plain per-start references ---

def _step_with_tiny_segment(rng, k):
    bps = np.sort(rng.uniform(-pi, pi, size=k))
    i = int(rng.integers(0, k - 1))
    bps[i + 1] = np.nextafter(bps[i], pi) if rng.random() < 0.5 else bps[i] + 1e-13
    bps = np.unique(bps)
    vals = rng.uniform(0.0, 10.0, size=len(bps))
    vals[rng.random(size=len(bps)) < 0.3] = 0.0
    return make_step(bps, vals)


def _two_valued(rng, k):
    # near-constant: every density is far above lam times the mean
    bps = np.unique(rng.uniform(-pi, pi, size=k))
    hi = 1.0 + 2.0 ** -int(rng.integers(1, 40))
    return make_step(bps, np.where(rng.random(size=len(bps)) < 0.5, 1.0, hi))


def _positive_step(rng):
    # acceptance criterion 5's shape with no zero segment
    f = random_step(rng, value_lo=0.0)
    return make_step(f.breakpoints, rng.uniform(0.5, 10.0, size=f.num_segments))


def test_exact_scan_matches_per_start_reference(rng):
    bps = -3.0 + 0.05 * np.arange(65)
    fixtures = [
        constant(0.0), constant(2.5),
        make_step([-2.0, -1.0, 1.0, 2.0], [1.0, 0.0, 1.0, 0.0]),
        make_step([-2.0, -1.0, 1.0, 1.25], [1.0, 0.0, 2.0, 0.0]),
        # the one-segment arc at 1.0 rounds to 0 / 0, which drops its row
        make_step([-3.0, 1.0, np.nextafter(1.0, 2.0), 2.0], [3.0, 1.0, 0.0, 2.0]),
        # a spike at start 62, in the last leaf of starts: the leaf's column
        # of end 62 may beat the seed, and the leaf's last row pairs with it
        # before it starts
        make_step(bps, [1e-9] * 62 + [1e3, 1.0, 0.0]),
        # the same spike, with the last row dead
        make_step(np.append(bps[:64], np.nextafter(bps[63], 1.0)), [1e-9] * 62 + [1e3, 1.0, 0.0]),
    ]
    cases = fixtures + [random_step(rng, max_segments=40) for _ in range(250)]
    # up to 16 leaves of starts, and values rounded to force ties
    cases += [random_step(rng, max_segments=250) for _ in range(40)]
    cases += [make_step(f.breakpoints, np.round(f.values).tolist())
              for f in (random_step(rng, max_segments=150) for _ in range(40))]
    cases += [_step_with_tiny_segment(rng, int(rng.integers(3, 100))) for _ in range(40)]
    # whole-circle winners, whose near-full arcs the complement bound prunes
    cases += [constant(1.0), constant(7.0)]
    cases += [_two_valued(rng, int(rng.integers(2, 300))) for _ in range(30)]
    cases += [_positive_step(rng) for _ in range(60)]
    for c, f in enumerate(cases):
        mp = MorreyParams((1.0, 2.5)[c % 2], (0.1, 0.5, 0.9, 0.0)[c % 4])
        want = exact_scan(f, mp)
        if math.isfinite(want.ratio_sup):
            assert morrey_norm_exact(f, mp) == want, (c, f)
        else:
            # a tiny segment whose measure rounds to 0 while its integral
            # does not sends the supremum to inf
            with pytest.raises(NonFiniteNumber, match="supremum"):
                morrey_norm_exact(f, mp)


def test_a_dead_row_costs_no_more_work_than_a_live_one():
    # the spike fixtures of the per-start reference test: the last row's
    # one-segment arc is 0.05 long, or one ulp long so that its ratio rounds
    # to 0 / 0 and the row is dead.  A dead row never wins, so its step of
    # 0.0 must not clamp the others' measures: it did, every rectangle of
    # its block that reached its start was bounded by inf and evaluated
    bps = -3.0 + 0.05 * np.arange(65)
    vals = [1e-9] * 62 + [1e3, 1.0, 0.0]
    live = make_step(bps, vals)
    dead = make_step(np.append(bps[:64], np.nextafter(bps[63], 1.0)), vals)
    for p in (1.0, 2.5):
        for lam in (0.1, 0.5, 0.9):
            mp = MorreyParams(p, lam)
            assert morrey_norm_exact(dead, mp).pairs <= morrey_norm_exact(live, mp).pairs


def test_exact_scan_finds_a_short_heavy_segment_inside_a_tile():
    # a rectangle next to the diagonal bounds its measures by the shortest
    # one-segment arc of any of its block's starts: here that arc is the
    # heavy spike at start 10, inside the first leaf, while the last start
    # is a lighter spike
    bps = np.linspace(-3.0, 3.0, 129)[:-1].tolist()
    vals = [1e-6] * 128
    for i, v in ((10, 1e4), (127, 1e3)):
        bps.insert(i + 1, bps[i] + 1e-6)
        vals.insert(i + 1, 1e-6)
        vals[i] = v
    f = make_step(bps, vals)
    mp = MorreyParams(1.0, 0.5)
    res = morrey_norm_exact(f, mp)
    assert res == exact_scan(f, mp)
    assert res.argmax.start == bps[10]


@pytest.mark.parametrize("n", [1000, 10_000])
def test_exact_scan_matches_reference_on_g(n):
    # at N=1e4 the square over all pairs is 11 levels above the leaves
    g = build_g(validate_params(1.0, 0.5, 0.2), n)
    for h in (g, g.rotated(2.9)):
        for lam in (0.5, 0.3, 0.9):
            mp = MorreyParams(1.0, lam)
            assert morrey_norm_exact(h, mp) == exact_scan(h, mp)


def test_exact_scan_trims_a_tile_to_its_columns_that_may_win():
    # nonzero segments 0-63 heavy and short, 64-69 light, 70-99 a long light
    # stretch, 100 a spike of the mass of 0-63, 101-127 light; a zero gap;
    # 128 tiny and light, 129 a second spike, 130-191 light; a zero gap.
    # The winner runs from start 0 to the first spike, past the long light
    # stretch whose ends cannot win
    lens = [1e-4] * 70 + [1e-3] * 30 + [6e-3] + [1e-4] * 27 + [1.0, 1e-9, 1e-3] + [1e-4] * 62
    vals = ([100.0] * 64 + [1.0] * 6 + [1e-3] * 30 + [0.64 / 6e-3] + [1.0] * 27
            + [0.0, 1.0, 400.0] + [1.0] * 62 + [0.0])
    f = make_step(-3.0 + np.cumsum([0.0] + lens), vals)
    mp = MorreyParams(1.0, 0.3)
    res = morrey_norm_exact(f, mp)
    assert res == exact_scan(f, mp)
    assert res.argmax == Arc.from_endpoints(f.breakpoints[0], f.breakpoints[101])


def test_exact_ties_across_tiles_of_one_batch():
    # 130 segments of one length g at value 1, but for spikes of 8 at 10 and
    # 100, one in each of two leaves of starts, and a zero one
    # closing the circle.  g / tau has 14 trailing zero bits, so the scan's
    # cumulative sums over the first lap are exact: the spikes tie bit for
    # bit at lambda 0.9, and the smaller start wins
    g = 26527 * 2.0 ** -20
    vals = np.ones(131)
    vals[[10, 100]], vals[-1] = 8.0, 0.0
    f = make_step(-3.0 + g * np.arange(131), vals)
    mp = MorreyParams(1.0, 0.9)
    spikes = [Arc(f.breakpoints[i], f.lengths[i]) for i in (10, 100)]
    assert morrey_ratio(f, spikes[0], mp) == morrey_ratio(f, spikes[1], mp)
    res = morrey_norm_exact(f, mp)
    assert res == exact_scan(f, mp)
    assert res.argmax.start == f.breakpoints[10]
    # |f|^p times any segment's measure underflows to 0, so every ratio ties
    # the seed at 0 and every column bound is 0.0: the columns are kept on
    # the tail alone, and the shortest one-segment arc wins
    f = make_step(-3.0 + 0.04 * np.arange(131), [5e-324] * 131)
    res = morrey_norm_exact(f, MorreyParams(1.0, 0.5))
    assert res == exact_scan(f, MorreyParams(1.0, 0.5))
    assert res.ratio_sup == 0.0 and res.argmax.length < 0.04


@pytest.mark.parametrize("lam", [0.3, 0.5, 0.9])
def test_grid_scan_matches_reference_on_g(lam):
    # over 4096 start points, so the square over all pairs is 9 levels above
    # the leaves
    g = build_g(validate_params(1.0, 0.5, 0.2), 100)
    mp = MorreyParams(1.0, lam)
    for h in (g, g.rotated(2.9)):
        assert grid_search(h, mp, 4096) == grid_scan(h, mp, 4096)


def test_exact_scan_evaluates_few_pairs_on_g():
    # a work count, identical on every host: evaluating every column of each
    # 64 x 64 tile whose corner bound reaches the best ratio computed
    # 5748800, 15336512 and 7370816 pairs here; only the columns that can
    # win, about 8.5e5, 9.2e5 and 9.9e4; each leaf's columns that can win,
    # evaluated leaf chunk by leaf chunk, about 1.6e4 each
    prm = validate_params(1.0, 0.5, 0.2)
    cases = [(build_g(prm, 30_000), 1.5e6), (build_g(prm, 100_000), 2e6),
             (build_f(prm, 30_000), 5e5)]
    for f, most in cases:
        assert 0 < morrey_norm_exact(f, MorreyParams(1.0, 0.5)).pairs < most


def test_pairs_count_whole_tiles_cut_at_the_extent():
    # fewer than LEAF rows and columns each, so the square over all pairs is
    # one leaf, cut at the last row and column, and it holds the winner; of
    # a leaf, each column is bounded and evaluated with all the leaf's rows.
    # The exact scan's leaf has its 3 nonzero starts and the 2 * 3 - 1 ends
    # a start can reach; against the seed, the whole circle's 6 / tau, the
    # column of the first end is bounded by tau^(-1/2) (segment [-2, -1)
    # over the shortest one-segment measure 1 / tau) and is cut, so 3 starts
    # meet 4 ends.  Every column of the grid's leaf, its 11 points (the
    # uniform 8 and the breakpoints -2, -1, 1) with all 11, is bounded by
    # 1.9 or more, above the seed
    f = make_step([-2.0, -1.0, 0.0, 1.0], [1.0, 2.0, 3.0, 0.0])
    mp = MorreyParams(1.0, 0.5)
    assert morrey_norm_exact(f, mp).pairs == 3 * 4
    assert grid_search(f, mp, 8).pairs == 11 * 11


def test_bound_work_grows_far_slower_than_the_tiles_on_g():
    # a work count, identical on every host: bounding every tile of every
    # row, rectangles bounded grew 99.5x from N=1e4 to 1e5 (49141 to
    # 4889062); bounding super-tiles first, about 16x; splitting squares
    # from one over all pairs, 11x (21773 to 241451).  From 1e5 to 3e5, as g
    # gets 3x the nonzero segments, 3.1x (to 747928): the squares bounded
    # grow 2.9x, the columns of leaves near the best ratio 3.2x
    prm, mp = validate_params(1.0, 0.5, 0.2), MorreyParams(1.0, 0.5)
    small, big, bigger = (morrey_norm_exact(build_g(prm, n), mp).bounded
                          for n in (10_000, 100_000, 300_000))
    assert 0 < big < 20 * small
    assert 0 < bigger < 3.3 * big


def test_exact_scan_memory_stays_flat_on_g():
    # the runs keep the squares that may still win, not the bound matrices
    # they came from (7.8 MB traced here), and a chunk of leaves has its
    # columns evaluated at once rather than queued as runs (about 7.2 MB)
    g = build_g(validate_params(1.0, 0.5, 0.2), 30_000)
    tracemalloc.start()
    try:
        morrey_norm_exact(g, MorreyParams(1.0, 0.5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6.6e6


@pytest.mark.parametrize("nnz", [7, 8, 9, 15, 16, 17, 31, 32, 33, 1023, 1024, 1025,
                                 4095, 4096, 4097])
def test_exact_scan_matches_reference_across_block_edges(rng, nnz):
    # rows are cut into leaves of 16 starts and into aligned blocks of a
    # power of two, and the 2 nnz - 1 ends into as many columns: these nnz
    # leave the last leaf or block one start short, fill it, or start one
    # more; the winner, a heavy last segment, is the last start's
    bps = np.unique(rng.uniform(-pi, pi, size=nnz + 300))
    vals = rng.uniform(0.5, 10.0, size=len(bps))
    vals[rng.choice(len(bps) - 1, size=len(bps) - nnz, replace=False)] = 0.0
    vals[-1] = 1e3
    f = make_step(bps, vals)
    mp = MorreyParams(1.0, 0.5)
    res = morrey_norm_exact(f, mp)
    assert res == exact_scan(f, mp)
    assert res.argmax.start == bps[-1]


@pytest.mark.parametrize("refinement", [7, 8, 9, 16, 17, 31, 32, 33, 1023, 1024, 1025,
                                        4095, 4096, 4097])
def test_grid_scan_matches_reference_across_block_edges(rng, refinement):
    # f's breakpoints are grid points, so the scan has exactly `refinement`
    # start points: the last leaf or block one short, full, and one more
    # (at 15 the last grid point rounds below pi, which adds a 16th); the
    # winner, a heavy first cell, wraps from the last start point, pi
    grid = -pi + tau * np.arange(1, refinement + 1) / refinement
    cuts = rng.choice(grid[1:-1], min(10, refinement - 3), replace=False)
    bps = np.concatenate(([-pi, grid[0]], np.sort(cuts)))
    assert len(np.union1d(np.append(bps[1:], pi), grid)) == refinement
    vals = rng.uniform(0.0, 10.0, size=len(bps))
    vals[2::4] = 0.0
    vals[0] = 1e3
    f = make_step(bps, vals)
    mp = MorreyParams(1.0, 0.5)
    res = grid_search(f, mp, refinement)
    assert res == grid_scan(f, mp, refinement)
    assert res.argmax.start == pi


def test_grid_scan_matches_per_start_reference(rng):
    for refinement in range(2, 65):
        f = random_step(rng, value_lo=0.0)
        mp = MorreyParams((1.0, 2.0)[refinement % 2], (0.5, 0.1, 0.9, 0.0)[refinement % 4])
        assert grid_search(f, mp, refinement) == grid_scan(f, mp, refinement), refinement
    for _ in range(3):
        f = random_step(rng, value_lo=0.0, value_hi=10.0)
        mp = MorreyParams(1.0, 0.5)
        assert grid_search(f, mp, 4096) == grid_scan(f, mp, 4096)
    # whole-circle winners, whose near-full arcs the complement bound prunes
    cases = [constant(1.0), constant(3.0)] + [_two_valued(rng, 50) for _ in range(3)]
    cases += [_positive_step(rng) for _ in range(6)]
    for c, f in enumerate(cases):
        mp = MorreyParams((1.0, 2.5)[c % 2], (0.1, 0.5, 0.9)[c % 3])
        for refinement in (5, 64, 4096):
            assert grid_search(f, mp, refinement) == grid_scan(f, mp, refinement), (c, f)


def test_grid_scan_visits_rows_best_bound_first(rng):
    # a work count, identical on every host: rows taken in index order
    # instead compute 1.99e7 pairs here; draining each level's squares
    # before returning to larger ones, 9.2e5; best first, 4.9e4
    mp = MorreyParams(1.0, 0.5)
    pairs = sum(grid_search(random_step(rng, value_lo=0.0, value_hi=10.0), mp, 65536).pairs
                for _ in range(6))
    assert 0 < pairs < 4e6


def test_grid_seed_wins_ties_without_evaluating_them():
    # every ratio of the zero function ties the full circle, which wins
    mp = MorreyParams(1.0, 0.5)
    res = grid_search(constant(0.0), mp, 4096)
    assert res == grid_scan(constant(0.0), mp, 4096)
    assert res.pairs == 0


# --- the complement bound of near-full arcs ---

def _spied_scan(monkeypatch, scan, *args):
    """Run a scan, keeping what it hands the branch and bound, and spying on
    its complement bound: the returned list holds that bound's outputs of
    the latest bounds call, forward pairs' then wrapping ones' in the grid."""
    seen, outputs = {}, []
    kernel, factory = morrey._best_first, morrey._complement_bound

    def spy_kernel(rows, cols, bounds, evaluate, best, low):
        seen.update(rows=rows, cols=cols, bounds=bounds, evaluate=evaluate)
        return kernel(rows, cols, bounds, evaluate, best, low)

    def spy_factory(*fargs):
        near = factory(*fargs)

        def spy(mlo, mhi):
            outputs.append(near(mlo, mhi))
            return outputs[-1]
        return spy

    monkeypatch.setattr(morrey, "_best_first", spy_kernel)
    monkeypatch.setattr(morrey, "_complement_bound", spy_factory)
    scan(*args)
    return seen, outputs


def _aligned_rectangles(rows, cols, rng, most, top, tight):
    """(lev, r0, r1, c0, c1) of aligned squares at each level from ``top``
    down, cut at the extent, and of leaf columns: all of them, or ``most``
    of each level at random and those that hold a (row, column) pair of
    ``tight``."""
    lev = LEAF.bit_length() - 1
    levels = [(k, 1 << k, 1 << k) for k in range(top, lev - 1, -1)] + [(lev, LEAF, 1)]
    for lev, h, w in levels:
        n, m = -(-rows // h), -(-cols // w)
        if most is None:
            picks = [(i, j) for i in range(n) for j in range(m)]
        else:
            picks = [(r // h, c // w) for r, c in tight]
            picks += zip(rng.integers(0, n, most), rng.integers(0, m, most))
        for i, j in sorted(set(picks)):
            yield lev, i * h, min(i * h + h, rows), j * w, min(j * w + w, cols)


def _top_ratio(evaluate, best, columns):
    """Largest ratio that a scan's own evaluate computes over the pairs of
    rows[i] x {c} for each (c, rows) of ``columns``; -inf for none."""
    p, q = [], []
    for c, rows in columns:
        for i in range(0, len(rows), LEAF):
            chunk = list(rows[i:i + LEAF])
            p.append(chunk + chunk[-1:] * (LEAF - len(chunk)))
            q.append([c])
    if not p:
        return -np.inf
    return -evaluate(np.array(p), np.array(q), best)[0]


def _dense_step(rng, bps, lam, p):
    # random positive densities whose least one, taken by about a third of
    # the segments, lies just above lam times their mean: the weakest input
    # the complement bound is used on; it bounds the arcs that leave out only
    # such segments most tightly
    bps = np.unique(bps)
    w = np.diff(np.append(bps, bps[0] + tau)) / tau
    x = np.where(rng.random(size=len(bps)) < 0.3, 0.0, rng.exponential(size=len(bps)))
    x -= x.min()
    c = lam * 1.001 * (w @ x) / (1.0 - lam * 1.001)
    return make_step(bps, (c + x) ** (1.0 / p))


def _tiny_cells(rng, refinement):
    # breakpoints 1e-12 rad on both sides of some grid points
    grid = -pi + tau * np.arange(1, refinement) / refinement
    at = rng.choice(grid, 6, replace=False)
    return np.concatenate((at - 1e-12, at + 1e-12, rng.uniform(-pi, pi, 4)))


@pytest.mark.parametrize("p", [1.0, 2.5])
@pytest.mark.parametrize("lam", [0.05, 0.5, 0.99])
def test_complement_bound_is_sound_on_every_aligned_rectangle(rng, monkeypatch, p, lam):
    # brute force: on aligned rectangles at every level and on leaf columns,
    # the complement bound is at or above every ratio the scan computes.  The
    # small inputs have all their rectangles checked; the large ones, whose
    # prefix sums err the most, those of 64 x 64 pairs and less that hold an
    # arc leaving out one segment or cell: 30 at random, the rest at random
    mp = MorreyParams(p, lam)

    def dense(bps):
        return _dense_step(rng, bps, lam, p)

    inputs = [(morrey_norm_exact, dense(rng.uniform(-pi, pi, k)), ()) for k in (17, 40, 70)]
    inputs += [(morrey_norm_exact, dense(_tiny_cells(rng, 8)), ()),
               (morrey_norm_exact, dense(rng.uniform(-pi, pi, 3000)), ()),
               (grid_search, dense(rng.uniform(-pi, pi, 12)), (64,)),
               (grid_search, dense(_tiny_cells(rng, 64)), (64,)),
               (grid_search, dense(_tiny_cells(rng, 2048)), (2048,))]
    checked = 0
    for scan, f, refinement in inputs:
        seen, outputs = _spied_scan(monkeypatch, scan, f, mp, *refinement)
        bounds, evaluate, rows, cols = (seen[x] for x in ("bounds", "evaluate", "rows", "cols"))
        grid = scan is grid_search
        best = (np.inf, -1, -1) if grid else (np.inf, 0.0, 0, 0)
        top, most, tight = (max(rows, cols, LEAF) - 1).bit_length(), None, []
        if rows > 100:
            # the exact scan's row r leaves out segment r - 1 at column r +
            # rows - 2, the grid's wrapping pair (a, a - 1) cell a - 1
            top, most = 6, 20
            tight = [(r, r + rows - 2 - grid * (rows - 1)) for r in rng.integers(1, rows, 30)]
        for lev, r0, r1, c0, c1 in _aligned_rectangles(rows, cols, rng, most, top, tight):
            outputs.clear()
            with np.errstate(divide="ignore", invalid="ignore"):
                ub = bounds(lev, *(np.array([x]) for x in (r0, r1, c0, c1)))
            assert len(outputs) == 1 + grid
            if grid:
                # forward pairs, b > a, and wrapping ones, b < a; b == a scores 0
                fwd = [(c, range(r0, min(r1, c))) for c in range(c0, c1)]
                wrap = [(c, range(max(r0, c + 1), r1)) for c in range(c0, c1)]
                parts = zip(outputs, (fwd, wrap))
            else:
                parts = [(outputs[0], [(c, range(r0, r1)) for c in range(c0, c1)])]
            for near, columns in parts:
                with np.errstate(divide="ignore", invalid="ignore"):
                    ratio = _top_ratio(evaluate, best, columns)
                if ratio > -np.inf:
                    assert near[0] >= ratio, (scan.__name__, f, lev, r0, r1, c0, c1)
                    assert ub[0] >= ratio
                    checked += 1
    assert checked > 1000, checked


def test_complement_bound_prunes_near_full_arcs(rng):
    # a work count, identical on every host: with the corner bounds alone the
    # grid computed 122880 pairs on the constant, the exact scan 314928 on a
    # near-constant function of 1e4 segments
    mp = MorreyParams(1.0, 0.5)
    assert grid_search(constant(1.0), mp, 4096).pairs < 1000
    f = make_step(np.unique(rng.uniform(-pi, pi, size=10_000)), rng.uniform(1.0, 1.5, size=10_000))
    assert morrey_norm_exact(f, mp).pairs < 5e4


def test_complement_bound_is_off_with_a_zero_segment(monkeypatch):
    # the whole circle cannot win where |f| vanishes on a segment, so the
    # scans of g and f do no extra work
    def unused(*args):
        raise AssertionError("complement bound built")

    monkeypatch.setattr(morrey, "_complement_bound", unused)
    prm = validate_params(1.0, 0.5, 0.2)
    for f in (build_g(prm, 1000), build_f(prm, 1000)):
        for lam in (0.5, 0.9):
            morrey_norm_exact(f, MorreyParams(1.0, lam))
            grid_search(f, MorreyParams(1.0, lam), 256)


def test_grid_nondecreasing_under_doubling(rng):
    for _ in range(5):
        f = random_step(rng)
        mp = MorreyParams(1.0, 0.5)
        v = [morrey_norm_grid(f, mp, r) for r in (64, 128, 256, 512)]
        assert all(a <= b * (1 + 1e-14) for a, b in zip(v, v[1:]))

def test_oracle_sandwich_random(rng):
    for _ in range(10):
        f = random_step(rng, value_lo=0.0, value_hi=10.0)
        mp = MorreyParams(float(rng.choice([1.0, 2.0])), float(rng.uniform(0.1, 0.9)))
        exact = morrey_norm_exact(f, mp).value
        grid = morrey_norm_grid(f, mp, 4096)
        assert grid <= exact * (1 + 1e-12)
        if exact > 0:
            assert (exact - grid) / exact <= 1e-3

def test_grid_cross_check_counterexample_g():
    prm = validate_params(1.0, 0.5, 0.2)
    g = build_g(prm, 1000)
    mp = MorreyParams(1.0, 0.5)
    exact = morrey_norm_exact(g, mp).value
    grid = morrey_norm_grid(g, mp, 16384)
    assert grid <= exact * (1 + 1e-12)
    assert (exact - grid) / exact <= 1e-3


# --- prefix arcs ---

def test_prefix_arcs_constant():
    for t in (0.1, 0.5, 1.0):
        ratio = morrey_ratio(constant(1.0), Arc(0.0, t), MorreyParams(1.0, 0.5))
        assert ratio == pytest.approx((t / tau) ** 0.5, rel=1e-12)

def test_prefix_arcs_zero_function():
    for t in (0.1, 1.0):
        assert morrey_ratio(constant(0.0), Arc(0.0, t), MorreyParams(1.0, 0.5)) == 0.0

def test_prefix_arcs_rejects_bad_t():
    with pytest.raises(ZeroMeasureArc):
        morrey_ratio(constant(1.0), Arc(0.0, 0.0), MorreyParams(1.0, 0.5))

def test_prefix_arc_counterexample_f_reaches_divergence_bound():
    prm = validate_params(1.0, 0.5, 0.2)
    f = build_f(prm, 10 ** 5)
    t = 1e-3
    ratio = morrey_ratio(f, Arc(0.0, t), MorreyParams(1.0, 0.5))
    assert ratio >= 0.8186 * t ** (-0.2)
