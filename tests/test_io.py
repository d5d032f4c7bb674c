import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from morreycircle import StepFunction, build_g, decreasing_rearrangement, validate_params
from morreycircle.errors import NonFiniteNumber
from morreycircle.io import load_step_function, save_step_function

import references

# json's float formatting turns to exponents at 1e16 and below 1e-4
SPECIAL = [-0.0, 5e-324, 9999999999999998.0, 1e16, 1e-05, 0.0001, math.pi, -math.pi]


def _both_files(f, tmp):
    save_step_function(f, tmp / "fast.json")
    references.save_step_function(f, tmp / "ref.json")
    return (tmp / "fast.json").read_bytes(), (tmp / "ref.json").read_bytes()


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=12),
       st.sampled_from([1, 1023, 1024, 1025, 2049]))
@example(SPECIAL, 1)
@example(SPECIAL, 1025)
@settings(max_examples=40, deadline=None)
def test_writer_matches_json_dump(tmp_path_factory, xs, n):
    # the three arrays cycle through xs from different offsets; a StepFunction
    # built directly is not validated, so any finite floats may be written
    cycle = np.resize(np.array(xs, dtype=np.float64), 3 * n)
    f = StepFunction(cycle[:n], cycle[n:2 * n], cycle[2 * n:])
    fast, ref = _both_files(f, tmp_path_factory.mktemp("io"))
    assert fast == ref


def test_writer_matches_json_dump_on_rearranged_g(tmp_path):
    f = decreasing_rearrangement(build_g(validate_params(1.0, 0.5, 0.2), 10_000).rotated(2.9))
    fast, ref = _both_files(f, tmp_path)
    assert fast == ref
    back = load_step_function(tmp_path / "fast.json")
    assert all(getattr(back, name).tobytes() == getattr(f, name).tobytes()
               for name in ("breakpoints", "values", "lengths"))


@pytest.mark.parametrize("field, bad", [("breakpoints", math.nan), ("values", math.nan),
                                        ("values", -math.inf), ("lengths", math.inf)])
def test_writer_refuses_non_finite_and_leaves_file(tmp_path, field, bad):
    arrays = {"breakpoints": [0.0, 1.0], "values": [1.0, 2.0], "lengths": [1.0, math.tau - 1.0]}
    arrays[field][1] = bad
    path = tmp_path / "f.json"
    path.write_text("kept\n")
    with pytest.raises(NonFiniteNumber, match="not finite"):
        save_step_function(StepFunction(**arrays), path)
    assert path.read_text() == "kept\n"
    with pytest.raises(NonFiniteNumber):
        save_step_function(StepFunction(**arrays), tmp_path / "new.json")
    assert not (tmp_path / "new.json").exists()
