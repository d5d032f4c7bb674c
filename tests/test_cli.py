import json
import os
import subprocess
import sys

import pytest
from click.testing import CliRunner

import morreycircle
import morreycircle.cli as cli
import morreycircle.counterexample as counterexample
from morreycircle import (
    BoundedValue,
    build_g,
    divergence_lower_bound,
    load_step_function,
    make_step,
    save_step_function,
    validate_params,
)
from morreycircle.cli import main
from morreycircle.errors import LengthMismatch


@pytest.fixture
def runner():
    return CliRunner()


def _write(path, f):
    save_step_function(f, str(path))
    return str(path)


def test_norm_constant(runner, tmp_path):
    path = _write(tmp_path / "c.json", make_step([0.0], [3.0]))
    res = runner.invoke(main, ["norm", "--input", path, "--p", "2", "--lambda", "0.5"])
    assert res.exit_code == 0
    header, row = res.output.strip().splitlines()
    assert header == "norm,ratio_sup,arc_start,arc_length"
    vals = [float(x) for x in row.split(",")]
    assert vals[0] == pytest.approx(3.0, rel=1e-14)
    assert vals[3] == pytest.approx(2 * 3.141592653589793, rel=1e-14)


def test_norm_indicator_half_circle(runner, tmp_path):
    path = _write(tmp_path / "ind.json", make_step([0.0, 3.141592653589793], [1.0, 0.0]))
    res = runner.invoke(main, ["norm", "--input", path, "--p", "1", "--lambda", "0.5"])
    assert res.exit_code == 0
    vals = [float(x) for x in res.output.strip().splitlines()[1].split(",")]
    # half circle with lambda 1/2: ratio = (1/2)^(1-1/2) = sqrt(1/2)
    assert vals[0] == pytest.approx(0.5 ** 0.5, rel=1e-12)


def test_norm_grid_method(runner, tmp_path):
    path = _write(tmp_path / "ind.json", make_step([0.0, 3.141592653589793], [1.0, 0.0]))
    exact = runner.invoke(main, ["norm", "--input", path])
    grid = runner.invoke(main, ["norm", "--input", path, "--method", "grid",
                                "--refinement", "512"])
    v_exact = float(exact.output.splitlines()[1].split(",")[0])
    v_grid = float(grid.output.splitlines()[1].split(",")[0])
    assert v_grid <= v_exact + 1e-12
    assert v_grid == pytest.approx(v_exact, rel=1e-2)


def test_norm_grid_refinement_out_of_range_is_usage_error(runner, tmp_path):
    path = _write(tmp_path / "c.json", make_step([0.0], [1.0]))
    for refinement in ("1", "65537"):
        res = runner.invoke(main, ["norm", "--input", path, "--method", "grid",
                                   "--refinement", refinement])
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert "refinement" in res.output

def test_norm_rejects_inconsistent_segment_lengths(runner, tmp_path):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"breakpoints_rad": [0.0, 1.0], "values": [1.0, 2.0],
                                "segment_lengths_rad": [1.5, 4.783185307179586]}))
    with pytest.raises(LengthMismatch):
        load_step_function(str(path))
    res = runner.invoke(main, ["norm", "--input", str(path)])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert "inconsistent" in res.output

@pytest.mark.parametrize("command", ["norm", "rearrange"])
@pytest.mark.parametrize("doc", [
    {"breakpoints_rad": [0.0, 1.0], "values": ["abc", 2]},
    {"breakpoints_rad": [[0.0], 1.0], "values": [1, 2]},
    {"breakpoints_rad": [0.0, 1.0], "values": [float("nan"), 2]},
    {"breakpoints_rad": [0.0, 1.0], "values": [float("inf"), 2]},
    {"breakpoints_rad": [[0.0], [1.0]], "values": [1, 2]},
    {"breakpoints_rad": [0.0, 1.0], "values": [None, 2]},
    {"breakpoints_rad": [0.0, 1.0], "values": [1, [2, 3]]},
    {"breakpoints_rad": [0.0, 1.0], "values": [1, 2], "segment_lengths_rad": [1.0, None]},
])
def test_non_numbers_in_input_are_clean_errors(runner, tmp_path, command, doc):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(doc))    # writes NaN and Infinity as JSON extensions
    args = [command, "--input", str(path)]
    if command == "rearrange":
        args += ["--out", str(tmp_path / "out.json")]
    res = runner.invoke(main, args)
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert "must be" in res.output

@pytest.mark.parametrize("method", ["exact", "grid"])
def test_norm_overflowing_power_is_clean_error(runner, tmp_path, method):
    # 1e200 is finite, but its 2.5-th power is not
    path = _write(tmp_path / "big.json", make_step([0.0, 1.0], [1e200, 2.0]))
    res = runner.invoke(main, ["norm", "--input", path, "--p", "2.5", "--method", method])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert "Error: integral of |f|^p over the circle is inf" in res.output

def test_norm_supremum_rounding_to_inf_is_clean_error(runner, tmp_path):
    # the spike's measure rounds to 0 in the exact scan, its integral does not
    path = tmp_path / "spike.json"
    path.write_text(json.dumps({"breakpoints_rad": [-1, 0, 1e-300], "values": [0, 1e300, 0]}))
    res = runner.invoke(main, ["norm", "--input", str(path)])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert res.output.startswith("Error: supremum of the Morrey ratio is inf")

def test_out_to_missing_directory_is_clean_error(runner, tmp_path):
    path = _write(tmp_path / "c.json", make_step([0.0], [2.0]))
    out = str(tmp_path / "missing" / "out.csv")
    for args in (["norm", "--input", path],
                 ["counterexample", "--n", "120", "--t-grid", "1e-2"]):
        res = runner.invoke(main, args + ["--out", out])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert res.output.startswith("Error: ")     # no report before the error

def test_norm_malformed_input_fails(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    res = runner.invoke(main, ["norm", "--input", str(bad)])
    assert res.exit_code != 0

    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"values": [1.0]}))
    res = runner.invoke(main, ["norm", "--input", str(missing)])
    assert res.exit_code != 0


@pytest.mark.parametrize("command", ["norm", "equimeasurable"])
@pytest.mark.parametrize("content", [
    b"{not json",
    b"\xff\xfe",
    b"[" * 100_000,
    b"[0.0, 1.0]",
    json.dumps({"values": [1.0]}).encode(),
    json.dumps({"breakpoints_rad": 0.0, "values": [1.0]}).encode(),
    json.dumps({"breakpoints_rad": [0.0], "values": [1.0],
                "segment_lengths_rad": 6.0}).encode(),
    json.dumps({"breakpoints_rad": [0.0, 1.0], "values": ["abc", 2]}).encode(),
    json.dumps({"breakpoints_rad": [1.0, 0.0], "values": [1.0, 2.0]}).encode(),
], ids=["not-json", "not-utf8", "too-deep", "not-object", "missing-field", "scalar-field",
        "scalar-lengths", "non-number", "unsorted"])
def test_bad_input_file_is_named_in_the_error(runner, tmp_path, command, content):
    good = _write(tmp_path / "good.json", make_step([0.0], [1.0]))
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    args = (["norm", "--input", str(bad)] if command == "norm"
            else ["equimeasurable", "--input", good, "--input2", str(bad)])
    res = runner.invoke(main, args)
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert res.output.startswith(f"Error: {bad}: ")


def test_norm_bad_lambda_fails(runner, tmp_path):
    path = _write(tmp_path / "c.json", make_step([0.0], [1.0]))
    res = runner.invoke(main, ["norm", "--input", path, "--lambda", "1.5"])
    assert res.exit_code != 0


def test_rearrange_roundtrip_equimeasurable(runner, tmp_path):
    prm = validate_params(1.0, 0.5, 0.2)
    g_path = _write(tmp_path / "g.json", build_g(prm, 60))
    out = tmp_path / "gstar.json"
    res = runner.invoke(main, ["rearrange", "--input", g_path, "--out", str(out)])
    assert res.exit_code == 0
    eq = runner.invoke(main, ["equimeasurable", "--input", g_path,
                              "--input2", str(out), "--tol", "0"])
    assert eq.exit_code == 0
    assert eq.output.strip() == "true"


def test_equimeasurable_counterexample_pair(runner, tmp_path):
    prm = validate_params(1.0, 0.5, 0.2)
    from morreycircle import build_f
    fp = _write(tmp_path / "f.json", build_f(prm, 200))
    gp = _write(tmp_path / "g.json", build_g(prm, 200))
    res = runner.invoke(main, ["equimeasurable", "--input", fp, "--input2", gp])
    assert res.exit_code == 0
    assert res.output.strip() == "true"


def test_equimeasurable_scaled_pair_false_exit_one(runner, tmp_path):
    f = make_step([0.0, 1.0], [1.0, 2.0])
    g = make_step([0.0, 1.0], [2.0, 4.0])
    fp = _write(tmp_path / "f.json", f)
    gp = _write(tmp_path / "g.json", g)
    res = runner.invoke(main, ["equimeasurable", "--input", fp, "--input2", gp])
    assert res.exit_code == 1
    assert res.output.strip() == "false"


def test_equimeasurable_bad_tolerance_is_clean_error(runner, tmp_path):
    fp = _write(tmp_path / "f.json", make_step([0.0, 1.0], [1.0, 2.0]))
    for tol in ("-1", "nan"):
        res = runner.invoke(main, ["equimeasurable", "--input", fp, "--input2", fp,
                                   "--tol", tol])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert "Error: tol must be a nonnegative number" in res.output


def test_counterexample_report_passes(runner):
    res = runner.invoke(main, ["counterexample", "--n", "300",
                               "--t-grid", "1e-2,1e-3"])
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[0] == "equimeasurable,true"
    assert "t,ratio_lo,ratio_hi,divergence_bound" in lines
    assert "N,g_ratio_sup,g_upper_bound" in lines
    # every enclosure row clears its divergence bound
    ti = lines.index("t,ratio_lo,ratio_hi,divergence_bound")
    for row in lines[ti + 1:ti + 3]:
        _, lo, hi, bound = (float(x) for x in row.split(","))
        assert hi >= bound and lo <= hi


def test_counterexample_gates_on_certified_lower_end(runner, monkeypatch):
    # an enclosure straddling the bound does not certify divergence
    def straddling(params, t, tail_tol):
        bound = divergence_lower_bound(params, t)
        return BoundedValue(0.5 * bound, 2.0 * bound)

    monkeypatch.setattr(cli, "f_prefix_ratio", straddling)
    res = runner.invoke(main, ["counterexample", "--n", "120", "--t-grid", "1e-2"])
    assert res.exit_code == 1

def test_counterexample_unreachable_tail_tol_is_clean_error(runner):
    res = runner.invoke(main, ["counterexample", "--n", "120", "--t-grid", "1e-2",
                               "--tail-tol", "1e-17"])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert "Error: tail_tol=1e-17" in res.output

@pytest.mark.parametrize("tail_tol", ["nan", "0", "-1"])
def test_counterexample_nonpositive_tail_tol_is_clean_error(runner, tail_tol):
    res = runner.invoke(main, ["counterexample", "--n", "120", "--t-grid", "1e-2",
                               "--tail-tol", tail_tol])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert "Error: tail_tol must be a positive number" in res.output

def test_counterexample_subnormal_t_is_clean_error(runner):
    # 1/t overflows for t = 5e-324
    res = runner.invoke(main, ["counterexample", "--n", "120", "--t-grid", "5e-324"])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert "Error: t must lie in (0, 1/16)" in res.output

def test_counterexample_empty_t_grid_is_clean_error(runner):
    # with no t there is no enclosure, so divergence is not certified
    for t_grid in (",", ""):
        res = runner.invoke(main, ["counterexample", "--n", "120", "--t-grid", t_grid])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert "Error: --t-grid" in res.output

def test_counterexample_rejects_bad_eps(runner):
    res = runner.invoke(main, ["counterexample", "--eps", "0.25"])
    assert res.exit_code != 0


def test_counterexample_rejects_small_n(runner):
    res = runner.invoke(main, ["counterexample", "--n", "8"])
    assert res.exit_code != 0


def test_counterexample_refuses_n_above_the_cap_before_building(runner, monkeypatch):
    def refuse(params, n):
        raise AssertionError(f"built a pair at N={n}")

    monkeypatch.setattr(cli, "build_f", refuse)
    monkeypatch.setattr(cli, "build_g", refuse)
    res = runner.invoke(main, ["counterexample", "--n", str(cli.MAX_N + 1)])
    assert res.exit_code == 2
    assert "Invalid value for '--n'" in res.output
    assert f"x<={cli.MAX_N}" in res.output
    assert f"x<={cli.MAX_N}" in runner.invoke(main, ["counterexample", "--help"]).output


def test_counterexample_builds_g_once_at_n(runner, monkeypatch):
    # f is g's rearrangement, so the command derives it from the g it holds
    # rather than building g at --n a second time inside build_f
    built, build = [], counterexample.build_g

    def counting(params, n):
        built.append(n)
        return build(params, n)

    monkeypatch.setattr(cli, "build_g", counting)
    monkeypatch.setattr(counterexample, "build_g", counting)
    res = runner.invoke(main, ["counterexample", "--n", "300", "--t-grid", "1e-2"])
    assert res.exit_code == 0
    assert built.count(300) == 1


def test_counterexample_output_deterministic(runner, tmp_path):
    args = ["counterexample", "--n", "120", "--t-grid", "1e-2"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    r1 = runner.invoke(main, args + ["--out", str(out1)])
    r2 = runner.invoke(main, args + ["--out", str(out2)])
    assert r1.exit_code == 0 and r2.exit_code == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert r1.output == r2.output


def test_norm_out_file_matches_stdout(runner, tmp_path):
    path = _write(tmp_path / "c.json", make_step([0.0], [2.0]))
    out = tmp_path / "norm.csv"
    res = runner.invoke(main, ["norm", "--input", path, "--out", str(out)])
    assert res.exit_code == 0
    assert out.read_text() == res.output


def test_saved_file_roundtrips_lengths(tmp_path):
    prm = validate_params(1.0, 0.5, 0.2)
    g = build_g(prm, 40)
    p = tmp_path / "g.json"
    save_step_function(g, str(p))
    back = load_step_function(str(p))
    assert back.lengths.tobytes() == g.lengths.tobytes()
    assert back.values.tobytes() == g.values.tobytes()


def _fresh_import_probe(env):
    probe = ("import os, sys, morreycircle; had_numpy = 'numpy' in sys.modules; "
             "import morreycircle.cli; print(had_numpy, os.environ['OPENBLAS_NUM_THREADS'])")
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    return done.stdout.split()


def _child_env():
    """The environment, less any BLAS thread count, importing this package."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    src = os.path.dirname(os.path.dirname(morreycircle.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_cli_loads_numpy_with_one_blas_thread():
    # the package alone imports no numpy, so the CLI can set the BLAS thread
    # count before numpy loads; an explicit setting in the environment wins
    env = _child_env()
    assert _fresh_import_probe(env) == ["False", "1"]
    env["OPENBLAS_NUM_THREADS"] = "2"
    assert _fresh_import_probe(env) == ["False", "2"]


def test_norm_output_independent_of_blas_threads(tmp_path):
    # a threaded BLAS splits a long dot product by thread count, which would
    # move the last bits of the whole circle's integral at N=1e4
    path = _write(tmp_path / "g.json", build_g(validate_params(1.0, 0.5, 0.2), 10_000))
    env, outs = _child_env(), []
    for threads in ("1", "2"):
        env["OPENBLAS_NUM_THREADS"] = threads
        outs.append(subprocess.run(
            [sys.executable, "-m", "morreycircle.cli", "norm", "--input", path,
             "--lambda", "0"], env=env, capture_output=True, text=True, check=True).stdout)
    assert outs[0] == outs[1]


def test_every_exported_name_resolves():
    # names load lazily, so a stale entry would fail only when first used
    for name in morreycircle.__all__:
        assert getattr(morreycircle, name).__name__ == name
