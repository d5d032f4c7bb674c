"""Command-line front end.

Usage:
    morreycircle norm --input f.json --p 1 --lambda 0.5
    morreycircle rearrange --input f.json --out f_star.json
    morreycircle equimeasurable --input f.json --input2 g.json
    morreycircle counterexample --p 1 --lambda 0.5 --eps 0.2 --N 1000

All numeric CSV output uses 17 significant digits so identical configs
produce byte-identical reports.
"""

from __future__ import annotations

import os
import sys

# numpy's OpenBLAS starts one busy-waiting worker per CPU when it loads. No
# command here does threaded linear algebra, so those workers only burn CPU,
# and what they cost in wall time depends on the load of the host. This must
# run before numpy is imported; an explicit setting in the environment wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import click  # noqa: E402

from .circle_step import decreasing_rearrangement, equimeasurable as eq_check
from .counterexample import (
    build_f,
    build_g,
    divergence_lower_bound,
    f_prefix_ratio,
    g_ratio_upper_bound,
    validate_params,
)
from .io import load_step_function, save_step_function
from .morrey import MAX_REFINEMENT, MorreyParams, grid_search, morrey_norm_exact


def _fmt(x):
    return format(float(x), ".17g")


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    click.echo(text, nl=False)


class _CleanErrors(click.Group):
    """A group whose commands report a ValueError (MorreyCircleError is one)
    or an OSError as a one-line ``Error:`` with exit status 1, not as a
    traceback."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (ValueError, OSError) as exc:
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_CleanErrors)
def main():
    """Morrey-space functionals of step functions on the circle."""


@main.command()
@click.option("--input", "input_path", required=True, help="Step function file.")
@click.option("--p", default=1.0, show_default=True)
@click.option("--lambda", "lam", default=0.5, show_default=True)
@click.option("--method", type=click.Choice(["exact", "grid"]), default="exact",
              show_default=True)
@click.option("--refinement", type=click.IntRange(2, MAX_REFINEMENT), default=4096,
              show_default=True)
@click.option("--out", "out_path", default=None, help="Also write the CSV here.")
def norm(input_path, p, lam, method, refinement, out_path):
    """Morrey norm of a step function, as a one-row CSV."""
    f = load_step_function(input_path)
    params = MorreyParams(p, lam)
    res = (morrey_norm_exact(f, params) if method == "exact"
           else grid_search(f, params, refinement))
    row = (res.value, res.ratio_sup, res.argmax.start, res.argmax.length)
    text = "norm,ratio_sup,arc_start,arc_length\n"
    text += ",".join(_fmt(x) for x in row) + "\n"
    _emit(text, out_path)


@main.command()
@click.option("--input", "input_path", required=True)
@click.option("--out", "out_path", required=True)
def rearrange(input_path, out_path):
    """Write the decreasing rearrangement of a step function."""
    f = load_step_function(input_path)
    save_step_function(decreasing_rearrangement(f), out_path)


@main.command()
@click.option("--input", "input_path", required=True)
@click.option("--input2", "input2_path", required=True)
@click.option("--tol", default=0.0, show_default=True,
              help="Comparison tolerance; 0 demands exact agreement.")
def equimeasurable(input_path, input2_path, tol):
    """Print true/false; exit 0 iff the two functions are equimeasurable."""
    f = load_step_function(input_path)
    g = load_step_function(input2_path)
    verdict = eq_check(f, g, tol)
    click.echo("true" if verdict else "false")
    sys.exit(0 if verdict else 1)


# counterexample's largest --n: f, g and the exact scan on g take about 300
# B per block (300 MB peak RSS at --n 1000000, 813 MB at 3000000)
MAX_N = 10 ** 7


def _n_schedule(n_max):
    sched = []
    v = 100
    while v < n_max:
        sched.append(v)
        v *= 10
    sched.append(n_max)
    return sched


@main.command()
@click.option("--p", default=1.0, show_default=True)
@click.option("--lambda", "lam", default=0.5, show_default=True)
@click.option("--eps", default=0.2, show_default=True)
@click.option("--n", "--N", "n_max", default=1000, show_default=True,
              type=click.IntRange(max=MAX_N),
              help="g's last block. Memory grows by about 300 B per block "
                   "(0.3 GB at 1e6), so the cap keeps it near 3 GB.")
@click.option("--t-grid", default="1e-2,1e-3,1e-4", show_default=True,
              help="Comma-separated prefix-arc lengths.")
@click.option("--tail-tol", default=1e-8, show_default=True)
@click.option("--out", "out_path", default=None)
def counterexample(p, lam, eps, n_max, t_grid, tail_tol, out_path):
    """Reproduce the equimeasurable-pair separation report.

    Exit status 0 iff f and g are exactly equimeasurable, every certified
    f-ratio enclosure reaches the divergence bound, and every exact
    g-ratio supremum stays below its upper bound.
    """
    params = validate_params(p, lam, eps)
    ts = [float(s) for s in t_grid.split(",") if s.strip()]
    if not ts:
        raise click.ClickException("--t-grid names no prefix-arc length")
    g = build_g(params, n_max)
    f = build_f(params, n_max, g)
    verdict = eq_check(f, g, 0.0)
    lines = [f"equimeasurable,{'true' if verdict else 'false'}", ""]

    ok = verdict
    lines.append("t,ratio_lo,ratio_hi,divergence_bound")
    for t in ts:
        enc = f_prefix_ratio(params, t, tail_tol)
        bound = divergence_lower_bound(params, t)
        ok = ok and enc.lo >= bound
        lines.append(",".join(_fmt(x) for x in (t, enc.lo, enc.hi, bound)))
    lines.append("")

    gbound = g_ratio_upper_bound(params)
    lines.append("N,g_ratio_sup,g_upper_bound")
    # the schedule ends at n_max, whose g is already built
    for n in _n_schedule(n_max):
        gn = g if n == n_max else build_g(params, n)
        sup = morrey_norm_exact(gn, params).ratio_sup
        ok = ok and sup <= gbound
        lines.append(f"{n}," + _fmt(sup) + "," + _fmt(gbound))
    _emit("\n".join(lines) + "\n", out_path)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
