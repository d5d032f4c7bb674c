"""The benchmark's own output checks, run once over every workload input.

perfbench/workloads.py pins the paper's report rows and checks each
operation's output; running those checks here catches a moved pinned
value before a benchmark run does.  The module is imported from its file
and left as it is.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # no bytecode cache is written next to the benchmark's files
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


@pytest.mark.parametrize("name", ["reproduce", "certify", "oracle", "arcs"])
def test_every_workload_input_passes_its_check(workloads, name, tmp_path):
    wl = workloads.make(name, 1, ROOT, tmp_path)
    for i in range(wl.inputs):
        assert wl.check(i, wl.op_inproc(i)) == [], (name, i)
