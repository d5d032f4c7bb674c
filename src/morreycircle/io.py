"""Step function file format.

A JSON object with fields "breakpoints_rad" (strictly increasing angles
in (-pi, pi]) and "values" (one value per circular gap).  An optional
"segment_lengths_rad" field carries the authoritative segment lengths;
the writer always emits it so that distribution-exact functions (e.g. a
decreasing rearrangement) survive a round trip bit-for-bit.  Files
without it are read with lengths recovered from breakpoint differences.
"""

from __future__ import annotations

import json

import numpy as np

from .circle_step import StepFunction, make_step
from .errors import MorreyCircleError, NonFiniteNumber

# numbers formatted per write; a bound, so that no whole-file string is built
_SLICE = 1024


def load_step_function(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:     # not JSON, not UTF-8, too deep
            raise MorreyCircleError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MorreyCircleError(f"{path}: expected a JSON object")
    try:
        bps = doc["breakpoints_rad"]
        vals = doc["values"]
    except KeyError as exc:
        raise MorreyCircleError(f"{path}: missing field {exc}") from exc
    if not isinstance(bps, list) or not isinstance(vals, list):
        raise MorreyCircleError(f"{path}: breakpoints_rad and values must be arrays")
    lengths = doc.get("segment_lengths_rad")
    if lengths is not None and not isinstance(lengths, list):
        raise MorreyCircleError(f"{path}: segment_lengths_rad must be an array")
    try:
        return make_step(bps, vals, lengths)
    except MorreyCircleError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def save_step_function(f: StepFunction, path):
    """Write f as ``json.dump(doc, fh, indent=2)`` and a newline would, byte
    for byte (f has at least one segment), but without json's pure-Python
    encoder, which ``indent`` selects.  Each number is formatted by
    float.__repr__, json's own formatter for finite floats, _SLICE numbers
    per write.  Raises NonFiniteNumber, before the file is opened, on an
    entry that JSON cannot carry.
    """
    fields = (("breakpoints_rad", f.breakpoints), ("values", f.values),
              ("segment_lengths_rad", f.lengths))
    for name, xs in fields:
        bad = np.flatnonzero(~np.isfinite(xs))
        if bad.size:
            raise NonFiniteNumber(f"{name} entry {float(xs[bad[0]])} is not finite")
    with open(path, "w", encoding="utf-8") as fh:
        sep = "{\n"
        for name, xs in fields:
            fh.write(f'{sep}  "{name}": [')
            sep = ",\n"
            for i in range(0, len(xs), _SLICE):
                fh.write(",\n    " if i else "\n    ")
                fh.write(",\n    ".join(map(float.__repr__, xs[i:i + _SLICE].tolist())))
            fh.write("\n  ]")
        fh.write("\n}\n")
