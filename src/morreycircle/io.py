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

from .circle_step import StepFunction, make_step
from .errors import MorreyCircleError


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
    doc = {
        "breakpoints_rad": f.breakpoints.tolist(),
        "values": f.values.tolist(),
        "segment_lengths_rad": f.lengths.tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
