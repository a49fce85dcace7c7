"""Signal file format: JSON header + interleaved (re, im) payload.

Layout: a single JSON document with keys d, M, h, side, label, payload
("complex" for sampled functions, "boolean" for support masks), encoding
("base64" for little-endian float64 bytes, which save_signal writes; "array"
for a plain list, which is read too), and values (interleaved re0, im0, re1,
im1, ... in row-major index order).
CSV is accepted for d = 1 with rows "index,re,im" and a header line; the
grid step and side must then be supplied by the caller.
"""

from __future__ import annotations

import base64
import json
import os
import tempfile

import numpy as np

from .grid import SampledFunction, make_grid, GridError
from .transform import SupportMask


class SignalIOError(ValueError):
    pass


def _interleave(values: np.ndarray) -> np.ndarray:
    out = np.empty(2 * values.size, dtype="<f8")
    out[0::2] = values.real
    out[1::2] = values.imag
    return out


def atomic_write_text(path: str, text: str):
    """Write via a temp file in the target directory, then rename."""
    _atomic_write(path, "w", text)


def _atomic_write(path: str, mode: str, *chunks):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, mode) as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _document(obj):
    """(header, payload) of a base64 signal document: every key but
    "values", and the interleaved float64 values."""
    if isinstance(obj, SupportMask):
        grid, side, label = obj.grid, "frequency", f"mask eps_rel={obj.eps_rel:g}"
        flat = np.zeros(2 * grid.n_points, dtype="<f8")
        flat[0::2] = obj.field          # 1.0 and 0.0 straight from the bool field
        payload = "boolean"
        extra = {"eps_rel": obj.eps_rel, "resolved": obj.resolved}
    elif isinstance(obj, SampledFunction):
        grid, side, label = obj.grid, obj.side, obj.label
        flat = _interleave(obj.values)
        payload = "complex"
        extra = {}
    else:
        raise SignalIOError(f"cannot serialize {type(obj).__name__}")
    head = {"d": grid.d, "M": grid.M, "h": grid.h, "side": side, "label": label,
            "payload": payload, "encoding": "base64"}
    head.update(extra)
    return head, flat


def signal_from_dict(doc: dict):
    """Decode a signal document; any defect raises SignalIOError."""
    try:
        for key in ("d", "M"):      # 1.5, true or "8" is no grid size
            if isinstance(doc[key], bool) or not isinstance(doc[key], int):
                raise SignalIOError(f"header {key!r} must be an integer, got {doc[key]!r:.60}")
        grid = make_grid(doc["d"], doc["M"], float(doc["h"]))
        side = doc["side"]
        encoding = doc.get("encoding", "array")
        raw = doc["values"]
        if encoding == "base64":
            flat = np.frombuffer(base64.b64decode(raw), dtype="<f8")
        elif encoding == "array":
            flat = np.asarray(raw, dtype=float)
        else:
            raise SignalIOError(f"unknown encoding {encoding!r}")
        if flat.size % 2:
            raise SignalIOError("interleaved payload must have even length")
        if flat.size // 2 != grid.n_points:
            raise SignalIOError(
                f"payload holds {flat.size // 2} values, grid needs {grid.n_points}")
        if doc.get("payload") == "boolean":     # the real parts, with no complex copy
            return SupportMask(grid, flat[0::2] >= 0.5, float(doc.get("eps_rel", 0.5)),
                               bool(doc.get("resolved", True)))
        return SampledFunction(grid, side, flat[0::2] + 1j * flat[1::2],
                               label=doc.get("label", ""))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        # SignalIOError, GridError and binascii.Error (bad base64) are ValueErrors
        raise SignalIOError(f"bad signal: {exc}") from exc


def save_signal(obj, path: str):
    """Write a SampledFunction or SupportMask as a base64 signal document."""
    # "values" sorts last and base64 needs no JSON escaping: the header (ASCII,
    # as json.dumps escapes the rest) and the payload's bytes go to the file as
    # they are, with no text copy of the payload
    head, flat = _document(obj)
    _atomic_write(path, "wb", json.dumps(head, sort_keys=True)[:-1].encode("ascii"),
                  b', "values": "', base64.b64encode(flat), b'"}')


def load_signal(path: str):
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad JSON or bytes, or too deep
            raise SignalIOError(f"not a JSON signal file: {exc}") from exc
    return signal_from_dict(doc)


# ---------------------------------------------------------------------------
# CSV (d = 1 only)
# ---------------------------------------------------------------------------

def save_signal_csv(f: SampledFunction, path: str):
    if f.grid.d != 1:
        raise SignalIOError("CSV signals are d=1 only")
    lines = ["index,re,im"]
    for k, v in zip(f.grid.axis_indices(), f.values):
        lines.append(f"{k},{float(v.real)!r},{float(v.imag)!r}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_signal_csv(path: str, h: float, side: str, label: str = "") -> SampledFunction:
    rows = []
    with open(path, errors="replace") as fh:
        for ln, line in enumerate(fh):
            line = line.strip()
            if not line or (ln == 0 and line.lower().startswith("index")):
                continue
            try:
                k, re_part, im_part = line.split(",")
                rows.append((int(k), float(re_part), float(im_part)))
            except ValueError:
                raise SignalIOError(f"bad CSV row {ln + 1}: {line!r}") from None
    if not rows:
        raise SignalIOError("empty CSV signal")
    rows.sort()
    M = len(rows)
    indices = [r[0] for r in rows]
    if indices != list(range(-M // 2, M - M // 2)):
        raise SignalIOError("CSV indices must be contiguous -M/2 .. M/2-1")
    values = np.array([r[1] + 1j * r[2] for r in rows])
    try:
        return SampledFunction(make_grid(1, M, h), side, values, label=label)
    except GridError as exc:
        raise SignalIOError(f"bad CSV signal: {exc}") from exc
