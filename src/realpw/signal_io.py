"""Signal file format: JSON header + interleaved (re, im) payload.

Layout: a single JSON document with keys d, M, h, side, label, payload
("complex" for sampled functions, "boolean" for support masks), encoding
("base64" for little-endian float64 bytes, "array" for a plain list), and
values (interleaved re0, im0, re1, im1, ... in row-major index order).
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


def _deinterleave(flat: np.ndarray) -> np.ndarray:
    if flat.size % 2:
        raise SignalIOError("interleaved payload must have even length")
    return flat[0::2] + 1j * flat[1::2]


def atomic_write_text(path: str, text: str):
    """Write via a temp file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def signal_to_dict(obj, encoding: str = "base64") -> dict:
    """Serializable dict for a SampledFunction or SupportMask."""
    if encoding not in ("base64", "array"):
        raise SignalIOError(f"encoding must be 'base64' or 'array', got {encoding!r}")
    if isinstance(obj, SupportMask):
        grid, side, label = obj.grid, "frequency", f"mask eps_rel={obj.eps_rel:g}"
        values = obj.field.astype(complex)
        payload = "boolean"
        extra = {"eps_rel": obj.eps_rel, "resolved": obj.resolved}
    elif isinstance(obj, SampledFunction):
        grid, side, label = obj.grid, obj.side, obj.label
        values = obj.values
        payload = "complex"
        extra = {}
    else:
        raise SignalIOError(f"cannot serialize {type(obj).__name__}")
    flat = _interleave(values)
    if encoding == "base64":
        data = base64.b64encode(flat.tobytes()).decode("ascii")
    else:
        data = [float(v) for v in flat]
    out = {"d": grid.d, "M": grid.M, "h": grid.h, "side": side, "label": label,
           "payload": payload, "encoding": encoding, "values": data}
    out.update(extra)
    return out


def signal_from_dict(doc: dict):
    """Decode a signal document; any defect raises SignalIOError."""
    try:
        grid = make_grid(int(doc["d"]), int(doc["M"]), float(doc["h"]))
        side = doc["side"]
        encoding = doc.get("encoding", "array")
        raw = doc["values"]
        if encoding == "base64":
            flat = np.frombuffer(base64.b64decode(raw), dtype="<f8")
        elif encoding == "array":
            flat = np.asarray(raw, dtype=float)
        else:
            raise SignalIOError(f"unknown encoding {encoding!r}")
        values = _deinterleave(flat)
        if values.size != grid.n_points:
            raise SignalIOError(
                f"payload holds {values.size} values, grid needs {grid.n_points}")
        if doc.get("payload") == "boolean":
            return SupportMask(grid, values.real >= 0.5, float(doc.get("eps_rel", 0.5)),
                               bool(doc.get("resolved", True)))
        return SampledFunction(grid, side, values, label=doc.get("label", ""))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        # SignalIOError, GridError and binascii.Error (bad base64) are ValueErrors
        raise SignalIOError(f"bad signal: {exc}") from exc


def save_signal(obj, path: str, encoding: str = "base64"):
    doc = signal_to_dict(obj, encoding)
    if encoding == "base64":
        # "values" sorts last and base64 text needs no JSON escaping: splice
        # the payload in instead of having the encoder scan it
        data = doc.pop("values")
        text = "".join((json.dumps(doc, sort_keys=True)[:-1], ', "values": "', data, '"}'))
    else:
        text = json.dumps(doc, sort_keys=True)
    atomic_write_text(path, text)


def load_signal(path: str):
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
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
