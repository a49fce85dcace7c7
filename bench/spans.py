"""In-memory span tracing of realpw's public functions, installed from outside.

The tracer replaces each traced function at every place realpw binds it:
module attributes (including `from .x import f` copies in other modules),
dict values held in module globals (such as verify's PROPERTIES table) and
class attributes for methods.  `Tracer.installed` undoes every replacement on
exit, so the library source is never edited.

Each call records one span: (id, name, start, end, parent id, extra), where
`extra` holds a per-call count taken from the arguments or result (symbol
points, FFT points, bytes written).  A span opened in a worker thread with no
open span of its own takes the innermost open span of the installing thread
as parent, so verify's thread fan-out nests under run_matrix.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import os
import sys
import threading
from collections import defaultdict
from time import perf_counter


def _symbol_points(args, result):
    shape = getattr(args[1], "shape", ())
    n = 1
    for k in shape[:-1]:
        n *= k
    return n


def _fft_input(args, result):
    """(points, content fingerprint) of the transformed array."""
    v = args[0].ravel()
    step = max(1, v.size // 64)
    return v.size, (v.size, v[::step].tobytes())


def _fft_points(args, result):
    return args[0].size, None


def _bytes_saved(args, result):
    return os.path.getsize(args[1])


def _bytes_loaded(args, result):
    return os.path.getsize(args[0])


def _truncated(args, result):
    return result.truncated_at is not None and result.regime != "zero"


def _estimated_cells(args, result):
    return result.estimated.n_cells


# Traced functions, as "<module>.<function>" or "<module>.<Class>.<method>"
# under the realpw package, with the per-call count each one records.
TARGETS = {
    "cli.main": None,
    "grid.sample_builtin": None,
    "grid.Grid.frequency_coords": None,
    "poly.eval_symbol_many": _symbol_points,
    "transform.forward_values": _fft_input,
    "transform.inverse_values": _fft_points,
    "transform.support_mask": None,
    "transform.compute_R": None,
    "transform.eval_entire": None,
    "growth.growth_sequence": _truncated,
    "growth.estimate_limit": None,
    "growth.apply_op_spectral": None,
    "growth.apply_op_fd": None,
    "growth.liminf_check": None,
    "growth.pointwise_growth": None,
    "reconstruct.reconstruct_support": _estimated_cells,
    "reconstruct.mask_metrics": None,
    "reconstruct.local_spectrum_raster": None,
    "signal_io.save_signal": _bytes_saved,
    "signal_io.load_signal": _bytes_loaded,
    "verify.verify_corpus": None,
    "verify.run_matrix": None,
    "verify.check_limit_vs_R": None,
    "verify.check_liminf": None,
    "verify.check_plancherel": None,
    "verify.check_rtilde_vs_R": None,
    "verify.check_raster": None,
    "verify.check_fd_oracle": None,
    "verify.check_cauchy_bound": None,
}


def span_name(target):
    """"<module>.<function>"; the span of a method leaves out its class."""
    module, *attrs = target.split(".")
    return f"{module}.{attrs[-1]}"


SPAN_NAMES = [span_name(t) for t in TARGETS]


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._stacks = {}
        self._home = threading.get_ident()

    def _parent(self, stack):
        if stack:
            return stack[-1]
        home = self._stacks.get(self._home)
        return home[-1] if home else None

    def wrap(self, name, fn, measure):
        spans, ids, stacks = self.spans, self._ids, self._stacks

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stacks.setdefault(threading.get_ident(), [])
            parent = self._parent(stack)
            sid = next(ids)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                spans.append((sid, name, t0, perf_counter(), parent, None))
                raise
            t1 = perf_counter()
            stack.pop()
            extra = measure(args, result) if measure else None
            spans.append((sid, name, t0, t1, parent, extra))
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding of each target for the duration of the block."""
        undo = []
        try:
            for qualified, measure in TARGETS.items():
                _patch(qualified, measure, self, undo)
            yield self
        finally:
            for setter, key, original in reversed(undo):
                setter(key, original)


def _patch(qualified, measure, tracer, undo):
    mod_name, *attrs = qualified.split(".")
    module = importlib.import_module(f"realpw.{mod_name}")
    if len(attrs) == 2:                               # method on a class
        cls = getattr(module, attrs[0])
        original = cls.__dict__[attrs[1]]
        undo.append((functools.partial(setattr, cls), attrs[1], original))
        setattr(cls, attrs[1], tracer.wrap(span_name(qualified), original, measure))
        return
    original = getattr(module, attrs[0])
    wrapper = tracer.wrap(span_name(qualified), original, measure)
    for mod in [m for k, m in sys.modules.items()
                if k == "realpw" or k.startswith("realpw.")]:
        for attr, value in list(vars(mod).items()):
            if value is original:
                undo.append((functools.partial(setattr, mod), attr, original))
                setattr(mod, attr, wrapper)
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is original:
                        undo.append((value.__setitem__, key, original))
                        value[key] = wrapper


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def layer_totals(spans):
    """Per span name: calls, self time and the summed per-call counts.

    Self time is a span's duration minus the part of it that its child spans
    cover; overlapping children (thread fan-out) are counted once.
    """
    children = defaultdict(list)
    for sid, _, t0, t1, parent, _ in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    totals = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "extra": []})
    for sid, name, t0, t1, _, extra in spans:
        row = totals[name]
        row["calls"] += 1
        row["self_s"] += (t1 - t0) - _covered(children.get(sid, ()), t0, t1)
        if extra is not None:
            row["extra"].append(extra)
    return totals


def under(spans, name, ancestor):
    """Extras of `name` spans that have an `ancestor` span above them."""
    by_id = {s[0]: s for s in spans}
    out = []
    for sid, sname, _, _, parent, extra in spans:
        if sname != name:
            continue
        while parent is not None and by_id[parent][1] != ancestor:
            parent = by_id[parent][4]
        if parent is not None:
            out.append(extra)
    return out
