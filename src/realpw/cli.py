"""Batch driver: `realpw estimate|reconstruct|complex-growth|verify --config ...`.

Exit codes separate outcomes: 0 = computed (the report carries the verdict),
1 = verify matrix has a failing cell, 2 = configuration rejected, 3 = I/O
failure.  Identical config + inputs produce byte-identical reports; the
wall-clock timestamp lives in a separate "meta" field outside that contract.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import io
import json
import math
import sys

import numpy as np

from .grid import make_grid, sample_builtin, SampledFunction, GridError
from .poly import parse_poly, family_linear, family_quadratic, family_quadratic_real, \
    family_explicit, symbol_bound, PolyError, MAX_COUNT
from .transform import (Spectrum, SupportMask, complex_growth_rate, OVERFLOW_GUARD,
                        DEFAULT_EPS_REL, box_supporting_function)
from .growth import growth_sequences, GrowthError
from .reconstruct import reconstruct_support, DEFAULT_TAU
from .signal_io import (save_signal, load_signal, load_signal_csv,
                        atomic_write_text, SignalIOError)
from . import verify as verify_mod

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_IO = 3
MAX_GRID_POINTS = 2 ** 24        # M^d cap: 256 MiB per complex array


class ConfigError(Exception):
    def __init__(self, field_name, message):
        super().__init__(f"config field {field_name!r}: {message}")
        self.field_name = field_name


def _parse(kind, v):
    """v as a `kind`: a float may be given as text ('inf' too), an int may
    not; neither may be a boolean.  A lone text stands for a list of one."""
    if kind is list and isinstance(v, str):
        return [v]
    if isinstance(v, bool) or not isinstance(v, (int, float, str) if kind is float else kind):
        raise TypeError(type(v).__name__)
    return float(v) if kind is float else v


def _texts(v):
    return bool(v) and all(isinstance(t, str) for t in v)


def _vectors(v):
    return bool(v) and all(isinstance(u, list) and all(
        type(x) in (int, float) and math.isfinite(x) for x in u) for u in v)


_REQUIRED = object()
_PATH = (str, None, lambda v: "\0" not in v, "a file path")
_FAMILIES = ("linear", "quadratic", "quadratic_lattice", "quadratic_real_lattice", "explicit")

# Every field a subcommand reads: dotted name -> (kind, default, range
# predicate, valid values).  A missing or null field takes its default.
FIELDS = {
    "input.builtin": (dict, None, bool, "a builtin-input object"),
    "input.path": _PATH,
    "input.h": (float, _REQUIRED, lambda v: 0 < v <= 1e100, "a number in (0, 1e100]"),
    "input.side": (str, "spatial", ("spatial", "frequency").__contains__, "spatial | frequency"),
    "grid.d": (int, _REQUIRED, (1, 2, 3).__contains__, "1, 2 or 3"),
    "grid.M": (int, _REQUIRED, lambda v: v >= 8 and v % 2 == 0, "an even integer >= 8"),
    "grid.h": (float, _REQUIRED, lambda v: 0 < v <= 1e100, "a number in (0, 1e100]"),
    "poly": (list, _REQUIRED, _texts, "a polynomial text or a non-empty list of them"),
    "p": (float, 2.0, lambda v: v >= 1, "a number >= 1 or 'inf'"),
    "n_max": (int, 64, lambda v: 8 <= v <= MAX_COUNT, f"an integer in [8, {MAX_COUNT}]"),
    "eps_rel": (float, DEFAULT_EPS_REL, lambda v: 0 < v < 1, "a number in (0, 1)"),
    "rel_tol": (float, 0.02, lambda v: 0 <= v < math.inf, "a number >= 0"),
    "tau": (float, DEFAULT_TAU, lambda v: 0 <= v < math.inf, "a number >= 0"),
    "family.kind": (str, _REQUIRED, _FAMILIES.__contains__, " | ".join(_FAMILIES)),
    "family.directions": (list, _REQUIRED, _vectors, "a non-empty list of vectors"),
    "family.centers": (list, _REQUIRED, _vectors, "a non-empty list of vectors"),
    "family.polys": (list, _REQUIRED, _texts, "a non-empty list of polynomial texts"),
    "family.per_axis": (int, 16, lambda v: v >= 2, "an integer >= 2"),
    "family.span_cells": (float, None, lambda v: 0 < v < math.inf, "a number > 0"),
    "complex_growth.t_min": (float, 10.0, lambda v: 0 < v < math.inf, "a number > 0"),
    "complex_growth.t_max": (float, 40.0, lambda v: 0 < v < math.inf, "a number > t_min"),
    "complex_growth.t_count": (int, 31, lambda v: 3 <= v <= MAX_COUNT,
                               f"an integer in [3, {MAX_COUNT}]"),
    "complex_growth.x0": (list, None, _vectors, "a non-empty list of d-vectors"),
    "complex_growth.y": (list, None, _vectors, "a non-empty list of d-vectors"),
    "reference_mask": _PATH,
    "out": _PATH,
    "mask_out": _PATH,
    "csv_out": _PATH,
}


def _field(cfg, name):
    """A FIELDS entry of cfg, parsed and range-checked.  Defaults are never
    written back: the report embeds cfg as given."""
    kind, default, ok, valid = FIELDS[name]
    parent, _, key = name.rpartition(".")
    node = cfg.get(parent) if parent else cfg
    if not isinstance(node, (dict, type(None))):
        raise ConfigError(parent, f"expected an object, got {node!r:.60}")
    raw = (node or {}).get(key)
    if raw is None:
        if default is _REQUIRED:
            raise ConfigError(name, f"missing; expected {valid}")
        return default
    try:
        value = _parse(kind, raw)
        if ok(value):
            return value
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(name, f"expected {valid}, got {raw!r:.60}")


def _signal_file(name, load, *args):
    try:
        return load(*args)
    except SignalIOError as exc:
        raise ConfigError(name, str(exc))


def _load_input(cfg):
    builtin, path = _field(cfg, "input.builtin"), _field(cfg, "input.path")
    if builtin is not None:
        d, M, h = (_field(cfg, f"grid.{k}") for k in "dMh")
        if M ** d > MAX_GRID_POINTS:
            raise ConfigError("grid.M", f"M^d = {M}^{d} exceeds {MAX_GRID_POINTS} points")
        try:
            return sample_builtin(builtin, make_grid(d, M, h))
        except (KeyError, IndexError, TypeError, ValueError, RecursionError) as exc:
            raise ConfigError("input.builtin", str(exc))
    if path is None:
        raise ConfigError("input", "needs either 'builtin' or 'path'")
    if path.endswith(".csv"):
        f = _signal_file("input.path", load_signal_csv, path, _field(cfg, "input.h"),
                         _field(cfg, "input.side"))
    else:
        f = _signal_file("input.path", load_signal, path)
    if not isinstance(f, SampledFunction):
        raise ConfigError("input.path", "holds a support mask, not a signal")
    return f


def _spectrum(f, eps_rel):
    """The input's Spectrum; an input it cannot be built from is named."""
    try:
        return Spectrum.of(f, eps_rel)
    except GridError as exc:
        raise ConfigError("input", str(exc))


def _bounded(name, family, grid):
    """family, unless a member's symbol could overflow a double on the frequency box."""
    bad = np.flatnonzero(~np.isfinite(symbol_bound(family, grid.frequency_halfwidth)))
    if bad.size:
        raise ConfigError(name, f"{family[bad[0]].to_text():.60}: |P(i lam)| on the "
                                "frequency box exceeds the double range")
    return family


def _parse_polys(cfg, name, grid):
    out = []
    for t in _field(cfg, name):
        try:
            out.append(parse_poly(t, grid.d))
        except PolyError as exc:
            raise ConfigError(name, f"{t!r}: {exc}")
    return _bounded(name, family_explicit(out), grid)


def _d_vectors(cfg, name, d):
    """A FIELDS entry of vectors, unless one of them has other than d entries."""
    vecs = _field(cfg, name)
    if vecs and any(len(v) != d for v in vecs):
        raise ConfigError(name, f"each vector needs d = {d} entries")
    return vecs


def _build_family(cfg, grid):
    kind = _field(cfg, "family.kind")
    try:
        if kind == "linear":
            family = family_linear(_d_vectors(cfg, "family.directions", grid.d))
        elif kind == "quadratic":
            family = family_quadratic(_d_vectors(cfg, "family.centers", grid.d), grid)
        elif kind == "explicit":
            family = _parse_polys(cfg, "family.polys", grid)
        else:
            per_axis = _field(cfg, "family.per_axis")
            if per_axis ** grid.d > MAX_COUNT:
                raise ConfigError("family.per_axis",
                                  f"per_axis^d = {per_axis}^{grid.d} exceeds {MAX_COUNT} members")
            span = _field(cfg, "family.span_cells") or (grid.M // 2) * 0.98
            step = span * grid.dlam / (per_axis // 2)
            axis_vals = (np.arange(per_axis) - (per_axis // 2 - 1)) * step
            centers = np.stack(np.meshgrid(*[axis_vals] * grid.d, indexing="ij"),
                               axis=-1).reshape(-1, grid.d)
            builder = family_quadratic if kind == "quadratic_lattice" else family_quadratic_real
            family = builder(centers, grid)
    except PolyError as exc:
        raise ConfigError("family", str(exc))
    return _bounded("family", family, grid)


def _finish_report(report, path):
    report["meta"] = {"timestamp": datetime.datetime.now().isoformat()}
    try:
        full = json.dumps(report, sort_keys=True, indent=2)
    except RecursionError:      # a config value nested nearly as deep as json.load reads
        raise ConfigError("--config", "nested too deeply to write into the report") from None
    if path:
        atomic_write_text(path, full + "\n")
    else:
        print(full)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_estimate(cfg):
    p, n_max, eps_rel, tol, out = (_field(cfg, k) for k in
                                   ("p", "n_max", "eps_rel", "rel_tol", "out"))
    f = _load_input(cfg)
    if f.side != "spatial":
        raise ConfigError("input", "estimate expects a spatial-side input")
    polys = _parse_polys(cfg, "poly", f.grid)
    rows = [{"growth": seq.to_json_dict(),
             "R": seq.R, "resolved": seq.resolved,
             "relative_gap": seq.relative_gap,
             "within_tolerance": bool(seq.relative_gap <= tol),
             "lower_bound_only": not seq.resolved}
            for seq in growth_sequences(_spectrum(f, eps_rel), polys, p, n_max)]
    _finish_report({"config": cfg, "estimate": rows}, out)
    return EXIT_OK


def cmd_reconstruct(cfg):
    p, n_max, tau, eps_rel, ref, out, mask_out = (_field(cfg, k) for k in (
        "p", "n_max", "tau", "eps_rel", "reference_mask", "out", "mask_out"))
    f = _load_input(cfg)
    family = _build_family(cfg, f.grid)
    reference = _signal_file("reference_mask", load_signal, ref) if ref else None
    if reference is not None and not (isinstance(reference, SupportMask)
                                      and reference.grid == f.grid):
        raise ConfigError("reference_mask", "must be a support mask on the input's grid")
    res = reconstruct_support(_spectrum(f, eps_rel), family, p, n_max,
                              reference=reference, tau=tau)
    _finish_report({"config": cfg, "reconstruction": res.to_json_dict()}, out)
    if mask_out:
        save_signal(res.estimated, mask_out)
    return EXIT_OK


def cmd_complex_growth(cfg):
    t_min, t_max, t_count, out, csv_out = (_field(cfg, k) for k in (
        "complex_growth.t_min", "complex_growth.t_max", "complex_growth.t_count",
        "out", "csv_out"))
    if t_min >= t_max:
        raise ConfigError("complex_growth.t_max", f"must exceed t_min = {t_min}")
    f = _load_input(cfg)
    d = f.grid.d
    ys, x0s = (_d_vectors(cfg, f"complex_growth.{k}", d) for k in ("y", "x0"))
    noted_default, ys, x0s = ys is None, ys or [[1.0] * d], x0s or [[0.0] * d]
    # overflow guards of t y.x and x0.x on the box [-reach, reach]^d, before any quadrature
    reach = (f.grid.M // 2) * (f.grid.h if f.side == "spatial" else f.grid.dlam)
    if not all(t_max * box_supporting_function([-reach] * d, [reach] * d, y) <= OVERFLOW_GUARD
               for y in ys):
        raise ConfigError("complex_growth.t_max", "t window exceeds the exp overflow guard")
    if not math.isfinite(max(sum(abs(float(c)) for c in x0) for x0 in x0s) * reach):
        raise ConfigError("complex_growth.x0", "sum |x0_j| * max |coordinate| exceeds "
                                               "the double range")
    t = np.linspace(t_min, t_max, t_count)
    if not np.all(np.diff(t) > 0.0):
        raise ConfigError("complex_growth.t_max",
                          f"[t_min, t_max] holds fewer than {t_count} distinct doubles")
    rows, table = [], io.StringIO()
    writer = csv.writer(table, lineterminator="\n")      # quotes a vector's commas
    writer.writerow(["x0", "y", "t", "log_abs"])
    for y in ys:
        for x0 in x0s:
            try:
                rep = complex_growth_rate(f, x0, y, t)
            except GridError as exc:    # values on the boundary frame, or every sample underflows
                raise ConfigError("input.path" if _field(cfg, "input.builtin") is None
                                  else "input", str(exc))
            row = rep.to_json_dict()
            if noted_default:
                row["note"] = "y defaulted to the all-ones direction"
            rows.append(row)
            writer.writerows([str(x0), str(y), repr(float(ti)), repr(float(li))]
                             for ti, li in zip(rep.t, rep.log_abs))
    _finish_report({"config": cfg, "complex_growth": rows}, out)
    if csv_out:
        atomic_write_text(csv_out, table.getvalue())
    return EXIT_OK


def cmd_verify(cfg):
    n_max, out = _field(cfg, "n_max"), _field(cfg, "out")
    matrix = verify_mod.run_matrix(n_max=n_max)
    failed = verify_mod.matrix_failed(matrix)
    cells = {prop: {m: {"status": s, "detail": d} for m, (s, d) in row.items()}
             for prop, row in matrix.items()}
    _finish_report({"config": cfg, "matrix": cells, "all_passed": not failed}, out)
    for prop, row in sorted(matrix.items()):
        for member, (status, _) in sorted(row.items()):
            print(f"{status.upper():5s} {prop:14s} {member}", file=sys.stderr)
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _read_config(args):
    """The --config file's object, with the command-line overrides applied."""
    cfg = {}
    if args.config:
        with open(args.config) as fh:
            try:
                cfg = json.load(fh)
            except (ValueError, RecursionError) as exc:  # bad JSON or bytes, or too deep
                raise ConfigError("--config", f"not readable JSON: {exc}")
        if not isinstance(cfg, dict):
            raise ConfigError("--config", f"expected a JSON object, got {cfg!r:.60}")
    for name in OVERRIDES:
        value = getattr(args, name, None)
        if value is not None:
            cfg[name] = {"path": value} if name == "input" else value
    return cfg


# Command-line overrides: config field -> (option, type, help); --input sets input.path.
OVERRIDES = {"poly": ("--poly", str, "polynomial text override"),
             "p": ("--p", str, "norm exponent override (number or 'inf')"),
             "n_max": ("--nmax", int, "n_max override"),
             "eps_rel": ("--eps-rel", float, "mask threshold override"),
             "input": ("--input", str, "input signal path override"),
             "out": ("--out", str, "report output path override")}

# Each subcommand's handler and the overrides it reads: an override the
# handler would ignore is a usage error, not a field embedded in the report.
COMMANDS = {
    "estimate": (cmd_estimate, ("poly", "p", "n_max", "eps_rel", "input", "out")),
    "reconstruct": (cmd_reconstruct, ("p", "n_max", "eps_rel", "input", "out")),
    "complex-growth": (cmd_complex_growth, ("input", "out")),
    "verify": (cmd_verify, ("n_max", "out")),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="realpw",
        description="Spectral support from growth of iterated differential operators")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, overrides) in COMMANDS.items():
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="JSON configuration file")
        for field_name in overrides:
            option, kind, text = OVERRIDES[field_name]
            sp.add_argument(option, dest=field_name, type=kind, help=text)
    args = parser.parse_args(argv)

    try:
        return COMMANDS[args.command][0](_read_config(args))
    except (ConfigError, GridError, GrowthError, PolyError) as exc:
        print(f"realpw: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"realpw: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
