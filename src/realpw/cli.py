"""Batch driver: `realpw estimate|reconstruct|complex-growth|verify --config ...`.

Exit codes separate outcomes: 0 = computed (the report carries the verdict),
1 = verify matrix has a failing cell, 2 = configuration rejected, 3 = I/O
failure.  Identical config + inputs produce byte-identical reports; the
wall-clock timestamp lives in a separate "meta" field outside that contract.
"""

from __future__ import annotations

import argparse
import datetime
import itertools
import json
import sys

import numpy as np

from .grid import make_grid, sample_builtin, GridError, MarginError
from .poly import parse_poly, family_linear, family_quadratic, family_quadratic_real, \
    family_explicit, PolyError
from .transform import Spectrum, compute_R, complex_growth_rate
from .growth import growth_sequence, GrowthError
from .reconstruct import reconstruct_support
from .signal_io import (save_signal, load_signal, load_signal_csv,
                        atomic_write_text, SignalIOError)
from . import verify as verify_mod

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_IO = 3


class ConfigError(Exception):
    def __init__(self, field_name, message):
        super().__init__(f"config field {field_name!r}: {message}")
        self.field_name = field_name


def _need(cfg, field_name, kind=None):
    if field_name not in cfg:
        raise ConfigError(field_name, "missing")
    val = cfg[field_name]
    if kind is not None and not isinstance(val, kind):
        raise ConfigError(field_name, f"expected {kind}, got {type(val).__name__}")
    return val


def _parse_p(raw):
    if raw in ("inf", "Inf", "infinity"):
        return np.inf
    p = float(raw)
    if p < 1:
        raise ConfigError("p", f"must be >= 1 or 'inf', got {raw}")
    return p


def _load_input(cfg):
    inp = _need(cfg, "input", dict)
    if "builtin" in inp:
        gspec = _need(cfg, "grid", dict)
        try:
            grid = make_grid(int(_need(gspec, "d")), int(_need(gspec, "M")),
                             float(_need(gspec, "h")))
        except GridError as exc:
            raise ConfigError("grid", str(exc))
        try:
            return sample_builtin(inp["builtin"], grid)
        except (MarginError, GridError, KeyError) as exc:
            raise ConfigError("input.builtin", str(exc))
    if "path" in inp:
        path = inp["path"]
        try:
            if path.endswith(".csv"):
                return load_signal_csv(path, float(_need(inp, "h")),
                                       inp.get("side", "spatial"))
            return load_signal(path)
        except OSError as exc:
            raise IOFailure(f"cannot read input {path!r}: {exc}")
        except SignalIOError as exc:
            raise ConfigError("input.path", str(exc))
    raise ConfigError("input", "needs either 'builtin' or 'path'")


class IOFailure(Exception):
    pass


def _parse_polys(cfg, d):
    raw = _need(cfg, "poly")
    texts = [raw] if isinstance(raw, str) else list(raw)
    out = []
    for t in texts:
        try:
            out.append(parse_poly(t, d))
        except PolyError as exc:
            raise ConfigError("poly", f"{t!r}: {exc}")
    return out


def _build_family(cfg, grid):
    fam = _need(cfg, "family", dict)
    kind = _need(fam, "kind", str)
    try:
        if kind == "linear":
            return family_linear(_need(fam, "directions", list))
        if kind == "quadratic":
            return family_quadratic(_need(fam, "centers", list), grid)
        if kind in ("quadratic_lattice", "quadratic_real_lattice"):
            per_axis = int(fam.get("per_axis", 16))
            span = float(fam.get("span_cells", (grid.M // 2) * 0.98))
            step = span * grid.dlam / (per_axis // 2)
            axis_vals = (np.arange(per_axis) - (per_axis // 2 - 1)) * step
            centers = [np.array(t) for t in
                       itertools.product(*([axis_vals] * grid.d))]
            builder = family_quadratic if kind == "quadratic_lattice" else family_quadratic_real
            return builder(centers, grid)
        if kind == "explicit":
            return family_explicit([parse_poly(t, grid.d)
                                    for t in _need(fam, "polys", list)])
    except PolyError as exc:
        raise ConfigError("family", str(exc))
    raise ConfigError("family.kind", f"unknown kind {kind!r}")


def _finish_report(report, path):
    report = dict(report)
    body = json.dumps(report, sort_keys=True, indent=2)
    report["meta"] = {"timestamp": datetime.datetime.now().isoformat()}
    full = json.dumps(report, sort_keys=True, indent=2)
    if path:
        try:
            atomic_write_text(path, full + "\n")
        except OSError as exc:
            raise IOFailure(f"cannot write report {path!r}: {exc}")
    else:
        print(full)
    return body


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_estimate(cfg):
    f = _load_input(cfg)
    if f.side != "spatial":
        raise ConfigError("input", "estimate expects a spatial-side input")
    polys = _parse_polys(cfg, f.grid.d)
    p = _parse_p(cfg.get("p", 2))
    n_max = int(cfg.get("n_max", 64))
    if n_max < 8:
        raise ConfigError("n_max", f"must be >= 8, got {n_max}")
    eps_rel = float(cfg.get("eps_rel", 1e-8))
    if not 0 < eps_rel < 1:
        raise ConfigError("eps_rel", "must be in (0, 1)")
    tol = float(cfg.get("rel_tol", 0.02))
    spec = Spectrum.of(f, eps_rel)
    rows = []
    for P in polys:
        seq = growth_sequence(spec, P, p, n_max, eps_rel=eps_rel)
        R, resolved = compute_R(P, spec.mask)
        gap = abs(seq.limit - R) if R == 0 else abs(seq.limit - R) / R
        rows.append({"growth": seq.to_json_dict(),
                     "R": R, "resolved": resolved, "relative_gap": gap,
                     "within_tolerance": bool(gap <= tol),
                     "lower_bound_only": not resolved})
    report = {"config": cfg}
    report["estimate"] = rows
    _finish_report(report, cfg.get("out"))
    return EXIT_OK


def cmd_reconstruct(cfg):
    f = _load_input(cfg)
    family = _build_family(cfg, f.grid)
    p = _parse_p(cfg.get("p", 2))
    n_max = int(cfg.get("n_max", 64))
    if n_max < 8:
        raise ConfigError("n_max", f"must be >= 8, got {n_max}")
    tau = float(cfg.get("tau", 0.01))
    eps_rel = float(cfg.get("eps_rel", 1e-8))
    reference = None
    if cfg.get("reference_mask"):
        try:
            reference = load_signal(cfg["reference_mask"])
        except OSError as exc:
            raise IOFailure(f"cannot read reference mask: {exc}")
    res = reconstruct_support(f, family, p, n_max, reference=reference,
                              tau=tau, eps_rel=eps_rel)
    report = {"config": cfg}
    report["reconstruction"] = res.to_json_dict()
    _finish_report(report, cfg.get("out"))
    if cfg.get("mask_out"):
        try:
            save_signal(res.estimated, cfg["mask_out"])
        except OSError as exc:
            raise IOFailure(f"cannot write mask: {exc}")
    return EXIT_OK


def cmd_complex_growth(cfg):
    f = _load_input(cfg)
    d = f.grid.d
    cg = cfg.get("complex_growth", {})
    t_min = float(cg.get("t_min", 10.0))
    t_max = float(cg.get("t_max", 40.0))
    t_count = int(cg.get("t_count", 31))
    if not (0 < t_min < t_max) or t_count < 3:
        raise ConfigError("complex_growth", "need 0 < t_min < t_max and t_count >= 3")
    ys = cg.get("y")
    noted_default = False
    if ys is None:
        ys = [[1.0] * d]
        noted_default = True
    x0s = cg.get("x0", [[0.0] * d])
    # overflow guard, checked before any quadrature
    reach = float(np.abs(f.grid.spatial_coords()).max()) if f.side == "spatial" \
        else float(np.abs(f.grid.frequency_coords()).max())
    for y in ys:
        if t_max * float(np.abs(np.asarray(y, float)).max()) * reach > 700.0:
            raise ConfigError("complex_growth.t_max",
                              "t window exceeds the exp overflow guard")
    t = np.linspace(t_min, t_max, t_count)
    rows, csv_lines = [], ["x0,y,t,log_abs"]
    for y in ys:
        for x0 in x0s:
            rep = complex_growth_rate(f, x0, y, t)
            row = rep.to_json_dict()
            if noted_default:
                row["note"] = "y defaulted to the all-ones direction"
            rows.append(row)
            for ti, li in zip(rep.t, rep.log_abs):
                csv_lines.append(f"{x0},{y},{float(ti)!r},{float(li)!r}")
    report = {"config": cfg}
    report["complex_growth"] = rows
    _finish_report(report, cfg.get("out"))
    if cfg.get("csv_out"):
        try:
            atomic_write_text(cfg["csv_out"], "\n".join(csv_lines) + "\n")
        except OSError as exc:
            raise IOFailure(f"cannot write CSV: {exc}")
    return EXIT_OK


def cmd_verify(cfg):
    n_max = int(cfg.get("n_max", 64))
    if n_max < 8:
        raise ConfigError("n_max", f"must be >= 8, got {n_max}")
    threads = cfg.get("threads")
    matrix = verify_mod.run_matrix(n_max=n_max,
                                   threads=int(threads) if threads else None)
    report = {"config": cfg}
    report["matrix"] = {prop: {m: {"status": s, "detail": d}
                               for m, (s, d) in row.items()}
                        for prop, row in matrix.items()}
    failed = verify_mod.matrix_failed(matrix)
    report["all_passed"] = not failed
    _finish_report(report, cfg.get("out"))
    for prop, row in sorted(matrix.items()):
        for member, (status, _) in sorted(row.items()):
            print(f"{status.upper():5s} {prop:14s} {member}", file=sys.stderr)
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _apply_overrides(cfg, args):
    if args.poly:
        cfg["poly"] = args.poly
    if args.p:
        cfg["p"] = args.p
    if args.nmax:
        cfg["n_max"] = args.nmax
    if args.eps_rel:
        cfg["eps_rel"] = args.eps_rel
    if args.input:
        cfg.setdefault("input", {})
        cfg["input"] = {"path": args.input}
    if args.out:
        cfg["out"] = args.out
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="realpw",
        description="Spectral support from growth of iterated differential operators")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("estimate", "reconstruct", "complex-growth", "verify"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="JSON configuration file")
        sp.add_argument("--poly", help="polynomial text override")
        sp.add_argument("--p", help="norm exponent override (number or 'inf')")
        sp.add_argument("--nmax", type=int, help="n_max override")
        sp.add_argument("--eps-rel", dest="eps_rel", type=float,
                        help="mask threshold override")
        sp.add_argument("--input", help="input signal path override")
        sp.add_argument("--out", help="report output path override")
    args = parser.parse_args(argv)

    cfg = {}
    if args.config:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except OSError as exc:
            print(f"realpw: cannot read config: {exc}", file=sys.stderr)
            return EXIT_IO
        except json.JSONDecodeError as exc:
            print(f"realpw: config is not valid JSON: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    cfg = _apply_overrides(cfg, args)

    handlers = {"estimate": cmd_estimate, "reconstruct": cmd_reconstruct,
                "complex-growth": cmd_complex_growth, "verify": cmd_verify}
    try:
        return handlers[args.command](cfg)
    except ConfigError as exc:
        print(f"realpw: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (GridError, GrowthError, PolyError) as exc:
        print(f"realpw: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IOFailure as exc:
        print(f"realpw: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"realpw: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
