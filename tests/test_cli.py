import argparse
import contextlib
import copy
import csv
import io
import json
import pathlib
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from realpw import cli
from realpw.cli import main, FIELDS, EXIT_OK, EXIT_CONFIG, EXIT_IO
from realpw import (make_grid, sample_builtin, save_signal, save_signal_csv, forward_dft,
                    support_mask, SignalIOError)
from realpw.signal_io import signal_from_dict
from realpw.verify import aligned_h


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def builtin_interval_cfg(out=None):
    M = 1024
    return {
        "grid": {"d": 1, "M": M, "h": aligned_h(M, 1.0, 8)},
        "input": {"builtin": {"kind": "spectral_bump",
                              "support": {"shape": "box", "lo": [-1.0], "hi": [1.0]}}},
        "poly": "x1",
        "p": 2,
        "n_max": 64,
        "out": out,
    }


class TestEstimate:
    def test_gap_within_tolerance(self, tmp_path):
        out = str(tmp_path / "report.json")
        cfg = write_config(tmp_path, "cfg.json", builtin_interval_cfg(out))
        assert main(["estimate", "--config", cfg]) == EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())
        row = report["estimate"][0]
        assert row["relative_gap"] <= 0.02
        assert row["within_tolerance"]
        assert report["config"]["poly"] == "x1"

    def test_missing_input_file_is_io_error(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json",
                           {"input": {"path": str(tmp_path / "absent.json")},
                            "poly": "x1"})
        assert main(["estimate", "--config", cfg]) == EXIT_IO

    def test_parse_error_is_config_error(self, tmp_path, capsys):
        c = builtin_interval_cfg()
        c["poly"] = "x1^"
        cfg = write_config(tmp_path, "cfg.json", c)
        assert main(["estimate", "--config", cfg]) == EXIT_CONFIG
        assert "position" in capsys.readouterr().err

    def test_small_n_max_rejected(self, tmp_path):
        c = builtin_interval_cfg()
        c["n_max"] = 4
        cfg = write_config(tmp_path, "cfg.json", c)
        assert main(["estimate", "--config", cfg]) == EXIT_CONFIG

    def test_deterministic_output(self, tmp_path):
        out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
        cfg1 = write_config(tmp_path, "c1.json", builtin_interval_cfg(out1))
        cfg2 = write_config(tmp_path, "c2.json", builtin_interval_cfg(out2))
        assert main(["estimate", "--config", cfg1]) == EXIT_OK
        assert main(["estimate", "--config", cfg2]) == EXIT_OK
        r1 = json.loads((tmp_path / "r1.json").read_text())
        r2 = json.loads((tmp_path / "r2.json").read_text())
        r1.pop("meta"), r2.pop("meta")
        r1["config"].pop("out"), r2["config"].pop("out")
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)

    def test_signal_file_input(self, tmp_path):
        M = 1024
        grid = make_grid(1, M, aligned_h(M, 1.0, 8))
        f = sample_builtin({"kind": "spectral_bump",
                            "support": {"shape": "box", "lo": [-1.0], "hi": [1.0]}},
                           grid)
        sig = str(tmp_path / "f.json")
        save_signal(f, sig)
        out = str(tmp_path / "report.json")
        cfg = write_config(tmp_path, "cfg.json",
                           {"input": {"path": sig}, "poly": "x1", "p": 2,
                            "n_max": 64, "out": out})
        assert main(["estimate", "--config", cfg]) == EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["estimate"][0]["relative_gap"] <= 0.02


class TestReconstruct:
    def test_missing_family_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", builtin_interval_cfg())
        assert main(["reconstruct", "--config", cfg]) == EXIT_CONFIG

    def test_reference_mask_produces_metrics(self, tmp_path):
        from realpw import forward_dft, support_mask
        M = 1024
        grid = make_grid(1, M, aligned_h(M, 1.0, 8))
        f = sample_builtin({"kind": "spectral_bump",
                            "support": {"shape": "box", "lo": [-1.0], "hi": [1.0]}},
                           grid)
        ref_path = str(tmp_path / "ref.json")
        save_signal(support_mask(forward_dft(f)), ref_path)
        c = builtin_interval_cfg(str(tmp_path / "report.json"))
        c["family"] = {"kind": "explicit", "polys": ["x1", "x1^2"]}
        c["reference_mask"] = ref_path
        c["mask_out"] = str(tmp_path / "mask.json")
        cfg = write_config(tmp_path, "cfg.json", c)
        assert main(["reconstruct", "--config", cfg]) == EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())
        assert "metrics" in report["reconstruction"]
        assert report["reconstruction"]["metrics"]["dilation_distance"] <= 2
        # the mask file is itself a loadable signal
        from realpw import load_signal, SupportMask
        assert isinstance(load_signal(c["mask_out"]), SupportMask)


class TestComplexGrowth:
    def spatial_cfg(self, tmp_path, **kw):
        cfg = {
            "grid": {"d": 1, "M": 1024, "h": 0.005},
            "input": {"builtin": {"kind": "spatial_bump",
                                  "support": {"shape": "box", "lo": [0.0], "hi": [1.0]}}},
            "out": str(tmp_path / "report.json"),
            "csv_out": str(tmp_path / "plot.csv"),
        }
        cfg.update(kw)
        return write_config(tmp_path, "cfg.json", cfg)

    def test_bump_slope_and_csv(self, tmp_path):
        cfg = self.spatial_cfg(tmp_path,
                               complex_growth={"x0": [[0.0]], "y": [[1.0]],
                                               "t_min": 10, "t_max": 40, "t_count": 31})
        assert main(["complex-growth", "--config", cfg]) == EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["complex_growth"][0]["slope"] == pytest.approx(1.0, abs=0.05)
        lines = (tmp_path / "plot.csv").read_text().splitlines()
        assert lines[0] == "x0,y,t,log_abs"
        assert len(lines) == 32
        # at d = 1 a vector has no comma, so nothing is quoted
        assert all(line.startswith("[0.0],[1.0],") and '"' not in line for line in lines[1:])

    def test_d2_csv_rows_have_four_fields(self, tmp_path):
        # a d = 2 vector's text holds a comma: unquoted it split each row into
        # 6 fields under the 4-field header
        x0s, ys = [[0, 0], [0.5, -0.25]], [[1, 0]]
        cfg = write_config(tmp_path, "cfg.json", {
            "grid": {"d": 2, "M": 64, "h": 0.1},
            "input": {"builtin": {"kind": "spatial_bump",
                                  "support": {"shape": "ball", "radius": 1.0}}},
            "complex_growth": {"x0": x0s, "y": ys, "t_min": 1, "t_max": 5, "t_count": 5},
            "out": str(tmp_path / "report.json"), "csv_out": str(tmp_path / "plot.csv")})
        assert main(["complex-growth", "--config", cfg]) == EXIT_OK
        with open(tmp_path / "plot.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["x0", "y", "t", "log_abs"] and len(rows) == 2 * 5
        assert all(len(row) == 4 for row in rows)
        assert [json.loads(row[0]) for row in rows] == [x0 for x0 in x0s for _ in range(5)]
        assert all(json.loads(row[1]) == ys[0] for row in rows)
        assert [float(row[2]) for row in rows[:5]] == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_default_direction_noted(self, tmp_path):
        cfg = self.spatial_cfg(tmp_path,
                               complex_growth={"x0": [[0.0]], "t_min": 5,
                                               "t_max": 20, "t_count": 16})
        assert main(["complex-growth", "--config", cfg]) == EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())
        assert "note" in report["complex_growth"][0]

    def test_overflow_window_rejected(self, tmp_path):
        cfg = self.spatial_cfg(tmp_path,
                               complex_growth={"x0": [[0.0]], "y": [[1.0]],
                                               "t_min": 10, "t_max": 500,
                                               "t_count": 11})
        assert main(["complex-growth", "--config", cfg]) == EXIT_CONFIG

    def test_window_guard_sums_over_the_axes(self, tmp_path, capsys):
        # |x| reaches 12.8 on each axis: t_max * sum |y_j| * 12.8 = 1 024 is
        # past the guard, where its largest |y_j| alone, 512, passed, and the
        # run leaked exp overflow warnings (an error in this suite), exited
        # 0 and counted the overflowed samples as dropped under the floor
        cfg = write_config(tmp_path, "cfg.json", {
            "grid": {"d": 2, "M": 256, "h": 0.1},
            "input": {"builtin": {"kind": "spatial_bump", "support": {
                "shape": "box", "lo": [-10, -10], "hi": [10, 10]}}},
            "complex_growth": {"y": [[1, 1]]}})
        assert main(["complex-growth", "--config", cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "'complex_growth.t_max'" in err and "overflow guard" in err

    def test_x0_past_the_double_range_rejected(self, tmp_path, capsys):
        # |x0| |x| is past the double range on this grid (|x| up to 12.8):
        # the field is named before any quadrature, where the phase's
        # overflow warned and the run then failed on "fewer than 3 samples
        # above the underflow floor"
        cfg = write_config(tmp_path, "cfg.json", {
            "grid": {"d": 1, "M": 256, "h": 0.1},
            "input": {"builtin": {"kind": "spatial_bump",
                                  "support": {"shape": "box", "lo": [-1.0], "hi": [1.0]}}},
            "complex_growth": {"x0": [[1e308]]}})
        assert main(["complex-growth", "--config", cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "'complex_growth.x0'" in err and "double range" in err

    @pytest.mark.parametrize("case, message", [
        ("ones", "eval_entire: values on the 10-cell boundary frame"),
        ("tiny", "fewer than 3 samples above the underflow floor")])
    def test_quadrature_refusal_names_the_input(self, tmp_path, capsys, case, message):
        # a signal file of 64 ones fills the boundary frame, and one of a
        # bump at 1e-306 puts every sample under the floor: the quadrature's
        # refusals exited 2 naming no field
        grid = make_grid(1, 64, 0.1)
        f = sample_builtin({"kind": "spatial_bump",
                            "support": {"shape": "box", "lo": [-1.0], "hi": [1.0]}}, grid)
        values = np.ones(64) if case == "ones" else f.values * 1e-306
        save_signal(f.with_values(values), str(tmp_path / "f.json"))
        cfg = write_config(tmp_path, "cfg.json", {"input": {"path": str(tmp_path / "f.json")}})
        assert main(["complex-growth", "--config", cfg]) == EXIT_CONFIG
        assert f"config field 'input.path': {message}" in capsys.readouterr().err

    def test_window_of_too_few_doubles_names_t_max(self, tmp_path, capsys):
        # 31 samples on [10, 10 + 1e-14] repeat values: the refusal of a
        # t that does not strictly increase named no field
        cfg = self.spatial_cfg(tmp_path, complex_growth={"t_min": 10, "t_max": 10 + 1e-14})
        assert main(["complex-growth", "--config", cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "'complex_growth.t_max'" in err and "31 distinct" in err


class TestVerify:
    def test_small_n_max_rejected(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {"n_max": 4})
        assert main(["verify", "--config", cfg]) == EXIT_CONFIG

    def test_default_matrix_passes(self, tmp_path):
        out = str(tmp_path / "verify.json")
        cfg = write_config(tmp_path, "cfg.json", {"n_max": 64, "out": out})
        assert main(["verify", "--config", cfg]) == EXIT_OK
        report = json.loads((tmp_path / "verify.json").read_text())
        assert report["all_passed"]
        statuses = {cell["status"]
                    for row in report["matrix"].values() for cell in row.values()}
        assert "fail" not in statuses

    def test_threads_key_is_ignored(self, tmp_path):
        # verify runs in one thread; a config still naming `threads` is read
        # like any other unknown key, and the report embeds it as given
        # (n_max 64: below it, the rtilde_vs_R rows fail and verify exits 1)
        c = {"threads": 0, "n_max": 64, "out": str(tmp_path / "verify.json")}
        assert main(["verify", "--config", write_config(tmp_path, "cfg.json", c)]) == EXIT_OK
        assert json.loads((tmp_path / "verify.json").read_text())["config"] == c


class TestOverrides:
    def test_poly_and_out_flags(self, tmp_path):
        c = builtin_interval_cfg()
        c.pop("out")
        cfg = write_config(tmp_path, "cfg.json", c)
        out = str(tmp_path / "o.json")
        assert main(["estimate", "--config", cfg, "--poly", "x1^2",
                     "--out", out]) == EXIT_OK
        report = json.loads((tmp_path / "o.json").read_text())
        assert report["config"]["poly"] == "x1^2"

    @pytest.mark.parametrize("command,option,value", [
        ("verify", "--poly", "x1"), ("verify", "--p", "1"), ("verify", "--eps-rel", "0.1"),
        ("verify", "--input", "f.json"), ("complex-growth", "--poly", "x1"),
        ("complex-growth", "--p", "1"), ("complex-growth", "--nmax", "16"),
        ("complex-growth", "--eps-rel", "0.1"), ("reconstruct", "--poly", "x1")])
    def test_unread_override_is_a_usage_error(self, capsys, command, option, value):
        # the handler would ignore the field, and the report would embed it
        # as if it had been used
        with pytest.raises(SystemExit) as exc:
            main([command, option, value])
        assert exc.value.code == EXIT_CONFIG
        assert f"unrecognized arguments: {option} {value}" in capsys.readouterr().err

    def test_parser_is_built_once_per_process(self, monkeypatch, capsys):
        # building the parser took 0.57 ms of every call and parsing 0.026 ms
        # (timeit minima, 2-vCPU VM)
        built, init = [], argparse.ArgumentParser.__init__

        def counting(parser, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        cli._parser.cache_clear()
        try:
            for _ in range(3):
                assert main(["verify", "--nmax", "4"]) == EXIT_CONFIG
        finally:
            cli._parser.cache_clear()
        assert built[0] == "realpw" and len(built) == 1 + len(cli.COMMANDS)
        assert capsys.readouterr().err.count("config field 'n_max'") == 3


class TestMoreInputPaths:
    @pytest.mark.parametrize("suffix", [".json", ".csv"])
    def test_frequency_side_file_runs_as_its_spatial_file(self, tmp_path, suffix):
        # estimate and reconstruct take a frequency-side signal as its own
        # spectrum (they refused it): the file of forward_dft(f) gives the
        # rows, R and mask of f's file
        f = sample_builtin({"kind": "gaussian", "sigma": 0.5}, make_grid(1, 64, 0.25))
        results = []
        for g in (f, forward_dft(f)):
            sig = str(tmp_path / f"{g.side}{suffix}")
            if suffix == ".csv":
                save_signal_csv(g, sig)
                source = {"path": sig, "h": 0.25, "side": g.side}
            else:
                save_signal(g, sig)
                source = {"path": sig}
            out, mask = tmp_path / "report.json", tmp_path / "mask.json"
            cfg = write_config(tmp_path, "cfg.json", {
                "input": source, "poly": ["x1", "1+x1^2"], "p": 1, "n_max": 16,
                "family": {"kind": "linear", "directions": [[1], [-1]]},
                "out": str(out), "mask_out": str(mask)})
            assert main(["estimate", "--config", cfg]) == EXIT_OK
            rows = json.loads(out.read_text())["estimate"]
            assert main(["reconstruct", "--config", cfg]) == EXIT_OK
            results.append((rows, json.loads(out.read_text())["reconstruction"],
                            mask.read_bytes()))
        (rows, rec, mask), (freq_rows, freq_rec, freq_mask) = results
        assert [r["R"] for r in rows] == [r["R"] for r in freq_rows] and rows[0]["R"] > 0
        assert rows == freq_rows and rec == freq_rec and mask == freq_mask

    def test_csv_input_with_p_inf(self, tmp_path):
        from realpw import save_signal_csv
        M = 1024
        grid = make_grid(1, M, aligned_h(M, 1.0, 8))
        f = sample_builtin({"kind": "spectral_bump",
                            "support": {"shape": "box", "lo": [-1.0], "hi": [1.0]}},
                           grid)
        sig = str(tmp_path / "f.csv")
        save_signal_csv(f, sig)
        out = str(tmp_path / "report.json")
        cfg = write_config(tmp_path, "cfg.json",
                           {"input": {"path": sig, "h": grid.h, "side": "spatial"},
                            "poly": "x1", "p": "inf", "n_max": 64, "out": out})
        assert main(["estimate", "--config", cfg]) == EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["estimate"][0]["growth"]["p"] == "inf"
        assert report["estimate"][0]["relative_gap"] <= 0.02

    def test_negative_verdict_still_exits_zero(self, tmp_path):
        # an unaligned grid at small n_max leaves a visible gap: the run
        # completes, the report carries the verdict, exit code stays 0
        out = str(tmp_path / "report.json")
        cfg = write_config(tmp_path, "cfg.json", {
            "grid": {"d": 1, "M": 1024, "h": 0.05},
            "input": {"builtin": {"kind": "spectral_bump",
                                  "support": {"shape": "box",
                                              "lo": [-1.0], "hi": [1.0]}}},
            "poly": "x1", "p": 2, "n_max": 64, "out": out,
        })
        assert main(["estimate", "--config", cfg]) == EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())
        assert not report["estimate"][0]["within_tolerance"]


class TestReconstructTwoBoxes:
    def test_mask_file_has_two_components(self, tmp_path):
        from realpw.verify import two_box_support
        grid = make_grid(2, 256, 0.05)
        cfg = write_config(tmp_path, "cfg.json", {
            "grid": {"d": 2, "M": 256, "h": 0.05},
            "input": {"builtin": {"kind": "spectral_bump",
                                  "support": two_box_support(grid.dlam),
                                  "edge_width": 0.45 * grid.dlam}},
            "family": {"kind": "quadratic_real_lattice", "per_axis": 16,
                       "span_cells": 63},
            "p": 2, "n_max": 200, "tau": 0.01,
            "out": str(tmp_path / "report.json"),
            "mask_out": str(tmp_path / "mask.json"),
        })
        assert main(["reconstruct", "--config", cfg]) == EXIT_OK
        from realpw import load_signal
        mask = load_signal(str(tmp_path / "mask.json"))
        field = mask.field.reshape(mask.grid.shape)
        seen = np.zeros_like(field)
        comps = 0
        cells = set(zip(*np.nonzero(field)))
        for c in cells:
            if seen[c]:
                continue
            comps += 1
            stack = [c]
            seen[c] = True
            while stack:
                i, j = stack.pop()
                for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    t = (i + di, j + dj)
                    if t in cells and not seen[t]:
                        seen[t] = True
                        stack.append(t)
        assert comps == 2


# ---------------------------------------------------------------------------
# hardened boundary: every bad config, signal file or mask exits 2 or 3
# ---------------------------------------------------------------------------

def small_cfg():
    """A valid config that every non-verify subcommand runs in milliseconds."""
    return {"grid": {"d": 1, "M": 64, "h": 0.25},
            "input": {"builtin": {"kind": "gaussian", "sigma": 0.7}},
            "poly": "x1", "p": 2, "n_max": 16,
            "family": {"kind": "quadratic_real_lattice", "per_axis": 4},
            "complex_growth": {"t_min": 1, "t_max": 4, "t_count": 5}}


def with_field(cfg, name, value):
    cfg = copy.deepcopy(cfg)
    *parents, key = name.split(".")
    node = cfg
    for part in parents:
        node = node[part]
    node[key] = value
    return cfg


@pytest.fixture
def signal_files(tmp_path, signal_document):
    """Bad and misplaced signal files; "@name" in a probe value is one of them."""
    grid = make_grid(1, 64, 0.25)
    f = sample_builtin({"kind": "gaussian", "sigma": 0.7}, grid)
    save_signal(f, str(tmp_path / "signal.json"))
    save_signal(support_mask(forward_dft(f)), str(tmp_path / "mask.json"))
    other = sample_builtin({"kind": "gaussian", "sigma": 0.7}, make_grid(1, 128, 0.25))
    save_signal(support_mask(forward_dft(other)), str(tmp_path / "mask_other_grid.json"))
    doc = signal_document(f)
    doc["values"] = "abc"
    (tmp_path / "bad_base64.json").write_text(json.dumps(doc))
    (tmp_path / "bad_json.json").write_text("{not json")
    (tmp_path / "bad_row.csv").write_text("index,re,im\n-4,0,0\n-3,abc,0\n")
    (tmp_path / "binary.csv").write_bytes(b"\xff\xfe\x00\x81" * 8)
    (tmp_path / "binary.json").write_bytes(b"\xff\xfe\x00\x81" * 8)
    for name, obj, key, value in (("float_d.json", f, "d", 1.0),
                                  ("text_M_mask.json", support_mask(forward_dft(f)), "M", "64")):
        doc = signal_document(obj)
        doc[key] = value
        (tmp_path / name).write_text(json.dumps(doc))

    def resolve(value):
        if isinstance(value, str) and value.startswith("@"):
            return str(tmp_path / value[1:])
        if isinstance(value, dict):
            return {k: resolve(v) for k, v in value.items()}
        return value
    return resolve


# (subcommand, field set, value, exit code, text the stderr line must hold:
# the field for exit 2, the path for exit 3)
PROBES = [
    ("estimate", "p", "abc", EXIT_CONFIG, "'p'"),
    ("estimate", "p", 0.5, EXIT_CONFIG, "'p'"),
    ("estimate", "p", [2], EXIT_CONFIG, "'p'"),
    ("estimate", "n_max", "ten", EXIT_CONFIG, "'n_max'"),
    ("estimate", "n_max", 64.7, EXIT_CONFIG, "'n_max'"),
    ("estimate", "n_max", 4, EXIT_CONFIG, "'n_max'"),
    ("estimate", "n_max", True, EXIT_CONFIG, "'n_max'"),
    ("estimate", "n_max", 4097, EXIT_CONFIG, "'n_max'"),
    ("estimate", "n_max", 10 ** 12, EXIT_CONFIG, "'n_max'"),          # 8 TB of norms
    ("estimate", "eps_rel", 0, EXIT_CONFIG, "'eps_rel'"),
    ("estimate", "eps_rel", "x", EXIT_CONFIG, "'eps_rel'"),
    ("estimate", "rel_tol", -1, EXIT_CONFIG, "'rel_tol'"),
    ("estimate", "poly", [], EXIT_CONFIG, "'poly'"),
    ("estimate", "poly", 5, EXIT_CONFIG, "'poly'"),
    ("estimate", "poly", ["x1", 3], EXIT_CONFIG, "'poly'"),
    ("estimate", "poly", "x1^", EXIT_CONFIG, "'poly'"),
    ("estimate", "poly", "x1^400", EXIT_CONFIG, "'poly'"),          # |P| > 1e308 on the box
    ("estimate", "grid", 5, EXIT_CONFIG, "'grid'"),
    ("estimate", "grid.d", 4, EXIT_CONFIG, "'grid.d'"),
    ("estimate", "grid.M", 7, EXIT_CONFIG, "'grid.M'"),
    ("estimate", "grid.h", -1, EXIT_CONFIG, "'grid.h'"),
    ("estimate", "grid.h", "inf", EXIT_CONFIG, "'grid.h'"),
    ("estimate", "grid", {"d": 3, "M": 512, "h": 0.25}, EXIT_CONFIG, "'grid.M'"),
    ("estimate", "input", {}, EXIT_CONFIG, "'input'"),
    ("estimate", "input", [], EXIT_CONFIG, "'input'"),
    ("estimate", "input", {"path": 5}, EXIT_CONFIG, "'input.path'"),
    ("estimate", "input", {"path": "@absent.json"}, EXIT_IO, "absent.json"),
    ("estimate", "input", {"path": "@bad_json.json"}, EXIT_CONFIG, "'input.path'"),
    ("estimate", "input", {"path": "@binary.json"}, EXIT_CONFIG, "'input.path'"),
    ("estimate", "input", {"path": "@bad_base64.json"}, EXIT_CONFIG, "'input.path'"),
    ("estimate", "input", {"path": "@bad_row.csv", "h": 0.25}, EXIT_CONFIG, "'input.path'"),
    ("estimate", "input", {"path": "@binary.csv", "h": 0.25}, EXIT_CONFIG, "'input.path'"),
    ("estimate", "input", {"path": "@bad_row.csv"}, EXIT_CONFIG, "'input.h'"),
    ("estimate", "input", {"path": "@bad_row.csv", "h": 0.25, "side": "up"},
     EXIT_CONFIG, "'input.side'"),
    ("estimate", "input", {"path": "@mask.json"}, EXIT_CONFIG, "'input.path'"),
    ("estimate", "input", {"path": "@float_d.json"}, EXIT_CONFIG,
     "'input.path': bad signal: header 'd' must be an integer, got 1.0"),
    ("estimate", "input.builtin", {"kind": "nope"}, EXIT_CONFIG, "'input.builtin'"),
    ("estimate", "input.builtin", {"kind": "gaussian", "sigma": "wide"},
     EXIT_CONFIG, "'input.builtin'"),
    ("estimate", "input.builtin", {"kind": "gaussian", "sigma": 1e-300},     # 2 sigma^2 = 0
     EXIT_CONFIG, "'input.builtin': gaussian sigma = 1e-300"),
    ("estimate", "input.builtin", {"kind": "gaussian", "sigma": 1e-160},     # subnormal
     EXIT_CONFIG, "'input.builtin': gaussian sigma = 1e-160"),
    ("estimate", "input.builtin", {"kind": "spectral_bump", "support": []},
     EXIT_CONFIG, "'input.builtin'"),
    ("estimate", "input.builtin", {"kind": "spectral_bump",   # a d=2 box on a d=1 grid
                                   "support": {"shape": "box", "lo": [-1, 0], "hi": [1, 1]}},
     EXIT_CONFIG, "'input.builtin'"),
    ("estimate", "input.builtin", [], EXIT_CONFIG, "'input.builtin'"),
    # supports with no interior, and edge widths that are not positive and finite
    ("estimate", "input.builtin", {"kind": "spectral_bump",
                                   "support": {"shape": "box", "lo": [1], "hi": [-1]}},
     EXIT_CONFIG, "'input.builtin'"),
    ("estimate", "input.builtin", {"kind": "spectral_bump",
                                   "support": {"shape": "ball", "radius": -2}},
     EXIT_CONFIG, "'input.builtin'"),
    ("estimate", "input.builtin", {"kind": "spectral_bump",
                                   "support": {"shape": "annulus", "r_in": 2, "r_out": 1}},
     EXIT_CONFIG, "'input.builtin'"),
    ("estimate", "input.builtin", {"kind": "spatial_bump", "support": {"shape": "union", "parts": [
        {"shape": "ball", "radius": 1}, {"shape": "ball", "radius": 0}]}},
     EXIT_CONFIG, "'input.builtin'"),
    ("estimate", "input.builtin", {"kind": "spectral_bump",
                                   "support": {"shape": "union", "parts": []}},
     EXIT_CONFIG, "'input.builtin'"),
    ("estimate", "input.builtin", {"kind": "spectral_bump", "edge_width": 0,
                                   "support": {"shape": "ball", "radius": 2}},
     EXIT_CONFIG, "'input.builtin'"),
    ("estimate", "input.builtin", {"kind": "spectral_bump", "edge_width": -0.3,
                                   "support": {"shape": "ball", "radius": 2}},
     EXIT_CONFIG, "'input.builtin'"),
    ("estimate", "input.builtin", {"kind": "spatial_bump", "edge_width": float("inf"),
                                   "support": {"shape": "ball", "radius": 1}},
     EXIT_CONFIG, "'input.builtin'"),
    ("estimate", "out", 5, EXIT_CONFIG, "'out'"),
    ("estimate", "out", "report\0.json", EXIT_CONFIG, "'out'"),
    ("reconstruct", "family.per_axis", 0, EXIT_CONFIG, "'family.per_axis'"),
    ("reconstruct", "family.per_axis", 4097, EXIT_CONFIG, "'family.per_axis'"),
    ("reconstruct", "n_max", 4097, EXIT_CONFIG, "'n_max'"),
    ("reconstruct", "family.kind", "cubic", EXIT_CONFIG, "'family.kind'"),
    ("reconstruct", "family", "x", EXIT_CONFIG, "'family'"),
    ("reconstruct", "family", {"kind": "linear", "directions": [[1, "a"]]},
     EXIT_CONFIG, "'family.directions'"),
    ("reconstruct", "family", {"kind": "linear", "directions": [[1, 0, 0]]},
     EXIT_CONFIG, "'family.directions'"),
    ("reconstruct", "family", {"kind": "quadratic", "centers": [[0.5], [0, 0]]},
     EXIT_CONFIG, "'family.centers'"),
    ("reconstruct", "family", {"kind": "explicit", "polys": "x1^"},
     EXIT_CONFIG, "'family.polys'"),
    ("reconstruct", "family", {"kind": "explicit", "polys": ["x1", "2*x1^300"]},
     EXIT_CONFIG, "'family.polys'"),
    ("reconstruct", "tau", -5, EXIT_CONFIG, "'tau'"),
    ("reconstruct", "eps_rel", 2, EXIT_CONFIG, "'eps_rel'"),
    ("reconstruct", "reference_mask", "@signal.json", EXIT_CONFIG, "'reference_mask'"),
    ("reconstruct", "reference_mask", "@mask_other_grid.json", EXIT_CONFIG,
     "'reference_mask'"),
    ("reconstruct", "reference_mask", "@bad_base64.json", EXIT_CONFIG, "'reference_mask'"),
    ("reconstruct", "reference_mask", 5, EXIT_CONFIG, "'reference_mask'"),
    ("reconstruct", "reference_mask", "@text_M_mask.json", EXIT_CONFIG,
     "'reference_mask': bad signal: header 'M' must be an integer, got '64'"),
    ("reconstruct", "mask_out", "@absent_dir/mask.json", EXIT_IO, "absent_dir"),
    ("complex-growth", "complex_growth.t_min", "", EXIT_CONFIG, "'complex_growth.t_min'"),
    ("complex-growth", "complex_growth.t_count", 2, EXIT_CONFIG, "'complex_growth.t_count'"),
    ("complex-growth", "complex_growth.t_count", 4097, EXIT_CONFIG,
     "'complex_growth.t_count'"),
    ("complex-growth", "complex_growth.t_count", 10 ** 12, EXIT_CONFIG,
     "'complex_growth.t_count'"),
    ("complex-growth", "complex_growth.t_max", 0.5, EXIT_CONFIG, "'complex_growth.t_max'"),
    ("complex-growth", "complex_growth.y", [["a"]], EXIT_CONFIG, "'complex_growth.y'"),
    ("complex-growth", "complex_growth.y", [[1, 2]], EXIT_CONFIG, "'complex_growth.y'"),
    ("complex-growth", "complex_growth.x0", [], EXIT_CONFIG, "'complex_growth.x0'"),
    ("complex-growth", "complex_growth.x0", [[1e308]], EXIT_CONFIG, "'complex_growth.x0'"),
    ("complex-growth", "complex_growth", 3, EXIT_CONFIG, "'complex_growth'"),
    ("complex-growth", "csv_out", "@absent_dir/plot.csv", EXIT_IO, "absent_dir"),
    ("verify", "n_max", 4, EXIT_CONFIG, "'n_max'"),
    ("verify", "n_max", 4097, EXIT_CONFIG, "'n_max'"),
]


# (subcommand, input, p, the refusal): a gaussian signal file scaled by 1e160
# or 1e308, a file of ones, a frequency-side CSV file, a builtin spectral bump
INPUT_REFUSALS = [
    ("estimate", "big", 2, "x1 at p = 2: ||P(d)^1 f|| exceeds the double range"),
    ("reconstruct", "big", 2, "x1 at p = 2: ||P(d)^1 f|| exceeds the double range"),
    ("estimate", "huge", "inf", "the input's transform exceeds the double range"),
    ("complex-growth", "ones", None, "values on the 10-cell boundary frame"),
    ("complex-growth", "builtin", None, "values on the 10-cell boundary frame"),
]


class TestBadInputs:
    @pytest.mark.parametrize("command,name,value,code,named", PROBES,
                             ids=[f"{c}-{n}={v!r}" for c, n, v, _, _ in PROBES])
    def test_probe_exits_with_named_field(self, tmp_path, capsys, signal_files,
                                          command, name, value, code, named):
        cfg = write_config(tmp_path, "cfg.json",
                           with_field(small_cfg(), name, signal_files(value)))
        tracemalloc.start()
        try:
            assert main([command, "--config", cfg]) == code
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert named in capsys.readouterr().err
        if code == EXIT_CONFIG:
            # rejected before any grid-sized array: d=3, M=512 would be 2 GiB
            assert peak < 1e6

    @pytest.mark.parametrize("M", [8, 16, 20])
    @pytest.mark.parametrize("kind", ["spectral_bump", "spatial_bump", "gaussian"])
    def test_grid_without_room_names_builtin(self, tmp_path, capsys, M, kind):
        builtin = {"kind": kind, "sigma": 0.03} if kind == "gaussian" else {
            "kind": kind, "support": {"shape": "box", "lo": [-0.2], "hi": [0.2]}}
        cfg = with_field(with_field(small_cfg(), "grid.M", M), "input.builtin", builtin)
        assert main(["estimate", "--config", write_config(tmp_path, "cfg.json", cfg)]) \
            == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "'input.builtin'" in err
        assert f"no room inside its 10-cell margin (M = {M}; a builtin input needs M > 20)" in err

    @pytest.mark.parametrize("builtin,named", [
        ({"kind": "spectral_bump", "support": {"shape": "box", "lo": [-1, -1], "hi": [1, 1]}},
         "box lo"),
        ({"kind": "spatial_bump", "support": {"shape": "ball", "radius": 1, "center": [0, 0]}},
         "ball center"),
        ({"kind": "gaussian", "sigma": 0.7, "mu": [0, 0]}, "gaussian mu")])
    def test_vector_of_other_than_d_entries_names_builtin(self, tmp_path, capsys,
                                                           builtin, named):
        cfg = with_field(small_cfg(), "input.builtin", builtin)
        assert main(["estimate", "--config", write_config(tmp_path, "cfg.json", cfg)]) \
            == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "'input.builtin'" in err and f"{named} needs d = 1 entries, got [" in err

    def test_defaults_are_not_written_back(self, tmp_path):
        c = small_cfg()
        c["out"] = str(tmp_path / "report.json")
        assert main(["estimate", "--config", write_config(tmp_path, "cfg.json", c)]) \
            == EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["config"] == c

    @pytest.mark.parametrize("content", [b"{not json", b"[1, 2]", b"null", b"\xff\xfe{"])
    def test_bad_config_file(self, tmp_path, capsys, content):
        path = tmp_path / "cfg.json"
        path.write_bytes(content)
        assert main(["estimate", "--config", str(path)]) == EXIT_CONFIG
        assert "--config" in capsys.readouterr().err

    def test_missing_config_file_names_path(self, tmp_path, capsys):
        path = str(tmp_path / "absent-cfg.json")
        assert main(["estimate", "--config", path]) == EXIT_IO
        assert path in capsys.readouterr().err

    def test_readme_lists_every_field(self):
        readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
        assert [name for name in FIELDS if f"`{name}`" not in readme] == []

    def test_lattice_member_cap_counts_every_axis(self, tmp_path, capsys):
        # 65^2 = 4225 members on a d = 2 grid; 65 alone would pass on d = 1
        c = with_field(small_cfg(), "grid", {"d": 2, "M": 64, "h": 0.25})
        c["family"]["per_axis"] = 65
        cfg = write_config(tmp_path, "cfg.json", c)
        assert main(["reconstruct", "--config", cfg]) == EXIT_CONFIG
        assert "'family.per_axis'" in capsys.readouterr().err

    @pytest.mark.parametrize("per_axis", [2, 3, 4, 5, 16, 17])
    def test_lattice_runs_at_the_default_span(self, tmp_path, monkeypatch, per_axis):
        # an odd lattice spans [-span, span] cells, where it ran from 0 to
        # 2 span and left the frequency box; an even one keeps the axis it
        # had, bit for bit: [-span + step, span]
        built, builder = [], cli.family_quadratic_real
        monkeypatch.setattr(cli, "family_quadratic_real",
                            lambda centers, grid: built.append(centers) or builder(centers, grid))
        c = with_field(small_cfg(), "grid", {"d": 2, "M": 64, "h": 0.2})
        c["input"]["builtin"]["sigma"] = 0.5
        c["family"]["per_axis"] = per_axis
        assert main(["reconstruct", "--config", write_config(tmp_path, "cfg.json", c)]) == EXIT_OK
        span = 0.98 * 32 * make_grid(2, 64, 0.2).dlam
        step = span / (per_axis // 2)
        axis = np.unique(built[0][:, 0])
        assert axis.size == per_axis and axis[-1] == pytest.approx(span, rel=1e-15)
        if per_axis % 2:
            assert axis.tolist() == (-axis[::-1]).tolist()
        else:
            assert axis.tolist() == ((np.arange(per_axis) - (per_axis // 2 - 1)) * step).tolist()

    @pytest.mark.parametrize("span,code", [(32, EXIT_OK), (32.5, EXIT_CONFIG), (40, EXIT_CONFIG)])
    def test_span_past_half_the_grid_names_span_cells(self, tmp_path, capsys, span, code):
        c = with_field(small_cfg(), "grid", {"d": 2, "M": 64, "h": 0.2})
        c["input"]["builtin"]["sigma"] = 0.5
        c["family"].update(per_axis=3, span_cells=span)
        assert main(["reconstruct", "--config", write_config(tmp_path, "cfg.json", c)]) == code
        assert ("'family.span_cells'" in capsys.readouterr().err) == (code == EXIT_CONFIG)

    def test_input_beyond_double_range_is_config_error(self, tmp_path, capsys):
        # the p = 2 ledger of this input used to overflow to regime "zero",
        # limit 0.0, and the run exited 0
        f = sample_builtin({"kind": "gaussian", "sigma": 0.5}, make_grid(1, 64, 0.25))
        save_signal(f.with_values(f.values * 1e160), str(tmp_path / "huge.json"))
        cfg = write_config(tmp_path, "cfg.json", {"input": {"path": str(tmp_path / "huge.json")},
                                                  "poly": "x1", "p": 2, "n_max": 16})
        assert main(["estimate", "--config", cfg]) == EXIT_CONFIG
        assert "x1 at p = 2" in capsys.readouterr().err

    def test_input_beyond_transform_range_names_input(self, tmp_path, capsys):
        # at 1e308 the forward FFT overflows: the run used to print numpy's
        # overflow warnings and reject the input as "values must be finite".
        # A signal file's values are named by its path field
        f = sample_builtin({"kind": "gaussian", "sigma": 0.5}, make_grid(1, 64, 0.25))
        save_signal(f.with_values(f.values * 1e308), str(tmp_path / "huge.json"))
        for p in (2, "inf"):
            cfg = write_config(tmp_path, "cfg.json", {"input": {"path": str(tmp_path / "huge.json")},
                                                      "poly": "x1", "p": p, "n_max": 16})
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert main(["estimate", "--config", cfg]) == EXIT_CONFIG
            assert caught == []
            err = capsys.readouterr().err
            assert "'input.path'" in err and "double range" in err

    @pytest.mark.parametrize("command, source, p, message", INPUT_REFUSALS,
                             ids=[f"{c}-{s}" for c, s, _, _ in INPUT_REFUSALS])
    def test_refusal_of_the_input_values_names_its_field(self, tmp_path, capsys,
                                                         command, source, p, message):
        # a signal file's values are named by 'input.path', a builtin's by
        # 'input': the p = 2 ledger overflows of the file scaled by 1e160
        # named no field, and the other refusals of a file named 'input'
        f = sample_builtin({"kind": "gaussian", "sigma": 0.5}, make_grid(1, 64, 0.25))
        if source == "builtin":         # a spectral bump is not compact in x
            field, cfg = "input", {"grid": {"d": 1, "M": 64, "h": 0.25}, "input": {"builtin": {
                "kind": "spectral_bump", "support": {"shape": "box", "lo": [-1], "hi": [1]}}}}
        else:
            scaled = {"big": f.values * 1e160, "huge": f.values * 1e308, "ones": np.ones(64)}
            save_signal(f.with_values(scaled[source]), str(tmp_path / "f.json"))
            field, cfg = "input.path", {"input": {"path": str(tmp_path / "f.json")}}
        cfg.update(poly="x1", n_max=16, family={"kind": "linear", "directions": [[1]]})
        if p is not None:
            cfg["p"] = p
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--config", write_config(tmp_path, "cfg.json", cfg)]) \
                == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"config field '{field}': " in err and message in err

    def test_tau_past_the_double_range_keeps_every_cell(self, tmp_path):
        # limit * (1 + tau) passes the double range: the run warned of an
        # overflow in multiply, a traceback under -W error, and exited 0
        out = tmp_path / "report.json"
        cfg = write_config(tmp_path, "cfg.json", {
            "grid": {"d": 1, "M": 64, "h": 0.25},
            "input": {"builtin": {"kind": "gaussian", "sigma": 0.5}},
            "family": {"kind": "linear", "directions": [[1]]}, "tau": 1e308, "out": str(out)})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["reconstruct", "--config", cfg]) == EXIT_OK
        assert caught == []
        report = json.loads(out.read_text())["reconstruction"]
        assert report["limits"][0] > 2.0 and report["estimated_cells"] == 64

    def test_nmax_override_is_checked(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", small_cfg())
        assert main(["estimate", "--config", cfg, "--nmax", "0"]) == EXIT_CONFIG


def nested(depth, leaf="1"):
    """JSON text of leaf inside depth arrays."""
    return "[" * depth + leaf + "]" * depth


def decoder_limit():
    """The least array depth that json.loads, called from here, cannot read."""
    lo, hi = 1, 1 << 16
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            json.loads(nested(mid))
            lo = mid
        except RecursionError:
            hi = mid
    return hi


def with_note(cfg, note_json):
    """cfg's JSON text with an unknown key "note" holding note_json."""
    return json.dumps(cfg)[:-1] + f', "note": {note_json}}}'


class TestDeepInputs:
    """No nesting depth ends in a traceback: each boundary that reads nested
    input exits 2 and names its field."""

    def test_config_past_the_decoder_names_config(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        for text in (nested(decoder_limit() + 50), with_note(small_cfg(), nested(5000))):
            path.write_text(text)
            assert main(["estimate", "--config", str(path)]) == EXIT_CONFIG
            assert "'--config'" in capsys.readouterr().err

    def test_config_depth_sweep_never_raises(self, tmp_path, capsys):
        # an unknown key nested from below the decoder's limit to past it:
        # json.load reads it or names --config, and where the report's
        # json.dumps, deeper on the stack, cannot write it, that names --config
        limit, codes = decoder_limit(), set()
        for depth in range(limit - 12, limit + 3):
            (tmp_path / "cfg.json").write_text(with_note(small_cfg(), nested(depth)))
            code = main(["estimate", "--config", str(tmp_path / "cfg.json")])
            assert code == EXIT_OK or (code == EXIT_CONFIG
                                       and "'--config'" in capsys.readouterr().err)
            codes.add(code)
        assert codes == {EXIT_OK, EXIT_CONFIG}

    def test_report_too_deep_to_write_names_config(self, monkeypatch, capsys):
        # handed to main as parsed: a decoder that nests deeper than the
        # report's encoder can follow (the sweep above finds such a depth)
        note = 1
        for _ in range(5000):
            note = [note]
        monkeypatch.setattr(cli, "_read_config", lambda args: dict(small_cfg(), note=note))
        assert main(["estimate"]) == EXIT_CONFIG
        assert "'--config'" in capsys.readouterr().err

    def test_signal_file_past_the_decoder_names_its_field(self, tmp_path, capsys):
        deep = str(tmp_path / "deep.json")
        pathlib.Path(deep).write_text(nested(decoder_limit() + 50))
        for command, name, value, field in (
                ("estimate", "input", {"path": deep}, "'input.path'"),
                ("reconstruct", "reference_mask", deep, "'reference_mask'")):
            cfg = write_config(tmp_path, "cfg.json", with_field(small_cfg(), name, value))
            assert main([command, "--config", cfg]) == EXIT_CONFIG
            assert field in capsys.readouterr().err

    def test_union_past_the_frame_limit_names_builtin(self, monkeypatch, capsys):
        # grid._support takes two frames per union level, so 600
        # levels exhaust the frame limit.  json.load refuses such a file
        # first where its decoder shares that limit, so the config is handed
        # to main as parsed, as a decoder with a limit of its own reads it
        support = {"shape": "box", "lo": [-1.0], "hi": [1.0]}
        for _ in range(600):
            support = {"shape": "union", "parts": [support]}
        cfg = with_field(small_cfg(), "input.builtin",
                         {"kind": "spectral_bump", "support": support})
        monkeypatch.setattr(cli, "_read_config", lambda args: cfg)
        assert main(["estimate"]) == EXIT_CONFIG
        assert "'input.builtin'" in capsys.readouterr().err


class TestPolyTexts:
    def test_deep_parentheses_run_as_the_bare_poly(self, tmp_path, capsys):
        reports = []
        for poly in ("x1", "(" * 3000 + "x1" + ")" * 3000):
            c = dict(small_cfg(), poly=poly, out=str(tmp_path / "report.json"))
            assert main(["estimate", "--config", write_config(tmp_path, "cfg.json", c)]) \
                == EXIT_OK
            reports.append(json.loads((tmp_path / "report.json").read_text())["estimate"])
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("poly", ["(" * 100_000 + "x1" + ")" * 99_999, "x1\u00b2",
                                      "x1^" + "9" * 5000],
                             ids=["unclosed-100000-deep", "superscript", "long-exponent"])
    def test_bad_poly_names_poly(self, tmp_path, capsys, poly):
        c = dict(small_cfg(), poly=poly)
        assert main(["estimate", "--config", write_config(tmp_path, "cfg.json", c)]) \
            == EXIT_CONFIG
        assert "'poly'" in capsys.readouterr().err

    def test_power_over_the_cap_names_poly_at_once(self, tmp_path, capsys):
        c = with_field(small_cfg(), "grid", {"d": 3, "M": 32, "h": 0.5})
        c["input"]["builtin"]["sigma"] = 0.3
        c["poly"] = "(x1+x2+x3+1)^200"
        cfg = write_config(tmp_path, "cfg.json", c)
        start = time.perf_counter()
        assert main(["estimate", "--config", cfg]) == EXIT_CONFIG
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert "'poly'" in err and "(at position 12)" in err

    def test_product_over_the_cap_names_poly(self, tmp_path, capsys):
        c = with_field(small_cfg(), "grid", {"d": 2, "M": 32, "h": 0.5})
        c["input"]["builtin"]["sigma"] = 0.3
        c["poly"] = "(x1+1)^400*(x2+1)^400"
        assert main(["estimate", "--config", write_config(tmp_path, "cfg.json", c)]) \
            == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "'poly'" in err and "product" in err and "(at position 10)" in err

    def test_overflowing_power_stops_at_the_first_overflow(self, tmp_path, capsys):
        # (x1+1)^4095 is within the term cap, but C(2047, 1023) is past the
        # double range: the power stops at the product that reaches it, where
        # it used to build all 4096 coefficients and refuse the member's
        # symbol bound afterwards
        c = with_field(small_cfg(), "poly", "(x1+1)^4095")
        assert main(["estimate", "--config", write_config(tmp_path, "cfg.json", c)]) \
            == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "'poly'" in err and "is not finite" in err and "Warning" not in err

    def test_overflowing_center_names_family(self, tmp_path, capsys):
        # a center inside the frequency box whose square is past the double
        # range: the square used to print numpy's overflow warning first
        c = with_field(small_cfg(), "grid", {"d": 1, "M": 64, "h": 1e-160})
        c["input"]["builtin"] = {"kind": "spectral_bump",
                                 "support": {"shape": "box", "lo": [-1e158], "hi": [1e158]}}
        c["family"] = {"kind": "quadratic", "centers": [[0.0], [1e160]]}
        assert main(["reconstruct", "--config", write_config(tmp_path, "cfg.json", c)]) \
            == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "'family'" in err and "member 1 has a coefficient that is not finite" in err
        assert "Warning" not in err


HOSTILE_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-10, 300),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=6),
    st.sampled_from(["inf", "1e400", "x1^", ""]))
HOSTILE = st.recursive(
    HOSTILE_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4),
                                                                inner, max_size=3),
    max_leaves=6)
FUZZED_FIELDS = sorted(set(FIELDS) | {"grid", "input", "family", "complex_growth"})


class TestFuzz:
    @settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(command=st.sampled_from(["estimate", "reconstruct", "complex-growth"]),
           name=st.sampled_from(FUZZED_FIELDS), value=HOSTILE)
    def test_config_field_never_raises(self, tmp_path, monkeypatch, command, name, value):
        monkeypatch.chdir(tmp_path)            # hostile paths land here
        cfg = with_field(dict(small_cfg(), out="report.json"), name, value)
        cfg_path = write_config(tmp_path, "cfg.json", cfg)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert main([command, "--config", cfg_path]) in (EXIT_OK, EXIT_CONFIG, EXIT_IO)

    @settings(max_examples=300)
    @given(kind=st.sampled_from(["array", "base64", "mask"]),
           key=st.sampled_from([None, "d", "M", "h", "side", "label", "payload",
                                "encoding", "values", "eps_rel", "resolved"]),
           value=HOSTILE)
    def test_signal_document_raises_only_signal_io_error(self, signal_document, kind, key,
                                                         value):
        f = sample_builtin({"kind": "gaussian", "sigma": 0.7}, make_grid(1, 64, 0.25))
        obj = support_mask(forward_dft(f)) if kind == "mask" else f
        doc = signal_document(obj, "base64" if kind == "base64" else "array")
        if key is None:
            doc = value
        else:
            doc[key] = value
        try:
            signal_from_dict(doc)
        except SignalIOError:
            pass
