import contextlib
import copy
import io
import json
import pathlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from realpw.cli import main, FIELDS, EXIT_OK, EXIT_CONFIG, EXIT_IO
from realpw import (make_grid, sample_builtin, save_signal, forward_dft, support_mask,
                    SignalIOError)
from realpw.signal_io import signal_to_dict, signal_from_dict
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


class TestMoreInputPaths:
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
def signal_files(tmp_path):
    """Bad and misplaced signal files; "@name" in a probe value is one of them."""
    grid = make_grid(1, 64, 0.25)
    f = sample_builtin({"kind": "gaussian", "sigma": 0.7}, grid)
    save_signal(f, str(tmp_path / "signal.json"))
    save_signal(support_mask(forward_dft(f)), str(tmp_path / "mask.json"))
    other = sample_builtin({"kind": "gaussian", "sigma": 0.7}, make_grid(1, 128, 0.25))
    save_signal(support_mask(forward_dft(other)), str(tmp_path / "mask_other_grid.json"))
    doc = signal_to_dict(f)
    doc["values"] = "abc"
    (tmp_path / "bad_base64.json").write_text(json.dumps(doc))
    (tmp_path / "bad_json.json").write_text("{not json")
    (tmp_path / "bad_row.csv").write_text("index,re,im\n-4,0,0\n-3,abc,0\n")
    (tmp_path / "binary.csv").write_bytes(b"\xff\xfe\x00\x81" * 8)
    (tmp_path / "binary.json").write_bytes(b"\xff\xfe\x00\x81" * 8)

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
    ("estimate", "input.builtin", {"kind": "nope"}, EXIT_CONFIG, "'input.builtin'"),
    ("estimate", "input.builtin", {"kind": "gaussian", "sigma": "wide"},
     EXIT_CONFIG, "'input.builtin'"),
    ("estimate", "input.builtin", {"kind": "spectral_bump", "support": []},
     EXIT_CONFIG, "'input.builtin'"),
    ("estimate", "input.builtin", {"kind": "spectral_bump",   # a d=2 box on a d=1 grid
                                   "support": {"shape": "box", "lo": [-1, 0], "hi": [1, 1]}},
     EXIT_CONFIG, "'input.builtin'"),
    ("estimate", "input.builtin", [], EXIT_CONFIG, "'input.builtin'"),
    ("estimate", "out", 5, EXIT_CONFIG, "'out'"),
    ("estimate", "out", "report\0.json", EXIT_CONFIG, "'out'"),
    ("reconstruct", "family.per_axis", 0, EXIT_CONFIG, "'family.per_axis'"),
    ("reconstruct", "family.kind", "cubic", EXIT_CONFIG, "'family.kind'"),
    ("reconstruct", "family", "x", EXIT_CONFIG, "'family'"),
    ("reconstruct", "family", {"kind": "linear", "directions": [[1, "a"]]},
     EXIT_CONFIG, "'family.directions'"),
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
    ("reconstruct", "mask_out", "@absent_dir/mask.json", EXIT_IO, "absent_dir"),
    ("complex-growth", "complex_growth.t_min", "", EXIT_CONFIG, "'complex_growth.t_min'"),
    ("complex-growth", "complex_growth.t_count", 2, EXIT_CONFIG, "'complex_growth.t_count'"),
    ("complex-growth", "complex_growth.t_max", 0.5, EXIT_CONFIG, "'complex_growth.t_max'"),
    ("complex-growth", "complex_growth.y", [["a"]], EXIT_CONFIG, "'complex_growth.y'"),
    ("complex-growth", "complex_growth.y", [[1, 2]], EXIT_CONFIG, "'complex_growth.y'"),
    ("complex-growth", "complex_growth.x0", [], EXIT_CONFIG, "'complex_growth.x0'"),
    ("complex-growth", "complex_growth", 3, EXIT_CONFIG, "'complex_growth'"),
    ("complex-growth", "csv_out", "@absent_dir/plot.csv", EXIT_IO, "absent_dir"),
    ("verify", "threads", 0, EXIT_CONFIG, "'threads'"),
    ("verify", "threads", "two", EXIT_CONFIG, "'threads'"),
    ("verify", "n_max", 4, EXIT_CONFIG, "'n_max'"),
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

    def test_nmax_override_is_checked(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", small_cfg())
        assert main(["estimate", "--config", cfg, "--nmax", "0"]) == EXIT_CONFIG


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
    def test_signal_document_raises_only_signal_io_error(self, kind, key, value):
        f = sample_builtin({"kind": "gaussian", "sigma": 0.7}, make_grid(1, 64, 0.25))
        obj = support_mask(forward_dft(f)) if kind == "mask" else f
        doc = signal_to_dict(obj, "base64" if kind == "base64" else "array")
        if key is None:
            doc = value
        else:
            doc[key] = value
        try:
            signal_from_dict(doc)
        except SignalIOError:
            pass
