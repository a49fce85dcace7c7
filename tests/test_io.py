import base64
import json

import numpy as np
import pytest

from realpw import (make_grid, SampledFunction, support_mask, forward_dft,
                    sample_builtin, save_signal, load_signal, save_signal_csv,
                    load_signal_csv, SignalIOError, SupportMask)
from realpw.signal_io import signal_from_dict


def random_sf(d=1, M=32, h=0.3, seed=0):
    rng = np.random.default_rng(seed)
    g = make_grid(d, M, h)
    vals = rng.standard_normal(g.n_points) + 1j * rng.standard_normal(g.n_points)
    return SampledFunction(g, "spatial", vals, label="random test signal")


class TestJsonSignal:
    @pytest.mark.parametrize("encoding", ["base64", "array"])
    def test_round_trip(self, tmp_path, signal_document, encoding):
        # save_signal writes base64; an "array" document comes from elsewhere
        f = random_sf()
        path = tmp_path / "sig.json"
        if encoding == "base64":
            save_signal(f, str(path))
        else:
            path.write_text(json.dumps(signal_document(f, "array")))
        back = load_signal(str(path))
        assert back.grid == f.grid
        assert back.side == f.side
        assert back.label == f.label
        if encoding == "base64":
            assert np.array_equal(back.values, f.values)   # bit-exact payload
        else:
            assert np.allclose(back.values, f.values, rtol=0, atol=0)

    def test_2d_round_trip(self, tmp_path):
        f = random_sf(d=2, M=16, h=0.5, seed=3)
        path = str(tmp_path / "sig2.json")
        save_signal(f, path)
        back = load_signal(path)
        assert np.array_equal(back.values, f.values)

    def test_mask_round_trip(self, tmp_path):
        g = make_grid(1, 1024, 0.05)
        f = sample_builtin({"kind": "spectral_bump",
                            "support": {"shape": "box", "lo": [-1], "hi": [1]}}, g)
        mask = support_mask(forward_dft(f))
        path = str(tmp_path / "mask.json")
        save_signal(mask, path)
        back = load_signal(path)
        assert isinstance(back, SupportMask)
        assert np.array_equal(back.field, mask.field)
        assert back.resolved == mask.resolved
        assert back.eps_rel == mask.eps_rel

    @pytest.mark.parametrize("kind", ["mask", "signal"])
    def test_file_is_the_json_document(self, tmp_path, signal_document, kind):
        # the payload goes to the file as bytes: the file still reads as
        # json.dumps of the document, whose values are built here from the
        # mask as complex numbers
        g = make_grid(2, 64, 0.25)
        f = sample_builtin({"kind": "spectral_bump",
                            "support": {"shape": "box", "lo": [-2, -1], "hi": [2, 1]}}, g)
        obj = support_mask(forward_dft(f)) if kind == "mask" else f.with_values(
            f.values, label="bump \u03bb \"q\"")
        path = tmp_path / "signal.json"
        save_signal(obj, str(path))
        want = json.dumps(signal_document(obj), sort_keys=True).encode("ascii")
        assert path.read_bytes() == want

    @pytest.mark.parametrize("seed", range(9))
    def test_bench_reference_masks_read_as_before(self, tmp_path, two_box, seed):
        # a boolean payload is read from its real parts alone, with no complex
        # array: the field is the one the complex decoding gave
        builtin, grid = two_box(seed)
        mask = support_mask(forward_dft(sample_builtin(builtin, grid)))
        path = tmp_path / "reference_mask.json"
        save_signal(mask, str(path))
        flat = np.frombuffer(base64.b64decode(json.loads(path.read_text())["values"]), "<f8")
        back = load_signal(str(path))
        assert np.array_equal(back.field, (flat[0::2] + 1j * flat[1::2]).real >= 0.5)
        assert np.array_equal(back.field, mask.field)
        assert (back.grid, back.eps_rel, back.resolved) == (grid, mask.eps_rel, mask.resolved)

    def test_bad_payload_length(self, signal_document):
        f = random_sf()
        for obj in (f, SupportMask(f.grid, f.values.real > 0, 1e-8, True)):
            for cut, message in ((1, "even length"),
                                 (2, "payload holds 31 values, grid needs 32")):
                doc = signal_document(obj, "array")
                doc["values"] = doc["values"][:-cut]
                with pytest.raises(SignalIOError, match=message):
                    signal_from_dict(doc)

    def test_bad_header(self, signal_document):
        doc = signal_document(random_sf(), "array")
        del doc["M"]
        with pytest.raises(SignalIOError):
            signal_from_dict(doc)

    @pytest.mark.parametrize("key,value", [("d", 1.5), ("d", 1.0), ("d", True), ("d", "1"),
                                           ("M", 8.9), ("M", 32.0), ("M", "32"),
                                           ("M", False)])
    def test_header_integers(self, tmp_path, signal_document, key, value):
        # the grid's d and M are JSON integers, as save_signal writes them;
        # int() read 1.5, true and "1" as 1 and loaded the wrong grid
        f = random_sf()
        for obj in (f, SupportMask(f.grid, f.values.real > 0, 1e-8, True)):
            doc = signal_document(obj, "array")
            doc[key] = value
            with pytest.raises(SignalIOError, match=f"header '{key}' must be an integer"):
                signal_from_dict(doc)
            path = tmp_path / "header.json"
            path.write_text(json.dumps(doc))
            with pytest.raises(SignalIOError, match=f"header '{key}' must be an integer"):
                load_signal(str(path))

    def test_saved_header_integers(self, tmp_path):
        # save_signal writes d and M as integers, so its files load bit-identically
        f = random_sf(d=2, M=16, h=0.5, seed=3)
        path = tmp_path / "sig.json"
        save_signal(f, str(path))
        doc = json.loads(path.read_text())
        assert type(doc["d"]) is int and type(doc["M"]) is int
        back = load_signal(str(path))
        assert back.grid == f.grid and back.values.tobytes() == f.values.tobytes()

    def test_unknown_encoding(self, signal_document):
        doc = signal_document(random_sf(), "array")
        doc["encoding"] = "hex"
        with pytest.raises(SignalIOError):
            signal_from_dict(doc)


class TestCsvSignal:
    def test_round_trip(self, tmp_path):
        f = random_sf(seed=7)
        path = str(tmp_path / "sig.csv")
        save_signal_csv(f, path)
        back = load_signal_csv(path, h=f.grid.h, side="spatial", label=f.label)
        assert back.grid == f.grid
        assert np.array_equal(back.values, f.values)

    def test_rejects_2d(self, tmp_path):
        f = random_sf(d=2, M=16, h=0.5)
        with pytest.raises(SignalIOError):
            save_signal_csv(f, str(tmp_path / "x.csv"))

    def test_rejects_gap_in_indices(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("index,re,im\n-1,0.0,0.0\n1,1.0,0.0\n")
        with pytest.raises(SignalIOError):
            load_signal_csv(str(path), h=0.5, side="spatial")


class TestAtomicity:
    def test_no_partial_file_on_error(self, tmp_path):
        # writing into a missing directory fails before any rename
        f = random_sf()
        with pytest.raises(OSError):
            save_signal(f, str(tmp_path / "nodir" / "sig.json"))
        assert not (tmp_path / "nodir").exists()

    def test_json_is_valid(self, tmp_path):
        f = random_sf()
        path = tmp_path / "sig.json"
        save_signal(f, str(path))
        json.loads(path.read_text())
