import base64
import random

import numpy as np
import pytest
from hypothesis import settings

from realpw import SupportMask, make_grid

# Fixed examples on every run: a fuzz test cannot pass once and fail the next time.
settings.register_profile("realpw", derandomize=True, deadline=None, print_blob=True)
settings.load_profile("realpw")


def mirrored(a):
    """a at -lam on the centered grid: index j goes to (M - j) % M on every axis."""
    return np.roll(np.flip(a), 1, axis=tuple(range(a.ndim)))


def pairs_iterates(spec, P):
    """Whether spatial_norms steps P's real iterates two per transform on
    spec, decided on the centered grid: a resolved mask closed under
    lam -> -lam, F Hermitian on it to 1e-12 of max |F|, and real P."""
    field, F = spec.mask.field.reshape(spec.grid.shape), spec.F.reshape(spec.grid.shape)
    return bool(spec.mask.resolved and field.any() and np.array_equal(mirrored(field), field)
                and np.abs(mirrored(F) - F.conj())[field].max() <= 1e-12 * np.abs(F).max()
                and all(c.imag == 0.0 for c in P.coeffs.values()))


@pytest.fixture(scope="session")
def pairs():
    return pairs_iterates


def symbol_per_member(P, lams):
    """eval_symbol_many as it was for one MultiPoly, before a family was one
    coefficient array: each term starts from its scalar coefficient, is
    multiplied by (i lam_j)^e axis by axis, and the terms are added in P's
    order."""
    lams = np.asarray(lams, dtype=float)
    z = 1j * lams
    out = np.zeros(lams.shape[:-1], dtype=complex)
    for alpha, c in P.coeffs.items():
        term = c
        for j, e in enumerate(alpha):
            if e:
                term = term * z[..., j] ** e
        out += term
    return out


@pytest.fixture(scope="session")
def per_member():
    return symbol_per_member


def document_of(obj, encoding="base64"):
    """The signal document of a SampledFunction or SupportMask, built here:
    the header save_signal writes and the interleaved values, base64 or (as
    outside writers may send them) a plain "array" list."""
    mask = isinstance(obj, SupportMask)
    values = obj.field.astype(complex) if mask else obj.values
    flat = np.empty(2 * values.size, dtype="<f8")
    flat[0::2], flat[1::2] = values.real, values.imag
    doc = {"d": obj.grid.d, "M": obj.grid.M, "h": obj.grid.h, "encoding": encoding,
           "side": "frequency" if mask else obj.side,
           "label": f"mask eps_rel={obj.eps_rel:g}" if mask else obj.label,
           "payload": "boolean" if mask else "complex",
           "values": (base64.b64encode(flat.tobytes()).decode("ascii")
                      if encoding == "base64" else flat.tolist())}
    if mask:
        doc.update(eps_rel=obj.eps_rel, resolved=obj.resolved)
    return doc


@pytest.fixture(scope="session")
def signal_document():
    return document_of


def bench_two_box(seed):
    """The bench's reconstruct-twobox input at one seed's box shifts:
    M = 256, h = 0.05, edge 0.45 cells."""
    rng = random.Random(f"reconstruct-twobox:{seed}")
    (ax, ay), (bx, by) = ((0, 0), (0, 0)) if seed == 0 else tuple(
        (rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(2))
    grid = make_grid(2, 256, 0.05)
    dlam = grid.dlam

    def box(lo, hi):
        return {"shape": "box", "lo": [c * dlam for c in lo], "hi": [c * dlam for c in hi]}
    support = {"shape": "union", "parts": [box([15.5 + ax, -1.5 + ay], [26.5 + ax, 1.5 + ay]),
                                           box([-26.5 + bx, -1.5 + by], [-15.5 + bx, 1.5 + by])]}
    return {"kind": "spectral_bump", "support": support, "edge_width": 0.45 * dlam}, grid


@pytest.fixture(scope="session")
def two_box():
    return bench_two_box
