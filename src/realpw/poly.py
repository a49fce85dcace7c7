"""Multivariate polynomials, operator symbols P(i*lam), and generating families.

A polynomial P acts as the constant-coefficient operator P(d) on the spatial
side; on the frequency side it acts by multiplication with the symbol
P(i*lam).  Coefficients are complex throughout.
"""

from __future__ import annotations

import math
import re

import numpy as np
from dataclasses import dataclass, field


class PolyError(ValueError):
    pass


class ParseError(PolyError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class MultiPoly:
    """Sparse multivariate polynomial: exponent multi-index -> complex coeff."""

    d: int
    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        # An exponent must equal its int (2.0 and numpy ints do, 1.5 and '2'
        # do not), so distinct keys stay distinct and no terms merge.
        clean = {}
        for alpha, c in self.coeffs.items():
            exps = tuple(map(int, alpha))
            if exps != alpha or len(exps) != self.d or any(a < 0 for a in exps):
                raise PolyError(f"bad exponent multi-index {alpha!r} for d={self.d}")
            c = complex(c)
            if c != 0:
                clean[exps] = c
        object.__setattr__(self, "coeffs", clean)

    @property
    def degree(self):
        """Max total degree; -inf for the zero polynomial."""
        if not self.coeffs:
            return -np.inf
        return max(sum(a) for a in self.coeffs)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    # -- algebra ------------------------------------------------------------
    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        if self.d != other.d:
            raise PolyError("dimension mismatch")
        out = dict(self.coeffs)
        for a, c in other.coeffs.items():
            out[a] = out.get(a, 0) + c
        return MultiPoly(self.d, out)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.d, {a: -c for a, c in self.coeffs.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return MultiPoly(self.d, {a: c * other for a, c in self.coeffs.items()})
        if self.d != other.d:
            raise PolyError("dimension mismatch")
        out = {}
        for a1, c1 in self.coeffs.items():
            for a2, c2 in other.coeffs.items():
                a = tuple(x + y for x, y in zip(a1, a2))
                out[a] = out.get(a, 0) + c1 * c2
        return MultiPoly(self.d, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "MultiPoly":
        if k < 0:
            raise PolyError("negative polynomial power")
        out = constant(self.d, 1.0)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- text form ----------------------------------------------------------
    def to_text(self) -> str:
        """Canonical text accepted back by parse_poly."""
        if not self.coeffs:
            return "0"
        pieces = []
        for alpha in sorted(self.coeffs, key=lambda a: (sum(a), a)):
            c = self.coeffs[alpha]
            negate = (c.imag == 0 and c.real < 0) or (c.real == 0 and c.imag < 0)
            factors = [_coeff_text(-c if negate else c)]
            for j, e in enumerate(alpha):
                if e == 1:
                    factors.append(f"x{j + 1}")
                elif e > 1:
                    factors.append(f"x{j + 1}^{e}")
            term = "*".join(factors)
            if not pieces:
                pieces.append(f"-{term}" if negate else term)
            else:
                pieces.append(f"- {term}" if negate else f"+ {term}")
        return " ".join(pieces)

    def __str__(self):
        return self.to_text()


def _coeff_text(c: complex) -> str:
    if c.imag == 0:
        return repr(c.real)
    if c.real == 0:
        return f"{repr(c.imag)}*i" if c.imag != 1 else "i"
    if c.imag < 0:
        return f"({repr(c.real)} - {repr(-c.imag)}*i)"
    return f"({repr(c.real)} + {repr(c.imag)}*i)"


def constant(d: int, value) -> MultiPoly:
    return MultiPoly(d, {(0,) * d: value})


def variable(d: int, j: int) -> MultiPoly:
    """x_j (1-based)."""
    if not 1 <= j <= d:
        raise PolyError(f"variable index x{j} out of range for d={d}")
    alpha = [0] * d
    alpha[j - 1] = 1
    return MultiPoly(d, {tuple(alpha): 1.0})


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------
# expr   := ("+"|"-")? term (("+"|"-") term)*
# term   := factor ("*" factor)*
# factor := base ("^" uint)?
# base   := var | number | "i" | "(" expr ")"
# "^" binds tightest and takes one unsigned integer per factor (x1^2^3 is an
# error); "*" binds tighter than "+" and "-", and all three associate to the
# left.  A leading sign covers the whole first term: -x1*x2 + 1 is
# (-(x1*x2)) + 1.  Implicit multiplication is not allowed.  base^k is refused
# at its "^" when base has t >= 2 terms and C(k + t - 1, t - 1), a bound on
# the terms of the power, exceeds MAX_COUNT; a * b is refused at its "*" when
# min(t_a t_b, C(deg a + deg b + d, d)), a bound on the terms of the product,
# exceeds MAX_COUNT.

# cap on the terms of a power or a product, and the CLI's on n_max, t_count and families
MAX_COUNT = 4096

_TOKEN = re.compile(r"\s*(?:(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
                    r"|(?P<var>x\d*)|(?P<end>\Z)|(?P<char>.))")
_LEVEL = {"(": 0, "+": 1, "-": 1, "neg": 1, "*": 2}
_APPLY = {"+": MultiPoly.__add__, "-": MultiPoly.__sub__, "*": MultiPoly.__mul__,
          "neg": lambda _, right: -right}     # a leading "-", stacked over a None


def parse_poly(text: str, d: int) -> MultiPoly:
    """Parse an expression like "x1^2 + 0.5*i*x2" into a MultiPoly.  One loop
    over the tokens keeps an operand and an operator stack (Dijkstra's
    shunting-yard), so no nesting depth recurses."""
    if d not in (1, 2, 3):
        raise PolyError(f"dimension d must be 1, 2 or 3, got {d}")
    values, ops, state = [], [], "sign"     # sign | operand | operator | power | powered

    def reduce(level):      # apply the stacked operators that bind at least as tightly
        while ops and _LEVEL[ops[-1][0]] >= level:
            (op, at), right = ops.pop(), values.pop()
            if op == "*" and _product_terms(values[-1], right, d) > MAX_COUNT:
                raise ParseError(f"a product may exceed {MAX_COUNT} terms", at)
            values[-1] = _APPLY[op](values[-1], right)

    def opened():           # whether a "(" waits for its ")"
        return any(op == "(" for op, _ in ops)

    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        token, at = m.group(kind), m.start(kind)
        if state == "power":
            if kind != "number" or not token.isdecimal():
                raise ParseError("expected integer exponent after '^'", at)
            try:
                k, t = int(token), len(values[-1].coeffs)
            except ValueError:      # past Python's limit on the digits of an int
                raise ParseError("exponent too long", at) from None
            if t >= 2 and (k > MAX_COUNT or math.comb(k + t - 1, t - 1) > MAX_COUNT):
                raise ParseError(f"a power of {t} terms may exceed {MAX_COUNT} terms", caret)
            values[-1], state = values[-1] ** k, "powered"
        elif state == "sign" and token in ("+", "-"):
            if token == "-":
                values.append(None)
                ops.append(("neg", at))
            state = "operand"
        elif token == "(" and state in ("sign", "operand"):
            ops.append(("(", at))
            state = "sign"
        elif state in ("sign", "operand"):
            if kind == "number" and math.isfinite(float(token)):
                values.append(constant(d, float(token)))
            elif kind == "number":
                raise ParseError(f"bad number {token!r}", at)
            elif kind == "var" and 1 <= float(token[1:] or "nan") <= d:    # float: no digit cap
                values.append(variable(d, int(token[1:])))
            elif kind == "var":
                raise ParseError(f"expected a variable index in 1..{d} after 'x'", m.end())
            elif token == "i":
                values.append(constant(d, 1j))
            else:
                raise ParseError("expected a number, variable, 'i' or '('", at)
            state = "operator"
        elif token == "^" and state == "operator":
            state, caret = "power", at
        elif token in ("+", "-", "*"):
            reduce(_LEVEL[token])
            ops.append((token, at))
            state = "operand"
        elif token == ")" and opened():
            reduce(1)
            ops.pop()
            state = "operator"
        elif kind == "end" and not opened():
            reduce(1)
            return values[0]
        else:
            raise ParseError("expected ')'" if opened() else
                             f"unexpected character {text[at]!r}", at)


def _product_terms(a: MultiPoly, b: MultiPoly, d: int) -> int:
    """A bound on the terms of a * b: the product of their term counts, or
    the count of monomials of degree at most deg a + deg b if that is less."""
    n = len(a.coeffs) * len(b.coeffs)
    return n if n <= MAX_COUNT else min(n, math.comb(a.degree + b.degree + d, d))


# ---------------------------------------------------------------------------
# symbols
# ---------------------------------------------------------------------------

def eval_symbol_many(P: MultiPoly, lams: np.ndarray) -> np.ndarray:
    """P(i*lam) over an array of frequency vectors, shape (..., d).  The one
    path from a polynomial to its symbol's values; points whose last axis is
    not P.d long raise PolyError."""
    lams = np.asarray(lams, dtype=float)
    if lams.shape[-1:] != (P.d,):
        raise PolyError(f"{P.to_text():.60}: d = {P.d}, but the points have shape {lams.shape}")
    z = 1j * lams
    out = np.zeros(lams.shape[:-1], dtype=complex)
    for alpha, c in P.coeffs.items():
        term = c
        for j, e in enumerate(alpha):
            if e:
                term = term * z[..., j] ** e
        out += term
    return out


def symbol_bound(P: MultiPoly, halfwidth: float) -> float:
    """sum |c_alpha| halfwidth^|alpha|, a bound on |P(i lam)| over the box
    max_j |lam_j| <= halfwidth; inf when a power halfwidth^|alpha| or the
    sum overflows a double."""
    halfwidth = float(halfwidth)
    try:
        return float(sum(abs(c) * halfwidth ** sum(a) for a, c in P.coeffs.items()))
    except OverflowError:                   # float ** int raises it, float * float gives inf
        return float("inf")


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolyFamily:
    polys: tuple
    scheme: str

    def __post_init__(self):
        if not self.polys:
            raise PolyError("a polynomial family must be non-empty")
        d = self.polys[0].d
        if any(p.d != d for p in self.polys):
            raise PolyError("family members must share the dimension")
        object.__setattr__(self, "polys", tuple(self.polys))

    @property
    def d(self):
        return self.polys[0].d

    def __len__(self):
        return len(self.polys)

    def __iter__(self):
        return iter(self.polys)


def family_linear(directions) -> PolyFamily:
    """Degree-one polynomials xi . x for each (normalized) direction xi.

    The symbol is i*(xi . lam), purely imaginary with modulus |xi . lam|;
    the sublevel sets are slabs, so intersections recover convex hulls.
    """
    polys = []
    for xi in directions:
        xi = np.asarray(xi, dtype=float)
        nrm = np.linalg.norm(xi)
        if nrm == 0:
            raise PolyError("zero direction vector")
        xi = xi / nrm
        d = xi.size
        polys.append(MultiPoly(d, {
            tuple(1 if k == j else 0 for k in range(d)): xi[j]
            for j in range(d) if xi[j] != 0
        }))
    return PolyFamily(tuple(polys), "linear-directions")


def _squared_distance(c, a, sign) -> MultiPoly:
    """sign * sum_j (x_j - a c_j)^2, for sign * a^2 = 1."""
    d = c.size
    coeffs = {(0,) * d: float(np.sum(c ** 2))}
    for j in range(d):
        coeffs[tuple(2 if k == j else 0 for k in range(d))] = sign
        if c[j] != 0:
            coeffs[tuple(1 if k == j else 0 for k in range(d))] = -2.0 * sign * a * c[j]
    return MultiPoly(d, coeffs)


def _checked_centers(centers, grid) -> list:
    """Centers as float arrays, each inside the grid's frequency box."""
    half = grid.frequency_halfwidth
    out = []
    for c in centers:
        c = np.asarray(c, dtype=float)
        if np.any(np.abs(c) > half):
            raise PolyError(f"center {c} outside the frequency box [-{half:.6g}, {half:.6g})")
        out.append(c)
    return out


def family_quadratic(centers, grid) -> PolyFamily:
    """Distance quadratics: |P_c(i lam)| = |lam - c|^2 for each center c.

    Sign convention (fixed once): the stored polynomial is
    P_c(x) = -sum_j (x_j - i c_j)^2, so that P_c(i lam) equals
    sum_j (lam_j - c_j)^2 exactly -- real, nonnegative, with the distance
    identity holding without any modulus gymnastics.  Sublevel sets are
    Euclidean disks; a single member centered in a ball recovers that ball.
    Centers must lie inside the frequency box.
    """
    polys = [_squared_distance(c, 1j, -1.0) for c in _checked_centers(centers, grid)]
    return PolyFamily(tuple(polys), "quadratic-centers")


def family_quadratic_real(centers, grid) -> PolyFamily:
    """Real-coefficient squared-distance quadratics sum_j (x_j - c_j)^2.

    Their symbols (|c|^2 - |lam|^2) - 2i c.lam vanish on the sphere |lam|=|c|
    in the hyperplane lam . c = 0; the sublevel sets are quartic ovals, which
    unlike disks can separate disconnected spectral supports.
    """
    polys = [_squared_distance(c, 1.0, 1.0) for c in _checked_centers(centers, grid)]
    return PolyFamily(tuple(polys), "quadratic-centers-real")


def family_explicit(polys) -> PolyFamily:
    return PolyFamily(tuple(polys), "explicit")
