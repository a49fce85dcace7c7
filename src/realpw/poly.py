"""Multivariate polynomials, operator symbols P(i*lam), and generating families.

A polynomial P acts as the constant-coefficient operator P(d) on the spatial
side; on the frequency side it acts by multiplication with the symbol
P(i*lam).  Coefficients are complex throughout.
"""

from __future__ import annotations

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
        clean = {}
        for alpha, c in self.coeffs.items():
            alpha = tuple(int(a) for a in alpha)
            if len(alpha) != self.d or any(a < 0 for a in alpha):
                raise PolyError(f"bad exponent multi-index {alpha} for d={self.d}")
            c = complex(c)
            if c != 0:
                clean[alpha] = clean.get(alpha, 0) + c
        clean = {a: c for a, c in clean.items() if c != 0}
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
# expr   := term (("+"|"-") term)*
# term   := factor ("*" factor)*
# factor := base ("^" uint)?
# base   := var | number | "i" | "(" expr ")"
# Implicit multiplication is not allowed.

class _Parser:
    def __init__(self, text: str, d: int):
        self.text = text
        self.d = d
        self.pos = 0

    def error(self, msg):
        raise ParseError(msg, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch):
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def parse(self) -> MultiPoly:
        out = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error(f"unexpected character {self.text[self.pos]!r}")
        return out

    def expr(self) -> MultiPoly:
        if self.take("-"):
            out = -self.term()
        else:
            self.take("+")
            out = self.term()
        while True:
            if self.take("+"):
                out = out + self.term()
            elif self.take("-"):
                out = out - self.term()
            else:
                return out

    def term(self) -> MultiPoly:
        out = self.factor()
        while self.take("*"):
            out = out * self.factor()
        return out

    def factor(self) -> MultiPoly:
        base = self.base()
        if self.take("^"):
            self.skip_ws()
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            if self.pos == start:
                self.error("expected integer exponent after '^'")
            return base ** int(self.text[start:self.pos])
        return base

    def base(self) -> MultiPoly:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            out = self.expr()
            if not self.take(")"):
                self.error("expected ')'")
            return out
        if ch == "i":
            self.pos += 1
            return constant(self.d, 1j)
        if ch == "x":
            self.pos += 1
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            if self.pos == start:
                self.error("expected variable index after 'x'")
            j = int(self.text[start:self.pos])
            if not 1 <= j <= self.d:
                self.error(f"variable x{j} exceeds dimension d={self.d}")
            return variable(self.d, j)
        if ch.isdigit() or ch == ".":
            return constant(self.d, self.number())
        self.error("expected a number, variable, 'i' or '('")

    def number(self) -> float:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos < len(self.text) and self.text[self.pos] == ".":
            self.pos += 1
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
        if self.pos < len(self.text) and self.text[self.pos] in "eE":
            mark = self.pos
            self.pos += 1
            if self.pos < len(self.text) and self.text[self.pos] in "+-":
                self.pos += 1
            if self.pos < len(self.text) and self.text[self.pos].isdigit():
                while self.pos < len(self.text) and self.text[self.pos].isdigit():
                    self.pos += 1
            else:
                self.pos = mark  # not an exponent after all
        if self.pos == start:
            self.error("expected a number")
        number = self.text[start:self.pos]
        try:
            value = float(number)
        except ValueError:
            value = np.nan
        if not np.isfinite(value):
            self.pos = start
            self.error(f"bad number {number!r}")
        return value


def parse_poly(text: str, d: int) -> MultiPoly:
    """Parse an expression like "x1^2 + 0.5*i*x2" into a MultiPoly."""
    if d not in (1, 2, 3):
        raise PolyError(f"dimension d must be 1, 2 or 3, got {d}")
    return _Parser(text, d).parse()


# ---------------------------------------------------------------------------
# symbols
# ---------------------------------------------------------------------------

def eval_symbol(P: MultiPoly, lam) -> complex:
    """P(i*lam) at a single real frequency vector lam."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    if lam.shape != (P.d,):
        raise PolyError(f"frequency vector must have length {P.d}, got {lam.shape}")
    return complex(eval_symbol_many(P, lam[None, :])[0])


def eval_symbol_many(P: MultiPoly, lams: np.ndarray) -> np.ndarray:
    """P(i*lam) over an array of frequency vectors, shape (..., d)."""
    lams = np.asarray(lams, dtype=float)
    z = 1j * lams
    out = np.zeros(lams.shape[:-1], dtype=complex)
    for alpha, c in P.coeffs.items():
        term = np.full(lams.shape[:-1], c, dtype=complex)
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
    """Centers as float arrays, each of the grid's dimension and inside its
    frequency box."""
    half = grid.frequency_halfwidth
    out = []
    for c in centers:
        c = np.asarray(c, dtype=float)
        if c.size != grid.d:
            raise PolyError("center dimension mismatch")
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
