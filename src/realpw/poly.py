"""Multivariate polynomials, operator symbols P(i*lam), and generating families.

A polynomial P acts as the constant-coefficient operator P(d) on the spatial
side; on the frequency side it acts by multiplication with the symbol
P(i*lam).  Coefficients are complex throughout.
"""

from __future__ import annotations

import cmath
import functools
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
    """Sparse multivariate polynomial: exponent multi-index -> complex coeff.
    A coefficient that is not finite raises PolyError, so a power or product
    stops at the first one that overflows."""

    d: int
    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        # An exponent must equal its int (2.0 and numpy ints do; 1.5, '2',
        # nan, inf and None do not), so distinct keys stay distinct and no
        # terms merge.  A boolean is left out of exps, so it never equals.
        clean = {}
        for alpha, c in self.coeffs.items():
            try:
                exps = tuple(int(a) for a in alpha if not isinstance(a, (bool, np.bool_)))
            except (TypeError, ValueError, OverflowError):
                exps = None
            if exps != alpha or len(exps) != self.d or any(a < 0 for a in exps):
                raise PolyError(f"bad exponent multi-index {alpha!r} for d={self.d}")
            c = complex(c)
            if not cmath.isfinite(c):
                raise PolyError(f"coefficient {c!r} of {alpha!r} is not finite")
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
            k >>= 1
            if k:                   # a square past the last bit is never used
                base = base * base
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
            values[-1] = _at(at, _APPLY[op], values[-1], right)

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
            values[-1], state = _at(caret, pow, values[-1], k), "powered"
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


def _at(position: int, op, *operands) -> MultiPoly:
    """op(*operands); a coefficient past the double range raises a
    ParseError at the operator's position."""
    try:
        return op(*operands)
    except PolyError as exc:
        raise ParseError(str(exc), position) from None


def _product_terms(a: MultiPoly, b: MultiPoly, d: int) -> int:
    """A bound on the terms of a * b: the product of their term counts, or
    the count of monomials of degree at most deg a + deg b if that is less."""
    n = len(a.coeffs) * len(b.coeffs)
    return n if n <= MAX_COUNT else min(n, math.comb(a.degree + b.degree + d, d))


# ---------------------------------------------------------------------------
# symbols
# ---------------------------------------------------------------------------

def _coefficient_rows(P):
    """(monomials, coefficient rows) of a PolyFamily, or of a MultiPoly as
    one row over its own terms."""
    if isinstance(P, PolyFamily):
        return P.monomials, P.coeffs
    return tuple(P.coeffs), np.array([list(P.coeffs.values())], dtype=complex)


def eval_symbol_many(P, lams) -> np.ndarray:
    """P(i*lam) over frequency vectors lams, shape (..., d).  The one path
    from a polynomial to its symbol's values: a MultiPoly gives shape (...),
    a PolyFamily a (members, ...) block of its members' values.  Points
    whose last axis is not P.d long raise PolyError.

    Each value is summed as its member alone would be: a term starts from
    its coefficient and is multiplied by (i lam_j)^e axis by axis, left to
    right, terms are added in monomial order, and a coefficient of 0 adds
    nothing (never 0 * inf).  i lam is formed once per call, and each power
    where it is used.  A value past the double range comes back as inf or
    NaN, with no warning: each reader decides what a non-finite value means.
    """
    z = 1j * np.asarray(lams, dtype=float)
    if z.shape[-1:] != (P.d,):
        name = P if isinstance(P, MultiPoly) else P[0]
        raise PolyError(f"{name.to_text():.60}: d = {P.d}, but the points have shape {z.shape}")
    monomials, C = _coefficient_rows(P)
    out = np.zeros(C.shape[:1] + z.shape[:-1], dtype=complex)
    column = (-1,) + (1,) * (out.ndim - 1)
    with np.errstate(over="ignore", invalid="ignore"):
        for alpha, c, members in zip(monomials, C.T, np.count_nonzero(C, axis=0).tolist()):
            if not members:
                continue
            has = True if members == len(C) else (c != 0).reshape(column)
            term = c.reshape(column)
            for j, e in enumerate(alpha):
                if e:
                    term = np.multiply(term, z[..., j] ** e, out=None, where=has)
            np.add(out, term, out=out, where=has)
    return out if isinstance(P, PolyFamily) else out[0]


def symbol_bound(P, halfwidth):
    """sum |c_alpha| halfwidth^|alpha|, a bound on |P(i lam)| over the box
    max_j |lam_j| <= halfwidth; inf when a power halfwidth^|alpha| or the
    sum overflows a double.  A PolyFamily gives the array of its members'
    bounds."""
    monomials, C = _coefficient_rows(P)
    with np.errstate(over="ignore", invalid="ignore"):
        powers = float(halfwidth) ** np.array([sum(a) for a in monomials], dtype=float)
        bounds = np.sum(np.abs(C) * powers, axis=1, where=C != 0)
    return bounds if isinstance(P, PolyFamily) else float(bounds[0])


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PolyFamily:
    """Polynomials in d variables over one monomial list: row k of the
    read-only (members x monomials) array coeffs holds member k's
    coefficients, 0 for a monomial it lacks.  polys, the members as
    MultiPolys, is built the first time something reads it; family[k] is
    polys[k], and family[a:b] the family of those rows."""

    d: int
    monomials: tuple
    coeffs: np.ndarray
    scheme: str

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=complex).view()
        if coeffs.shape[1:] != (len(self.monomials),) or coeffs.ndim != 2:
            raise PolyError(f"coefficients of shape {coeffs.shape} for "
                            f"{len(self.monomials)} monomials")
        if not len(coeffs):
            raise PolyError("a polynomial family must be non-empty")
        if np.count_nonzero(np.isfinite(coeffs)) < coeffs.size:
            k = np.flatnonzero(~np.isfinite(coeffs).all(axis=1))[0]
            raise PolyError(f"member {k} has a coefficient that is not finite: "
                            f"{coeffs[k].tolist()!r:.60}")
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)

    @functools.cached_property
    def polys(self) -> tuple:
        return tuple(MultiPoly(self.d, {a: c for a, c in zip(self.monomials, row) if c})
                     for row in self.coeffs.tolist())

    def __len__(self):
        return len(self.coeffs)

    def __iter__(self):
        return iter(self.polys)

    def __getitem__(self, k):
        if not isinstance(k, slice):
            return self.polys[k]
        out = PolyFamily(self.d, self.monomials, self.coeffs[k], self.scheme)
        if "polys" in self.__dict__:
            out.__dict__["polys"] = self.polys[k]
        return out


def _vector_rows(vectors, what: str) -> np.ndarray:
    """vectors as a (members, d) float array; the first vector that is not
    finite or not as long as the first one raises PolyError naming its
    index."""
    try:
        X = np.array(vectors, dtype=float)
    except (TypeError, ValueError):     # ragged or not numbers: named below
        X = None
    if X is not None and X.ndim == 2 and X.size and np.isfinite(X).all():
        return X
    for k, v in enumerate(vectors):
        try:
            ok = np.isfinite(v).all() and np.ndim(v) == 1 and 0 < len(v) == len(vectors[0])
        except (TypeError, ValueError):
            ok = False
        if not ok:
            raise PolyError(f"{what} {k} ({v!r:.60}) is not a finite vector "
                            f"as long as {what} 0")
    raise PolyError("a polynomial family must be non-empty")


def _unit(d: int, j: int, e: int) -> tuple:
    """The multi-index of x_(j+1)^e in d variables."""
    return tuple(e if k == j else 0 for k in range(d))


def family_linear(directions) -> PolyFamily:
    """Degree-one polynomials xi . x for each (normalized) direction xi.

    The symbol is i*(xi . lam), purely imaginary with modulus |xi . lam|;
    the sublevel sets are slabs, so intersections recover convex hulls.
    """
    X = _vector_rows(directions, "direction")
    # each row scaled by a power of two to a largest entry in [0.5, 1), which
    # is exact: the norm neither overflows nor underflows to 0
    X = np.ldexp(X, -np.frexp(np.abs(X).max(axis=1))[1][:, None])
    nrm = np.sqrt(np.vecdot(X, X))          # per row as np.linalg.norm takes it
    if not nrm.all():
        raise PolyError(f"zero direction vector (direction {int(np.argmin(nrm))})")
    d = X.shape[1]
    return PolyFamily(d, tuple(_unit(d, j, 1) for j in range(d)),
                      (X / nrm[:, None]).astype(complex), "linear-directions")


def _squared_distances(centers, grid, a, sign, scheme) -> PolyFamily:
    """sign * sum_j (x_j - a c_j)^2 per center c, for sign * a^2 = 1, over
    the monomials 1, x_1^2, x_1, ..., x_d^2, x_d.  Centers must lie inside
    the grid's frequency box."""
    X = _vector_rows(centers, "center")
    half = grid.frequency_halfwidth
    outside = np.flatnonzero((np.abs(X) > half).any(axis=1))
    if outside.size:
        k = outside[0]
        raise PolyError(f"center {k} {X[k]} outside the frequency box "
                        f"[-{half:.6g}, {half:.6g})")
    d = X.shape[1]
    C = np.empty((len(X), 1 + 2 * d), dtype=complex)
    with np.errstate(over="ignore"):        # a square past the double range: refused below
        C[:, 0] = np.sum(X ** 2, axis=1)
    C[:, 1::2] = sign
    C[:, 2::2] = -2.0 * sign * a * X
    monomials = ((0,) * d,) + tuple(_unit(d, j, e) for j in range(d) for e in (2, 1))
    return PolyFamily(d, monomials, C, scheme)


def family_quadratic(centers, grid) -> PolyFamily:
    """Distance quadratics: |P_c(i lam)| = |lam - c|^2 for each center c.

    Sign convention (fixed once): the stored polynomial is
    P_c(x) = -sum_j (x_j - i c_j)^2, so that P_c(i lam) equals
    sum_j (lam_j - c_j)^2 exactly -- real, nonnegative, with the distance
    identity holding without any modulus gymnastics.  Sublevel sets are
    Euclidean disks; a single member centered in a ball recovers that ball.
    Centers must lie inside the frequency box.
    """
    return _squared_distances(centers, grid, 1j, -1.0, "quadratic-centers")


def family_quadratic_real(centers, grid) -> PolyFamily:
    """Real-coefficient squared-distance quadratics sum_j (x_j - c_j)^2.

    Their symbols (|c|^2 - |lam|^2) - 2i c.lam vanish on the sphere |lam|=|c|
    in the hyperplane lam . c = 0; the sublevel sets are quartic ovals, which
    unlike disks can separate disconnected spectral supports.
    """
    return _squared_distances(centers, grid, 1.0, 1.0, "quadratic-centers-real")


def family_explicit(polys) -> PolyFamily:
    """The family of the given MultiPolys, in order, over their monomials in
    the order they first appear; its polys are the given ones."""
    polys = tuple(polys)
    for k, P in enumerate(polys):
        if P.d != polys[0].d:
            raise PolyError(f"family members must share the dimension: member {k} has "
                            f"d = {P.d}, member 0 d = {polys[0].d}")
    column = {}
    for P in polys:
        for alpha in P.coeffs:
            column.setdefault(alpha, len(column))
    C = np.zeros((len(polys), len(column)), dtype=complex)
    for k, P in enumerate(polys):
        C[k, [column[a] for a in P.coeffs]] = list(P.coeffs.values())
    family = PolyFamily(polys[0].d if polys else 0, tuple(column), C, "explicit")
    family.__dict__["polys"] = polys
    return family
