"""Exact sparse linear algebra over the rationals (or a prime field).

Vectors are dicts {basis index: coefficient} with no stored zeros; linear
maps hold one such column per domain basis vector.  Coefficients are plain
ints or `fractions.Fraction` (which interoperate exactly), or `GFElement`
values when working mod p.  Nothing here ever rounds.  A scalar read over Q
is an int when it is integral and a Fraction otherwise, so the unit
coefficients of group algebras and their duals stay in integer arithmetic;
since an int equals and hashes as the Fraction of the same value, no
verdict or witness depends on which of the two holds it.

Tensor bases are row-major: basis (i, j) of an m x n tensor product sits at
index i*n + j.  Every module that builds maps on tensor spaces uses this
order, so coefficientwise comparisons are meaningful across modules.  A
magma's product and coproduct are no such maps: `convolution` reads the
product as stored rows and the coproduct as the legs of each delta(h).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .reports import DimensionMismatch, StructureError


@dataclass(frozen=True, eq=False)
class GFElement:
    """An element of the prime field with `modulus` elements."""

    residue: int
    modulus: int

    def __post_init__(self):
        object.__setattr__(self, "residue", self.residue % self.modulus)

    def _lift(self, other) -> "GFElement":
        if isinstance(other, GFElement):
            if other.modulus != self.modulus:
                raise StructureError("mixed prime fields")
            return other
        if isinstance(other, int):
            return GFElement(other, self.modulus)
        return NotImplemented

    def __add__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return GFElement(self.residue + other.residue, self.modulus)

    __radd__ = __add__

    def __mul__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return GFElement(self.residue * other.residue, self.modulus)

    __rmul__ = __mul__

    def __sub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return GFElement(self.residue - other.residue, self.modulus)

    def __rsub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return GFElement(-self.residue, self.modulus)

    def __bool__(self):
        return self.residue != 0

    def __eq__(self, other):
        if isinstance(other, GFElement):
            return self.modulus == other.modulus and self.residue == other.residue
        if isinstance(other, int):
            return (other - self.residue) % self.modulus == 0
        return NotImplemented

    def __hash__(self):
        return hash((self.residue, self.modulus))

    def inverse(self) -> "GFElement":
        return GFElement(pow(self.residue, -1, self.modulus), self.modulus)

    def __repr__(self):
        return f"{self.residue} (mod {self.modulus})"


# Moduli are bounded so that the primality test, trial division up to
# sqrt(p), takes at most about 46k steps.
MAX_MODULUS = 2**31


_SCALAR = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def _scalar_text(text: str) -> str:
    """text, if it is a scalar as documents write one: "num" or "num/den".
    Anything else, exponent notation included, raises ValueError."""
    if _SCALAR.fullmatch(text) is None:
        raise ValueError("not of the form num or num/den")
    return text


class PrimeField:
    """Scalar factory for GF(p), p < 2^31; `RATIONALS` is the default."""

    def __init__(self, p: int):
        if p >= MAX_MODULUS:
            raise StructureError(f"modulus {p} is not below 2^31")
        if p < 2 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
            raise StructureError(f"{p} is not prime")
        self.p = p

    def __call__(self, value: int) -> GFElement:
        return GFElement(value, self.p)

    def from_string(self, text: str) -> GFElement:
        if "/" in _scalar_text(text):
            num, den = text.split("/", 1)
            return self(int(num)) * self(int(den)).inverse()
        return self(int(text))


class _Rationals:
    def from_string(self, text: str) -> int | Fraction:
        """An integral value as an exact int, any other as a Fraction."""
        if "/" in _scalar_text(text):
            value = Fraction(text)
            return value.numerator if value.denominator == 1 else value
        return int(text)


RATIONALS = _Rationals()


def field_by_name(name: str):
    if name == "Q":
        return RATIONALS
    digits = name[2:]
    if name.startswith("GF") and digits.isascii() and digits.isdigit():
        if len(digits.lstrip("0")) > len(str(MAX_MODULUS)):
            # checked before int(), which refuses very long digit strings
            raise StructureError("modulus has more than 10 digits, so it is not below 2^31")
        return PrimeField(int(digits))
    raise StructureError(f"unknown field {name!r}")


# ---------------------------------------------------------------------------
# sparse vectors
# ---------------------------------------------------------------------------


def vec_add_into(acc: dict, vec: dict, coeff=1) -> None:
    """acc += coeff * vec, pruning entries that cancel to zero."""
    if not coeff:
        return
    for i, c in vec.items():
        new = acc.get(i, 0) + coeff * c
        if new:
            acc[i] = new
        else:
            acc.pop(i, None)


def vec_scale(coeff, vec: dict) -> dict:
    if not coeff:
        return {}
    return {i: coeff * c for i, c in vec.items()}


def vec_canonical(vec: dict) -> dict:
    return {i: c for i, c in vec.items() if c}


def vec_tensor(u: dict, v: dict, m: int) -> dict:
    """u (x) v, for v in a space of dimension m, in the row-major basis."""
    return {i * m + j: a * b for i, a in u.items() for j, b in v.items()}


def vec_equal(u: dict, v: dict) -> bool:
    if len(u) != len(v):
        return False
    return all(v.get(i, 0) == c for i, c in u.items())


# ---------------------------------------------------------------------------
# linear maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LinearMap:
    """A linear map given by its columns: cols[j] is the image of basis j."""

    dom: int
    cod: int
    cols: tuple[dict, ...]

    def __post_init__(self):
        if len(self.cols) != self.dom:
            raise DimensionMismatch(
                f"{len(self.cols)} columns for domain dimension {self.dom}"
            )
        for col in self.cols:
            for i in col:
                if not 0 <= i < self.cod:
                    raise DimensionMismatch(f"row index {i} out of range {self.cod}")

    @classmethod
    def from_cols(cls, dom: int, cod: int, cols) -> "LinearMap":
        return cls(dom, cod, tuple(vec_canonical(dict(c)) for c in cols))

    @classmethod
    def from_basis(cls, dom: int, cod: int, fn) -> "LinearMap":
        """fn(j) may return a basis index, None (zero column), or a dict."""
        cols = []
        for j in range(dom):
            image = fn(j)
            if image is None:
                cols.append({})
            elif isinstance(image, dict):
                cols.append(vec_canonical(image))
            else:
                cols.append({image: 1})
        return cls(dom, cod, tuple(cols))

    @classmethod
    def identity(cls, n: int) -> "LinearMap":
        return cls(n, n, tuple({j: 1} for j in range(n)))

    def __call__(self, vec: dict) -> dict:
        out: dict = {}
        for j, c in vec.items():
            vec_add_into(out, self.cols[j], c)
        return out

    def compose(self, inner: "LinearMap") -> "LinearMap":
        """self after inner."""
        if inner.cod != self.dom:
            raise DimensionMismatch(
                f"cannot compose {self.dom}<-{inner.cod} with inner map"
            )
        return LinearMap(inner.dom, self.cod, tuple(self(c) for c in inner.cols))

    def __matmul__(self, inner: "LinearMap") -> "LinearMap":
        return self.compose(inner)

    def tensor(self, other: "LinearMap") -> "LinearMap":
        """Kronecker product in the row-major basis convention."""
        cols = [vec_tensor(cu, cv, other.cod) for cu in self.cols for cv in other.cols]
        return LinearMap(self.dom * other.dom, self.cod * other.cod, tuple(cols))

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinearMap):
            return NotImplemented
        if self.dom != other.dom or self.cod != other.cod:
            return False
        return all(vec_equal(u, v) for u, v in zip(self.cols, other.cols))

    def rank(self) -> int:
        return len(span_basis(self.cols, self.cod))


def free_coalgebra(n: int) -> tuple[list, LinearMap]:
    """Group-like coalgebra on n basis vectors: delta(s) = s (x) s, as the
    legs [(s, s, 1)] of each delta(s), and eps(s) = 1."""
    if n < 1:
        raise DimensionMismatch("dimension must be positive")
    counit = LinearMap.from_basis(n, 1, lambda s: {0: 1})
    return [[(s, s, 1)] for s in range(n)], counit


def convolution(f: LinearMap, g: LinearMap, delta, mu) -> LinearMap:
    """(f * g)(h) = sum over the legs (t1, t2, c) of delta(h) of
    c mu(f(t1) (x) g(t2)), for maps from a coalgebra whose coproduct delta
    lists the legs of each delta(h) (`hopf.MagmaCoalgebra.coproduct`) to a
    magma whose product mu is stored as the rows of its nonzero values,
    mu.rows[x][y] = xy (`hopf.MagmaCoalgebra.product`).

    Each column is summed straight from the legs of delta(h) and the
    stored rows, so the n^2-column map f (x) g is never built.  This is exact
    for any coalgebra, group-like or not, and equals mu o (f (x) g) o delta
    column for column, down to the order of each column's entries, so
    reports that print a convolution read the same either way.
    """
    if f.dom != g.dom or f.dom != len(delta) or f.cod != g.cod:
        raise DimensionMismatch("convolution: shapes do not line up")
    rows = mu.rows
    cols = []
    for legs in delta:
        out: dict = {}
        for t1, t2, c in legs:
            term: dict = {}
            right = g.cols[t2]
            for iu, a in f.cols[t1].items():
                row = rows.get(iu, {})
                for iv, b in right.items():
                    if iv in row:
                        vec_add_into(term, row[iv], a * b)
            vec_add_into(out, term, c)
        cols.append(out)
    return LinearMap(f.dom, f.cod, tuple(cols))


# ---------------------------------------------------------------------------
# exact spans
# ---------------------------------------------------------------------------


def span_basis(vectors, dim: int) -> list[dict]:
    """Reduced-echelon basis of the span of sparse vectors, canonical enough
    that two spans are equal iff the returned lists are equal."""
    pivots: dict[int, dict] = {}
    for vec in vectors:
        vec = dict(vec)
        while vec:
            lead = min(vec)
            if lead in pivots:
                vec_add_into(vec, pivots[lead], -vec[lead])
            else:
                coeff = vec[lead]
                inv = (
                    coeff.inverse()
                    if isinstance(coeff, GFElement)
                    else Fraction(1) / Fraction(coeff)
                )
                pivots[lead] = vec_canonical(vec_scale(inv, vec))
                break
    # back-substitute so the result is independent of insertion order
    for lead in sorted(pivots, reverse=True):
        row = pivots[lead]
        for other_lead, other in pivots.items():
            if other_lead < lead and lead in other:
                vec_add_into(other, row, -other[lead])
    return [pivots[lead] for lead in sorted(pivots)]


def span_equal(us, vs, dim: int) -> bool:
    a = span_basis(us, dim)
    b = span_basis(vs, dim)
    return len(a) == len(b) and all(vec_equal(u, v) for u, v in zip(a, b))
