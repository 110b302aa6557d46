"""Exact sparse linear algebra over the rationals (or a prime field).

Vectors are dicts {basis index: coefficient} with no stored zeros; linear
maps hold one such column per domain basis vector.  Coefficients are plain
ints or `fractions.Fraction` (which interoperate exactly), or `GFElement`
values when working mod p.  Nothing here ever rounds.

Tensor bases are row-major: basis (i, j) of an m x n tensor product sits at
index i*n + j.  Every module that builds maps on tensor spaces uses this
order, so coefficientwise comparisons are meaningful across modules.
"""

from __future__ import annotations

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


class PrimeField:
    """Scalar factory for GF(p), p < 2^31; `RATIONALS` is the Fraction-based
    default."""

    def __init__(self, p: int):
        if p >= MAX_MODULUS:
            raise StructureError(f"modulus {p} is not below 2^31")
        if p < 2 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
            raise StructureError(f"{p} is not prime")
        self.p = p

    def __call__(self, value: int) -> GFElement:
        return GFElement(value, self.p)

    def from_string(self, text: str) -> GFElement:
        if "/" in text:
            num, den = text.split("/", 1)
            return self(int(num)) * self(int(den)).inverse()
        return self(int(text))

    @property
    def name(self) -> str:
        return f"GF{self.p}"


class _Rationals:
    def __call__(self, value):
        return Fraction(value)

    def from_string(self, text: str) -> Fraction:
        return Fraction(text)

    name = "Q"


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

    @classmethod
    def zero(cls, dom: int, cod: int) -> "LinearMap":
        return cls(dom, cod, tuple({} for _ in range(dom)))

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

    def __add__(self, other: "LinearMap") -> "LinearMap":
        self._same_shape(other)
        cols = []
        for u, v in zip(self.cols, other.cols):
            acc = dict(u)
            vec_add_into(acc, v)
            cols.append(acc)
        return LinearMap(self.dom, self.cod, tuple(cols))

    def __sub__(self, other: "LinearMap") -> "LinearMap":
        return self + other.scale(-1)

    def scale(self, coeff) -> "LinearMap":
        return LinearMap(self.dom, self.cod, tuple(vec_scale(coeff, c) for c in self.cols))

    def tensor(self, other: "LinearMap") -> "LinearMap":
        """Kronecker product in the row-major basis convention."""
        cols = [vec_tensor(cu, cv, other.cod) for cu in self.cols for cv in other.cols]
        return LinearMap(self.dom * other.dom, self.cod * other.cod, tuple(cols))

    def _same_shape(self, other: "LinearMap") -> None:
        if self.dom != other.dom or self.cod != other.cod:
            raise DimensionMismatch(
                f"shape mismatch {self.dom}->{self.cod} vs {other.dom}->{other.cod}"
            )

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinearMap):
            return NotImplemented
        if self.dom != other.dom or self.cod != other.cod:
            return False
        return all(vec_equal(u, v) for u, v in zip(self.cols, other.cols))

    def is_zero(self) -> bool:
        return all(not c for c in self.cols)

    def rank(self) -> int:
        return len(span_basis(self.cols, self.cod))


def twist(m: int, n: int) -> LinearMap:
    """The flip (i, j) -> (j, i) between an m x n and an n x m tensor space."""
    if m < 1 or n < 1:
        raise DimensionMismatch("dimensions must be positive")
    return LinearMap.from_basis(m * n, n * m, lambda t: (t % n) * m + t // n)


def free_coalgebra(n: int) -> tuple[LinearMap, LinearMap]:
    """Group-like coalgebra on n basis vectors: delta(s) = s (x) s, eps(s) = 1."""
    if n < 1:
        raise DimensionMismatch("dimension must be positive")
    delta = LinearMap.from_basis(n, n * n, lambda s: s * n + s)
    counit = LinearMap.from_basis(n, 1, lambda s: {0: 1})
    return delta, counit


def convolution(f: LinearMap, g: LinearMap, delta: LinearMap, mu: LinearMap) -> LinearMap:
    """(f * g)(h) = sum over (t, c) in delta(h) of c mu(f(t1) (x) g(t2)), for
    maps from a coalgebra to a magma.

    Each column is summed straight from the support of delta(h), so the
    n^2-column map f (x) g is never built.  This is exact for any coalgebra,
    group-like or not, and equals mu o (f (x) g) o delta column for column,
    down to the order of each column's entries, so reports that print a
    convolution read the same either way.
    """
    if f.dom != g.dom or f.dom != delta.dom or delta.cod != f.dom * g.dom:
        raise DimensionMismatch("convolution: coalgebra shapes do not line up")
    if f.cod != g.cod or mu.dom != f.cod * g.cod or mu.cod != f.cod:
        raise DimensionMismatch("convolution: magma shapes do not line up")
    n, cod = g.dom, g.cod
    cols = []
    for col in delta.cols:
        out: dict = {}
        for t, c in col.items():
            term: dict = {}
            right = g.cols[t % n]
            for iu, a in f.cols[t // n].items():
                for iv, b in right.items():
                    vec_add_into(term, mu.cols[iu * cod + iv], a * b)
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
