"""Exact rational combinations of finitely many reals declared Q-independent.

A SymbolBasis fixes an ordered list of symbols, each carrying a float
witness used for numeric evaluation.  A RealVector is a sparse map from
symbol index to an exact Fraction; equality of canonical forms decides
equality of the represented reals (under the declared independence).

The declaration itself is trusted.  Building a SymbolBasis only advises:
it warns (UserWarning) when lattice reduction (LLL) of the witnesses
exposes an integer relation with coefficients of size at most 50, of any
number of terms, that holds to within 1e-9.
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction
from typing import Mapping

from .intlinalg import lll_reduce

__all__ = [
    "SymbolBasis",
    "RealVector",
    "BasisMismatchError",
    "UnrepresentableProductError",
    "parse_rational",
    "format_rational",
]


class BasisMismatchError(ValueError):
    """Operands built over different symbol bases."""


class UnrepresentableProductError(ValueError):
    """A needed symbol product is missing from the basis product table."""


def parse_rational(s) -> Fraction:
    """Parse a "p/q" or integer string (or pass through numbers) exactly."""
    if isinstance(s, Fraction):
        return s
    if isinstance(s, int):
        return Fraction(s)
    return Fraction(str(s))


def format_rational(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


class SymbolBasis:
    """Ordered symbols (name, float witness) with an optional partial
    product table used only by the equivalence decider's scalar action."""

    def __init__(self, symbols, products=None):
        names = [n for n, _ in symbols]
        if len(set(names)) != len(names):
            raise ValueError("symbol names must be unique")
        for name, value in symbols:
            v = float(value)
            if name == "1":
                if v != 1.0:
                    raise ValueError('the unit symbol "1" must have witness 1.0')
            elif v == 0.0 or v != v or v in (float("inf"), float("-inf")):
                raise ValueError(f"witness for {name!r} must be finite and nonzero")
        self.symbols = [(n, float(v)) for n, v in symbols]
        self._index = {n: i for i, (n, _) in enumerate(self.symbols)}
        # product table: (i, j) -> coords dict, stored symmetrically
        self._products: dict[tuple[int, int], dict[int, Fraction]] = {}
        if products:
            for (a, b), coords in products.items():
                i, j = self._index[a], self._index[b]
                cc = {self._index[k] if isinstance(k, str) else k: parse_rational(v)
                      for k, v in coords.items()}
                self._products[(min(i, j), max(i, j))] = cc
        self._check_independence()

    # -- construction helpers ------------------------------------------------

    def index(self, name: str) -> int:
        return self._index[name]

    @property
    def unit_index(self) -> int | None:
        return self._index.get("1")

    def vector(self, coords: Mapping[str, object]) -> "RealVector":
        """Build a RealVector from {symbol name: rational}."""
        return RealVector(self, {self._index[k]: parse_rational(v)
                                 for k, v in coords.items()})

    def symbol(self, name: str, coeff=1) -> "RealVector":
        return RealVector(self, {self._index[name]: parse_rational(coeff)})

    def zero(self) -> "RealVector":
        return RealVector(self, {})

    # -- advisory independence check ----------------------------------------

    def _check_independence(self):
        # Independence is undecidable from float witnesses, so this is
        # advice only.  LLL on the rows [e_i | round(v_i * 2^e)], where 2^e
        # scales the largest witness to about 2^50, exposes the short
        # integer relations among the witnesses, of any number of terms;
        # a reduced row n with max|n_i| <= 50 and |sum n_i v_i| < 1e-9
        # (exact, on the floats) is reported.
        vals = [v for _, v in self.symbols]
        e = 50 - math.frexp(max((abs(v) for v in vals), default=1.0))[1]
        rows = [[int(i == j) for j in range(len(vals))] + [round(math.ldexp(v, e))]
                for i, v in enumerate(vals)]
        for row in lll_reduce(rows):
            n = row[:-1]
            if (max(map(abs, n)) <= 50
                    and abs(sum(c * Fraction(v) for c, v in zip(n, vals))) < 1e-9):
                sign = 1 if next(c for c in n if c) > 0 else -1
                terms = " + ".join(f"{sign * c}*{name}"
                                   for c, (name, _) in zip(n, self.symbols) if c)
                warnings.warn(f"witnesses look rationally dependent: {terms} ~ 0")
                return

    # -- products ------------------------------------------------------------

    def product_coords(self, i: int, j: int) -> dict[int, Fraction]:
        u = self.unit_index
        if i == u:
            return {j: Fraction(1)}
        if j == u:
            return {i: Fraction(1)}
        key = (min(i, j), max(i, j))
        if key not in self._products:
            a, b = self.symbols[i][0], self.symbols[j][0]
            raise UnrepresentableProductError(
                f"no product table entry for ({a}, {b})")
        return self._products[key]

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        out = {"symbols": [{"name": n, "value": v} for n, v in self.symbols]}
        if self._products:
            out["products"] = [
                {"left": self.symbols[i][0], "right": self.symbols[j][0],
                 "coords": {self.symbols[k][0]: format_rational(q)
                            for k, q in coords.items()}}
                for (i, j), coords in sorted(self._products.items())]
        return out

    @classmethod
    def from_json(cls, data: dict) -> "SymbolBasis":
        symbols = [(s["name"], s["value"]) for s in data["symbols"]]
        products = {(p["left"], p["right"]): p["coords"]
                    for p in data.get("products", [])}
        return cls(symbols, products)

    def __eq__(self, other):
        return isinstance(other, SymbolBasis) and self.symbols == other.symbols

    def __hash__(self):
        return hash(tuple(self.symbols))

    def __repr__(self):
        return f"SymbolBasis({[n for n, _ in self.symbols]})"


class RealVector:
    """A real number as an exact rational combination of basis symbols.

    Canonical sparse form: zero coordinates are never stored, so two
    vectors represent the same real iff their coords dicts are equal.
    """

    __slots__ = ("basis", "coords")

    def __init__(self, basis: SymbolBasis, coords: Mapping[int, Fraction]):
        self.basis = basis
        self.coords = {i: q for i, q in coords.items() if q != 0}

    def _require_same_basis(self, other: "RealVector"):
        if self.basis != other.basis:
            raise BasisMismatchError("operands use different symbol bases")

    def __add__(self, other: "RealVector") -> "RealVector":
        self._require_same_basis(other)
        out = dict(self.coords)
        for i, q in other.coords.items():
            out[i] = out.get(i, Fraction(0)) + q
        return RealVector(self.basis, out)

    def __sub__(self, other: "RealVector") -> "RealVector":
        return self + (-other)

    def __neg__(self) -> "RealVector":
        return RealVector(self.basis, {i: -q for i, q in self.coords.items()})

    def scale(self, q) -> "RealVector":
        q = parse_rational(q)
        return RealVector(self.basis, {i: c * q for i, c in self.coords.items()})

    def mul(self, other: "RealVector") -> "RealVector":
        """Bilinear product via the basis product table."""
        self._require_same_basis(other)
        acc: dict[int, Fraction] = {}
        for i, a in self.coords.items():
            for j, b in other.coords.items():
                for k, c in self.basis.product_coords(i, j).items():
                    acc[k] = acc.get(k, Fraction(0)) + a * b * c
        return RealVector(self.basis, acc)

    def eval(self) -> float:
        return float(sum(float(q) * self.basis.symbols[i][1]
                         for i, q in self.coords.items()))

    def is_zero(self) -> bool:
        return not self.coords

    def dense(self, n=None) -> list[Fraction]:
        n = len(self.basis.symbols) if n is None else n
        out = [Fraction(0)] * n
        for i, q in self.coords.items():
            out[i] = q
        return out

    def __eq__(self, other):
        return (isinstance(other, RealVector) and self.basis == other.basis
                and self.coords == other.coords)

    def __hash__(self):
        return hash((self.basis, tuple(sorted(self.coords.items()))))

    def to_json(self) -> dict:
        return {"coords": {self.basis.symbols[i][0]: format_rational(q)
                           for i, q in sorted(self.coords.items())}}

    @classmethod
    def from_json(cls, basis: SymbolBasis, data: dict) -> "RealVector":
        return basis.vector(data["coords"])

    def __repr__(self):
        if not self.coords:
            return "RealVector(0)"
        parts = [f"{format_rational(q)}*{self.basis.symbols[i][0]}"
                 for i, q in sorted(self.coords.items())]
        return "RealVector(" + " + ".join(parts) + ")"
