import itertools
import math
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from apexp.realfield import (BasisMismatchError, RealVector, SymbolBasis,
                             UnrepresentableProductError, format_rational,
                             parse_rational)
from apexp.scenarios import SCENARIOS, run_scenario


@pytest.fixture(scope="module")
def basis():
    return SymbolBasis([("1", 1.0), ("sqrt2", math.sqrt(2.0)),
                        ("theta", math.sqrt(3.0) / 2.0)])


rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=1000)


def vectors(basis):
    return st.builds(
        lambda a, b, c: basis.vector({"1": a, "sqrt2": b, "theta": c}),
        rationals, rationals, rationals)


class TestGroupAxioms:
    @given(st.data())
    def test_associativity_commutativity(self, data):
        b = SymbolBasis([("1", 1.0), ("x", 2.718)])
        vs = st.builds(lambda a, c: b.vector({"1": a, "x": c}),
                       rationals, rationals)
        x, y, z = data.draw(vs), data.draw(vs), data.draw(vs)
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x

    @given(st.data())
    def test_identity_and_inverse(self, data):
        b = SymbolBasis([("1", 1.0), ("x", 2.718)])
        vs = st.builds(lambda a, c: b.vector({"1": a, "x": c}),
                       rationals, rationals)
        x = data.draw(vs)
        assert x + b.zero() == x
        assert (x + (-x)).is_zero()

    @given(st.data())
    def test_eval_is_additive(self, data):
        b = SymbolBasis([("1", 1.0), ("x", 2.718)])
        vs = st.builds(lambda a, c: b.vector({"1": a, "x": c}),
                       rationals, rationals)
        x, y = data.draw(vs), data.draw(vs)
        lhs = (x + y).eval()
        rhs = x.eval() + y.eval()
        assert abs(lhs - rhs) <= 1e-12 * (abs(x.eval()) + abs(y.eval()) + 1)


def test_sparse_canonical_form(basis):
    v = basis.vector({"theta": 2, "1": 1}) + basis.vector({"theta": -1})
    assert v == basis.vector({"theta": 1, "1": 1})
    assert set(v.coords) == {basis.index("1"), basis.index("theta")}


def test_inverse_cancels(basis):
    v = basis.symbol("sqrt2")
    assert (v - v).is_zero()


def test_rational_arithmetic(basis):
    v = basis.vector({"1": "1/2"}) + basis.vector({"1": "1/3"})
    assert v == basis.vector({"1": "5/6"})


def test_scale(basis):
    assert basis.symbol("theta").scale(3) == basis.vector({"theta": 3})
    assert basis.vector({"theta": 2, "1": 4}).scale("1/2") == \
        basis.vector({"theta": 1, "1": 2})
    assert basis.symbol("theta").scale(0).is_zero()


def test_eval_witnesses(basis):
    assert basis.symbol("1").eval() == 1.0
    assert basis.symbol("theta").eval() == math.sqrt(3.0) / 2.0
    v = basis.vector({"theta": 2, "1": 1})
    assert abs(v.eval() - (math.sqrt(3.0) + 1.0)) < 1e-14


def test_basis_mismatch(basis):
    other = SymbolBasis([("1", 1.0)])
    with pytest.raises(BasisMismatchError):
        basis.symbol("1") + other.symbol("1")


class TestProducts:
    def make(self):
        return SymbolBasis(
            [("1", 1.0), ("sqrt2", math.sqrt(2.0)), ("sqrt3", math.sqrt(3.0))],
            products={("sqrt2", "sqrt2"): {"1": 2}})

    def test_unit_acts_trivially(self):
        b = self.make()
        assert b.symbol("1").mul(b.symbol("sqrt2")) == b.symbol("sqrt2")

    def test_declared_product(self):
        b = self.make()
        v = b.symbol("sqrt2").mul(b.symbol("sqrt2"))
        assert v == b.vector({"1": 2})

    def test_missing_product(self):
        b = self.make()
        with pytest.raises(UnrepresentableProductError):
            b.symbol("sqrt2").mul(b.symbol("sqrt3"))


def test_independence_warning():
    with pytest.warns(UserWarning, match=r"1\*1 \+ -2\*half ~ 0"):
        SymbolBasis([("1", 1.0), ("half", 0.5)])


# -- integer-relation check against the search it replaced --------------------

RELATION_WARNING = "witnesses look rationally dependent: "
PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23]


def brute_force_relation(vals, tol=1e-9):
    """The relation search SymbolBasis ran before LLL: pairs with |n| <= 50,
    then triples with |n| <= 12.  The first relation found, as a dense
    coefficient list, or None."""
    for i, j in itertools.combinations(range(len(vals)), 2):
        for a in range(1, 51):
            for b in range(-50, 51):
                if abs(a * vals[i] + b * vals[j]) < tol:
                    return [a if t == i else b if t == j else 0
                            for t in range(len(vals))]
    for i, j, k in itertools.combinations(range(len(vals)), 3):
        for a in range(1, 13):
            for b in range(-12, 13):
                for c in range(-12, 13):
                    if (b, c) != (0, 0) and \
                            abs(a * vals[i] + b * vals[j] + c * vals[k]) < tol:
                        return [{i: a, j: b, k: c}.get(t, 0)
                                for t in range(len(vals))]
    return None


def reported_relation(symbols):
    """The dense coefficient list SymbolBasis(symbols) warns about, or None."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        SymbolBasis(symbols)
    msgs = [str(w.message) for w in caught
            if str(w.message).startswith(RELATION_WARNING)]
    if not msgs:
        return None
    assert len(msgs) == 1 and msgs[0].endswith(" ~ 0")
    terms = msgs[0][len(RELATION_WARNING):-len(" ~ 0")].split(" + ")
    coeffs = {name: int(c) for c, name in (t.split("*", 1) for t in terms)}
    return [coeffs.get(name, 0) for name, _ in symbols]


def assert_within_bounds(rel, vals):
    assert any(rel) and max(map(abs, rel)) <= 50
    assert abs(sum(n * Fraction(v) for n, v in zip(rel, vals))) < 1e-9


@st.composite
def root_bases(draw):
    """{1} and 1-4 square roots of primes, with one witness replaced by a
    planted pair relation (|n| <= 50) or triple relation (|n| <= 12), or
    none."""
    primes = draw(st.lists(st.sampled_from(PRIMES), min_size=1, max_size=4,
                           unique=True))
    vals = [1.0] + [math.sqrt(p) for p in primes]
    plant = draw(st.sampled_from(["none", "pair", "triple"]
                                 if len(vals) >= 3 else ["none", "pair"]))
    if plant != "none":
        size, bound = (2, 50) if plant == "pair" else (3, 12)
        order = draw(st.permutations(range(len(vals))))
        target = next(t for t in order if t != 0)  # "1" keeps its witness
        idx = [t for t in order if t != target][:size - 1]
        coeffs = [draw(st.integers(1, bound))] + [
            draw(st.integers(-bound, bound)) for _ in idx[1:]]
        c = draw(st.integers(-bound, bound).filter(bool))
        vals[target] = -sum(n * vals[t] for n, t in zip(coeffs, idx)) / c
    return [("1", 1.0)] + [(f"x{i}", v) for i, v in enumerate(vals[1:], 1)]


@settings(max_examples=50, deadline=None)
@given(root_bases())
def test_relation_check_finds_what_brute_force_finds(symbols):
    vals = [v for _, v in symbols]
    rel = reported_relation(symbols)
    if brute_force_relation(vals) is not None:
        assert rel is not None
    if rel is not None:
        assert_within_bounds(rel, vals)


def test_relation_check_accepts_empty_and_single_symbol_bases():
    assert reported_relation([]) is None
    assert reported_relation([("1", 1.0)]) is None


def test_relation_check_finds_four_term_relation():
    vals = [1.0, math.sqrt(2), math.sqrt(3), math.sqrt(2) + math.sqrt(3) - 1]
    assert brute_force_relation(vals) is None
    symbols = list(zip(["1", "sqrt2", "sqrt3", "x"], vals))
    assert reported_relation(symbols) == [1, -1, -1, 1]


@pytest.mark.parametrize("vals", [
    [1.0, 2.718],
    [1.0, math.sqrt(2) / 2],
    [1.0, math.sqrt(2), math.sqrt(3)],
    [1.0, math.pi, math.e, math.sqrt(2), math.log(2)],
])
def test_relation_check_silent_on_independent_witnesses(vals):
    symbols = [("1", 1.0)] + [(f"x{i}", v) for i, v in enumerate(vals[1:])]
    assert reported_relation(symbols) is None


def test_relation_check_silent_on_all_root_bases():
    # every basis the exact workload can build: {1} and up to four of the
    # square roots of the primes up to 23
    for size in range(5):
        for primes in itertools.combinations(PRIMES, size):
            symbols = [("1", 1.0)] + [(f"sqrt{p}", math.sqrt(p)) for p in primes]
            assert reported_relation(symbols) is None, primes


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_relation_check_silent_on_scenario_bases(name):
    with warnings.catch_warnings():
        warnings.filterwarnings("error", RELATION_WARNING)
        run_scenario(name)


@settings(max_examples=50, deadline=None)
@given(root_bases())
def test_relation_check_agrees_with_pslq(symbols):
    mpmath = pytest.importorskip("mpmath")
    vals = [v for _, v in symbols]
    with mpmath.workdps(30):
        ref = mpmath.pslq([mpmath.mpf(v) for v in vals], tol=mpmath.mpf(2) ** -40,
                          maxcoeff=10 ** 4, maxsteps=10 ** 4)
    if ref is not None and max(map(abs, ref)) > 50:
        ref = None
    rel = reported_relation(symbols)
    assert (rel is None) == (ref is None)
    if ref is not None:
        assert_within_bounds(ref, vals)


def test_unit_symbol_witness_checked():
    with pytest.raises(ValueError):
        SymbolBasis([("1", 2.0)])
    with pytest.raises(ValueError):
        SymbolBasis([("x", 0.0)])


def test_json_roundtrip(basis):
    b2 = SymbolBasis.from_json(basis.to_json())
    assert b2 == basis
    v = basis.vector({"theta": "7/3", "1": -2})
    v2 = RealVector.from_json(b2, v.to_json())
    assert v2.coords == v.coords


def test_rational_strings():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-2") == Fraction(-2)
    assert format_rational(Fraction(3, 4)) == "3/4"
    assert format_rational(Fraction(5)) == "5"
