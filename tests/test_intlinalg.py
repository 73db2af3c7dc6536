import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from apexp.intlinalg import hnf_rows, lll_reduce, rational_rank, solve_rational


def lattice_points(rows, bound=4):
    """All integer combinations of the rows with |coeff| <= bound."""
    pts = set()
    for coeffs in itertools.product(range(-bound, bound + 1), repeat=len(rows)):
        v = tuple(sum(c * r[j] for c, r in zip(coeffs, rows))
                  for j in range(len(rows[0])))
        pts.add(v)
    return pts


def test_hnf_known_cases():
    assert hnf_rows([[2, 0], [0, 3]]) == [[2, 0], [0, 3]]
    assert hnf_rows([[2], [3]]) == [[1]]
    assert hnf_rows([[4], [6]]) == [[2]]
    assert hnf_rows([[0, 0]]) == []
    # above-pivot entries reduced into [0, pivot)
    assert hnf_rows([[1, 5], [0, 3]]) == [[1, 2], [0, 3]]


def test_hnf_is_unique_under_row_shuffles():
    rng = random.Random(3)
    for _ in range(30):
        rows = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)]
        ref = hnf_rows(rows)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert hnf_rows(shuffled) == ref


def test_hnf_generates_same_lattice():
    rng = random.Random(11)
    for _ in range(15):
        rows = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
        basis = hnf_rows(rows)
        if not basis:
            assert all(all(v == 0 for v in r) for r in rows)
            continue
        # every generator-ball point solves integrally over the basis
        for p in lattice_points(rows, 3):
            sol = solve_rational(basis, list(p))
            assert sol is not None
            assert all(c.denominator == 1 for c in sol)
        # and every basis row is an integer combination of the originals
        for b in basis:
            sol = solve_rational(hnf_rows(rows), b)
            assert sol is not None


def test_solve_rational():
    rows = [[Fraction(2, 3), Fraction(0)], [Fraction(1, 2), Fraction(1)]]
    target = [Fraction(2, 3) * 2 + Fraction(1, 2), Fraction(1)]
    sol = solve_rational(rows, target)
    assert sol == [Fraction(2), Fraction(1)]


def test_solve_rational_inconsistent():
    assert solve_rational([[1, 0]], [0, 1]) is None
    assert solve_rational([], [0, 0]) == []
    assert solve_rational([], [1, 0]) is None


def test_solve_rational_dependent_rows():
    rows = [[1, 1], [2, 2]]
    sol = solve_rational(rows, [3, 3])
    assert sol is not None
    assert sum(Fraction(c) * Fraction(r[0]) for c, r in zip(sol, rows)) == 3


def test_rational_rank():
    assert rational_rank([[1, 0], [0, 1]]) == 2
    assert rational_rank([[1, 2], [2, 4]]) == 1
    assert rational_rank([[0, 0]]) == 0
    assert rational_rank([[Fraction(1, 2), Fraction(1, 3)],
                          [Fraction(3, 2), Fraction(2)]]) == 2


def gram_schmidt(rows):
    """Exact Gram-Schmidt on Fractions: squared norms of the orthogonal
    rows and the coefficients mu[i][j]."""
    ortho, norms = [], []
    mu = [[Fraction(0)] * len(rows) for _ in rows]
    for i, row in enumerate(rows):
        v = [Fraction(x) for x in row]
        for j in range(i):
            mu[i][j] = sum(x * y for x, y in zip(row, ortho[j])) / norms[j]
            v = [a - mu[i][j] * b for a, b in zip(v, ortho[j])]
        ortho.append(v)
        norms.append(sum(x * x for x in v))
    return norms, mu


@st.composite
def independent_rows(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(n, 5))
    size = draw(st.sampled_from([10, 10 ** 6, 2 ** 50]))
    rows = draw(st.lists(st.lists(st.integers(-size, size), min_size=m, max_size=m),
                         min_size=n, max_size=n))
    assume(rational_rank(rows) == n)
    return rows


@settings(max_examples=150, deadline=None)
@given(independent_rows())
def test_lll_spans_the_same_lattice(rows):
    reduced = lll_reduce(rows)
    assert len(reduced) == len(rows)
    assert hnf_rows(reduced) == hnf_rows(rows)


@settings(max_examples=150, deadline=None)
@given(independent_rows())
def test_lll_is_size_reduced_and_lovasz(rows):
    norms, mu = gram_schmidt(lll_reduce(rows))
    for i in range(len(rows)):
        assert all(abs(mu[i][j]) <= Fraction(1, 2) for j in range(i))
    for k in range(1, len(rows)):
        assert norms[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * norms[k - 1]


@settings(max_examples=60, deadline=None)
@given(independent_rows(), st.lists(st.integers(-3, 3), min_size=4, max_size=4))
def test_lll_rejects_dependent_rows(rows, coeffs):
    extra = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(len(rows[0]))]
    with pytest.raises(ValueError):
        lll_reduce(rows + [extra])


def test_lll_known_cases():
    assert lll_reduce([]) == []
    assert lll_reduce([[1, 0, 0], [0, 1, 0]]) == [[1, 0, 0], [0, 1, 0]]
    # the relation 1 - 2 * (1/2) = 0, scaled by 2^49
    reduced = lll_reduce([[1, 0, 2 ** 49], [0, 1, 2 ** 48]])
    assert reduced[0] in ([1, -2, 0], [-1, 2, 0])
    with pytest.raises(ValueError):
        lll_reduce([[0, 0]])
