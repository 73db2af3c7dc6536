import itertools
import math
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import apexp
from apexp.groups import (DependentGeneratorsError, FinGenSubgroup,
                          OutOfSpanError, VerificationError,
                          build_b_sequence, decide_equivalence)
from apexp.intlinalg import solve_rational
from apexp.realfield import SymbolBasis


@pytest.fixture(scope="module")
def ctx():
    return SymbolBasis([("1", 1.0), ("sqrt2", math.sqrt(2.0))],
                       check_independence=False)


def brute_member(generators, x, bound):
    """Oracle: is x an integer combination with |coeff| <= bound?"""
    for coeffs in itertools.product(range(-bound, bound + 1),
                                    repeat=len(generators)):
        acc = generators[0].basis.zero()
        for c, g in zip(coeffs, generators):
            acc = acc + g.scale(c)
        if acc == x:
            return True
    return False


class TestMembership:
    def test_explicit_combination(self, ctx):
        g = FinGenSubgroup(ctx, [ctx.symbol("1"), ctx.symbol("sqrt2")])
        assert ctx.vector({"1": 3, "sqrt2": -2}) in g

    def test_denominator_obstruction(self, ctx):
        g = FinGenSubgroup(ctx, [ctx.symbol("1"), ctx.symbol("sqrt2")])
        assert ctx.vector({"1": "1/2"}) not in g

    def test_outside_the_span(self, ctx):
        g = FinGenSubgroup(ctx, [ctx.symbol("1")])
        assert ctx.symbol("sqrt2") not in g

    def test_gcd_of_rationals(self, ctx):
        g = FinGenSubgroup(ctx, [ctx.vector({"1": "2/3"}),
                                 ctx.vector({"1": "1/2"})])
        assert ctx.vector({"1": "1/6"}) in g
        assert brute_member(g.generators, ctx.vector({"1": "1/6"}), 3)

    def test_closure_under_subtraction(self, ctx):
        rng = random.Random(5)
        g = FinGenSubgroup(ctx, [ctx.vector({"1": "1/3"}),
                                 ctx.vector({"sqrt2": "2/5"})])
        for _ in range(50):
            x = sum((gen.scale(rng.randint(-9, 9)) for gen in g.generators),
                    ctx.zero())
            y = sum((gen.scale(rng.randint(-9, 9)) for gen in g.generators),
                    ctx.zero())
            assert (x - y) in g

    def test_agrees_with_brute_force(self, ctx):
        rng = random.Random(17)
        for _ in range(10):
            gens = [ctx.vector({"1": Fraction(rng.randint(-3, 3),
                                              rng.randint(1, 4))})
                    for _ in range(2)]
            g = FinGenSubgroup(ctx, gens)
            for _ in range(10):
                x = ctx.vector({"1": Fraction(rng.randint(-6, 6),
                                              rng.randint(1, 4))})
                if brute_member(gens, x, 6):
                    assert x in g
                # (a negative oracle at small bound proves nothing)


THREE = SymbolBasis([("1", 1.0), ("sqrt2", math.sqrt(2.0)),
                     ("sqrt3", math.sqrt(3.0))], check_independence=False)
small_rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
three_vectors = st.builds(
    lambda a, b, c: THREE.vector({"1": a, "sqrt2": b, "sqrt3": c}),
    small_rationals, small_rationals, small_rationals)


@settings(max_examples=60, deadline=None)
@given(st.lists(three_vectors, min_size=1, max_size=4),
       st.lists(st.integers(-9, 9), min_size=4, max_size=4))
def test_back_substitution_matches_rational_solve(gens, mult):
    g = FinGenSubgroup(THREE, gens)
    x = sum((v.scale(c) for v, c in zip(gens, mult)), THREE.zero())
    coeffs = g.coefficients(x)
    assert coeffs is not None
    basis = g.basis()
    assert sum((b.scale(c) for b, c in zip(basis, coeffs)), THREE.zero()) == x
    assert coeffs == solve_rational([b.dense() for b in basis], x.dense())
    # denominators <= 12 never reach 101, so this point is off the lattice
    assert g.coefficients(x + THREE.vector({"1": Fraction(1, 101)})) is None
    # half a basis vector is in the Q-span but not in the lattice
    if basis:
        assert g.coefficients(x + basis[0].scale(Fraction(1, 2))) is None


class TestBasis:
    def test_collapses_to_gcd(self, ctx):
        g = FinGenSubgroup(ctx, [ctx.symbol("1"), ctx.vector({"1": "1/2"})])
        assert g.basis() == [ctx.vector({"1": "1/2"})]

    def test_independent_rank_two(self, ctx):
        g = FinGenSubgroup(ctx, [ctx.symbol("1"), ctx.symbol("sqrt2")])
        assert g.rank == 2
        regen = FinGenSubgroup(ctx, g.basis())
        assert regen.same_group(g)

    def test_trivial(self, ctx):
        g = FinGenSubgroup(ctx, [ctx.zero()])
        assert g.basis() == [] and g.is_trivial()

    def test_rank(self, ctx):
        assert FinGenSubgroup(
            ctx, [ctx.symbol("1"), ctx.symbol("sqrt2")]).rank == 2
        assert FinGenSubgroup(
            ctx, [ctx.symbol("1"), ctx.vector({"1": "1/2"}),
                  ctx.vector({"1": "1/3"})]).rank == 1


class TestBSequence:
    def test_dyadic(self, ctx):
        one = ctx.symbol("1")
        elements = [ctx.zero()] + [ctx.vector({"1": Fraction(1, 2 ** i)})
                                   for i in range(1, 4)]
        seq = build_b_sequence([one], elements, ctx)
        assert seq.matrices() == [[[2]], [[2]], [[2]]]
        assert [s.basis[0] for s in seq.stages] == [
            one, ctx.vector({"1": "1/2"}), ctx.vector({"1": "1/4"}),
            ctx.vector({"1": "1/8"})]

    def test_mixed_denominators(self, ctx):
        elements = [ctx.zero(), ctx.vector({"1": "1/2"}),
                    ctx.vector({"1": "1/3"})]
        seq = build_b_sequence([ctx.symbol("1")], elements, ctx)
        assert seq.matrices() == [[[2]], [[3]]]
        assert seq.stages[-1].basis == [ctx.vector({"1": "1/6"})]

    def test_no_refinement(self, ctx):
        seq = build_b_sequence([ctx.symbol("1"), ctx.symbol("sqrt2")],
                               [ctx.zero()], ctx)
        assert seq.matrices() == []
        assert seq.stages[0].basis == [ctx.symbol("1"), ctx.symbol("sqrt2")]

    def test_degenerate_element_identity_stage(self, ctx):
        elements = [ctx.zero(), ctx.vector({"1": "1/2"}),
                    ctx.vector({"1": "3/2"})]
        seq = build_b_sequence([ctx.symbol("1")], elements, ctx)
        assert seq.matrices() == [[[2]], [[1]]]

    def test_rejects_dependent_b(self, ctx):
        with pytest.raises(DependentGeneratorsError):
            build_b_sequence([ctx.symbol("1"), ctx.vector({"1": 2})],
                             [ctx.zero()], ctx)

    def test_rejects_out_of_span(self, ctx):
        with pytest.raises(OutOfSpanError):
            build_b_sequence([ctx.symbol("1")],
                             [ctx.zero(), ctx.symbol("sqrt2")], ctx)

    def test_randomized_prefixes_match_oracle(self, ctx):
        # rank <= 3 towers over three symbols; compare every stage
        # lattice against brute-force membership of its generators
        big = SymbolBasis([("1", 1.0), ("sqrt2", math.sqrt(2.0)),
                           ("sqrt3", math.sqrt(3.0))],
                          check_independence=False)
        rng = random.Random(23)
        names = ["1", "sqrt2", "sqrt3"]
        for _ in range(20):
            kappa = rng.randint(1, 3)
            b = [big.symbol(n) for n in names[:kappa]]
            elements = [big.zero()]
            for _ in range(rng.randint(1, 3)):
                coords = {names[j]: Fraction(rng.randint(-2, 2),
                                             rng.randint(1, 3))
                          for j in range(kappa)}
                elements.append(big.vector(coords))
            seq = build_b_sequence(b, elements, big)
            seq.verify()
            for i, stage in enumerate(seq.stages):
                gens = b + elements[1:i + 1]
                # two-sided: stage basis in <gens>, gens in stage lattice
                ref = FinGenSubgroup(big, gens)
                assert ref.same_group(stage.lattice)

    def test_corrupted_matrix_fails_verify(self, ctx):
        elements = [ctx.zero(), ctx.vector({"1": "1/2"})]
        seq = build_b_sequence([ctx.symbol("1")], elements, ctx)
        seq.stages[1].matrix = [[5]]
        with pytest.raises(VerificationError, match="identity fails"):
            seq.verify()

    def test_verify_runs_under_optimize(self, tmp_path):
        """The tower checks raise explicitly, so python -O keeps them."""
        code = textwrap.dedent("""
            import sys
            from fractions import Fraction
            from apexp import SymbolBasis, build_b_sequence
            from apexp.groups import VerificationError
            assert False  # stripped under -O
            ctx = SymbolBasis([("1", 1.0)])
            one = ctx.symbol("1")
            seq = build_b_sequence([one], [ctx.zero(), one.scale(Fraction(1, 2))], ctx)
            seq.stages[1].matrix = [[5]]
            try:
                seq.verify()
            except VerificationError as e:
                print("caught", e)
                sys.exit(0)
            sys.exit("corrupted tower verified")
            """)
        # the source root of the package under test, so the child imports
        # the same apexp wherever pytest was started from
        src_root = Path(apexp.__file__).resolve().parents[1]
        out = subprocess.run([sys.executable, "-O", "-c", code],
                             env={"PATH": os.environ.get("PATH", os.defpath),
                                  "PYTHONPATH": str(src_root)},
                             capture_output=True, text=True, cwd=tmp_path)
        assert out.returncode == 0, out.stderr
        assert out.stdout.startswith("caught")

    def test_json_roundtrip(self, ctx):
        elements = [ctx.zero(), ctx.vector({"1": "1/2"}),
                    ctx.vector({"1": "1/3"})]
        seq = build_b_sequence([ctx.symbol("1")], elements, ctx)
        from apexp.groups import BSequence
        seq2 = BSequence.from_json(seq.to_json())
        assert seq2.matrices() == seq.matrices()


def brute_equivalent(m, n, bound=6):
    """Oracle for rational-universe pairs: search scalars p/q directly."""
    for p in range(-bound, bound + 1):
        for q in range(1, bound + 1):
            if p == 0:
                continue
            a = Fraction(p, q)
            scaled = [g.scale(a) for g in n.basis()]
            forward = all(v in m for v in scaled)
            lattice = FinGenSubgroup(n.basis_ctx, scaled)
            if forward and all(g in lattice for g in m.basis()):
                return a
    return None


class TestEquivalence:
    def test_scaled_pair(self, ctx):
        m = FinGenSubgroup(ctx, [ctx.symbol("1"), ctx.symbol("sqrt2")])
        n = FinGenSubgroup(ctx, [ctx.vector({"1": 3}),
                                 ctx.vector({"sqrt2": 3})])
        v = decide_equivalence(n, m)
        assert v.status == "EQUIVALENT" and v.scalar == 3

    def test_reflexive(self, ctx):
        m = FinGenSubgroup(ctx, [ctx.symbol("1")])
        v = decide_equivalence(m, m)
        assert v.status == "EQUIVALENT" and v.scalar == 1

    def test_rank_one_ratio(self, ctx):
        m = FinGenSubgroup(ctx, [ctx.symbol("1")])
        n = FinGenSubgroup(ctx, [ctx.symbol("1"), ctx.vector({"1": "1/2"})])
        v = decide_equivalence(m, n)
        assert v.status == "EQUIVALENT" and v.scalar == 2

    def test_rank_mismatch(self, ctx):
        m = FinGenSubgroup(ctx, [ctx.symbol("1"), ctx.symbol("sqrt2")])
        n = FinGenSubgroup(ctx, [ctx.symbol("1")])
        assert decide_equivalence(m, n).status == "NOT_EQUIVALENT"

    def test_candidate_with_product_table(self):
        b = SymbolBasis([("1", 1.0), ("sqrt2", math.sqrt(2.0))],
                        products={("sqrt2", "sqrt2"): {"1": 2}},
                        check_independence=False)
        m = FinGenSubgroup(b, [b.symbol("sqrt2"), b.vector({"1": 2})])
        n = FinGenSubgroup(b, [b.symbol("1"), b.symbol("sqrt2")])
        v = decide_equivalence(m, n, candidate=b.symbol("sqrt2"))
        assert v.status == "EQUIVALENT" and v.scalar == b.symbol("sqrt2")

    def test_randomized_rational_pairs(self, ctx):
        rng = random.Random(41)
        for _ in range(20):
            gens = [ctx.vector({"1": Fraction(rng.randint(1, 5),
                                              rng.randint(1, 4)),
                                "sqrt2": Fraction(rng.randint(-3, 3),
                                                  rng.randint(1, 3))})]
            gens.append(ctx.vector({"sqrt2": Fraction(rng.randint(1, 4))}))
            m = FinGenSubgroup(ctx, gens)
            a = Fraction(rng.choice([p for p in range(-6, 7) if p]),
                         rng.randint(1, 6))
            n = FinGenSubgroup(ctx, [g.scale(a) for g in gens])
            v = decide_equivalence(n, m)
            assert v.status == "EQUIVALENT"
            # verified two-sided, so the scalar must match the oracle's
            # notion of equivalence even if a different representative
            oracle = brute_equivalent(n, m)
            assert oracle is not None

    def test_randomized_rank_mismatch(self, ctx):
        rng = random.Random(43)
        for _ in range(20):
            m = FinGenSubgroup(ctx, [ctx.vector(
                {"1": Fraction(rng.randint(1, 6), rng.randint(1, 4))})])
            n = FinGenSubgroup(ctx, [ctx.symbol("1"), ctx.vector(
                {"sqrt2": Fraction(rng.randint(1, 6), rng.randint(1, 3))})])
            assert decide_equivalence(m, n).status == "NOT_EQUIVALENT"

    def test_symmetry_of_verdicts(self, ctx):
        m = FinGenSubgroup(ctx, [ctx.symbol("1"), ctx.symbol("sqrt2")])
        n = FinGenSubgroup(ctx, [ctx.vector({"1": "1/3"}),
                                 ctx.vector({"sqrt2": "1/3"})])
        v1 = decide_equivalence(m, n)
        v2 = decide_equivalence(n, m)
        assert v1.status == v2.status == "EQUIVALENT"
        assert v1.scalar * v2.scalar == 1

    def test_undecided_on_hard_case(self, ctx):
        # generator ratio is sqrt2 but no product table: the bounded
        # rational search must come back undecided, not wrong
        m = FinGenSubgroup(ctx, [ctx.symbol("sqrt2"), ctx.vector({"1": 2})])
        n = FinGenSubgroup(ctx, [ctx.symbol("1"), ctx.symbol("sqrt2")])
        assert decide_equivalence(m, n).status == "UNDECIDED"
