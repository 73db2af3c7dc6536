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
from hypothesis import assume, given, settings, strategies as st

import apexp
from apexp.groups import (DependentGeneratorsError, FinGenSubgroup,
                          OutOfSpanError, VerificationError, bonding_fault,
                          build_b_sequence, decide_equivalence)
from apexp.intlinalg import rational_rank, solve_rational
from apexp.realfield import SymbolBasis
from apexp.solenoid import SolenoidSystem


@pytest.fixture(scope="module")
def ctx():
    return SymbolBasis([("1", 1.0), ("sqrt2", math.sqrt(2.0))])


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
                     ("sqrt3", math.sqrt(3.0))])
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
                           ("sqrt3", math.sqrt(3.0))])
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
                        products={("sqrt2", "sqrt2"): {"1": 2}})
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
            assert v.status == "EQUIVALENT" and v.scalar == abs(a)
            # M = aN fixes a up to sign, so the oracle finds a or -a
            assert abs(brute_equivalent(n, m)) == v.scalar

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

    @pytest.mark.parametrize("a", [Fraction(7, 11), Fraction(-13, 4),
                                   Fraction(1000003, 999983)])
    def test_scalars_beyond_small_heights(self, ctx, a):
        gens = [ctx.vector({"1": "1/3", "sqrt2": "2/5"}),
                ctx.vector({"sqrt2": 3})]
        m = FinGenSubgroup(ctx, gens)
        n = FinGenSubgroup(ctx, [g.scale(a) for g in gens])
        v = decide_equivalence(n, m)
        assert v.status == "EQUIVALENT" and v.scalar == abs(a)

    def test_index_two_sublattice_is_undecided(self, ctx):
        # the only rational candidate, the ratio of the first pivots,
        # fails the two-sided check
        m = FinGenSubgroup(ctx, [ctx.symbol("1"), ctx.symbol("sqrt2")])
        n = FinGenSubgroup(ctx, [ctx.vector({"1": 2}), ctx.symbol("sqrt2")])
        assert decide_equivalence(n, m).status == "UNDECIDED"
        assert decide_equivalence(m, n).status == "UNDECIDED"

    def test_irrational_rank_one_ratio_is_not_refuted(self, ctx):
        # Z = (1/sqrt2) * sqrt2 Z: equal ranks never refute equivalence
        z = FinGenSubgroup(ctx, [ctx.symbol("1")])
        sqrt2_z = FinGenSubgroup(ctx, [ctx.symbol("sqrt2")])
        assert decide_equivalence(z, sqrt2_z).status == "UNDECIDED"
        assert decide_equivalence(sqrt2_z, z).status == "UNDECIDED"

    def test_rejects_groups_over_different_bases(self, ctx):
        m = FinGenSubgroup(ctx, [ctx.symbol("1")])
        n = FinGenSubgroup(THREE, [THREE.symbol("1")])
        with pytest.raises(ValueError, match="different symbol bases"):
            decide_equivalence(m, n)

    def test_agrees_with_brute_force_at_small_heights(self, ctx):
        # scaled copies, sublattices of index 2-4 of scaled copies, and
        # unrelated groups; rank 1 and 2
        rng = random.Random(47)

        def rand_vec():
            return ctx.vector({"1": Fraction(rng.randint(-4, 4), rng.randint(1, 4)),
                               "sqrt2": Fraction(rng.randint(-4, 4), rng.randint(1, 4))})

        seen = set()
        for i in range(60):
            m = FinGenSubgroup(ctx, [rand_vec() for _ in range(rng.randint(1, 2))])
            if m.is_trivial():
                continue
            a = Fraction(rng.choice([p for p in range(-6, 7) if p]),
                         rng.randint(1, 6))
            basis = [b.scale(a) for b in m.basis()]
            kind = i % 3
            if kind == 1:
                basis[0] = basis[0].scale(rng.randint(2, 4))
            elif kind == 2:
                basis = [rand_vec() for _ in basis]
            n = FinGenSubgroup(ctx, basis)
            if n.is_trivial():
                continue
            v = decide_equivalence(n, m)
            oracle = brute_equivalent(n, m)
            if oracle is None:
                # the decider may only find a scalar the oracle cannot reach
                assert v.status != "EQUIVALENT" or max(
                    abs(v.scalar.numerator), v.scalar.denominator) > 6
            else:
                assert v.status == "EQUIVALENT" and v.scalar == abs(oracle)
            seen.add((kind, v.status))
        assert {(0, "EQUIVALENT"), (1, "UNDECIDED"), (2, "UNDECIDED")} <= seen


@settings(max_examples=60, deadline=None)
@given(st.lists(three_vectors, min_size=1, max_size=3),
       st.integers(-10 ** 6, 10 ** 6).filter(bool), st.integers(1, 10 ** 6))
def test_rational_scalar_is_recovered_exactly(gens, p, q):
    m = FinGenSubgroup(THREE, gens)
    assume(not m.is_trivial())
    a = Fraction(p, q)
    n = FinGenSubgroup(THREE, [g.scale(a) for g in gens])
    # the decider relies on the HNF basis scaling with the group
    assert n.basis() == [b.scale(abs(a)) for b in m.basis()]
    v = decide_equivalence(n, m)
    assert v.status == "EQUIVALENT" and v.scalar == abs(a)


# ---------------------------------------------------------------------------
# oracles for the integer bonding check and the canonical-form group equality


def realvector_tower_holds(stage_bases, matrices):
    """Reference for bonding_fault: every M_i has full rank over Q (Fraction
    elimination) and the RealVector scale/add loop finds b^i = M_i b^{i+1}."""
    kappa = len(stage_bases[0])
    for i, m in enumerate(matrices):
        if rational_rank(m) != kappa:
            return False
        for r in range(kappa):
            acc = stage_bases[0][0].basis.zero()
            for s in range(kappa):
                acc = acc + stage_bases[i + 1][s].scale(m[r][s])
            if acc != stage_bases[i][r]:
                return False
    return True


def seeded_tower(rng):
    """Stage bases and bonding matrices of a random tower over THREE."""
    names = ["1", "sqrt2", "sqrt3"]
    kappa = rng.randint(1, 3)
    elements = [THREE.zero()] + [
        THREE.vector({names[j]: Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                      for j in range(kappa)})
        for _ in range(rng.randint(1, 4))]
    seq = build_b_sequence([THREE.symbol(n) for n in names[:kappa]], elements, THREE)
    return ([list(s.basis) for s in seq.stages],
            [[list(r) for r in m] for m in seq.matrices()])


def corrupt(rng, bases, mats, how):
    """A copy of the tower with one fault of the given kind."""
    bases, mats = [list(b) for b in bases], [[list(r) for r in m] for m in mats]
    kappa = len(bases[0])
    if how == "entry":  # one entry of one M_i changed
        m = rng.choice(mats)
        r, s = rng.randrange(kappa), rng.randrange(kappa)
        m[r][s] += rng.choice([-2, -1, 1, 2])
    elif how == "scaled":  # one stage vector doubled
        k, j = rng.randrange(len(bases)), rng.randrange(kappa)
        bases[k][j] = bases[k][j].scale(2)
    else:  # M_1 singular, with stage 1 recomputed so the identity holds
        m = [[rng.randint(-3, 3) for _ in range(kappa)] for _ in range(kappa)]
        m[-1] = [2 * x for x in m[0]] if kappa > 1 else [0]
        mats[0] = m
        bases[0] = [sum((bases[1][s].scale(row[s]) for s in range(kappa)), THREE.zero())
                    for row in m]
    return bases, mats


class TestBondingCheckOracle:
    @pytest.mark.parametrize("how", ["none", "entry", "scaled", "singular"])
    def test_agrees_with_realvector_loop(self, how):
        rng = random.Random(f"bonding-{how}")
        for _ in range(40):
            bases, mats = seeded_tower(rng)
            if how != "none":
                bases, mats = corrupt(rng, bases, mats, how)
            holds = realvector_tower_holds(bases, mats)
            fault = bonding_fault(bases, mats)
            assert (fault is None) == holds == (how == "none"), fault
            if how == "singular":
                assert "singular" in fault
            elif how == "scaled":
                assert "identity fails" in fault

    def test_both_callers_raise_the_one_fault(self):
        rng = random.Random(61)
        for _ in range(20):
            bases, mats = seeded_tower(rng)
            bad_bases, bad_mats = corrupt(rng, bases, mats, "entry")
            fault = bonding_fault(bad_bases, bad_mats)
            with pytest.raises(ValueError) as err:
                SolenoidSystem(kappa=len(bases[0]), matrices=bad_mats,
                               stage_bases=bad_bases)
            assert str(err.value) == fault
            seq = build_b_sequence(bases[0], [THREE.zero()] * len(bases), THREE)
            for stage, basis, m in zip(seq.stages[1:], bad_bases[1:], bad_mats):
                stage.basis, stage.matrix = basis, m
            with pytest.raises(VerificationError) as err:
                seq.verify()
            assert str(err.value) == fault

    def test_denominators_differ_between_stages(self, ctx):
        # b^1 = 1, b^2 = 1/2, b^3 = 1/6: d_1 = 1, d_2 = 2, d_3 = 6
        one = ctx.symbol("1")
        bases = [[one], [one.scale(Fraction(1, 2))], [one.scale(Fraction(1, 6))]]
        assert bonding_fault(bases, [[[2]], [[3]]]) is None
        assert "identity fails" in bonding_fault(bases, [[[2]], [[2]]])
        assert "singular" in bonding_fault([[one], [one]], [[[0]]])


def two_sided(a, b):
    """Reference for same_group: each generator set lies in the other group."""
    return (all(a.contains(g) for g in b.generators)
            and all(b.contains(g) for g in a.generators))


class TestSameGroup:
    @pytest.mark.parametrize("left, right, equal", [
        (["1/2", "1/3"], ["1/6"], True),
        (["1", "3/2"], ["1/2"], True),
        (["1/2"], ["3/2"], False),      # one denominator, different lattices
        (["1"], ["1/2"], False),        # one lattice [[1]], different denominators
        (["2/3", "4/3"], ["2/3"], True),
    ])
    def test_rational_generator_sets(self, ctx, left, right, equal):
        a = FinGenSubgroup(ctx, [ctx.vector({"1": q}) for q in left])
        b = FinGenSubgroup(ctx, [ctx.vector({"1": q}) for q in right])
        assert a.same_group(b) == b.same_group(a) == two_sided(a, b) == equal

    def test_rejects_groups_over_different_bases(self, ctx):
        with pytest.raises(ValueError, match="different symbol bases"):
            FinGenSubgroup(ctx, [ctx.symbol("1")]).same_group(
                FinGenSubgroup(THREE, [THREE.symbol("1")]))


tiny_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)
tiny_vectors = st.builds(lambda a, b: THREE.vector({"1": a, "sqrt2": b}),
                         tiny_rationals, tiny_rationals)


@settings(max_examples=120, deadline=None)
@given(st.lists(tiny_vectors, min_size=1, max_size=3),
       st.sampled_from(["regenerated", "sublattice", "random"]), st.data())
def test_same_group_is_two_sided_containment(gens, kind, data):
    if kind == "regenerated":  # the same group from other generators
        other = list(gens)
        for _ in range(data.draw(st.integers(0, 4))):
            index = st.integers(0, len(other) - 1)
            i, j = data.draw(index), data.draw(index)
            if i != j:
                other[i] = other[i] + other[j].scale(data.draw(st.integers(-3, 3)))
        other.append(sum((g.scale(data.draw(st.integers(-3, 3))) for g in gens),
                         THREE.zero()))
        other.reverse()
    elif kind == "sublattice":  # usually index 2 or 3, same denominators
        other = list(gens)
        other[0] = other[0].scale(data.draw(st.integers(2, 3)))
    else:
        other = data.draw(st.lists(tiny_vectors, min_size=1, max_size=3))
    a, b = FinGenSubgroup(THREE, gens), FinGenSubgroup(THREE, other)
    assert a.same_group(b) == b.same_group(a) == two_sided(a, b)
    if kind == "regenerated":
        assert a.same_group(b)
