"""Coalgebra structure against a brute-force admissible-cut oracle.

The oracle enumerates admissible cuts directly from the definition: for
each vertex-to-child edge either keep it or cut it, never cutting two
edges on the same root path.  Each cut contributes trunk (x) pruned
forest; the full coproduct adds the empty-trunk term.  The production
code computes the same object by the grafting recursion, so agreement
here is a real two-sided check.

The antipode and the convolution read the merged rows of the reduced
coproduct; they are held to the per-tree antipode and the per-term
convolution of ``helpers`` on DSE generators, where the rows are the
closed coproduct, and on arbitrary sums, where they are not.
"""

import itertools
import random
from fractions import Fraction as F

import pytest

from dsegraphon import hopf
from dsegraphon.dse import Cocycle, DSESpec, _graded_power_part, solve
from dsegraphon.trees import (EMPTY_FOREST, Forest, ForestSum, Tree,
                              all_forests, all_forests_up_to, ladder, leaf)
from dsegraphon.hopf import (TensorSum, antipode, convolve, coproduct, counit,
                             graft, rational_character, reduced_coproduct)
from helpers import ref_antipode, ref_convolve


def _cut_options(t: Tree):
    """All (trunk, pruned trees) pairs from admissible cuts of t,
    excluding the empty-trunk full cut."""
    per_child = []
    for child in t.children:
        opts = [(None, (child,))]  # cut the edge above this child
        for trunk_c, pruned_c in _cut_options(child):
            opts.append((trunk_c, pruned_c))
        per_child.append(opts)
    out = []
    for combo in itertools.product(*per_child):
        trunk_children = tuple(tc for tc, _ in combo if tc is not None)
        pruned = tuple(p for _, ps in combo for p in ps)
        out.append((Tree(t.label, trunk_children), pruned))
    return out


def oracle_coproduct_tree(t: Tree) -> TensorSum:
    total = TensorSum.of(EMPTY_FOREST, Forest((t,)))
    for trunk, pruned in _cut_options(t):
        total = total + TensorSum.of(Forest((trunk,)), Forest(pruned))
    return total


def oracle_coproduct_forest(f: Forest) -> TensorSum:
    total = TensorSum.unit()
    for t in f:
        total = total * oracle_coproduct_tree(t)
    return total


CHERRY = Tree("g", [leaf("g"), leaf("g")])


def test_coproduct_unit_and_primitive():
    assert coproduct(ForestSum.unit()) == TensorSum.unit()
    one = Forest((leaf("g"),))
    got = coproduct(ForestSum.of(leaf("g")))
    want = TensorSum.of(one, EMPTY_FOREST) + TensorSum.of(EMPTY_FOREST, one)
    assert got == want


def test_coproduct_ladder2_by_hand():
    l2 = ladder(2)
    f = Forest((l2,))
    one = Forest((leaf("g"),))
    want = (TensorSum.of(f, EMPTY_FOREST) + TensorSum.of(EMPTY_FOREST, f)
            + TensorSum.of(one, one))  # trunk root, pruned top vertex
    assert coproduct(ForestSum.of(l2)) == want


def test_coproduct_cherry_by_hand():
    f = Forest((CHERRY,))
    one = Forest((leaf("g"),))
    two = Forest((leaf("g"), leaf("g")))
    l2f = Forest((ladder(2),))
    want = (TensorSum.of(f, EMPTY_FOREST) + TensorSum.of(EMPTY_FOREST, f)
            + 2 * TensorSum.of(l2f, one) + TensorSum.of(one, two))
    assert coproduct(ForestSum.of(CHERRY)) == want


@pytest.mark.parametrize("grade", range(0, 6))
def test_coproduct_matches_cut_oracle_single_label(grade):
    for f in all_forests(grade):
        assert coproduct(ForestSum.of(f)) == oracle_coproduct_forest(f)


@pytest.mark.parametrize("grade", range(0, 5))
def test_coproduct_matches_cut_oracle_two_labels(grade):
    for f in all_forests(grade, ("a", "b")):
        assert coproduct(ForestSum.of(f)) == oracle_coproduct_forest(f)


def test_coproduct_is_algebra_map():
    fs = [Forest((CHERRY,)), Forest((ladder(2), leaf("g"))), EMPTY_FOREST]
    for a in fs:
        for b in fs:
            lhs = coproduct(ForestSum.of(a) * ForestSum.of(b))
            rhs = coproduct(ForestSum.of(a)) * coproduct(ForestSum.of(b))
            assert lhs == rhs


def _triple_left(x):
    """(coproduct (x) id) applied to coproduct(x), as a dict on forest triples."""
    out = {}
    for (l, r), c in coproduct(x).terms.items():
        for (a, b), d in coproduct(ForestSum.of(l)).terms.items():
            key = (a, b, r)
            v = out.get(key, F(0)) + c * d
            if v:
                out[key] = v
            else:
                out.pop(key, None)
    return out


def _triple_right(x):
    out = {}
    for (l, r), c in coproduct(x).terms.items():
        for (a, b), d in coproduct(ForestSum.of(r)).terms.items():
            key = (l, a, b)
            v = out.get(key, F(0)) + c * d
            if v:
                out[key] = v
            else:
                out.pop(key, None)
    return out


@pytest.mark.parametrize("grade", range(0, 6))
def test_coassociativity(grade):
    for f in all_forests(grade):
        x = ForestSum.of(f)
        assert _triple_left(x) == _triple_right(x)


@pytest.mark.parametrize("grade", range(0, 6))
def test_counit_axiom(grade):
    for f in all_forests(grade):
        x = ForestSum.of(f)
        left = ForestSum.zero()
        right = ForestSum.zero()
        for (l, r), c in coproduct(x).terms.items():
            left = left + (c * counit(ForestSum.of(l))) * ForestSum.of(r)
            right = right + (c * counit(ForestSum.of(r))) * ForestSum.of(l)
        assert left == x
        assert right == x


def test_reduced_coproduct_drops_primitive_terms():
    x = ForestSum.of(CHERRY)
    red = reduced_coproduct(x)
    full = coproduct(x)
    f = Forest((CHERRY,))
    assert (f, EMPTY_FOREST) not in red.terms
    assert (EMPTY_FOREST, f) not in red.terms
    assert red + TensorSum.of(f, EMPTY_FOREST) + TensorSum.of(EMPTY_FOREST, f) == full


def _single(s: ForestSum) -> Forest:
    (f, c), = s.terms.items()
    assert c == 1
    return f


@pytest.mark.parametrize("grade", range(0, 5))
def test_cocycle_identity_all_forests(grade):
    # coproduct(graft(x)) = (graft (x) id)(coproduct(x)) + empty (x) graft(x),
    # with the grafting operator acting on the LEFT (root-side) factor.
    for f in all_forests(grade):
        x = ForestSum.of(f)
        grafted_forest = _single(graft("g", x))
        lhs = coproduct(graft("g", x))
        rhs = coproduct(x).map_left(lambda g: graft("g", ForestSum.of(g))) \
            + TensorSum.of(EMPTY_FOREST, grafted_forest)
        assert lhs == rhs


def test_cocycle_identity_fails_in_mirrored_orientation():
    # with two leaves attached to a common root, putting the grafting
    # operator on the RIGHT factor does not reproduce the coproduct
    x = ForestSum.of(leaf("g")) ** 2
    grafted_forest = _single(graft("g", x))
    lhs = coproduct(graft("g", x))
    right_grafted = TensorSum(((l, g), c * v) for (l, r), c in coproduct(x).terms.items()
                              for g, v in graft("g", ForestSum.of(r)).terms.items())
    wrong = right_grafted + TensorSum.of(grafted_forest, EMPTY_FOREST)
    assert lhs != wrong


def test_antipode_examples():
    one = ForestSum.of(leaf("g"))
    assert antipode(one) == -1 * one
    l2 = ForestSum.of(ladder(2))
    assert antipode(l2) == -1 * l2 + one * one
    # antipode of a product is the product of antipodes (commutative case)
    assert antipode(one * l2) == antipode(one) * antipode(l2)


@pytest.mark.parametrize("grade", range(0, 6))
def test_antipode_convolution_inverse(grade):
    # S * id = unit-counit = id * S, grade by grade
    for f in all_forests(grade):
        x = ForestSum.of(f)
        left = ForestSum.zero()
        right = ForestSum.zero()
        for (l, r), c in coproduct(x).terms.items():
            left = left + c * (antipode(ForestSum.of(l)) * ForestSum.of(r))
            right = right + c * (ForestSum.of(l) * antipode(ForestSum.of(r)))
        eta = counit(x) * ForestSum.unit()
        assert left == eta
        assert right == eta


@pytest.mark.parametrize("grade", range(0, 6))
def test_antipode_involutive(grade):
    for f in all_forests(grade):
        x = ForestSum.of(f)
        assert antipode(antipode(x)) == x


def test_character_multiplicative_and_convolution():
    # counting character: value 2 per vertex, multiplicative over forests
    phi = rational_character(lambda t: F(2) ** t.size, name="size2")
    f = Forest((CHERRY, leaf("g")))
    assert phi(ForestSum.of(f)) == F(2) ** 4
    eps = rational_character(lambda t: F(0), name="eps")
    # eps is the counit character: convolution with it is the identity
    x = ForestSum.of(CHERRY) + 3 * ForestSum.of(leaf("g"))
    assert convolve(eps, phi, x) == phi(x)
    assert convolve(phi, eps, x) == phi(x)


def test_character_calls_its_rule_once_per_distinct_tree():
    calls = []

    def rule(t):
        calls.append(t)
        return F(t.size)

    phi = rational_character(rule, name="size")
    forests = all_forests_up_to(4, ("g", "h"))
    for _ in range(2):
        for f in forests:
            phi(ForestSum.of(f))
    assert sorted(calls) == sorted({t for f in forests for t in f.trees})
    assert phi.on_tree.cache_info().misses == len(calls)


def test_convolution_antipode_gives_inverse_character():
    phi = rational_character(lambda t: F(1), name="ones")
    sphi = rational_character(lambda t: phi(antipode(ForestSum.of(Forest((t,))))),
                              name="ones-inv")
    for f in all_forests_up_to(4):
        x = ForestSum.of(f)
        assert convolve(sphi, phi, x) == counit(x)


# -- merged rows of the reduced coproduct -----------------------------------------

GENERATOR_SPECS = {
    "g": DSESpec((Cocycle("g", F(1)),), order=11),
    "g,h": DSESpec((Cocycle("g", F(1)), Cocycle("h", F(1, 2))), order=9),
    "three": DSESpec((Cocycle("g", F(1)), Cocycle("h", F(-1, 2)),
                      Cocycle("k", F(2, 3))), order=8),
    # no X_n with n > 0 is normalized, so every step scales into the memo
    "-3/2": DSESpec((Cocycle("g", F(-3, 2)),), order=9),
}


@pytest.mark.parametrize("name", sorted(GENERATOR_SPECS))
def test_antipode_of_generators_matches_the_per_tree_oracle(name):
    memo: dict = {}
    for n, x in enumerate(solve(GENERATOR_SPECS[name]).coefficients):
        assert antipode(x) == ref_antipode(x, memo), n


def _random_sum(rng, forests) -> ForestSum:
    """The empty forest and up to six forests of ``forests``, each with a
    nonzero rational coefficient."""
    picked = [EMPTY_FOREST] + rng.sample(forests, rng.randint(1, 6))
    return ForestSum({f: F(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 3))
                      for f in picked})


def test_antipode_of_random_sums_matches_the_per_tree_oracle():
    # mixed grades, an empty-forest term, and sums of several generators,
    # whose rows merge only within one generator
    rng = random.Random(29)
    forests = [f for f in all_forests_up_to(5, ("g", "h")) if f.trees]
    xs = solve(GENERATOR_SPECS["g,h"]).coefficients
    memo: dict = {}
    for _ in range(60):
        x = _random_sum(rng, forests)
        assert antipode(x) == ref_antipode(x, memo), x
    for _ in range(20):
        x = sum((F(rng.randint(-4, 4), rng.randint(1, 3)) * xs[n]
                 for n in rng.sample(range(1, 8), 3)), ForestSum.unit() * rng.randint(-2, 2))
        assert antipode(x) == ref_antipode(x, memo), x
    assert antipode(ForestSum.zero()) == ForestSum.zero()
    assert antipode(ForestSum.unit() * F(3, 2)) == ForestSum.unit() * F(3, 2)


@pytest.mark.parametrize("name", ["g", "g,h"])
def test_merged_rows_of_a_generator_are_its_closed_coproduct(name):
    # the reduced coproduct of X_n = s y merges into one pair
    # c X_k (x) [X^(k+1)]_(n-k) / (c s) per 0 < k < n, c X_k normalized
    xs = solve(GENERATOR_SPECS[name]).coefficients
    for n in range(2, len(xs)):
        s, y = hopf._normalized(xs[n].terms)
        rows = hopf._merged_rows(y)
        assert sorted(a.max_grade() for a, _ in rows) == list(range(1, n)), n
        for a, b in rows:
            k = a.max_grade()
            f = min(a.terms, key=lambda f: f.code)
            c = F(a.terms[f]) / xs[k].terms[f]
            assert a == c * xs[k], (n, k)
            assert b * (c * s) == _graded_power_part(xs, k + 1, n - k), (n, k)
            assert a.terms[f] == 1


def test_convolve_matches_the_per_term_oracle():
    phi = rational_character(lambda t: F(2, t.size + 3), "phi")
    psi = rational_character(lambda t: F(-3, 2 * t.size + 1), "psi")
    rng = random.Random(7)
    forests = [f for f in all_forests_up_to(5, ("g", "h")) if f.trees]
    xs = solve(GENERATOR_SPECS["-3/2"]).coefficients
    for x in list(xs) + [_random_sum(rng, forests) for _ in range(40)]:
        assert convolve(phi, psi, x) == ref_convolve(phi, psi, x), x
    assert convolve(phi, psi, ForestSum.zero()) == 0
