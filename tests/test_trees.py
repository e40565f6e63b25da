import copy
import pickle

import pytest

from dsegraphon.graphpoly import tree_to_graph
from dsegraphon.trees import (
    EMPTY_FOREST, Forest, ForestSum, Tree, _forest_product, _grafted, all_forests,
    all_forests_up_to, check_decoration, ladder, leaf)
from helpers import all_trees


def test_decoration_validation():
    assert check_decoration("g") == "g"
    assert check_decoration("gamma2") == "gamma2"
    for bad in ("", "a[b", "a]b", "a|b"):
        with pytest.raises(ValueError):
            check_decoration(bad)


def test_tree_canonical_code_sorts_children():
    a = Tree("g", [Tree("g"), Tree("g", [Tree("g")])])
    b = Tree("g", [Tree("g", [Tree("g")]), Tree("g")])
    assert a == b
    assert a.code == b.code
    assert hash(a) == hash(b)


def test_tree_size_and_edges():
    cherry = Tree("g", [leaf("g"), leaf("g")])
    for t, size in ((leaf("g"), 1), (ladder(4), 4), (cherry, 3)):
        assert t.size == size
        assert tree_to_graph(t).m == size - 1


def test_tree_immutable():
    t = leaf("g")
    with pytest.raises(AttributeError):
        t.label = "h"


def test_forest_is_sorted_multiset():
    t1 = ladder(2)
    t2 = leaf("g")
    assert Forest((t1, t2)) == Forest((t2, t1))
    assert Forest((t1, t2)).grade == 3
    assert EMPTY_FOREST.grade == 0
    assert EMPTY_FOREST.trees == ()


def test_forest_product_concatenates():
    f = _forest_product(Forest((leaf("g"),)), Forest((leaf("g"),)))
    assert f.grade == 2
    assert len(tuple(f)) == 2


def test_forest_sum_algebra():
    x = ForestSum.of(leaf("g"))
    y = ForestSum.of(ladder(2))
    s = 2 * x + y
    assert s.terms[Forest((leaf("g"),))] == 2
    assert (s - s) == ForestSum.zero()
    # product distributes and multiplies forests
    p = (x + y) * x
    assert p.terms[Forest((leaf("g"), leaf("g")))] == 1
    assert p.terms[Forest((leaf("g"), ladder(2)))] == 1
    # unit is the empty forest
    assert ForestSum.unit() * s == s
    assert s ** 0 == ForestSum.unit()
    assert s ** 2 == s * s


def test_forest_sum_counit_and_grading():
    s = ForestSum.unit() + 3 * ForestSum.of(leaf("g"))
    assert s.counit() == 1
    assert ForestSum.of(leaf("g")).counit() == 0
    assert s.max_grade() == 1


def test_scalar_must_be_exact():
    with pytest.raises(TypeError):
        ForestSum.of(leaf("g")) * 0.5


def test_tree_counts_single_label():
    # rooted unlabeled trees by vertex count
    assert [len(all_trees(n)) for n in range(1, 7)] == [1, 1, 2, 4, 9, 20]


def test_forest_counts_single_label():
    # rooted forests = partitions into trees; grade 0 is the empty forest
    assert [len(all_forests(n)) for n in range(0, 7)] == [1, 1, 2, 4, 9, 20, 48]
    assert len(all_forests_up_to(6)) == 1 + 1 + 2 + 4 + 9 + 20 + 48


def test_enumerations_return_a_new_list_per_call():
    # the enumeration is cached; mutating a returned list must not
    # reach the cache or the next call
    for labels in (("g",), ("g", "h")):
        first = all_forests(3, labels)
        want = list(first)
        first.clear()
        first.append(None)
        again = all_forests(3, labels)
        assert again == want and again is not all_forests(3, labels)


def test_tree_counts_two_labels():
    # every vertex independently carries one of two labels
    assert len(all_trees(1, ("a", "b"))) == 2
    assert len(all_trees(2, ("a", "b"))) == 4
    # grade 3: chain root-mid-leaf gives 8; cherry root with multiset of
    # two labeled leaves gives 2 * 3 = 6
    assert len(all_trees(3, ("a", "b"))) == 14


def test_enumeration_no_duplicates():
    for n in range(0, 6):
        forests = all_forests(n)
        assert len({f.code for f in forests}) == len(forests)
        assert all(f.grade == n for f in forests)


# -- interning: equal trees and forests are one object ---------------------------

def test_trees_and_forests_are_interned():
    a = Tree("g", [leaf("g"), ladder(2)])
    assert Tree("g", (ladder(2), Tree("g"))) is a
    assert Forest((a, leaf("h"))) is Forest([leaf("h"), a])
    assert Forest(()) is EMPTY_FOREST
    assert copy.deepcopy(a) is a and pickle.loads(pickle.dumps(a)) is a
    f = Forest((a, a))
    assert copy.copy(f) is f and pickle.loads(pickle.dumps(f)) is f


def test_cached_forest_product_is_the_validated_forest():
    forests = all_forests_up_to(3, ("g", "h"))
    for a in forests:
        for b in forests:
            got = _forest_product(a, b)
            want = Forest(a.trees + b.trees)
            codes = sorted(t.code for t in a.trees + b.trees)
            assert got.trees == want.trees == tuple(sorted(a.trees + b.trees))
            assert got.code == want.code == "".join(codes)
            assert got.grade == want.grade == a.grade + b.grade
            assert hash(got) == hash(want) and got == want and got is want
            hits = _forest_product.cache_info().hits
            assert _forest_product(a, b) is got
            assert _forest_product.cache_info().hits == hits + 1
            assert _forest_product(b, a) is got


def test_cached_graft_is_the_grafted_tree():
    for f in all_forests_up_to(3, ("g", "h")):
        for label in ("g", "h"):
            got = _grafted(label, f)
            tree = Tree(label, f.trees)
            assert got.trees == (tree,) and got.trees[0].children == f.trees
            assert got.code == tree.code and got.grade == f.grade + 1
            assert got == Forest((tree,)) and _grafted(label, f) is got
    with pytest.raises(ValueError):
        _grafted("a|b", EMPTY_FOREST)
