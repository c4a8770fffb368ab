"""Group structure against hand-worked subgroup lattices and series."""

import random

import pytest

from krcascade import groups, pipeline
from krcascade import (
    FiniteGroup,
    FiniteMonoid,
    InvalidInputError,
    NotAGroupError,
    ResourceCapError,
    Semiautomaton,
    Transformation,
    closure_generate,
    composition_factors,
    composition_series,
    coset_partition,
    enumerate_subgroups,
    factor_group,
    group_from_table,
    grouplike_cascade_split,
    is_normal,
    is_simple,
    is_subgroup,
    krohn_rhodes_decompose,
    subgroup_as_group,
    subgroup_closure,
)

from conftest import MEB_TABLE

C4_TABLE = [[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]]


def cyclic(n):
    return group_from_table([[(i + j) % n for j in range(n)] for i in range(n)])


def symmetric_3():
    m = closure_generate(
        [Transformation([1, 0, 2]), Transformation([1, 2, 0])],
        symbol_labels=["s", "r"],
    )
    return FiniteGroup(m)


def alternating_5():
    m = closure_generate(
        [Transformation([1, 2, 3, 4, 0]), Transformation([1, 2, 0, 3, 4])],
        symbol_labels=["c", "t"],
    )
    return FiniteGroup(m)


def test_group_basics(klein):
    assert klein.order == 4
    assert klein.identity == 0
    assert klein.inv(1) == 1 and klein.inv(3) == 3
    assert klein.element_order(0) == 1
    assert all(klein.element_order(x) == 2 for x in range(1, 4))
    assert klein.is_abelian()
    assert not klein.is_cyclic()


def test_cyclic_group():
    c4 = group_from_table(C4_TABLE)
    assert c4.is_cyclic()
    assert c4.element_order(1) == 4
    assert c4.inv(1) == 3


def test_not_a_group():
    # e is absorbing, so it has no inverse
    with pytest.raises(NotAGroupError) as info:
        FiniteGroup(FiniteMonoid(["a", "e", "b"], MEB_TABLE, identity=2))
    assert "e" in str(info.value)


def test_subgroup_closure(klein):
    assert subgroup_closure(klein, [1]) == frozenset({0, 1})
    assert subgroup_closure(klein, [1, 2]) == frozenset(range(4))
    assert subgroup_closure(klein, []) == frozenset({0})


def _closure_by_products(g, seed):
    """Fixed point under products on both sides and inverses."""
    have = {g.identity} | set(seed)
    while True:
        more = {g.mul(x, y) for x in have for y in have} | {g.inv(x) for x in have}
        if more <= have:
            return frozenset(have)
        have |= more


def test_subgroup_closure_matches_products_and_inverses():
    for g in (symmetric_3(), group_from_table(C4_TABLE), cyclic(12), alternating_5()):
        for x in range(g.order):
            for y in (x, (3 * x + 1) % g.order):
                got = subgroup_closure(g, [x, y])
                assert got == _closure_by_products(g, [x, y])
                assert is_subgroup(g, got)


def test_enumerate_subgroups_klein(klein):
    subs = enumerate_subgroups(klein)
    assert [sorted(h) for h in subs] == [[0], [0, 1], [0, 2], [0, 3], [0, 1, 2, 3]]
    assert all(is_normal(klein, h) for h in subs)


def test_enumerate_subgroups_s3():
    g = symmetric_3()
    subs = enumerate_subgroups(g)
    assert sorted(len(h) for h in subs) == [1, 2, 2, 2, 3, 6]
    a3 = next(h for h in subs if len(h) == 3)
    assert is_normal(g, a3)
    flips = [h for h in subs if len(h) == 2]
    assert all(not is_normal(g, h) for h in flips)


def test_is_subgroup(klein):
    assert is_subgroup(klein, {0, 1})
    assert not is_subgroup(klein, {0, 1, 2})
    assert not is_subgroup(klein, {1})


@pytest.mark.parametrize(
    "H", [[0, 99], [0, 4], [0, 1.5], [0, 1.0], [0, "a"], [0, None], [0, [1]]],
    ids=["99", "order", "float", "whole-float", "str", "none", "unhashable"],
)
def test_sets_outside_the_group_are_no_subgroups(klein, H):
    # a group's elements are the ints in range(order): any other value,
    # an unhashable one too, makes no subgroup, and every function that
    # takes one says so rather than raising TypeError
    assert not is_subgroup(klein, H)
    assert not is_normal(klein, H)
    for build in (coset_partition, factor_group, subgroup_as_group, grouplike_cascade_split):
        with pytest.raises(InvalidInputError, match="^given set is not a subgroup$"):
            build(klein, H)


def test_negative_elements_do_not_wrap():
    # -1 would index the trivial group's only element, so {0, -1} passed
    # the closure checks and gave a "subgroup" of order 2
    trivial = group_from_table([[0]])
    assert not is_subgroup(trivial, {0, -1})
    assert not is_normal(trivial, {0, -1})
    with pytest.raises(InvalidInputError, match="^given set is not a subgroup$"):
        subgroup_as_group(trivial, {0, -1})
    assert is_subgroup(trivial, {0}) and is_normal(trivial, {0})


def test_subgroup_cap():
    with pytest.raises(ResourceCapError):
        enumerate_subgroups(alternating_5())


def test_is_simple():
    assert is_simple(cyclic(2))
    assert is_simple(cyclic(5))
    assert is_simple(cyclic(1))
    assert not is_simple(cyclic(4))
    assert not is_simple(symmetric_3())
    with pytest.raises(ResourceCapError):
        is_simple(alternating_5())


def test_coset_partition(klein):
    cp = coset_partition(klein, frozenset({0, 1}))
    assert cp.transversal == (0, 2)
    assert cp.cosets == (0, 0, 1, 1)
    assert cp.block(1) == [2, 3]


def test_factor_group(klein):
    f = factor_group(klein, frozenset({0, 1}))
    assert f.order == 2
    assert f.labels == ("[e]", "[b]")
    assert f.table == ((0, 1), (1, 0))
    with pytest.raises(InvalidInputError):
        factor_group(symmetric_3(), subgroup_closure(symmetric_3(), [1]))


def test_subgroup_as_group(klein):
    h, elements = subgroup_as_group(klein, {0, 2})
    assert elements == [0, 2]
    assert h.order == 2
    assert h.table == ((0, 1), (1, 0))


def test_composition_series_klein(klein):
    series = composition_series(klein)
    assert [sorted(x) for x in series] == [[0, 1, 2, 3], [0, 1], [0]]
    assert [f.order for f in composition_factors(klein)] == [2, 2]


def test_composition_series_s3():
    g = symmetric_3()
    series = composition_series(g)
    assert [len(x) for x in series] == [6, 3, 1]
    assert [f.order for f in composition_factors(g)] == [2, 3]


def test_composition_series_c12():
    g = cyclic(12)
    assert [len(x) for x in composition_series(g)] == [12, 6, 3, 1]
    assert [f.order for f in composition_factors(g)] == [2, 2, 3]


def test_composition_factors_are_simple():
    for g in (cyclic(8), cyclic(12), symmetric_3(), group_from_table(C4_TABLE)):
        for f in composition_factors(g):
            assert is_simple(f)


# Lattice definitions kept as oracles for the normal-closure computation in
# groups.py: the normal subgroups are read off the full subgroup lattice.


def _oracle_normal_subgroups(g):
    return [h for h in enumerate_subgroups(g) if is_normal(g, h)]


def _oracle_is_simple(g):
    return not any(1 < len(h) < g.order for h in _oracle_normal_subgroups(g))


def _oracle_maximal_normal(g, elems):
    proper = [h for h in _oracle_normal_subgroups(g) if len(h) < g.order]
    return min(proper, key=lambda h: (-len(h), tuple(sorted(elems[i] for i in h))))


def _oracle_composition_series(g):
    series = [frozenset(range(g.order))]
    cur, elems = g, list(range(g.order))
    while cur.order > 1:
        h = _oracle_maximal_normal(cur, elems)
        series.append(frozenset(elems[i] for i in h))
        cur, local = subgroup_as_group(cur, h)
        elems = [elems[i] for i in local]
    return series


def _group_of_permutations(*images):
    return FiniteGroup(closure_generate([Transformation(list(t)) for t in images]))


def _direct_product(m, n):
    return group_from_table(
        [
            [((a // n + b // n) % m) * n + (a + b) % n for b in range(m * n)]
            for a in range(m * n)
        ]
    )


def quaternion_8():
    # element 4*s + u is (-1)^s times the unit u of (1, i, j, k)
    units = {(1, 1): (1, 0), (1, 2): (0, 3), (1, 3): (1, 2), (2, 1): (1, 3),
             (2, 2): (1, 0), (2, 3): (0, 1), (3, 1): (0, 2), (3, 2): (1, 1),
             (3, 3): (1, 0)}

    def mul(x, y):
        (sx, ux), (sy, uy) = divmod(x, 4), divmod(y, 4)
        s, u = (0, ux + uy) if 0 in (ux, uy) else units[ux, uy]
        return 4 * ((sx + sy + s) % 2) + u

    return group_from_table([[mul(x, y) for y in range(8)] for x in range(8)])


def _named_groups():
    out = {"C%d" % n: cyclic(n) for n in range(1, 25)}
    out.update(
        S3=symmetric_3(),
        klein=group_from_table([[x ^ y for y in range(4)] for x in range(4)]),
        D4=_group_of_permutations([1, 2, 3, 0], [0, 3, 2, 1]),
        Q8=quaternion_8(),
        A4=_group_of_permutations([1, 2, 0, 3], [1, 0, 3, 2]),
        S4=_group_of_permutations([1, 2, 3, 0], [1, 0, 2, 3]),
        C2xC2xC2=group_from_table([[x ^ y for y in range(8)] for x in range(8)]),
        C2xC6=_direct_product(2, 6),
    )
    return out


@pytest.fixture(scope="module")
def random5_groups():
    """Every group the decomposition of the ROADMAP random-5 seeds 0-9 hands
    to grouplike_to_simple_cascade, recursive calls included."""
    seen = []
    build = pipeline.grouplike_to_simple_cascade

    def recorded(g, caps=pipeline.Caps(), cover=None):
        seen.append(g)
        return build(g, caps, cover)

    pipeline.grouplike_to_simple_cascade = recorded
    try:
        for seed in range(10):
            rng = random.Random(5000 + seed)
            delta = [[rng.randrange(5) for _ in range(2)] for _ in range(5)]
            krohn_rhodes_decompose(Semiautomaton(["s%d" % i for i in range(5)], "ab", delta))
    finally:
        pipeline.grouplike_to_simple_cascade = build
    unique = {g.table: g for g in seen}
    return list(unique.values())


def test_named_groups_are_what_they_claim():
    named = _named_groups()
    assert [named[k].order for k in ("S3", "klein", "D4", "Q8", "A4", "S4")] == [
        6, 4, 8, 8, 12, 24
    ]
    assert sorted(named["Q8"].element_order(x) for x in range(8)) == [1, 2] + [4] * 6
    assert sorted(named["D4"].element_order(x) for x in range(8)) == [1] + [2] * 5 + [4] * 2
    assert not named["A4"].is_abelian() and named["C2xC6"].is_abelian()
    assert not named["C2xC6"].is_cyclic() and named["C2xC6"].order == 12


def test_random5_groups_cover_orders_up_to_the_cap(random5_groups):
    orders = sorted(g.order for g in random5_groups)
    assert len(orders) >= 10
    assert {2, 3, 4, 6, 12, 24} <= set(orders)


def _check_against_oracle(name, g):
    n = g.order
    normal = _oracle_normal_subgroups(g)
    assert sorted(groups._normal_subgroups(g), key=sorted) == sorted(normal, key=sorted), name
    assert is_simple(g) == _oracle_is_simple(g), name
    if n > 1:
        # the identity labelling and a reversed one, which flips every tie-break
        for elems in (list(range(n)), list(range(n))[::-1]):
            got = groups._maximal_normal_subgroup(g, elems, groups.SUBGROUP_CAP)
            assert got == _oracle_maximal_normal(g, elems), name
    series = composition_series(g)
    assert series == _oracle_composition_series(g), name
    factors = composition_factors(g)
    assert len(factors) == len(series) - 1, name
    for upper, lower, factor in zip(series, series[1:], factors):
        sub, local = subgroup_as_group(g, upper)
        index = {x: i for i, x in enumerate(local)}
        expected = factor_group(sub, frozenset(index[x] for x in lower))
        assert factor.table == expected.table and factor.labels == expected.labels, name


def test_normal_closures_match_the_lattice_on_named_groups():
    for name, g in _named_groups().items():
        _check_against_oracle(name, g)


def test_normal_closures_match_the_lattice_on_random5_groups(random5_groups):
    for k, g in enumerate(random5_groups):
        _check_against_oracle("random5 group %d (order %d)" % (k, g.order), g)


def test_tie_break_between_equal_maximal_normal_subgroups():
    named = _named_groups()
    for name in ("klein", "C2xC2xC2"):
        g = named[name]
        normal = _oracle_normal_subgroups(g)
        top = max(len(h) for h in normal if len(h) < g.order)
        assert sum(len(h) == top for h in normal) >= 3, name
        first = groups._maximal_normal_subgroup(g, list(range(g.order)), groups.SUBGROUP_CAP)
        last = groups._maximal_normal_subgroup(
            g, list(range(g.order))[::-1], groups.SUBGROUP_CAP
        )
        assert len(first) == len(last) == top and first != last, name
    assert [sorted(h) for h in composition_series(named["C2xC2xC2"])] == [
        list(range(8)), [0, 1, 2, 3], [0, 1], [0]
    ]


def test_normal_closure():
    g = symmetric_3()
    assert all(groups.normal_closure(g, [x]) == subgroup_closure(g, [x])
               for x in range(6) if g.element_order(x) == 3)
    assert all(groups.normal_closure(g, [x]) == frozenset(range(6))
               for x in range(6) if g.element_order(x) == 2)
    assert groups.normal_closure(g, []) == frozenset([g.identity])


def test_group_order_cap_messages():
    a5 = alternating_5()
    msg = "subgroup enumeration capped at order 24, group has order 60"
    for call in (enumerate_subgroups, is_simple, composition_series, composition_factors):
        with pytest.raises(ResourceCapError, match=msg):
            call(a5)
    with pytest.raises(ResourceCapError, match="capped at order 5, group has order 6"):
        is_simple(symmetric_3(), cap=5)
    assert is_simple(symmetric_3(), cap=6) is False
