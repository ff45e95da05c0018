"""Reduction engine: golden witnesses, DP-vs-brute-force, diagram rendering."""

import pytest
from hypothesis import given, settings, strategies as st

from pregtrans.core import AtomTable, CompoundType, SimpleType, parse_type
from pregtrans.reduction import (
    OracleSizeError,
    ReductionWitness,
    enumerate_reductions,
    oracle_reduce,
    oracle_selections,
    reduce,
    render_diagram,
    type_selections,
)

TABLE = AtomTable({"a", "b", "c", "d"}, [("a", "b")])
NS = AtomTable({"n", "s"})


def links_of(w):
    return sorted(w.links)


# ---- goldens ---------------------------------------------------------------

def test_subject_verb_object_golden():
    t = parse_type("n n^r s n^l n", NS)
    ws = enumerate_reductions(t, parse_type("s", NS), NS)
    assert len(ws) == 1
    assert links_of(ws[0]) == [(0, 1), (3, 4)]
    assert ws[0].residue == (2,)


def test_no_reduction_when_target_unreachable():
    t = parse_type("n s", NS)
    assert reduce(t, parse_type("s", NS), NS) is None
    assert enumerate_reductions(t, parse_type("s", NS), NS) == []


def test_residue_uses_atom_order():
    table = AtomTable({"s1", "s"}, [("s1", "s")])
    t = parse_type("s1", table)
    w = reduce(t, parse_type("s", table), table)
    assert w is not None and w.residue == (0,) and not w.links
    # but not the other way round
    assert reduce(parse_type("s", table), parse_type("s1", table), table) is None


def test_empty_input_to_empty_target():
    w = reduce(CompoundType(), CompoundType(), NS)
    assert w is not None and not w.links and w.residue == ()


def test_beta_blocks_crossing_contraction():
    # n n^l n n^r n n^l n -> n has two parses; beta-tags select one each
    plain = parse_type("n n^l n n^r n n^l n", NS)
    ws = enumerate_reductions(plain, parse_type("n", NS), NS)
    assert sorted(links_of(w) for w in ws) == [
        [(0, 3), (1, 2), (5, 6)],
        [(1, 4), (2, 3), (5, 6)],
    ]
    var_a = parse_type("n b(n)^l b(n) n^r n n^l n", NS)
    wsa = enumerate_reductions(var_a, parse_type("n", NS), NS)
    assert [links_of(w) for w in wsa] == [[(0, 3), (1, 2), (5, 6)]]
    var_b = parse_type("n n^l b(n) b(n)^r n n^l n", NS)
    wsb = enumerate_reductions(var_b, parse_type("n", NS), NS)
    assert [links_of(w) for w in wsb] == [[(1, 4), (2, 3), (5, 6)]]


def test_limit_truncates_enumeration():
    t = parse_type("n n^l n n^r n n^l n", NS)
    ws = enumerate_reductions(t, parse_type("n", NS), NS, limit=1)
    assert len(ws) == 1


# coordination with four conjuncts: 42 witnesses
COORDINATION = parse_type("n n^l n" + " n^r n n^l n" * 4, NS)
SEARCH_FIRST_THREE = [
    [(1, 4), (2, 3), (5, 8), (6, 7), (9, 12), (10, 11), (13, 16), (14, 15), (17, 18)],
    [(1, 4), (2, 3), (5, 8), (6, 7), (9, 16), (10, 11), (12, 15), (13, 14), (17, 18)],
    [(1, 4), (2, 3), (5, 12), (6, 7), (8, 11), (9, 10), (13, 16), (14, 15), (17, 18)],
]


def test_limit_keeps_the_first_witnesses_in_search_order():
    # limit=k keeps the first k witnesses the search finds, then sorts them;
    # these are not the lexicographically first k of the full set
    goal = parse_type("n", NS)
    full = enumerate_reductions(COORDINATION, goal, NS)
    assert len(full) == 42
    first = enumerate_reductions(COORDINATION, goal, NS, limit=3)
    assert [links_of(w) for w in first] == SEARCH_FIRST_THREE
    assert first != full[:3]
    assert links_of(reduce(COORDINATION, goal, NS)) == SEARCH_FIRST_THREE[0]
    for k in (1, 5, 20, 42, 100):
        some = enumerate_reductions(COORDINATION, goal, NS, limit=k)
        assert len(some) == min(k, 42) and set(some) <= set(full)
        assert [w.sort_key for w in some] == sorted(w.sort_key for w in some)


def test_determinism_and_ordering():
    t = parse_type("n n^l n n^r n n^l n", NS)
    ws1 = enumerate_reductions(t, parse_type("n", NS), NS)
    ws2 = enumerate_reductions(t, parse_type("n", NS), NS)
    assert ws1 == ws2
    assert [w.sort_key for w in ws1] == sorted(w.sort_key for w in ws1)


# ---- witness structural invariants -----------------------------------------

random_parts = st.lists(
    st.builds(SimpleType, st.sampled_from("abcd"), st.integers(-1, 1)),
    max_size=8,
)


@settings(max_examples=300, deadline=None)
@given(random_parts)
def test_dp_matches_brute_force(parts):
    t = CompoundType(tuple(parts))
    goal = CompoundType((SimpleType("b"),))
    fast = set(enumerate_reductions(t, goal, TABLE))
    slow = set(oracle_reduce(t, goal, TABLE))
    assert fast == slow


@settings(max_examples=200, deadline=None)
@given(random_parts)
def test_witnesses_are_planar_and_well_nested(parts):
    t = CompoundType(tuple(parts))
    goal = CompoundType((SimpleType("b"),))
    for w in enumerate_reductions(t, goal, TABLE):
        assert w.is_planar()
        assert w.is_well_nested()
        assert w.covers(len(t.parts))


def test_oracle_size_guard():
    t = CompoundType(tuple(SimpleType("a") for _ in range(13)))
    with pytest.raises(OracleSizeError):
        oracle_reduce(t, CompoundType(), TABLE)


# ---- rendering --------------------------------------------------------------

def test_render_text_diagram():
    t = parse_type("n n^r s n^l n", NS)
    w = reduce(t, parse_type("s", NS), NS)
    assert render_diagram(t, w) == "n n^r s n^l n\n|__|  |  |__|\n      |"


def test_render_text_nested_links():
    t = parse_type("n n^l n n^r n n^l n", NS)
    ws = enumerate_reductions(t, parse_type("n", NS), NS)
    out = render_diagram(t, ws[0])
    assert out.splitlines()[0] == "n n^l n n^r n n^l n"
    assert out.count("\n") >= 2  # nested links need a second row


def test_render_dot_deterministic():
    t = parse_type("n n^r s n^l n", NS)
    w = reduce(t, parse_type("s", NS), NS)
    dot = render_diagram(t, w, format="dot")
    assert dot == render_diagram(t, w, format="dot")
    assert 't0 -- t1;' in dot and 't3 -- t4;' in dot and 't2 -- out [style=dashed];' in dot
    assert dot.startswith("graph reduction {") and dot.rstrip().endswith("}")


# ---- type selections over word type alternatives -----------------------------

alternative = st.lists(
    st.builds(SimpleType, st.sampled_from("abcd"), st.integers(-1, 1)), max_size=3
).map(lambda parts: CompoundType(tuple(parts)))
lattices = st.lists(st.lists(alternative, min_size=1, max_size=3, unique=True), max_size=4)
goals = st.sampled_from([CompoundType(), CompoundType((SimpleType("b"),))])


@settings(max_examples=200, deadline=None)
@given(lattices, goals)
def test_type_selections_match_product_loop(alternatives, goal):
    got = [
        (selection, set(search.witnesses()))
        for selection, search in type_selections(alternatives, goal, TABLE)
    ]
    assert got == [(s, set(ws)) for s, ws in oracle_selections(alternatives, goal, TABLE)]
