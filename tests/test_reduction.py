"""Reduction engine: golden witnesses, DP-vs-brute-force, diagram rendering."""

import itertools
import re
import sys
import time
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from pregtrans import data, reduction
from pregtrans.checks import OracleSizeError, oracle_reduce, oracle_selections
from pregtrans.core import AtomTable, CompoundType, SimpleType, parse_type
from pregtrans.lexicon import UnknownWordError, load_lexicon
from pregtrans.reduction import (
    ReductionWitness,
    SpanSearch,
    WitnessError,
    enumerate_reductions,
    parse_sentence,
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


@pytest.mark.parametrize("input, goal", [("", "n n^l"), ("s", "s n n^l")])
def test_goal_tail_does_not_contract_with_itself(input, goal):
    # the search appends the goal's right adjoint, here ... n n^r ..., whose
    # n n^r would contract; only input positions start a link
    t, g = parse_type(input, NS), parse_type(goal, NS)
    assert reduce(t, g, NS) is None
    assert enumerate_reductions(t, g, NS) == []
    lattice = [[t, parse_type("n n^r", NS)], [CompoundType(), parse_type("n", NS)]]
    assert not SpanSearch(lattice, g, NS).reduces()


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
        assert some == sorted(some)


def test_witnesses_need_a_limit_of_at_least_one():
    search = SpanSearch([(parse_type("n n^r s", NS),)], parse_type("s", NS), NS)
    with pytest.raises(ValueError, match=r"^limit must be >= 1$"):
        search.witnesses(0)


def test_witnesses_are_read_only_off_a_flat_search():
    # a lattice search decides, but has no witnesses to read
    alternatives = [[parse_type("n", NS), parse_type("s", NS)], [parse_type("n^r s", NS)]]
    search = SpanSearch(alternatives, parse_type("s", NS), NS)
    assert search.reduces()
    with pytest.raises(ValueError, match=r"^witnesses are read only off a flat search, "
                                         r"one type per token$"):
        search.witnesses()


def test_long_chain_reduces():
    t = parse_type("n n^l " * 3000 + "n", NS)
    w = reduce(t, parse_type("n", NS), NS)
    assert w.residue == (0,) and w.links == tuple((p, p + 1) for p in range(1, 6001, 2))


def call_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_search_needs_no_deep_stack():
    # a fixed number of frames whatever the input: a chain, deep nesting,
    # 40 conjuncts with more witnesses than the limit, and 82 words with
    # two types each
    chain = parse_type("n n^l " * 1500 + "n", NS)
    nested = parse_type("n " + "n^l " * 3000 + "n " * 3000, NS)
    coordination = parse_type("n n^l n" + " n^r n n^l n" * 39, NS)
    ja = load_lexicon(data.lexicon_path("ja"))
    words = ("neko no " * 80 + "neko ga sakana wo taberu").split()
    alternatives = [ja.types_of(word) for word in words]
    goal = parse_type("n", NS)
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(call_depth() + 60)
    try:
        for t in (chain, nested):
            w = reduce(t, goal, NS)
            assert enumerate_reductions(t, goal, NS) == [w]
        many = enumerate_reductions(coordination, goal, NS, limit=1024)
        (selection, search), = type_selections(alternatives, parse_type("s", ja.table), ja.table)
    finally:
        sys.setrecursionlimit(saved)
    assert search.reduces() and len(selection) == len(words)
    assert len(many) == 1024 and reduce(coordination, goal, NS) in many


def test_determinism_and_ordering():
    t = parse_type("n n^l n n^r n n^l n", NS)
    ws1 = enumerate_reductions(t, parse_type("n", NS), NS)
    ws2 = enumerate_reductions(t, parse_type("n", NS), NS)
    assert ws1 == ws2
    assert ws1 == sorted(ws1)


# ---- witness structural invariants -----------------------------------------

random_parts = st.lists(
    st.builds(SimpleType, st.sampled_from("abcd"), st.integers(-1, 1)),
    max_size=8,
)


def assert_in_left_end_order(w):
    # the one witness form: link tuples with i < j, in strictly increasing
    # order of left end, and the residue in increasing order
    assert type(w.links) is tuple and type(w.residue) is tuple
    assert all(i < j for i, j in w.links)
    assert all(a[0] < b[0] for a, b in zip(w.links, w.links[1:]))
    assert all(a < b for a, b in zip(w.residue, w.residue[1:]))


@settings(max_examples=300, deadline=None)
@given(random_parts)
def test_dp_matches_brute_force(parts):
    t = CompoundType(tuple(parts))
    goal = CompoundType((SimpleType("b"),))
    fast = enumerate_reductions(t, goal, TABLE)
    assert fast == oracle_reduce(t, goal, TABLE)
    for w in fast:
        assert_in_left_end_order(w)
    # tuples compare in order, so reduce's witness has the same form
    first = reduce(t, goal, TABLE)
    assert (first in fast) if fast else (first is None)


@settings(max_examples=200, deadline=None)
@given(random_parts)
def test_witnesses_are_planar_and_well_nested(parts):
    t = CompoundType(tuple(parts))
    goal = CompoundType((SimpleType("b"),))
    for w in enumerate_reductions(t, goal, TABLE):
        w.partners(len(t.parts))  # raises WitnessError unless planar, well-nested and covering


# the walk the branch-record walk replaced, kept as the reference for
# search order: a stack entry for every way of every state it passes

def reference_ways(search, u, v):
    parts, dst, spans, tail = search.parts, search.dst, search.spans, search.tail

    def left(*states):
        return tuple(s for s in states if s[0] != s[1])

    x, d = parts[u], dst[u]
    ys = search.table.partners[x]
    if v > tail and parts[v - 1] in ys and spans[d] >> v - 1 & 1:
        yield (u, -1), left((d, v - 1))
    ends = spans[d] & (1 << tail) - 1
    while ends:
        k = (ends & -ends).bit_length() - 1
        ends &= ends - 1
        if parts[k] in ys and spans[dst[k]] >> v & 1:
            yield (u, k), left((d, k), (dst[k], v))


def reference_witnesses(search, limit):
    """The first ``limit`` witnesses of a flat search, in search order."""
    if not search.reduces():
        return []
    found, listed = [], {}
    links, residue = [], []
    todo = [(0, 0, None, ((0, search.end), None) if search.end else None)]
    while todo:
        kept, held, move, left = todo.pop()
        del links[kept:], residue[held:]
        if move is not None and move[1] < 0:
            residue.append(move[0])
        elif move is not None:
            links.append(move)
        if left is None:
            found.append(ReductionWitness(tuple(links), tuple(residue)))
            if len(found) == limit:
                break
            continue
        state, left = left
        if state not in listed:
            listed[state] = list(itertools.islice(reference_ways(search, *state), limit))
        kept, held = len(links), len(residue)
        for move, states in reversed(listed[state]):
            rest = left
            for s in reversed(states):
                rest = (s, rest)
            todo.append((kept, held, move, rest))
    return found


ORDER_GOALS = [parse_type(g, TABLE) for g in ("", "b", "b b^l", "a^l b")]
SIMPLE = st.builds(SimpleType, st.sampled_from("ab"), st.integers(-1, 1))


@st.composite
def flat_inputs(draw):
    """A goal and a flat input over TABLE: the goal's parts or random simple
    types, with strings that reduce to the unit inserted, so that many
    inputs reduce and some in many ways.  Each such string is x then a
    partner y of x, or a coordination x x^l x (x^r x x^l x)^k then y, whose
    x^l and x^r take the conjuncts in Catalan(k + 1) ways."""
    goal = draw(st.sampled_from(ORDER_GOALS))
    parts = list(draw(st.one_of(st.just(goal.parts), st.lists(SIMPLE, max_size=6))))
    for _ in range(draw(st.integers(0, 3))):
        x = draw(SIMPLE)
        y = draw(st.sampled_from(sorted(TABLE.partners[x], key=repr)))
        conjuncts = [x.left, x] + [x.right, x, x.left, x] * draw(st.integers(0, 2))
        unit = [x] + conjuncts * draw(st.booleans()) + [y]
        at = draw(st.integers(0, len(parts)))
        parts[at:at] = unit
    return CompoundType(tuple(parts)), goal


@settings(max_examples=200, deadline=None)
@given(flat_inputs())
def test_every_limit_keeps_the_reference_search_order(drawn):
    t, goal = drawn
    search = SpanSearch([(t,)], goal, TABLE)
    count = len(reference_witnesses(search, 10**9))
    for k in range(1, count + 2):
        assert enumerate_reductions(t, goal, TABLE, limit=k) == sorted(
            reference_witnesses(search, k))
    first = reference_witnesses(search, 1)
    assert reduce(t, goal, TABLE) == (first[0] if first else None)


# the predicates the scan replaced, kept as its reference

def covers(w, n):
    touched = sorted([i for link in w.links for i in link] + list(w.residue))
    return touched == list(range(n))


def is_planar(w):
    links = sorted(w.links)
    for a, (i, j) in enumerate(links):
        for i2, j2 in links[a + 1 :]:
            if i < i2 < j < j2:
                return False
    return True


def is_well_nested(w):
    # every interior position of a link must itself be linked inside it
    for i, j in w.links:
        for k in range(i + 1, j):
            partners = [l for l in w.links if k in l]
            if not partners:
                return False
            (a, b), = partners
            if not (i < a and b < j) and (a, b) != (i, j):
                return False
    return True


@st.composite
def drawn_witnesses(draw):
    """A witness over n <= 10 positions: some positions paired off into
    links in random order, so that links may cross or nest and residue may
    lie under a link, the rest residue; then perhaps edited: a residue
    position linked to any position, a link dropped and residue added, so
    that links share ends or leave range and positions are missing or
    touched twice."""
    n = draw(st.integers(0, 10))
    order = draw(st.permutations(range(n)))
    k = draw(st.integers(0, n // 2))
    links = [tuple(sorted(order[2 * i : 2 * i + 2])) for i in range(k)]
    residue = order[2 * k :]
    if draw(st.booleans()):
        position = st.integers(-1, n)
        if residue:
            links.append(tuple(sorted((residue.pop(), draw(position)))))
        links = links[draw(st.integers(0, 1)) :]
        residue += draw(st.lists(position, max_size=2))
    return n, ReductionWitness(frozenset(links), tuple(residue))


@settings(max_examples=500, deadline=None)
@given(drawn_witnesses())
def test_scan_accepts_exactly_what_the_old_predicates_accept(drawn):
    n, w = drawn
    expected = covers(w, n) and is_planar(w) and is_well_nested(w)
    try:
        partner = w.partners(n)
    except WitnessError:
        assert not expected
    else:
        assert expected
        assert all(partner[i] == j and partner[j] == i for i, j in w.links)
        assert all(partner[r] == -1 for r in w.residue)


def test_a_witness_proves_no_target_of_another_length():
    # n <= n holds, so only the residue count tells n from n n
    table = AtomTable({"n"})
    n, nn = parse_type("n", table), parse_type("n n", table)
    assert ReductionWitness((), (0,)).proves(n, n, table)
    assert not ReductionWitness((), (0,)).proves(n, nn, table)


def test_oracle_size_guard():
    t = CompoundType(tuple(SimpleType("a") for _ in range(13)))
    with pytest.raises(OracleSizeError):
        oracle_reduce(t, CompoundType(), TABLE)


# ---- rendering --------------------------------------------------------------

def test_render_text_diagram():
    t = parse_type("n n^r s n^l n", NS)
    w = reduce(t, parse_type("s", NS), NS)
    assert render_diagram(t, w) == "n n^r s n^l n\n|__|  |  |__|\n      |"


def test_render_text_of_the_empty_type_is_empty():
    assert render_diagram(CompoundType(), ReductionWitness((), ())) == ""


def test_render_rejects_an_unknown_format():
    t = parse_type("n n^r s", NS)
    w = reduce(t, parse_type("s", NS), NS)
    with pytest.raises(ValueError, match=r"^unknown format 'svg'$"):
        render_diagram(t, w, format="svg")


def test_render_text_nested_links():
    t = parse_type("n n^l n n^r n n^l n", NS)
    ws = enumerate_reductions(t, parse_type("n", NS), NS)
    out = render_diagram(t, ws[0])
    assert out.splitlines()[0] == "n n^l n n^r n n^l n"
    assert out.count("\n") >= 2  # nested links need a second row


@pytest.mark.parametrize("links, residue", [
    ({(1, 0), (2, 3)}, ()),  # a link's ends out of order
    ({(0, 2), (1, 3)}, ()),  # crossing links
    ({(0, 3)}, (1, 2)),  # residue under a link
])
def test_render_rejects_witnesses_that_are_not_planar_reductions(links, residue):
    t = parse_type("n n^r n n^r", NS)
    for format in ("text", "dot"):
        with pytest.raises(WitnessError):
            render_diagram(t, ReductionWitness(frozenset(links), residue), format=format)


def grid_render_text(t, w):
    """The text renderer as it was before rows were joined from their
    pieces: every bracket row a list of characters as wide as the type row."""
    tokens = [p.render() for p in t.parts]
    cols, offset = [], 0
    for tok in tokens:
        cols.append(offset + (len(tok) - 1) // 2)
        offset += len(tok) + 1
    partner = w.partners(len(cols))
    rows, inner = {}, [-1]
    for p, q in enumerate(partner):
        if q > p:
            inner.append(-1)
        elif q >= 0:
            r = inner.pop() + 1
            inner[-1] = max(inner[-1], r)
            rows.setdefault(r, []).append((q, p))
    if w.residue:
        rows[len(rows)] = []
    lines = [" ".join(tokens)]
    for r in range(len(rows)):
        line = [" "] * (offset - 1)
        for i, j in rows[r]:
            line[cols[i]] = "|"
            line[cols[j]] = "|"
            for c in range(cols[i] + 1, cols[j]):
                line[c] = "_"
        for i in w.residue:
            line[cols[i]] = "|"
        lines.append("".join(line).rstrip())
    return "\n".join(lines)


@st.composite
def planar_witnesses(draw):
    """A planar reduction's witness over n <= 12 positions: each position
    opens a link, closes the innermost open one, or is residue where no
    link is open; links left open at the end are residue too."""
    n = draw(st.integers(0, 12))
    links, residue, open_ = [], [], []
    for p in range(n):
        move = draw(st.sampled_from(("open", "close", "residue")))
        if move == "close" and open_:
            links.append((open_.pop(), p))
        elif move == "residue" and not open_:
            residue.append(p)
        else:
            open_.append(p)
    return n, ReductionWitness(tuple(sorted(links)), tuple(sorted(residue + open_)))


RENDERED = st.builds(SimpleType, st.sampled_from(("n", "s", "np", "obj")), st.integers(-3, 3),
                     st.booleans())


@settings(max_examples=500, deadline=None)
@given(st.one_of(planar_witnesses(), drawn_witnesses()), st.data())
def test_render_text_is_byte_identical_to_the_character_grid(drawn, data):
    n, w = drawn
    t = CompoundType(tuple(data.draw(st.lists(RENDERED, min_size=n, max_size=n))))
    try:
        want = grid_render_text(t, w)
    except WitnessError as exc:
        with pytest.raises(WitnessError, match=f"^{re.escape(str(exc))}$"):
            render_diagram(t, w)
    else:
        assert render_diagram(t, w) == want


def test_render_text_of_deep_nesting_is_fast():
    # 22 nested links: one row each, found in one pass, not per inner link
    table = AtomTable({"a", "s"})
    t = parse_type("a " * 22 + "a^r " * 22 + "s", table)
    w = reduce(t, parse_type("s", table), table)
    start = time.perf_counter()
    out = render_diagram(t, w)
    assert time.perf_counter() - start < 0.5
    assert len(out.splitlines()) == 1 + 22 + 1  # types, a row per link, residue


def test_render_dot_of_deep_nesting():
    k = 1500
    t = CompoundType((SimpleType("a"),) * k + (SimpleType("a", 1),) * k)
    w = ReductionWitness(frozenset((i, 2 * k - 1 - i) for i in range(k)), ())
    start = time.perf_counter()
    dot = render_diagram(t, w, format="dot")
    assert time.perf_counter() - start < 0.5
    assert dot.count(" -- t") == k


def test_render_dot_deterministic():
    t = parse_type("n n^r s n^l n", NS)
    w = reduce(t, parse_type("s", NS), NS)
    dot = render_diagram(t, w, format="dot")
    assert dot == render_diagram(t, w, format="dot")
    assert 't0 -- t1;' in dot and 't3 -- t4;' in dot and 't2 -- out [style=dashed];' in dot
    assert dot.startswith("graph reduction {") and dot.rstrip().endswith("}")


# ---- type selections over word type alternatives -----------------------------

# beta tags, iterated adjoints and goals with either, over two order
# classes ({a, b} and {c}), so that a count code that splits an order
# class or drops the sign at odd exponents prunes a selection that reduces
alternative = st.lists(
    st.builds(SimpleType, st.sampled_from("abc"), st.integers(-2, 2), st.booleans()), max_size=3
).map(lambda parts: CompoundType(tuple(parts)))
lattices = st.lists(st.lists(alternative, min_size=0, max_size=3, unique=True), max_size=4)
goals = st.sampled_from([
    CompoundType(),
    CompoundType((SimpleType("b"),)),
    CompoundType((SimpleType("b", 0, True),)),
    CompoundType((SimpleType("a", -1), SimpleType("b", 0, True))),
    CompoundType((SimpleType("b"), SimpleType("b", -1))),  # its adjoint b b^r contracts
])


@settings(max_examples=200, deadline=None)
@given(lattices, goals)
def test_type_selections_match_product_loop(alternatives, goal):
    got = [
        (selection, search.witnesses())
        for selection, search in type_selections(alternatives, goal, TABLE)
    ]
    assert got == oracle_selections(alternatives, goal, TABLE)
    for _, witnesses in got:
        for w in witnesses:
            assert_in_left_end_order(w)


@settings(max_examples=300, deadline=None)
@given(lattices, goals)
def test_lattice_search_decides_like_the_product_loop(alternatives, goal):
    # the search over every token's alternatives at once, not only the
    # flat search of a selection, is checked against the oracle
    found = SpanSearch(alternatives, goal, TABLE).reduces()
    assert found == bool(oracle_selections(alternatives, goal, TABLE))


# ---- the layout: a token with one type in one step -----------------------------

class PerPositionSearch(SpanSearch):
    """The search with the layout that placed every position on its own, and
    the fill that took each partner bit in two steps and looked up empty
    edges at every node, kept as the reference."""

    def _layout(self, tokens):
        parts, dst, eps = [], [], {}
        for strings in tokens:
            start = len(parts)
            end = start + sum(map(len, strings))
            for s in strings:
                w = len(parts) if s else end
                if w != start:
                    eps.setdefault(start, {})[w] = None
                for j, x in enumerate(s):
                    parts.append(x)
                    dst.append(end if j == len(s) - 1 else len(parts))
        self.parts, self.dst, self.eps, self.end = parts, dst, eps, len(parts)

    def _fill(self):
        n, tail, parts, dst = self.end, self.tail, self.parts, self.dst
        eps, partners = self.eps, self.table.partners
        where = {}
        spans = self.spans = [0] * n + [1 << n]
        for u in range(n - 1, -1, -1):
            x = parts[u]
            span = 1 << u
            if u < tail:
                ends = 0
                for y in partners[x]:
                    ends |= where.get(y, 0)
                ends &= spans[dst[u]]
                while ends:
                    k = (ends & -ends).bit_length() - 1
                    ends &= ends - 1
                    span |= spans[dst[k]]
                for w in eps.get(u, ()):
                    span |= spans[w]
            spans[u] = span
            where[x] = where.get(x, 0) | 1 << u


@st.composite
def mixed_tokens(draw):
    """A goal and tokens over TABLE: a flat input cut into tokens of one type
    each (an empty piece is an @0 token, one empty type), with @0 tokens,
    tokens without a type and tokens with two types put in."""
    t, goal = draw(flat_inputs())
    parts = t.parts
    bounds = [0, *sorted(draw(st.lists(st.integers(0, len(parts)), max_size=4))), len(parts)]
    tokens = [[CompoundType(parts[a:b])] for a, b in zip(bounds, bounds[1:])]
    others = st.one_of(st.sampled_from([[CompoundType()], []]),
                       st.lists(alternative, min_size=2, max_size=2, unique=True))
    for _ in range(draw(st.integers(0, 3))):
        tokens.insert(draw(st.integers(0, len(tokens))), draw(others))
    return tokens, goal


@settings(max_examples=300, deadline=None)
@given(mixed_tokens())
def test_one_step_layout_matches_the_per_position_layout(drawn):
    tokens, goal = drawn
    got, want = SpanSearch(tokens, goal, TABLE), PerPositionSearch(tokens, goal, TABLE)
    assert (got.parts, list(got.dst), got.eps, got.tail, got.end, got.spans) == (
        want.parts, list(want.dst), want.eps, want.tail, want.end, want.spans)
    for limit in (1, 2, 20000):
        if want.eps:
            with pytest.raises(ValueError):
                got.witnesses(limit)
        else:
            assert got.witnesses(limit) == want.witnesses(limit) == sorted(
                reference_witnesses(want, limit))


# ---- the count check -----------------------------------------------------------

@pytest.fixture
def searches(monkeypatch):
    """The token lists of every SpanSearch that type_selections builds."""
    built = []

    class Counted(SpanSearch):
        def __init__(self, alternatives, target, table):
            built.append(alternatives)
            super().__init__(alternatives, target, table)

    monkeypatch.setattr(reduction, "SpanSearch", Counted)
    return built


def selections(lex, sentence, target="s"):
    alternatives = [lex.types_of(word) for word in sentence.split()]
    return list(type_selections(alternatives, parse_type(target, lex.table), lex.table))


UNBALANCED = [
    ("en", "pigeons eat bread and bread and bread eat"),  # a final n^l: n sums to -1
    ("ja", "neko ni tuita ga neko ni tuita ga hon wo kaita ga"),  # ends in ga
    ("ja", "neko ga wo taberu"),  # o2 sums to -1
]


@pytest.mark.parametrize("lex, sentence", UNBALANCED)
def test_sentence_whose_count_cannot_balance_builds_no_search(searches, lex, sentence):
    assert selections(load_lexicon(data.lexicon_path(lex)), sentence) == []
    assert searches == []


def test_count_keeps_beta_tags_apart(searches):
    # in b(n) n^r s the n class sums to 0 over both tags, but to 1 and -1 per tag
    alternatives = [[parse_type("b(n)", NS), parse_type("s n^l", NS)], [parse_type("n^r s", NS)]]
    assert list(type_selections(alternatives, parse_type("s", NS), NS)) == []
    assert searches == []


def test_count_preserving_sentence_that_does_not_reduce_is_searched(searches):
    # swapped words keep the count, so only a search refuses them
    en = load_lexicon(data.lexicon_path("en"))
    assert selections(en, "eat pigeons bread") == []
    assert len(searches) == 1


def test_mixed_ambiguity_stress_sentence_is_refused_quickly():
    # 80 tokens with two or three types: unbounded, the sets of codes the
    # later tokens can add grow to 194481 entries
    ja = load_lexicon(data.lexicon_path("ja"))
    start = time.perf_counter()
    assert selections(ja, "neko ga neko no neko ni untensita " * 20) == []
    assert time.perf_counter() - start < 1.0


# ---- parse_sentence: witnesses across selections, up to a limit --------------

def lattice_lexicon(alternatives):
    """A stand-in lexicon whose token i has the types ``alternatives[i]``."""
    return SimpleNamespace(types_of=alternatives.__getitem__, table=TABLE)


unit_pairs = SIMPLE.flatmap(
    lambda x: st.sampled_from(sorted(TABLE.partners[x], key=repr)).map(lambda y: (x, y)))


@st.composite
def ambiguous_lattices(draw):
    """Tokens and a goal: the first alternatives spell the goal's parts with
    up to two pairs x y (y a partner of x) put in, so they reduce, and
    twice a token drawn takes one more alternative: its first with a pair
    x y appended, which reduces too, or a random one.  A lattice of the
    ``lattices`` strategy seldom has two selections that reduce; here most
    do.  A selection has at most 12 simple types, the oracle's limit."""
    goal = draw(goals)
    parts = list(goal.parts)
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(parts)))
        parts[at:at] = draw(unit_pairs)
    bounds = [0, *sorted(draw(st.lists(st.integers(0, len(parts)), max_size=3))), len(parts)]
    tokens = [[CompoundType(tuple(parts[a:b]))] for a, b in zip(bounds, bounds[1:])]
    for _ in range(2):
        alts = draw(st.sampled_from(tokens))
        longer = unit_pairs.map(lambda pair: CompoundType(alts[0].parts + pair))
        other = draw(st.one_of(longer, alternative))
        if other not in alts:
            alts.append(other)
    return tokens, goal


sentences = st.one_of(st.tuples(lattices, goals), ambiguous_lattices())
# old cats and cats over c: two selections reduce, with 2 and 3 witnesses
OLD_CATS = ([[parse_type("c c^l", TABLE), parse_type("c c^l c c^r", TABLE)],
             [parse_type("c", TABLE)], [parse_type("c^r c c^l", TABLE)], [parse_type("c", TABLE)]],
            parse_type("c", TABLE))


@settings(max_examples=200, deadline=None)
@given(sentences)
@example(OLD_CATS)
def test_parse_sentence_without_a_binding_limit_is_the_oracle(drawn):
    alternatives, goal = drawn
    want = oracle_selections(alternatives, goal, TABLE)
    total = sum(len(witnesses) for _, witnesses in want)
    tokens = range(len(alternatives))
    assert parse_sentence(lattice_lexicon(alternatives), tokens, goal, total + 1) == want


@settings(max_examples=200, deadline=None)
@given(sentences)
@example(OLD_CATS)
def test_parse_sentence_spends_the_limit_across_selections(drawn):
    alternatives, goal = drawn
    want = oracle_selections(alternatives, goal, TABLE)
    lexicon, tokens = lattice_lexicon(alternatives), range(len(alternatives))
    for limit in (1, 2, 3, 5):
        got = parse_sentence(lexicon, tokens, goal, limit)
        assert [s for s, _ in got] == [s for s, _ in want[:len(got)]]
        budget = limit
        for (_, witnesses), (_, every) in zip(got, want):
            assert len(witnesses) == min(budget, len(every))
            assert set(witnesses) <= set(every)
            budget -= len(witnesses)
        # each record holds a witness, so none is taken once the budget is spent
        assert all(witnesses for _, witnesses in got)
        assert budget == 0 or len(got) == len(want)


@pytest.mark.parametrize("lex, sentence", UNBALANCED)
def test_parse_sentence_whose_count_cannot_balance_builds_no_search(searches, lex, sentence):
    lexicon = load_lexicon(data.lexicon_path(lex))
    assert parse_sentence(lexicon, sentence.split(), parse_type("s", lexicon.table)) == []
    assert searches == []


def test_parse_sentence_raises_on_an_unknown_word_before_any_search(searches):
    ja = load_lexicon(data.lexicon_path("ja"))
    with pytest.raises(UnknownWordError):
        parse_sentence(ja, "neko ga xyzzy".split(), parse_type("s", ja.table))
    assert searches == []


@pytest.mark.parametrize("sentence", ["neko ga sakana wo taberu", "neko neko", "neko ga xyzzy"])
@pytest.mark.parametrize("limit", [0, -1])
def test_parse_sentence_checks_the_limit_before_any_lookup(searches, sentence, limit):
    # one sentence reduces, one does not, one has an unknown word: each raises
    ja = load_lexicon(data.lexicon_path("ja"))
    with pytest.raises(ValueError, match=r"^limit must be >= 1$"):
        parse_sentence(ja, sentence.split(), parse_type("s", ja.table), limit)
    assert searches == [] and ja._types == {}
