"""Type algebra: adjoints, ordering, contraction, parsing."""

import doctest
import re
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

import pregtrans.core
from pregtrans import data
from pregtrans.core import (
    AtomTable,
    BracedType,
    CompoundType,
    CyclicOrderError,
    PregroupError,
    SimpleType,
    TypeParseError,
    UnknownAtomError,
    contracts,
    left_adjoint,
    parse_type,
    render_type,
    right_adjoint,
    simple_leq,
    simple_texts,
)
from pregtrans.lexicon import load_lexicon

TABLE = AtomTable({"n", "s", "s1", "sbar", "pi"}, [("s1", "s"), ("sbar", "s"), ("n", "pi")])


def T(text, table=TABLE):
    return parse_type(text, table)


# ---- strategies ----------------------------------------------------------

atoms = st.sampled_from(["n", "s", "s1", "sbar", "pi"])
simples = st.builds(SimpleType, atoms, st.integers(-3, 3), st.booleans())
compounds = st.builds(lambda ps: CompoundType(tuple(ps)), st.lists(simples, max_size=8))


# ---- atom table ----------------------------------------------------------

def test_atom_order_reflexive_transitive():
    assert TABLE.leq("s1", "s1")
    assert TABLE.leq("s1", "s")
    assert TABLE.leq("n", "pi")
    assert not TABLE.leq("s", "s1")
    assert not TABLE.leq("n", "s")


def test_cyclic_order_rejected():
    with pytest.raises(CyclicOrderError):
        AtomTable({"a", "b"}, [("a", "b"), ("b", "a")])


def test_unknown_atom_rejected():
    with pytest.raises(UnknownAtomError):
        AtomTable({"a"}, [("a", "b")])
    with pytest.raises(TypeParseError):
        parse_type("q", TABLE)


def test_count_digits_follow_order_classes_tags_and_parity():
    digit = TABLE.counts
    assert digit[SimpleType("s1")] == digit[SimpleType("sbar", 2)] == digit[SimpleType("s")]
    assert digit[SimpleType("n", 1)] == digit[SimpleType("pi", -1)] == -digit[SimpleType("pi")]
    assert len({digit[SimpleType(a, 0, beta)] for a in ("n", "s") for beta in (False, True)}) == 4
    code = digit[SimpleType("s")] - digit[SimpleType("n", 0, True)]
    assert TABLE.counts[T("n pi^r s b(n)^l").parts] == code and TABLE.counts[()] == 0
    with pytest.raises(UnknownAtomError):
        TABLE.counts[SimpleType("q")]


@given(compounds, compounds)
def test_contraction_keeps_the_count(prefix, suffix):
    for x in prefix.parts[-1:]:
        for y in TABLE.partners[x]:
            assert TABLE.counts[(prefix + CompoundType((y,)) + suffix).parts] == TABLE.counts[
                (prefix[:-1] + suffix).parts]


# ---- adjoints ------------------------------------------------------------

def test_left_adjoint_example():
    # (o2^r o1^r s)^l = s^l o1 o2  [exponents decrement, order reverses]
    src = parse_type("o2^r o1^r s", AtomTable({"o1", "o2", "s"}))
    out = left_adjoint(src)
    assert render_type(out) == "s^l o1 o2"


def test_right_adjoint_example():
    # (n^l s)^r = s^r n  [exponents increment, order reverses]
    assert render_type(right_adjoint(T("n^l s"))) == "s^r n"


def test_right_adjoint_of_verb_type():
    # (o2^r o1^r s)^r reverses and increments every exponent
    src = parse_type("o2^r o1^r s", AtomTable({"o1", "o2", "s"}))
    out = right_adjoint(src)
    assert [(p.atom, p.exponent) for p in out.parts] == [("s", 1), ("o1", 2), ("o2", 2)]


def test_adjoints_preserve_beta():
    t = T("b(n)^l b(n)")
    assert all(p.beta for p in left_adjoint(t).parts)
    assert all(p.beta for p in right_adjoint(t).parts)


@given(compounds)
def test_adjoint_involution(t):
    assert right_adjoint(left_adjoint(t)) == t
    assert left_adjoint(right_adjoint(t)) == t


@given(compounds, compounds)
def test_adjoint_anti_distribution(t, u):
    assert left_adjoint(t + u) == left_adjoint(u) + left_adjoint(t)
    assert right_adjoint(t + u) == right_adjoint(u) + right_adjoint(t)


def test_adjoint_unit():
    assert left_adjoint(CompoundType()) == CompoundType()
    assert right_adjoint(CompoundType()) == CompoundType()


# ---- ordering and contraction --------------------------------------------

def test_simple_leq_parity_flip():
    a, b = SimpleType("s1"), SimpleType("s")
    assert simple_leq(a, b, TABLE)
    assert not simple_leq(b, a, TABLE)
    # at odd exponent the atom order flips
    ar, br = SimpleType("s1", 1), SimpleType("s", 1)
    assert simple_leq(br, ar, TABLE)
    assert not simple_leq(ar, br, TABLE)


def test_simple_leq_requires_matching_exponent_and_beta():
    assert not simple_leq(SimpleType("n"), SimpleType("n", 1), TABLE)
    assert not simple_leq(SimpleType("n"), SimpleType("n", beta=True), TABLE)


def test_simple_leq_follows_the_atom_order():
    # from first principles, not from the contraction partners it is read off:
    # same exponent and tag, the atom order at even exponents, reversed at odd
    simple = [SimpleType(a, z, beta) for a in sorted(TABLE.atoms) for z in range(-3, 4)
              for beta in (False, True)]
    for x in simple:
        for y in simple:
            lesser, greater = (x, y) if x.exponent % 2 == 0 else (y, x)
            expected = (x.exponent == y.exponent and x.beta == y.beta
                        and TABLE.leq(lesser.atom, greater.atom))
            assert simple_leq(x, y, TABLE) == expected, (x, y)


def test_contracts_basic():
    assert contracts(SimpleType("n"), SimpleType("n", 1), TABLE)       # n n^r
    assert contracts(SimpleType("n", -1), SimpleType("n"), TABLE)      # n^l n
    assert not contracts(SimpleType("n", 1), SimpleType("n"), TABLE)   # n^r n
    assert not contracts(SimpleType("n"), SimpleType("s", 1), TABLE)


def test_contracts_with_order():
    # s1 s^r contracts because s1 <= s (even-exponent side)
    assert contracts(SimpleType("s1"), SimpleType("s", 1), TABLE)
    assert not contracts(SimpleType("s"), SimpleType("s1", 1), TABLE)
    # s^l s1 contracts because odd side flips the direction
    assert contracts(SimpleType("s", -1), SimpleType("s1"), TABLE)


def test_contracts_beta_must_match():
    assert contracts(SimpleType("n", -1, True), SimpleType("n", 0, True), TABLE)
    assert not contracts(SimpleType("n", -1, True), SimpleType("n"), TABLE)
    assert not contracts(SimpleType("n", -1), SimpleType("n", 0, True), TABLE)


@given(simples)
def test_contraction_laws(p):
    assert contracts(p, p.right, TABLE)
    assert contracts(p.left, p, TABLE)


# ---- parsing and rendering ------------------------------------------------

def test_parse_simple_forms():
    t = T("b(n)^l s^r^r pi")
    assert t.parts[0] == SimpleType("n", -1, True)
    assert t.parts[1] == SimpleType("s", 2)
    assert t.parts[2] == SimpleType("pi")


def test_parse_braced():
    b = T("< n n^r s > < s^l n >")
    assert isinstance(b, BracedType)
    assert len(b.segments) == 2
    assert render_type(b) == "< n n^r s > < s^l n >"
    assert render_type(b.flatten()) == "n n^r s s^l n"


def test_parse_errors():
    for bad in ["< n", "n >", "< n < s > >", "n^x", "b(n", "< >"]:
        with pytest.raises(TypeParseError):
            parse_type(bad, TABLE)


@pytest.mark.parametrize("text, position", [("n < n >", 2), ("< n > n", 6)])
def test_parse_refuses_material_outside_brace_segments(text, position):
    with pytest.raises(TypeParseError, match="material outside brace segments") as caught:
        parse_type(text, TABLE)
    assert caught.value.position == position


@given(compounds)
def test_render_parse_roundtrip(t):
    assert parse_type(render_type(t), TABLE) == t


def test_render_iterated_adjoints():
    assert SimpleType("n", -2).render() == "n^l^l"
    assert SimpleType("n", 2, True).render() == "b(n)^r^r"


# ---- the simple type texts, made once each ---------------------------------

def _reference_render(t):
    # render_type as it was before each simple type's text was kept
    if isinstance(t, BracedType):
        return " ".join(f"< {_reference_render(seg)} >".replace("<  >", "< >")
                        for seg in t.segments)
    return " ".join(p.render() for p in t.parts)


LEXICONS = sorted(p.stem for p in data.data_path("lexicons").glob("*.json"))


def test_kept_text_is_the_rendered_text_of_every_simple_type():
    atoms = set(TABLE.atoms).union(*(load_lexicon(data.lexicon_path(name)).table.atoms
                                     for name in LEXICONS))
    for atom in sorted(atoms):
        for z in range(-3, 4):
            for beta in (False, True):
                x = SimpleType(atom, z, beta)
                assert simple_texts[x] == x.render()
                assert simple_texts[x] is simple_texts[x]  # made once, then looked up
                assert render_type(CompoundType((x, x))) == f"{x.render()} {x.render()}"


@given(st.lists(compounds, min_size=1, max_size=4).map(lambda segs: BracedType(tuple(segs))))
@example(BracedType((CompoundType(),)))
@example(BracedType((CompoundType(), CompoundType((SimpleType("n", -1),)), CompoundType())))
def test_braced_types_with_empty_segments_render_as_before(t):
    assert render_type(t) == t.render() == _reference_render(t)
    assert render_type(t.flatten()) == _reference_render(t.flatten())


@pytest.mark.parametrize("name", LEXICONS)
def test_alternatives_keep_their_rendered_order_on_every_bundled_lexicon(name):
    lex = load_lexicon(data.lexicon_path(name))
    words = [*lex._tokens, *(["@0"] if lex.empty_words else [])]
    assert words
    for word in words:
        assert lex.types_of(word) == tuple(sorted(lex.types_of(word), key=_reference_render))


# ---- the parser against the scanner it replaced ---------------------------

_REFERENCE_TOKEN = re.compile(r"<|>|[^\s<>]+")
_REFERENCE_SIMPLE = re.compile(r"(b\()?([^\s^()<>]+)(\))?((?:\^[lr])*)\Z")


def _reference_simple(token, table, pos):
    m = _REFERENCE_SIMPLE.match(token)
    if m is None:
        raise TypeParseError(f"malformed token {token!r}", pos)
    opened, name, closed, suffix = m.groups()
    if bool(opened) != bool(closed):
        raise TypeParseError(f"unbalanced 'b(' in token {token!r}", pos)
    if name not in table:
        raise TypeParseError(f"unknown atom {name!r}", pos)
    exponent = suffix.count("^r") - suffix.count("^l")
    return SimpleType(name, exponent, beta=bool(opened))


def reference_parse_type(text, table):
    """``parse_type`` as it was before tokens were kept per table: one
    scan, every token parsed where it stands."""
    segments, current = [], []
    in_brace = braced = False
    for m in _REFERENCE_TOKEN.finditer(text):
        token, pos = m.group(), m.start()
        if token == "<":
            if in_brace:
                raise TypeParseError("brace segments may not nest", pos)
            if current:
                raise TypeParseError("material outside brace segments", pos)
            in_brace = braced = True
        elif token == ">":
            if not in_brace:
                raise TypeParseError("unmatched '>'", pos)
            if not current:
                raise TypeParseError("empty brace segment", pos)
            segments.append(CompoundType(tuple(current)))
            current, in_brace = [], False
        else:
            if braced and not in_brace:
                raise TypeParseError("material outside brace segments", pos)
            current.append(_reference_simple(token, table, pos))
    if in_brace:
        raise TypeParseError("unclosed '<'", len(text))
    return BracedType(tuple(segments)) if braced else CompoundType(tuple(current))


def _outcome(parse, text, table):
    try:
        return parse(text, table)
    except PregroupError as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


# known and unknown atoms, adjoint suffixes, beta tags, braces, whitespace
# (some of it beyond ASCII) and junk
PIECES = ["n", "s", "s1", "pi", "q", "ns", "b(", ")", "^l", "^r", "^", "^x", "(", "b", "<", ">",
          " ", " ", "  ", "\t", "\n", "\u00a0", "\u3000", "\u200b", "é"]
TYPE_TEXTS = st.lists(st.sampled_from(PIECES), max_size=12).map("".join)


@settings(max_examples=400)
@given(TYPE_TEXTS, TYPE_TEXTS)
def test_parse_type_agrees_with_the_reference_scanner(first, text):
    # a fresh table, one that has parsed another text first, and TABLE,
    # which keeps the tokens of every example before this one
    fresh, primed = AtomTable(TABLE.atoms, TABLE.order_pairs), AtomTable(TABLE.atoms)
    _outcome(parse_type, first, primed)
    for table in (fresh, primed, TABLE):
        for _ in range(2):  # a second parse finds the tokens kept
            assert _outcome(parse_type, text, table) == _outcome(reference_parse_type, text, table)


def test_tokens_are_kept_per_table():
    a, b = AtomTable({"n", "q"}), AtomTable({"n"})
    assert parse_type("q^r n", a) == CompoundType((SimpleType("q", 1), SimpleType("n")))
    assert set(a.tokens) == {"q^r", "n"}
    with pytest.raises(TypeParseError, match=r"unknown atom 'q' \(at position 2\)"):
        parse_type("n q^r", b)
    assert set(b.tokens) == {"n"}  # a token that fails does not go in
    with pytest.raises(TypeParseError, match="malformed token"):
        parse_type("n^x", a)
    assert set(a.tokens) == {"q^r", "n"}


def test_atom_name_pattern_matches_isspace_on_every_code_point():
    # an atom name refuses exactly the characters it did when each one
    # was tested with str.isspace
    for code in range(sys.maxunicode + 1):
        c = chr(code)
        refused = c.isspace() or c in "^()<>"
        assert (pregtrans.core._ATOM_NAME.fullmatch(c) is None) == refused, hex(code)


def _reference_classes(table):
    """Each atom's order class, numbered as the count digits number them,
    found the way they were before: a scan of every atom per atom."""
    up, shift, classes = table._up, {}, 0
    for a in sorted(up):
        if a in shift:
            continue
        todo = [a]
        while todo:
            b = todo.pop()
            if b not in shift:
                shift[b] = 128 * classes
                todo += [c for c in up if b in up[c] or c in up[b]]
        classes += 1
    return shift


@given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=10))
def test_count_classes_are_the_components_of_the_order(edges):
    atoms = [f"a{i}" for i in range(8)]
    pairs = [(atoms[i], atoms[j]) for i, j in edges if i < j]  # acyclic
    table = AtomTable(atoms, pairs)
    assert table.counts.shift == _reference_classes(table)


def test_core_doctests_pass():
    result = doctest.testmod(pregtrans.core)
    assert result.attempted > 0 and result.failed == 0
