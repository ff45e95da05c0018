"""Lexicon loading, aliases, metarule closure, round-tripping."""

import json

import pytest

from pregtrans import data as bundled
from pregtrans.core import AtomTable, parse_type, render_type
from pregtrans.lexicon import (
    LexiconError,
    Metarule,
    UnknownWordError,
    load_lexicon,
    save_lexicon,
)


@pytest.fixture(scope="module")
def ja():
    return load_lexicon(bundled.lexicon_path("ja"))


def renders(lex, word):
    return sorted(render_type(t) for t in lex.types_of(word))


# ---- loading and validation -------------------------------------------------

def test_bundled_lexicons_load():
    for name in ["ja", "ja_mini", "en", "fa", "ro"]:
        lex = load_lexicon(bundled.lexicon_path(name))
        assert lex.entries


def test_invalid_lexicon_reports_all_errors(tmp_path):
    bad = {
        "language": "xx",
        "atoms": ["a", "b"],
        "order": [["a", "q"]],
        "entries": [{"word": "w", "types": ["a z"]}],
    }
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    with pytest.raises(LexiconError) as exc:
        load_lexicon(p)
    msg = str(exc.value)
    assert "q" in msg and "z" in msg


@pytest.mark.parametrize("extra, message", [
    ({"entries": [{"word": "w", "types": ["a", "< a >"]}]}, "word 'w': brace segments"),
    ({"empty_words": ["< a >"]}, "empty word: brace segments"),
    ({"metarules": [{"kind": "atom-expansion", "atom": "a", "replacement": "< b >"}]},
     "brace segments"),
])
def test_braced_types_rejected_where_plain_types_are_meant(tmp_path, extra, message):
    lexicon = {"language": "xx", "atoms": ["a", "b"], "entries": [{"word": "v", "types": ["a"]}]}
    p = tmp_path / "braced.json"
    p.write_text(json.dumps({**lexicon, **extra}))
    with pytest.raises(LexiconError) as exc:
        load_lexicon(p)
    assert str(p) in str(exc.value) and message in str(exc.value)


@pytest.mark.parametrize("types, message", [
    (["a", "< a >"], "word 'w': brace segments are not allowed"),
    (["q", "a a^"], "word 'w' has no valid types"),
])
def test_type_errors_name_the_entry_and_field(tmp_path, types, message):
    p = tmp_path / "types.json"
    p.write_text(json.dumps({"atoms": ["a"], "entries": [{"word": "w", "types": types}]}))
    with pytest.raises(LexiconError) as exc:
        load_lexicon(p)
    assert str(p) in str(exc.value) and f"entries[0]: field 'types': {message}" in str(exc.value)


@pytest.mark.parametrize("entries, message", [
    ([{"word": "a", "types": ["a"], "aliases": ["b"]}, {"word": "b", "types": ["b"]}],
     "alias 'b' of word 'a' is another entry's word"),
    ([{"word": "c", "types": ["a"], "aliases": ["d"]},
      {"word": "e", "types": ["b"], "aliases": ["d"]}],
     "alias 'd' is claimed by 'c' and 'e'"),
])
def test_colliding_aliases_rejected(tmp_path, entries, message):
    p = tmp_path / "aliases.json"
    p.write_text(json.dumps({"language": "xx", "atoms": ["a", "b"], "entries": entries}))
    with pytest.raises(LexiconError) as exc:
        load_lexicon(p)
    assert str(p) in str(exc.value) and message in str(exc.value)


@pytest.mark.parametrize("entries, message", [
    ([{"word": "v", "types": ["a"]}, {"word": "", "types": ["a"]}],
     "entries[1]: entry with empty word"),
    ([{"word": "v", "types": ["a"]}, {"word": "w", "types": ["a"]}, {"word": "v", "types": ["b"]}],
     "entries[2]: duplicate word 'v' with conflicting entry"),
])
def test_bad_entry_names_its_index(tmp_path, entries, message):
    p = tmp_path / "entries.json"
    p.write_text(json.dumps({"language": "xx", "atoms": ["a", "b"], "entries": entries}))
    with pytest.raises(LexiconError) as exc:
        load_lexicon(p)
    assert str(p) in str(exc.value) and message in str(exc.value)


@pytest.mark.parametrize("entries, message", [
    ([{"word": "v", "types": ["a"]}, "v"], "field 'entries': expected a JSON list of objects"),
    ([{"word": 3, "types": ["a"]}], "entries[0]: field 'word': expected a JSON string"),
    ([{"types": ["a"]}], "entries[0]: missing field 'word'"),
    ([{"word": "v", "types": ["a"]}, {"word": None, "types": 1}],
     "entries[1]: field 'word': expected a JSON string"),
    ([{"word": "v", "types": "a"}], "entries[0]: field 'types': expected a JSON list of strings"),
    ([{"word": "v"}], "entries[0]: missing field 'types'"),
    ([{"word": "v", "types": ["a", 1]}],
     "entries[0]: field 'types': expected a JSON list of strings"),
    ([{"word": "v", "types": ["a"], "aliases": "w"}],
     "entries[0]: field 'aliases': expected a JSON list of strings"),
    ([{"word": "v", "types": ["a"], "aliases": ["w", True]}],
     "entries[0]: field 'aliases': expected a JSON list of strings"),
    ([{"word": "v", "types": ["a"], "aliases": None}],
     "entries[0]: field 'aliases': expected a JSON list of strings"),
    ([{"word": "v", "types": [2], "aliases": 3}],  # the fields are checked in this order
     "entries[0]: field 'types': expected a JSON list of strings"),
])
def test_entry_shape_errors_name_the_entry_and_field(tmp_path, entries, message):
    p = tmp_path / "shape.json"
    p.write_text(json.dumps({"atoms": ["a"], "entries": entries}))
    with pytest.raises(LexiconError) as exc:
        load_lexicon(p)
    assert str(exc.value) == f"{p}: {message}"


def test_entry_types_are_sorted_and_deduplicated(tmp_path):
    p = tmp_path / "sorted.json"
    p.write_text(json.dumps({"atoms": ["a", "b"], "entries": [
        {"word": "v", "types": ["b a^r", "a", "a b", "b^l", "a", "b(a)"]}]}))
    types = load_lexicon(p).entries["v"].types
    assert [render_type(t) for t in types] == ["a", "a b", "b(a)", "b^l", "b a^r"]
    assert list(types) == sorted(set(types))  # the order CompoundType compares in


def test_lexicon_file_that_is_not_utf8_names_the_file(tmp_path):
    p = tmp_path / "latin1.json"
    p.write_bytes('{"atoms": ["a"], "entries": [{"word": "caf\u00e9", "types": ["a"]}]}'
                  .encode("latin-1"))
    with pytest.raises(LexiconError) as exc:
        load_lexicon(p)
    assert str(exc.value).startswith(f"{p}: 'utf-8' codec can't decode byte 0xe9")


def test_cyclic_order_rejected(tmp_path):
    bad = {"language": "xx", "atoms": ["a", "b"], "order": [["a", "b"], ["b", "a"]], "entries": []}
    p = tmp_path / "cyc.json"
    p.write_text(json.dumps(bad))
    with pytest.raises(LexiconError):
        load_lexicon(p)


def test_unknown_word_suggests_near_matches(ja):
    with pytest.raises(UnknownWordError) as exc:
        ja.types_of("nekko")
    assert "neko" in str(exc.value)


def test_aliases_resolve(ja):
    assert renders(ja, "wo") == renders(ja, "を") == renders(ja, "o")
    assert renders(ja, "kyou") == renders(ja, "kyō")


def test_empty_word_tokens(ja):
    assert renders(ja, "@0") == renders(ja, "∅") == ["o1 s^r n n^l"]


# ---- metarule closure --------------------------------------------------------

def test_argument_swap_metarule(ja):
    assert renders(ja, "taberu") == ["o1^r o2^r s1", "o2^r o1^r s1"]


def test_atom_expansion_metarule(ja):
    assert renders(ja, "no") == ["pi^r n n^l", "pi^r o4"]


def test_closure_no_swap_without_sentence_head(ja):
    # particle types have no exponent-0 sentence-headed remainder: no swap derived
    assert renders(ja, "wo") == ["n^r o2"]


def test_slot_flip_metarule():
    rule = Metarule.make("slot-flip", head="s")
    lex = load_lexicon(bundled.lexicon_path("en"))
    from pregtrans.core import parse_type

    t = parse_type("s n^l n", lex.table)
    flipped = rule.apply(t, lex.table)
    assert [render_type(x) for x in flipped] == ["n^r s n"]
    # bidirectional: flipping back recovers the original
    back = rule.apply(flipped[0], lex.table)
    assert [render_type(x) for x in back] == ["s n^l n"]


def test_apply_once_identity_when_no_match():
    rule = Metarule.make("slot-flip", head="s")
    lex = load_lexicon(bundled.lexicon_path("en"))
    from pregtrans.core import parse_type

    t = parse_type("n n^l", lex.table)
    assert rule.apply_once(t, lex.table) == t


def test_closure_is_idempotent(ja):
    first = ja.types_of("taberu")
    again = ja.types_of("taberu")
    assert first == again


def test_bad_metarule_params():
    with pytest.raises(LexiconError):
        Metarule.make("argument-swap", cases=["o1"], head="s")  # needs >= 2 cases
    with pytest.raises(LexiconError):
        Metarule.make("no-such-kind")


def test_atom_expansion_replacement_parses_against_each_table_it_is_given():
    checked, fresh = (Metarule.make("atom-expansion", atom="o4", replacement="n n^l")
                      for _ in range(2))
    checked.check(AtomTable({"o4", "n"}))
    for rule in (checked, fresh):  # no parse is kept from an earlier table
        with pytest.raises(LexiconError, match=r"^unknown atom 'n' \(at position 0\)$"):
            rule.check(AtomTable({"o4"}))
    table = AtomTable({"o4", "n", "s"})
    assert checked.apply(parse_type("s o4", table), table) == [parse_type("s n n^l", table)]


# ---- sentence typing and round trip ------------------------------------------

@pytest.mark.parametrize("name", ["ja", "ja_mini", "en", "fa", "ro"])
def test_save_load_roundtrip(name, tmp_path):
    lex = load_lexicon(bundled.lexicon_path(name))
    p = tmp_path / f"{name}2.json"
    save_lexicon(lex, p)
    again = load_lexicon(p)
    assert again.language == lex.language
    assert again.to_dict() == lex.to_dict()
    aliases = [alias for entry in lex.entries.values() for alias in entry.aliases]
    for word in [*lex.entries, *aliases, "@0"]:
        assert renders(again, word) == renders(lex, word)
