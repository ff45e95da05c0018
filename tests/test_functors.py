"""Translation functors: images, laws, brace-wise application, end-to-end."""

import json
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from pregtrans import data as bundled
from pregtrans import functors
from pregtrans.core import (
    AtomTable,
    BracedType,
    CompoundType,
    SimpleType,
    TypeParseError,
    left_adjoint,
    parse_type,
    render_type,
    right_adjoint,
)
from pregtrans.functors import (
    FunctorError,
    FunctorSpec,
    NotTranslatableError,
    WordMap,
    _image,
    apply_antihomomorphism,
    apply_bracewise,
    apply_functor,
    apply_homomorphism,
    check_functor_laws,
    functor_image,
    image_witness,
    load_functor,
    load_wordmap,
    translate_sentence,
)
from pregtrans.lexicon import Lexicon, LexiconEntry, Metarule, load_lexicon
from pregtrans.reduction import ReductionWitness, reduce


def bundle(functor_name):
    reg = bundled.FUNCTOR_REGISTRY[functor_name]
    src = load_lexicon(bundled.lexicon_path(reg["src"]))
    tgt = load_lexicon(bundled.lexicon_path(reg["tgt"]))
    f = load_functor(bundled.functor_path(functor_name), src.table, tgt.table)
    wm = load_wordmap(bundled.wordmap_path(functor_name))
    return src, tgt, f, wm


# ---- homomorphism / anti-homomorphism images --------------------------------

def test_homomorphism_raises_image_to_exponent():
    en = AtomTable({"n", "s"})
    spec = FunctorSpec("x", "y", "homomorphism", {a: parse_type(a, en) for a in "ns"}, en)
    src = AtomTable({"n", "s"})
    assert render_type(apply_homomorphism(spec, parse_type("n^r s n^l", src))) == "n^r s n^l"
    # compound image: F(a) = n s, so F(a^l) = (n s)^l = s^l n^l
    spec2 = FunctorSpec("x", "y", "homomorphism", {"a": parse_type("n s", en)}, en)
    img = apply_homomorphism(spec2, parse_type("a^l", AtomTable({"a"})))
    assert render_type(img) == "s^l n^l"


def test_antihomomorphism_reverses_and_swaps_adjoints():
    en = AtomTable({"n", "s"})
    spec = FunctorSpec("x", "y", "antihomomorphism", {a: parse_type(a, en) for a in "ns"}, en)
    img = apply_antihomomorphism(spec, parse_type("n n^r s", AtomTable({"n", "s"})))
    assert render_type(img) == "s n^l n"


def test_five_word_sentence_image():
    src, tgt, f, wm = bundle("jp-en-anti")
    flat = parse_type("n n^r o5 n n^r o1 o1^r o5^r s", src.table)
    img = apply_antihomomorphism(f, flat)
    assert render_type(img) == "s o5^l o1^l o1 n^l n o5 n^l n"


def test_bracewise_psi_image():
    src, tgt, f, wm = bundle("psi")
    braced = parse_type("< n n^r o1 > < n n^r o2 o2^r o1^r s >", src.table)
    img = apply_bracewise(f, braced)
    assert render_type(img) == "< o1 n^l n > < o1^r s o2^l o2 n^l n >"


def test_bracewise_psi3_image():
    src, tgt, f, wm = bundle("psi3")
    braced = parse_type("< n n^r o5 o5^r s > < s^r s s^l > < n n^r o2 o2^r s >", src.table)
    img = apply_bracewise(f, braced)
    assert render_type(img) == "< s o5^l o5 n^l n > < s^r s s^l > < s o2^l o2 n^l n >"


def test_bracewise_xi_image():
    src, tgt, f, wm = bundle("xi")
    braced = parse_type("< nu nu^r o > < w nu^l nu > < w^r o^r sigma >", src.table)
    img = apply_bracewise(f, braced)
    assert render_type(img) == "< n n^r o2 > < n n^r o5 > < o5^r o2^r s >"


def test_bracewise_all_false_mask_equals_homomorphism():
    src, tgt, f, wm = bundle("psi")
    plain = FunctorSpec(
        f.source_language, f.target_language, "bracewise", f.atom_map, f.target_table,
        reversal_mask=(False, False),
    )
    braced = parse_type("< n n^r o1 > < n n^r o2 o2^r o1^r s >", src.table)
    img = apply_bracewise(plain, braced)
    hom = FunctorSpec(
        f.source_language, f.target_language, "homomorphism", f.atom_map, f.target_table
    )
    assert img.flatten() == apply_homomorphism(hom, braced.flatten())


def test_bracewise_mask_length_mismatch():
    src, tgt, f, wm = bundle("psi")
    three = parse_type("< n > < n > < n >", src.table)
    with pytest.raises(FunctorError):
        apply_bracewise(f, three)


def test_bracewise_image_needs_a_bracewise_functor():
    # a homomorphism's one-entry mask would fit a one-segment braced type
    src, tgt, f, wm = bundle("jp-en-anti")
    hom = FunctorSpec(f.source_language, f.target_language, "homomorphism", f.atom_map,
                      f.target_table)
    with pytest.raises(FunctorError, match="^functor is not brace-wise$"):
        apply_bracewise(hom, parse_type("< n n^r o1 >", src.table))


def test_apply_functor_dispatch():
    src, tgt, f, wm = bundle("jp-en-anti")
    flat = parse_type("n n^r o1", src.table)
    assert apply_functor(f, flat) == apply_antihomomorphism(f, flat)


# ---- the image function against the iterated-adjoint reference -------------------

def reference_image(f, t, reverse):
    """Part by part: the adjoint laws applied one step at a time, then the
    part's β tag spread over the whole image."""
    out = CompoundType()
    for p in reversed(t.parts) if reverse else t.parts:
        image = f.atom_map[p.atom]
        z = -p.exponent if reverse else p.exponent
        while z < 0:
            image = left_adjoint(image)
            z += 1
        while z > 0:
            image = right_adjoint(image)
            z -= 1
        if p.beta:
            image = CompoundType(tuple(SimpleType(q.atom, q.exponent, True) for q in image.parts))
        out = out + image
    return out


IMAGE_TARGET = AtomTable({"x", "y"})
target_simples = st.builds(SimpleType, st.sampled_from("xy"), st.integers(-2, 2), st.booleans())
atom_images = st.lists(target_simples, max_size=3).map(lambda ps: CompoundType(tuple(ps)))
source_types = st.lists(
    st.builds(SimpleType, st.sampled_from("abc"), st.integers(-3, 3), st.booleans()), max_size=6
).map(lambda ps: CompoundType(tuple(ps)))


@settings(max_examples=300, deadline=None)
@given(st.fixed_dictionaries({a: atom_images for a in "abc"}), source_types, st.booleans())
def test_image_matches_iterated_adjoints(atom_map, t, reverse):
    f = FunctorSpec("x", "y", "homomorphism", atom_map, IMAGE_TARGET)
    assert _image(f, t, reverse) == reference_image(f, t, reverse)


def test_bracewise_image_memo_holds_one_entry_per_simple_type():
    f = FunctorSpec("x", "y", "bracewise", {"a": parse_type("x y^l", IMAGE_TARGET),
                                            "b": parse_type("y^r", IMAGE_TARGET)},
                    IMAGE_TARGET, (True, False))
    rng = random.Random(3)
    pairs = set()
    for _ in range(500):
        segments = tuple(CompoundType(tuple(
            SimpleType(rng.choice("ab"), rng.randint(-2, 2), rng.random() < 0.5)
            for _ in range(rng.randint(0, 4)))) for _ in range(2))
        image = apply_bracewise(f, BracedType(segments))
        for seg, reverse, got in zip(segments, f.reversal_mask, image.segments):
            assert got == reference_image(f, seg, reverse)
            pairs |= {(p, reverse) for p in seg.parts}
    # one entry per (simple type, reversed) pair met, across both directions
    assert sum(map(len, f._images)) == len(pairs)


IMAGE_SOURCE = AtomTable({"a", "b", "c"})


def every_image(f, t, u):
    """The image of t and u under each entry point, the goal t u's as a
    translation of the words t | u takes it included."""
    lex = Lexicon("x", IMAGE_SOURCE, {"t": LexiconEntry("t", (t,)), "u": LexiconEntry("u", (u,))})
    braced = BracedType((t, u))
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(functors, "_image", lambda *args: calls.append(_image(*args)) or calls[-1])
        res = translate_sentence(lex, Lexicon("y", IMAGE_TARGET, {}), f,
                                 WordMap({"t": "", "u": ""}), ["t", "u"], (1,), t + u)
    return {
        "hom": (apply_homomorphism(f, t), apply_homomorphism(f, u)),
        "anti": (apply_antihomomorphism(f, t), apply_antihomomorphism(f, u)),
        "functor": apply_functor(f, braced),
        "bracewise": apply_bracewise(f, braced),
        "functor_image": functor_image(f, [t, u], (1,)).image,
        "translated": res.translated,
        "goal": calls[-1],  # translate_sentence maps its goal last
    }


@settings(max_examples=200, deadline=None)
@given(st.fixed_dictionaries({a: atom_images for a in "abc"}), source_types, source_types,
       st.booleans())
def test_every_image_is_read_off_one_memo_per_simple_type(atom_map, t, u, flip):
    f = FunctorSpec("x", "y", "bracewise", atom_map, IMAGE_TARGET, (flip, False))

    def expected(image):
        pair = BracedType((image(t, flip), image(u, False)))
        return {"hom": (image(t, False), image(u, False)), "anti": (image(t, True), image(u, True)),
                "functor": pair, "bracewise": pair, "functor_image": pair, "translated": pair,
                "goal": image(t + u, False)}

    assert every_image(f, t, u) == expected(lambda x, reverse: reference_image(f, x, reverse))
    # each direction met every simple type of t and u, and holds one entry for each
    assert [set(memo) for memo in f._images] == [set(t.parts + u.parts)] * 2
    for reverse, memo in enumerate(f._images):  # plant an image no atom map gives
        for i, p in enumerate(memo):
            memo[p] = (SimpleType("y", 9 + i, bool(reverse)),)

    def planted(x, reverse):
        return CompoundType(tuple(q for p in (reversed(x.parts) if reverse else x.parts)
                                  for q in f._images[reverse][p]))

    assert every_image(f, t, u) == expected(planted)


# ---- overrides and the goal image ---------------------------------------------------

def write_functor(tmp_path, mode, overrides):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({
        "source_language": "x", "target_language": "y", "mode": mode,
        "atom_map": {"n": "n", "s": "s", "o5": "o5"}, "simple_overrides": overrides,
    }))
    return path


def test_override_applies_in_antihomomorphism_mode(tmp_path):
    table = AtomTable({"n", "s", "o5"})
    f = load_functor(write_functor(tmp_path, "antihomomorphism", {"n^r": "s"}), table, table)
    assert render_type(apply_antihomomorphism(f, parse_type("n^r o5", table))) == "o5 s"
    # the part's β tag still applies to the override
    assert render_type(apply_antihomomorphism(f, parse_type("b(n)^r", table))) == "b(s)"


@pytest.mark.parametrize("key", ["zz^l", "n n", "b(n)", "< n >"])
def test_override_key_must_be_an_untagged_source_simple_type(tmp_path, key):
    table = AtomTable({"n", "s", "o5"})
    with pytest.raises(FunctorError, match="simple_overrides"):
        load_functor(write_functor(tmp_path, "homomorphism", {key: "s"}), table, table)


def test_goal_maps_through_the_functor():
    src = load_lexicon(bundled.lexicon_path("ja_mini"))
    tgt = load_lexicon(bundled.lexicon_path("en"))
    wm = WordMap((("ni", "in"),))
    identity = {a: parse_type(a, tgt.table) for a in src.table.atoms}
    for mode, image in (("antihomomorphism", "o5 n^l"), ("homomorphism", "n^r o5")):
        f = FunctorSpec("ja", "en", mode, identity, tgt.table)
        res = translate_sentence(src, tgt, f, wm, ["ni"], source_target="n^r o5")
        assert render_type(res.translated) == f"< {image} >"
        assert res.diagnostic is None and res.target_witness is not None


# ---- functor laws -------------------------------------------------------------

def test_homomorphism_laws_hold_for_identity_map():
    en = AtomTable({"n", "s"})
    spec = FunctorSpec("x", "y", "homomorphism", {a: parse_type(a, en) for a in "ns"}, en)
    samples = [parse_type(t, en) for t in ["n", "n^l", "n n^r s", "s^l^l"]]
    assert check_functor_laws(spec, samples).ok


def test_antihomomorphism_laws_hold():
    en = AtomTable({"n", "s"})
    spec = FunctorSpec("x", "y", "antihomomorphism", {a: parse_type(a, en) for a in "ns"}, en)
    samples = [parse_type(t, en) for t in ["n", "n^l", "n n^r s", "s^l^l"]]
    assert check_functor_laws(spec, samples).ok


def test_laws_hold_when_an_override_equals_the_computed_image():
    en = AtomTable({"n", "s"})
    samples = [parse_type(t, en) for t in ["n", "n^l", "n n^l s", "n^l^l"]]
    for mode, image in (("homomorphism", "n^l"), ("antihomomorphism", "n^r")):
        overrides = {SimpleType("n", -1): parse_type(image, en)}
        spec = FunctorSpec("x", "y", mode, {a: parse_type(a, en) for a in "ns"}, en,
                           simple_overrides=overrides)
        assert check_functor_laws(spec, samples).ok, mode


def test_antihomomorphism_law_names():
    # F(n^l) = n^l where an anti-homomorphism needs F(n)^r = n^r
    en = AtomTable({"n", "s"})
    overrides = {SimpleType("n", -1): parse_type("n^l", en)}
    spec = FunctorSpec("x", "y", "antihomomorphism", {a: parse_type(a, en) for a in "ns"}, en,
                       simple_overrides=overrides)
    report = check_functor_laws(spec, [parse_type(t, en) for t in ["n", "n^l", "n s"]])
    laws = {v.law for v in report.violations}
    assert "F(x^l) = F(x)^r" in laws
    assert not laws & {"F(xy) = F(x)F(y)", "F(x^l) = F(x)^l", "F(x^r) = F(x)^r"}


def test_word_order_obstruction_flagged():
    # post-posed adjectives force F(n^l) = F(n)^r, violating F(x^l) = F(x)^l
    reg = bundled.FUNCTOR_REGISTRY["jp-ro-hom"]
    src = load_lexicon(bundled.lexicon_path(reg["src"]))
    tgt = load_lexicon(bundled.lexicon_path(reg["tgt"]))
    f = load_functor(bundled.functor_path("jp-ro-hom"), src.table, tgt.table)
    samples = [parse_type("n^l", src.table), parse_type("n n^l", src.table)]
    report = check_functor_laws(f, samples)
    assert not report.ok
    assert any(v.law == "F(x^l) = F(x)^l" for v in report.violations)


# ---- end-to-end translation ----------------------------------------------------

def test_translate_five_word_sentence():
    src, tgt, f, wm = bundle("jp-en-anti")
    res = translate_sentence(src, tgt, f, wm, "mori ni neko ga iru".split())
    assert res.text == "there is a cat in the forest"
    assert render_type(res.translated) == "< s o5^l o1^l o1 n^l n o5 n^l n >"
    assert res.target_witness is not None
    assert sorted(res.target_witness.links) == [(1, 6), (2, 3), (4, 5), (7, 8)]
    assert res.target_witness.residue == (0,)


def test_translate_two_brace_sentence():
    src, tgt, f, wm = bundle("psi")
    res = translate_sentence(
        src, tgt, f, wm, "issya ga tegami wo kaku".split(), bracing=(2,)
    )
    assert res.text == "(A/The) doctor write(s) (a/the) letter"
    assert render_type(res.translated) == "< o1 n^l n > < o1^r s o2^l o2 n^l n >"
    assert res.target_witness is not None


def test_translate_three_brace_sentence():
    src, tgt, f, wm = bundle("psi3")
    res = translate_sentence(
        src, tgt, f, wm, "ie ni tuita ga tegami wo kaita".split(), bracing=(3, 4)
    )
    assert res.text == "(I) arrived home and (I) wrote (a) letter"
    assert (
        render_type(res.translated)
        == "< s o5^l o5 n^l n > < s^r s s^l > < s o2^l o2 n^l n >"
    )
    assert res.target_witness is not None


def test_translate_farsi_to_japanese():
    src, tgt, f, wm = bundle("xi")
    res = translate_sentence(
        src, tgt, f, wm, "ketab ra dar bazar xarid".split(), bracing=(2, 4),
        source_target="sigma",
    )
    assert res.text == "hon wo itiba de kaimasita"
    assert render_type(res.translated) == "< n n^r o2 > < n n^r o5 > < o5^r o2^r s >"
    assert res.target_witness is not None


def test_untranslatable_sentence_raises():
    src, tgt, f, wm = bundle("jp-en-anti")
    with pytest.raises(NotTranslatableError):
        translate_sentence(src, tgt, f, wm, ["mori", "neko"])


def test_a_goal_image_longer_than_the_image_witness_residue_is_no_reduction():
    # w : n reduces to pi as n <= pi, but F(pi) = n n is longer than the
    # image n, so the image of the source witness proves nothing
    table = AtomTable({"n", "pi"}, [("n", "pi")])
    target = AtomTable({"n"})
    f = FunctorSpec("x", "y", "homomorphism",
                    {"n": parse_type("n", target), "pi": parse_type("n n", target)}, target)
    lex = Lexicon("x", table, {"w": LexiconEntry("w", (parse_type("n", table),))})
    res = translate_sentence(lex, Lexicon("y", target, {}), f, WordMap({"w": "w"}), ["w"],
                             source_target="pi")
    assert res.source_witness == ReductionWitness((), (0,))
    assert res.target_witness is None
    assert res.diagnostic == "translated type '< n >' does not reduce to 'n n' in y"


def test_word_without_types_after_ambiguous_word_raises(tmp_path):
    # no empty_words: the empty word @0 has no type, so no selection exists
    path = tmp_path / "lex.json"
    path.write_text(json.dumps({
        "atoms": ["n", "s"],
        "entries": [{"word": "a", "types": ["n", "s"]}, {"word": "b", "types": ["n^r s"]}],
    }))
    src = load_lexicon(path)
    f = FunctorSpec("x", "x", "homomorphism", {a: parse_type(a, src.table) for a in "ns"},
                    src.table)
    wm = WordMap({"a": "a", "@0": "", "b": "b"})
    with pytest.raises(NotTranslatableError):
        translate_sentence(src, src, f, wm, ["a", "@0", "b"])


def test_braced_goal_is_rejected():
    src, tgt, f, wm = bundle("jp-en-anti")
    with pytest.raises(TypeParseError, match="brace segments are not allowed"):
        translate_sentence(src, tgt, f, wm, ["mori", "ni", "neko", "ga", "iru"],
                           source_target="< s >")


def test_wordmap_missing_word_raises():
    wm = WordMap((("a", "x"),))
    assert wm.get("a") == "x"
    with pytest.raises(FunctorError):
        wm.get("b")


def test_functor_file_atom_map_must_be_total(tmp_path):
    path = write_functor(tmp_path, "homomorphism", {})
    with pytest.raises(FunctorError) as info:
        load_functor(path, AtomTable({"n", "s", "o1", "o5"}), AtomTable({"n", "s", "o5"}))
    assert str(info.value) == f"{path}: field 'atom_map': atom map not total; missing ['o1']"


def test_functor_atom_map_must_be_total():
    src, tgt, f, wm = bundle("jp-en-anti")
    partial = FunctorSpec(
        f.source_language, f.target_language, "homomorphism",
        {"n": f.atom_map["n"]}, f.target_table,
    )
    with pytest.raises(FunctorError):
        apply_homomorphism(partial, parse_type("s", src.table))


# ---- the target witness: the image of the source witness, searched on fallback ------

def no_search(*args):
    raise AssertionError("the image of the source witness is a reduction")


def test_psi_target_witness_is_the_image_with_the_flip_swapped(monkeypatch):
    # slot-flip rewrites the second segment's image s o1^l ... to o1^r s ...,
    # so the map sends kaku's o1^r (7) and s (8) to 3 and 4, not 4 and 3
    src, tgt, f, wm = bundle("psi")
    types = [src.alternatives(tok)[0] for tok in ["issya", "ga", "tegami", "wo", "kaku"]]
    assert functor_image(f, types, (2,)).where == [2, 1, 0, 8, 7, 6, 5, 3, 4]

    monkeypatch.setattr(functors, "reduce", no_search)
    res = translate_sentence(src, tgt, f, wm, "issya ga tegami wo kaku".split(), bracing=(2,))
    assert res.source_witness == ReductionWitness(((0, 1), (2, 7), (3, 4), (5, 6)), (8,))
    assert res.target_witness == ReductionWitness(((0, 3), (1, 2), (5, 6), (7, 8)), (4,))


def test_argument_swap_post_metarule_swaps_positions(monkeypatch):
    # < o1 o2 > reversed gives o2 o1, and argument-swap turns the verb's
    # o2^r o1^r s into o1^r o2^r s, so the links cross back to nesting
    table = AtomTable({"o1", "o2", "s"})
    swap = Metarule.make("argument-swap", cases=["o1", "o2"], head="s")
    f = FunctorSpec("x", "y", "bracewise", {a: parse_type(a, table) for a in table.atoms},
                    table, (True, False), (swap,))
    types = [parse_type(t, table) for t in ("o1", "o2", "o2^r o1^r s")]
    assert functor_image(f, types, (2,)).where == [1, 0, 3, 2, 4]
    expand = Metarule.make("atom-expansion", atom="o2", replacement="o2 o2^l o2")
    f_expand = FunctorSpec("x", "y", "bracewise", f.atom_map, table, (True, False), (expand,))
    assert functor_image(f_expand, types, (2,)).where is None

    monkeypatch.setattr(functors, "reduce", no_search)
    words = ["a", "b", "c"]
    lex = Lexicon("x", table, {w: LexiconEntry(w, (t,)) for w, t in zip(words, types)})
    res = translate_sentence(lex, lex, f, WordMap({w: w for w in words}), words, (2,))
    assert render_type(res.translated) == "< o2 o1 > < o1^r o2^r s >"
    assert res.target_witness == ReductionWitness(((0, 3), (1, 2)), (4,))


def test_an_empty_override_leaves_no_position_map_and_the_image_is_searched(tmp_path,
                                                                             monkeypatch):
    # n and n^r map to no simple type, so mori ni's n n^r o5 maps to o5
    table = AtomTable({"n", "s", "o5"})
    f = load_functor(write_functor(tmp_path, "homomorphism", {"n": "", "n^r": ""}), table, table)
    words = {"mori": "n", "ni": "n^r o5"}
    lex = Lexicon("x", table,
                  {w: LexiconEntry(w, (parse_type(t, table),)) for w, t in words.items()})
    assert functor_image(f, [parse_type(t, table) for t in words.values()]).where is None
    searches = []
    monkeypatch.setattr(functors, "reduce", lambda *args: searches.append(args) or reduce(*args))
    res = translate_sentence(lex, lex, f, WordMap(words), list(words), source_target="o5")
    assert render_type(res.translated) == "< o5 >"
    assert len(searches) == 1 and res.target_witness == ReductionWitness((), (0,))
    assert res.diagnostic is None


def test_jp_ro_hom_searches_where_the_image_is_not_a_reduction(monkeypatch):
    # the override n^l -> n^r is not functorial: the source link n^l n maps
    # to n^r n, which does not contract, but the image type still reduces
    reg = bundled.FUNCTOR_REGISTRY["jp-ro-hom"]
    src, tgt = (load_lexicon(bundled.lexicon_path(reg[role])) for role in ("src", "tgt"))
    f = load_functor(bundled.functor_path("jp-ro-hom"), src.table, tgt.table)
    wm = WordMap({"@0": "", "neko": "pisica"})
    searches = []
    monkeypatch.setattr(functors, "reduce", lambda *args: searches.append(args) or reduce(*args))
    res = translate_sentence(src, tgt, f, wm, ["@0", "neko"], source_target="o1 s^r n")
    assert render_type(res.translated) == "< n s^r n n^r n >"
    assert image_witness(functor_image(f, [src.alternatives(t)[0] for t in ["@0", "neko"]]).where,
                         res.source_witness) == ReductionWitness(((3, 4),), (0, 1, 2))
    assert len(searches) == 1
    assert res.target_witness == ReductionWitness(((2, 3),), (0, 1, 4))
    assert res.diagnostic is None and res.text == "pisica"


@settings(max_examples=200, deadline=None)
@given(st.fixed_dictionaries({a: atom_images for a in "abc"}), source_types, source_types,
       st.booleans())
# a b keeps its length, two simple types, but a maps to none and b to two
@example({"a": CompoundType(), "b": parse_type("x y", IMAGE_TARGET),
          "c": parse_type("x", IMAGE_TARGET)},
         CompoundType((SimpleType("a"), SimpleType("b"))), CompoundType(), False)
def test_functor_image_is_apply_functor_with_its_position_map(atom_map, t, u, flip):
    # two words in two segments, the first reversed when flip; the image is
    # checked against the iterated adjoints, as apply_functor reads functor_image
    f = FunctorSpec("x", "y", "bracewise", atom_map, IMAGE_TARGET, (flip, False))
    found = functor_image(f, [t, u], (1,))
    assert found.source == BracedType((t, u))
    assert found.image == BracedType((reference_image(f, t, flip), reference_image(f, u, False)))
    assert found.order == [(0, flip), (1, False)]
    assert (found.where is None) == any(len(atom_map[p.atom]) != 1 for p in t.parts + u.parts)
    if found.where is not None:
        order = list(range(len(t)))[::-1 if flip else 1] + list(range(len(t), len(t) + len(u)))
        assert found.where == sorted(range(len(order)), key=order.__getitem__)
