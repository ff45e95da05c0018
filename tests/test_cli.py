"""Command-line interface: exit codes, formats, batch mode."""

import io
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

from pregtrans.checks import SQUARES
from pregtrans import data
from pregtrans.cli import _json_parse_line, _json_translate_line, _LinkText, main
from pregtrans.core import (BracedType, CompoundType, PregroupError, SimpleType, concat,
                            parse_plain_type, render_type)
from pregtrans.functors import (NotTranslatableError, TranslationResult, load_functor,
                                load_wordmap, translate_sentence)
from pregtrans.lexicon import UnknownWordError, load_lexicon
from pregtrans.reduction import ReductionWitness, render_diagram, type_selections


@pytest.fixture
def runner():
    return CliRunner()


# ---- parse -----------------------------------------------------------------

def test_parse_grammatical_sentence(runner):
    r = runner.invoke(main, ["parse", "neko ga sakana wo taberu", "--lex", "ja"])
    assert r.exit_code == 0
    assert "|" in r.output  # a diagram was printed


def test_parse_ungrammatical_sentence_exits_2(runner):
    r = runner.invoke(main, ["parse", "neko sakana", "--lex", "ja"])
    assert r.exit_code == 2
    assert "not reducible" in r.output


def test_parse_all_enumerates_ambiguity(runner):
    r = runner.invoke(
        main, ["parse", "old teachers and students", "--lex", "en", "--target", "n",
               "--all", "--format", "json"]
    )
    assert r.exit_code == 0
    payload = json.loads(r.output)
    assert len(payload["witnesses"]) == 2


def test_parse_all_respects_limit_across_type_selections(runner, tmp_path):
    # two type selections reduce, with 2 and 3 witnesses; --limit caps the total
    lex = tmp_path / "lex.json"
    lex.write_text(json.dumps({
        "language": "x", "atoms": ["n"],
        "entries": [{"word": "old", "types": ["n n^l", "n n^l n n^r"]},
                    {"word": "cats", "types": ["n"]},
                    {"word": "and", "types": ["n^r n n^l"]}],
    }))
    args = ["parse", "old cats and cats", "--lex", str(lex), "--target", "n",
            "--all", "--format", "json"]
    every = json.loads(runner.invoke(main, args).output)["witnesses"]
    assert [w["type"] for w in every] == (
        ["n n^l n n^r n n^l n"] * 2 + ["n n^l n n^r n n^r n n^l n"] * 3
    )
    for limit in (1, 2, 3, 4):
        r = runner.invoke(main, args + ["--limit", str(limit)])
        assert r.exit_code == 0
        got = json.loads(r.output)["witnesses"]
        assert len(got) == limit
        assert all(w in every[:2] for w in got[:2]) and all(w in every[2:] for w in got[2:])
    assert runner.invoke(main, args + ["--limit", "0"]).exit_code == 1
    # without --all the limit is not used
    one = [a for a in args if a != "--all"] + ["--limit", "0"]
    r = runner.invoke(main, one)
    assert r.exit_code == 0 and json.loads(r.output)["witnesses"][0] in every[:2]


def _reference_line(line, found):
    # the encoding cmd_parse made before it wrote its lines itself
    witnesses = [{"type": shown, "links": w.links, "residue": w.residue}
                 for _, shown, ws in found for w in ws]
    return json.dumps({"sentence": line, "reducible": bool(witnesses),
                       "witnesses": witnesses}, ensure_ascii=False, check_circular=False)


_texts = st.text(st.one_of(st.sampled_from('"\\\n\x00é日\ud800^ '), st.characters()))
_positions = st.integers(min_value=0, max_value=40)
_witnesses = st.builds(ReductionWitness,
                       st.lists(st.tuples(_positions, _positions), max_size=5).map(tuple),
                       st.lists(_positions, max_size=4).map(tuple))


@settings(max_examples=300, deadline=None)
@given(_texts, st.lists(st.tuples(st.none(), _texts, st.lists(_witnesses, max_size=3)),
                        max_size=3))
@example("a\ud800", [(None, "n", [ReductionWitness(((0, 1),), (2,))])])
@example("", [(None, "x", [ReductionWitness((), ())]), (None, "y", [])])
@example("", [(None, "y", [])])
# a residue's closing text made once per line: two witnesses of one
# selection, and two selections, sharing a residue; an empty residue next to
# a non-empty one; the same residue on two lines with one link table
@example("a", [(None, "n", [ReductionWitness(((0, 1),), (2,)),
                            ReductionWitness(((1, 2),), (2,))])])
@example("b", [(None, "x", [ReductionWitness(((0, 1),), (2, 3))]),
               (None, "y", [ReductionWitness(((3, 4),), (2, 3))])])
@example("c", [(None, "n", [ReductionWitness(((0, 1),), ()), ReductionWitness((), (0,)),
                            ReductionWitness(((1, 2),), ())])])
@example("d", [(None, "x", [ReductionWitness(((0, 1),), (2,))]),
               (None, "y", [ReductionWitness(((0, 1),), ()), ReductionWitness((), (2,))])])
def test_json_parse_line_is_json_dumps_of_the_witness_dicts(line, found):
    link_text = _LinkText()
    assert _json_parse_line(line, found, link_text) == _reference_line(line, found)
    # a second line reads the links' texts already made, and a third line
    # with the selections the other way round makes its residues' anew
    assert _json_parse_line(line, found, link_text) == _reference_line(line, found)
    assert _json_parse_line(line, found[::-1], link_text) == _reference_line(line, found[::-1])


# the two-selection lexicon of the test above, with a non-ASCII word; the
# batch mixes reducible lines, a non-reducible line and an unknown word
MIXED_LEXICON = {
    "language": "x", "atoms": ["n"],
    "entries": [{"word": "old", "types": ["n n^l", "n n^l n n^r"]},
                {"word": "cats", "types": ["n"]},
                {"word": "chatsé", "types": ["n"]},
                {"word": "and", "types": ["n^r n n^l"]}],
}
MIXED_LINES = ["old cats and cats", "cats and", "old dogs", "old chatsé and cats", "old cats",
               "old cats and cats and cats and cats"]


def _found(lexicon, line, limit):
    """(flat type, its rendering, its witnesses) per type selection of
    ``line`` to n, up to ``limit`` witnesses in all, or None for a line
    with an unknown word."""
    try:
        alternatives = [lexicon.types_of(tok) for tok in line.split()]
    except UnknownWordError:
        return None
    found, count = [], 0
    goal = parse_plain_type("n", lexicon.table)
    for selection, search in type_selections(alternatives, goal, lexicon.table):
        ws = search.witnesses(limit - count)
        found.append((concat(selection), render_type(concat(selection)), ws))
        count += len(ws)
        if count >= limit:
            break
    return found


def test_parse_all_json_is_byte_identical_to_the_reference_encoding(runner, tmp_path):
    lex = tmp_path / "lex.json"
    lex.write_text(json.dumps(MIXED_LEXICON))
    lines = MIXED_LINES
    lexicon = load_lexicon(lex)
    with pytest.raises(UnknownWordError) as unknown:
        lexicon.types_of("dogs")
    for limit in (1, 2, 4, 1024):
        expected = [_reference_line(line, found) for line in lines
                    if (found := _found(lexicon, line, limit)) is not None]
        r = runner.invoke(main, ["parse", "--lex", str(lex), "--target", "n", "--all",
                                 "--limit", str(limit), "--format", "json"],
                          input="\n".join(lines) + "\n")
        assert r.exit_code == 1
        assert r.stderr == f"Error: {unknown.value}\n"
        assert r.stdout.splitlines() == expected
        if limit >= 4:  # the type changes partway through the first line's list
            assert len({w["type"] for w in json.loads(r.stdout.splitlines()[0])["witnesses"]}) == 2


@pytest.mark.parametrize("fmt", ["text", "dot"])
def test_parse_all_diagrams_are_each_witness_rendered_alone(runner, tmp_path, fmt):
    # the row of simple types (the dot node lines) is made once per type
    # selection; the output is each witness's render_diagram
    lex = tmp_path / "lex.json"
    lex.write_text(json.dumps(MIXED_LEXICON))
    lexicon = load_lexicon(lex)
    for limit in (1, 2, 4, 7, 1024):
        expected = ""
        for line in MIXED_LINES:
            found = _found(lexicon, line, limit)
            if found == []:
                expected += f"not reducible: {line!r} does not reduce to 'n'\n"
            for flat, _, ws in found or ():
                expected += "".join(render_diagram(flat, w, format=fmt) + "\n\n" for w in ws)
        r = runner.invoke(main, ["parse", "--lex", str(lex), "--target", "n", "--all",
                                 "--limit", str(limit), "--format", fmt],
                          input="\n".join(MIXED_LINES) + "\n")
        assert r.exit_code == 1
        assert r.stdout == expected


@pytest.mark.parametrize("lex, sentence", [
    ("en", "pigeons eat " + " and ".join(["bread"] * 14) + " eat"),
    ("ja", "ie ni tuita ga " * 8 + "tegami wo kaita ga"),
])
def test_parse_rejects_stress_sentences_quickly(runner, lex, sentence):
    # exponential for an exhaustive search: Catalan-many link sets on the
    # coordination, 2^17 type selections on the ja chain
    t0 = time.perf_counter()
    r = runner.invoke(main, ["parse", sentence, "--lex", lex])
    assert r.exit_code == 2 and "not reducible" in r.output
    assert time.perf_counter() - t0 < 2.0


def test_parse_word_without_types_after_ambiguous_word_exits_2(runner, tmp_path):
    # no empty_words: the empty word @0 has no type, so no selection exists
    lex = tmp_path / "lex.json"
    lex.write_text(json.dumps({
        "atoms": ["n", "s"],
        "entries": [{"word": "a", "types": ["n", "s"]}, {"word": "b", "types": ["n^r s"]}],
    }))
    r = runner.invoke(main, ["parse", "a @0 b", "--lex", str(lex)])
    assert r.exit_code == 2 and isinstance(r.exception, SystemExit), r.exception
    assert "not reducible" in r.output


@pytest.mark.parametrize("extra", [[], ["--all"]])
def test_parse_long_sentence(runner, extra):
    # the search keeps its own stacks, so no recursion limit bounds its input
    sentence = " ".join(["old"] * 3000 + ["teachers"])
    r = runner.invoke(main, ["parse", sentence, "--lex", "en", "--target", "n"] + extra)
    assert r.exit_code == 0, r.exception
    assert r.output.count("\n\n") == 1  # one witness


def test_parse_batch_goes_on_past_a_long_sentence(runner):
    long = " ".join(["old"] * 3000 + ["teachers"])
    r = runner.invoke(main, ["parse", "--lex", "en", "--target", "n", "--format", "json"],
                      input=f"old teachers\n{long}\nold teachers\n")
    assert r.exit_code == 0, r.exception
    lines = [json.loads(line) for line in r.output.splitlines()]
    assert [p["reducible"] for p in lines] == [True] * 3
    assert [len(p["witnesses"]) for p in lines] == [1] * 3


def test_parse_unknown_lexicon_exits_1(runner):
    r = runner.invoke(main, ["parse", "x", "--lex", "nope"])
    assert r.exit_code == 1


def test_parse_unknown_word_exits_1(runner):
    r = runner.invoke(main, ["parse", "qqq", "--lex", "ja"])
    assert r.exit_code == 1


def test_parse_batch_goes_on_past_an_unknown_word(runner):
    r = runner.invoke(main, ["parse", "--lex", "en", "--target", "n", "--format", "json"],
                      input="old teachers\nqqq\nold\nold teachers\n")
    assert r.exit_code == 1  # an unknown word outranks a line that does not reduce
    assert [json.loads(line)["reducible"] for line in r.stdout.splitlines()] == [True, False, True]
    assert r.stderr == "Error: unknown word 'qqq'\n"


def test_parse_dot_output_deterministic(runner):
    args = ["parse", "pigeons eat bread", "--lex", "en", "--format", "dot"]
    a = runner.invoke(main, args)
    b = runner.invoke(main, args)
    assert a.exit_code == 0 and a.output == b.output
    assert "graph reduction {" in a.output


def test_parse_batch_mode_from_stdin(runner):
    r = runner.invoke(
        main, ["parse", "--lex", "en", "--format", "json"],
        input="pigeons eat bread\nbread eat\n",
    )
    lines = [json.loads(l) for l in r.output.strip().splitlines()]
    assert [p["reducible"] for p in lines] == [True, False]
    assert r.exit_code == 2  # any failing line fails the batch


def test_parse_empty_word_token(runner):
    r = runner.invoke(
        main,
        ["parse", "kyou toukyou kara untensita @0 onna", "--lex", "ja", "--target", "n"],
    )
    assert r.exit_code == 0


# ---- translate --------------------------------------------------------------

def test_translate_anti(runner):
    r = runner.invoke(main, ["translate", "mori ni neko ga iru", "--functor", "jp-en-anti"])
    assert r.exit_code == 0
    assert "there is a cat in the forest" in r.output


def test_translate_braced_json(runner):
    r = runner.invoke(
        main,
        ["translate", "ketab ra | dar bazar | xarid", "--functor", "xi",
         "--target", "sigma", "--format", "json"],
    )
    assert r.exit_code == 0
    payload = json.loads(r.output)
    assert payload["translation"] == "hon wo itiba de kaimasita"
    assert payload["target_reducible"] is True


def test_translate_untranslatable_exits_2(runner):
    r = runner.invoke(main, ["translate", "mori neko", "--functor", "jp-en-anti"])
    assert r.exit_code == 2
    assert "not translatable" in r.output


def test_translate_batch_goes_on_past_a_bad_line(runner):
    lines = ["mori ni neko ga iru", "hon ni neko ga iru", "| mori ni neko ga iru",
             "mori neko", "mori ni neko ga iru"]
    r = runner.invoke(main, ["translate", "--functor", "jp-en-anti", "--format", "json"],
                      input="\n".join(lines) + "\n")
    assert r.exit_code == 1  # a bad line outranks one that is not translatable
    out = r.stdout.splitlines()
    assert [json.loads(out[i])["sentence"] for i in (0, 2)] == [lines[0], lines[4]]
    assert out[1].startswith("not translatable: ")
    assert r.stderr == ("Error: word map has no entry for 'hon'\n"
                        "Error: bracing [0] does not partition 5 tokens\n")


def test_translate_mask_mismatch_exits_1_before_the_search(runner):
    # the sentence does not reduce, but psi's two-segment mask fails first
    r = runner.invoke(main, ["translate", "issya ga ga tegami", "--functor", "psi"])
    assert r.exit_code == 1 and isinstance(r.exception, SystemExit), r.exception
    assert "1 brace segments, bracewise mask of length 2" in r.output


def test_translate_unknown_functor_exits_1(runner):
    r = runner.invoke(main, ["translate", "x", "--functor", "nope"])
    assert r.exit_code == 1


def test_translate_goal_maps_through_the_functor(runner):
    # F(n^r o5) = o5 n^l under the anti-homomorphism, not n o5
    r = runner.invoke(main, ["translate", "ni", "--functor", "jp-en-anti", "--target", "n^r o5"])
    assert r.exit_code == 0, r.output


@pytest.mark.parametrize("args", [
    ["parse", "neko ga sakana wo taberu", "--lex", "ja"],
    ["translate", "neko ga sakana wo taberu", "--functor", "jp-en-anti"],
])
def test_braced_target_exits_1_without_traceback(runner, args):
    r = runner.invoke(main, args + ["--target", "< s >"])
    assert r.exit_code == 1 and isinstance(r.exception, SystemExit), r.exception
    assert "--target '< s >': brace segments are not allowed" in r.output


FUNCTOR = {"source_language": "ja", "target_language": "en", "mode": "antihomomorphism",
           "atom_map": {a: a for a in ["n", "s", "o1", "o2", "o5"]}}


@pytest.mark.parametrize("functor, wordmap, message", [
    ({k: v for k, v in FUNCTOR.items() if k != "atom_map"}, None, "missing field 'atom_map'"),
    (FUNCTOR, '{"mori": "forest", "neko": ', "line 1"),
    ({**FUNCTOR, "simple_overrides": {"zz^l": "n"}}, None, "'zz^l'"),
    ({**FUNCTOR, "reversal_mask": "yes"}, None, "field 'reversal_mask'"),
    (FUNCTOR, '{"mori": 1}', "expected a JSON object of strings"),
    ({**FUNCTOR, "atom_map": {**FUNCTOR["atom_map"], "n": "< n >"}}, None,
     "field 'atom_map': field 'n': brace segments are not allowed"),
    ({**FUNCTOR, "atom_map": {**FUNCTOR["atom_map"], "n": "q"}}, None,
     "field 'atom_map': field 'n': unknown atom 'q'"),
    ({**FUNCTOR, "simple_overrides": {"n^r": "< s >"}}, None,
     "field 'simple_overrides': field 'n^r': brace segments are not allowed"),
    ({**FUNCTOR, "mode": "homo"}, None, "field 'mode': unknown functor mode 'homo'"),
    ({**FUNCTOR, "post_metarules": [{"kind": "slot-flip", "head": {"x": 1}}]}, None,
     "post_metarules[0]: field 'head': expected a JSON string"),
    ({**FUNCTOR, "post_metarules": [{"kind": "slot-flip", "head": "q"}]}, None,
     "post_metarules[0]: metarule references unknown atom 'q'"),
    ({**FUNCTOR, "reversal_mask": [True, False, True]}, None,
     "field 'mode': antihomomorphism mode takes no reversal_mask"),
    ({**FUNCTOR, "mode": "homomorphism", "post_metarules": [{"kind": "slot-flip", "head": "s"}]},
     None, "field 'mode': homomorphism mode takes no post_metarules"),
])
def test_translate_bad_data_files_exit_1_without_traceback(
    runner, tmp_path, functor, wordmap, message
):
    functor_path = tmp_path / "functor.json"
    functor_path.write_text(json.dumps(functor))
    args = ["translate", "mori", "--functor", str(functor_path), "--src", "ja_mini",
            "--tgt", "en", "--target", "n"]
    if wordmap is None:
        args += ["--wordmap", "jp-en-anti"]
    else:
        (tmp_path / "wordmap.json").write_text(wordmap)
        args += ["--wordmap", str(tmp_path / "wordmap.json")]
    r = runner.invoke(main, args)
    assert r.exit_code == 1 and isinstance(r.exception, SystemExit), r.exception
    assert message in r.output and str(tmp_path) in r.output


def test_translate_image_that_does_not_reduce_exits_2(runner, tmp_path):
    # n^r maps to n, so the image of the five-word sentence keeps n n
    functor_path = tmp_path / "functor.json"
    functor_path.write_text(json.dumps(
        {**FUNCTOR, "mode": "homomorphism", "simple_overrides": {"n^r": "n"}}))
    args = ["translate", "mori ni neko ga iru", "--src", "ja_mini", "--tgt", "en",
            "--wordmap", "jp-en-anti", "--functor", str(functor_path)]
    diagnostic = "translated type '< n n o5 n n o1 o1^r o5^r s >' does not reduce to 's' in en"
    r = runner.invoke(main, args)
    assert r.exit_code == 2 and diagnostic in r.output.splitlines()
    r = runner.invoke(main, args + ["--format", "json"])
    assert r.exit_code == 2
    payload = json.loads(r.output)
    assert payload["target_reducible"] is False and payload["diagnostic"] == diagnostic


def _reference_translate_line(line, result):
    # the encoding cmd_translate made before it wrote its lines itself
    return json.dumps({"sentence": line,
                       "source_type": render_type(result.source_type),
                       "translated_type": render_type(result.translated),
                       "translation": result.text,
                       "target_reducible": result.target_witness is not None,
                       "diagnostic": result.diagnostic},
                      ensure_ascii=False, check_circular=False)


# quotes, backslashes, non-ASCII, ESC and other control characters
_raw_texts = st.text(st.one_of(st.sampled_from('"\\\n\t\x00\x1b\x7f\u2028é日\ud800^ '),
                               st.characters()))
_simple = st.builds(SimpleType, _raw_texts.filter(bool), st.integers(-3, 3), st.booleans())
_braced = st.lists(st.lists(_simple, max_size=3).map(lambda ps: CompoundType(tuple(ps))),
                   min_size=1, max_size=3).map(lambda segs: BracedType(tuple(segs)))
_results = st.builds(TranslationResult, _braced, st.just(ReductionWitness((), ())), _braced,
                     st.sampled_from([None, ReductionWitness((), ())]),
                     st.lists(_raw_texts, max_size=4).map(tuple), st.one_of(st.none(), _raw_texts))


@settings(max_examples=300, deadline=None)
@given(_raw_texts, _results)
@example("\x1b[31mneko\x1b[0m", TranslationResult(
    BracedType((CompoundType((SimpleType("n"),)),)), ReductionWitness((), ()),
    BracedType((CompoundType(()),)), None, ("\x1b", '"'), "does not \\ reduce"))
def test_json_translate_line_is_json_dumps_of_the_result_dict(line, result):
    assert _json_translate_line(line, result) == _reference_translate_line(line, result)


def _translate_expected(functor_name, lines, functor_path=None, wordmap_name=None):
    """Each line's expected stdout line: its reference JSON, or None where it
    is not translatable; a line that is an error for its line is left out."""
    reg = data.FUNCTOR_REGISTRY.get(functor_name, {"src": "ja_mini", "tgt": "en"})
    src, tgt = (load_lexicon(data.lexicon_path(reg[r])) for r in ("src", "tgt"))
    f = load_functor(functor_path or data.functor_path(functor_name), src.table, tgt.table)
    wm = load_wordmap(data.wordmap_path(wordmap_name or functor_name))
    expected = []
    for line in lines:
        tokens, bracing = [], []
        for piece in line.split():
            if piece == "|":
                bracing.append(len(tokens))
            else:
                tokens.append(piece)
        try:
            result = translate_sentence(src, tgt, f, wm, tokens, tuple(bracing) or None)
        except (NotTranslatableError, UnknownWordError):
            expected.append(None)
            continue
        except PregroupError:  # reported on stderr
            continue
        expected.append(_reference_translate_line(line, result))
    return expected


def test_translate_json_batch_is_byte_identical_to_the_reference_encoding(runner, tmp_path):
    lines = ["mori ni neko ga iru", "hon ni neko ga iru", "mori neko", "mori ni nekoé ga iru",
             "| mori ni neko ga iru", "mori ni neko ga iru"]
    r = runner.invoke(main, ["translate", "--functor", "jp-en-anti", "--format", "json"],
                      input="\n".join(lines) + "\n")
    assert r.exit_code == 1
    out = r.stdout.splitlines()
    expected = _translate_expected("jp-en-anti", lines)
    assert len(out) == len(expected) == 4
    for got, want in zip(out, expected):
        assert got.startswith("not translatable: ") if want is None else got == want
    # a string diagnostic: n^r maps to n, so the image does not reduce
    functor_path = tmp_path / "functor.json"
    functor_path.write_text(json.dumps(
        {**FUNCTOR, "mode": "homomorphism", "simple_overrides": {"n^r": "n"}}))
    lines = ["mori ni neko ga iru", "mori ni neko ga iru"]
    r = runner.invoke(main, ["translate", "--src", "ja_mini", "--tgt", "en", "--wordmap",
                             "jp-en-anti", "--functor", str(functor_path), "--format", "json"],
                      input="\n".join(lines) + "\n")
    assert r.exit_code == 2
    expected = _translate_expected("", lines, functor_path, "jp-en-anti")
    assert r.stdout.splitlines() == expected
    assert json.loads(expected[0])["diagnostic"].startswith("translated type ")


class _RecordingStdin:
    """Standard input that records, each time a line is read, how many
    lines standard output holds."""

    def __init__(self, lines, out):
        self.lines, self.out, self.seen = iter(lines), out, []

    def __iter__(self):
        return self

    def __next__(self):
        self.seen.append(self.out.getvalue().count("\n"))
        return next(self.lines)


@pytest.mark.parametrize("args, lines", [
    (["parse", "--lex", "ja", "--format", "json"],
     ["neko ga sakana wo taberu\n", "neko sakana\n", "\n", "neko ga sakana wo taberu\n"]),
    (["translate", "--functor", "jp-en-anti", "--format", "json"],
     ["mori ni neko ga iru\n", "mori neko\n", "  \n", "mori ni neko ga iru\n"]),
])
def test_json_output_is_streamed_line_by_line(monkeypatch, args, lines):
    # line i is on stdout before input line i + 1 is read
    out = io.StringIO()
    stdin = _RecordingStdin(lines, out)
    monkeypatch.setattr(sys, "stdin", stdin)
    monkeypatch.setattr(sys, "stdout", out)
    with pytest.raises(SystemExit) as exited:
        main(args, prog_name="pregtrans")
    assert exited.value.code == 2
    # a blank line writes nothing; the last read finds the input ended
    assert stdin.seen == [0, 1, 2, 2, 3]
    assert len(out.getvalue().splitlines()) == 3


@pytest.mark.parametrize("args, message", [
    (["| mori ni neko ga iru", "--functor", "jp-en-anti"], "bracing [0] does not partition 5 tokens"),
    (["neko", "--functor", "jp-ro-hom"], "functor 'jp-ro-hom' needs an explicit --wordmap"),
])
def test_translate_configuration_errors_exit_1(runner, args, message):
    r = runner.invoke(main, ["translate"] + args)
    assert r.exit_code == 1 and isinstance(r.exception, SystemExit), r.exception
    assert f"Error: {message}" in r.output


def test_translate_functor_file_needs_an_explicit_src(runner, tmp_path):
    functor_path = tmp_path / "functor.json"
    functor_path.write_text(json.dumps(FUNCTOR))
    r = runner.invoke(main, ["translate", "neko", "--functor", str(functor_path)])
    assert r.exit_code == 1 and isinstance(r.exception, SystemExit), r.exception
    assert f"functor {str(functor_path)!r} needs an explicit --src lexicon" in r.output


LEXICON = {"language": "xx", "atoms": ["n", "s", "o1", "o2"],
           "entries": [{"word": "w", "types": ["n"]}]}


@pytest.mark.parametrize("change, message", [
    ({"entries": ["cat"]}, "field 'entries': expected a JSON list of objects"),
    ({"atoms": 5}, "field 'atoms': expected a JSON list of strings"),
    ({"order": [["n"]]}, "field 'order[0]': expected a [lesser, greater] pair"),
    ({"metarules": ["x"]}, "field 'metarules': expected a JSON list of objects"),
    ({"entries": [{"word": "w", "types": "n s"}]},
     "entries[0]: field 'types': expected a JSON list of strings"),
    ({"entries": [{"word": "w", "aliases": "kt", "types": ["n"]}]},
     "entries[0]: field 'aliases': expected a JSON list of strings"),
    ({"metarules": [{"kind": "argument-swap", "cases": "o1", "head": "s"}]},
     "metarules[0]: field 'cases': expected a JSON list of strings"),
    ({"metarules": [{"kind": "slot-flip"}]}, "metarules[0]: missing field 'head'"),
    ({"metarules": [{"kind": "swap"}]}, "metarules[0]: unknown metarule kind 'swap'"),
])
def test_validate_malformed_lexicon_exits_1_without_traceback(runner, tmp_path, change, message):
    path = tmp_path / "lexicon.json"
    path.write_text(json.dumps({**LEXICON, **change}))
    r = runner.invoke(main, ["validate", str(path)])
    assert r.exit_code == 1 and isinstance(r.exception, SystemExit), r.exception
    assert f"{path}: {message}" in r.output


# ---- check / validate ----------------------------------------------------------

def test_check_laws(runner):
    r = runner.invoke(main, ["check", "laws", "--format", "json"])
    assert r.exit_code == 0
    assert json.loads(r.output)["ok"] is True


def test_check_naturality(runner):
    r = runner.invoke(main, ["check", "naturality", "--tol", "1e-9"])
    assert r.exit_code == 0
    assert "ok" in r.output


def test_check_naturality_reports_each_failing_square(runner):
    # at tolerance 0 the float round-off of each square fails it
    r = runner.invoke(main, ["check", "naturality", "--tol", "0"])
    assert r.exit_code == 1
    lines = r.output.splitlines()
    assert len(lines) == 4
    for line, name in zip(lines, ("adjective-noun", "five-word", "three-segment")):
        assert re.fullmatch(rf"FAIL {name} square residual \d\.\d{{3}}e[-+]\d+", line), line
    assert lines[3] == "naturality: 3 failure(s)"
    r = runner.invoke(main, ["check", "naturality", "--tol", "0", "--format", "json"])
    assert r.exit_code == 1
    payload = json.loads(r.output)
    assert payload["suite"] == "naturality" and payload["ok"] is False
    assert [f.split(" residual ")[0] for f in payload["failures"]] == [
        "adjective-noun square", "five-word square", "three-segment square"
    ]


def test_check_oracle(runner):
    r = runner.invoke(main, ["check", "oracle", "--max-len", "6", "--count", "60"])
    assert r.exit_code == 0


@pytest.mark.parametrize("suite, option, value, message", [
    ("oracle", "--max-len", "-1", "--max-len must be at least 0"),
    ("oracle", "--count", "0", "--count must be at least 1"),
    ("oracle", "--max-len", "20", "oracle limited to length <= 12"),
    ("oracle", "--max-len", "13 --count 1", "oracle limited to length <= 12"),
    ("naturality", "--tol", "-1", "--tol must be a finite number at least 0"),
    ("naturality", "--tol", "nan", "--tol must be a finite number at least 0"),
    ("naturality", "--tol", "inf", "--tol must be a finite number at least 0"),
    ("oracle", "--tol", "-inf", "--tol must be a finite number at least 0"),
])
def test_check_oracle_rejects_bad_options(runner, suite, option, value, message):
    r = runner.invoke(main, ["check", suite, option, *value.split()])
    assert r.exit_code == 1 and isinstance(r.exception, SystemExit), r.exception
    assert message in r.output


@pytest.mark.parametrize("args", [
    ["parse", "neko ga sakana wo taberu", "--lex", "ja", "--format", "xml"],
    ["parse", "neko", "--lex", "ja", "--bogus"],
    ["check", "nope"],
    ["check", "naturality", "--tol", "abc"],
    ["--bogus"],
])
def test_usage_errors_exit_1_without_traceback(runner, args):
    # exit 2 is kept for linguistic failures
    r = runner.invoke(main, args)
    assert r.exit_code == 1 and isinstance(r.exception, SystemExit), r.exception
    assert "Error: " in r.output


def test_validate(runner):
    r = runner.invoke(main, ["validate", "ja"])
    assert r.exit_code == 0
    assert "ok" in r.output
    r = runner.invoke(main, ["validate", "nope"])
    assert r.exit_code == 1


def _python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter run with ``args``, importing this checkout's package."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": path})


def test_validate_a_lexicon_nested_too_deeply_exits_1_without_traceback(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text('{"atoms": ' + "[" * 100_000 + "]" * 100_000 + "}")
    r = _python("-m", "pregtrans.cli", "validate", str(path))
    assert r.returncode == 1, r.stderr
    assert r.stderr.startswith(f"Error: {path}: ") and "Traceback" not in r.stderr, r.stderr


# run in a fresh interpreter: what importing the CLI loads, then what the
# package resolves on first use
IMPORT_PROBE = """\
import sys
import pregtrans.cli
print(sorted({"numpy", "pregtrans.semantics", "pregtrans.checks"} & set(sys.modules)))
import pregtrans
print(pregtrans.load_tensor_fixture.__module__, pregtrans.semantics.__name__,
      getattr(pregtrans, "interpret", None))
"""


def test_importing_the_cli_loads_neither_numpy_nor_the_semantics():
    r = _python("-c", IMPORT_PROBE)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines() == ["[]", "pregtrans.semantics pregtrans.semantics None"]


def test_a_directory_named_like_a_bundled_file_does_not_hide_it(runner, tmp_path, monkeypatch):
    (tmp_path / "ja").mkdir()
    monkeypatch.chdir(tmp_path)
    r = runner.invoke(main, ["validate", "ja"])
    assert r.exit_code == 0, r.output
    assert "ok" in r.output


@pytest.mark.parametrize("args, option, kind", [
    (["parse", "neko", "--lex"], "--lex", "lexicon"),
    (["translate", "mori ni neko ga iru", "--functor", "jp-en-anti", "--src"], "--src", "lexicon"),
    (["translate", "mori ni neko ga iru", "--functor", "jp-en-anti", "--tgt"], "--tgt", "lexicon"),
    (["translate", "mori ni neko ga iru", "--functor"], "--functor", "functor"),
    (["translate", "mori ni neko ga iru", "--functor", "jp-en-anti", "--wordmap"], "--wordmap",
     "word map"),
    (["validate"], "LEXICON_NAME", "lexicon"),
])
def test_a_missing_data_file_is_named_as_given(runner, tmp_path, args, option, kind):
    # not the bundled file name made up from it
    missing = str(tmp_path / "missing.json")
    r = runner.invoke(main, args + [missing])
    assert r.exit_code == 1, r.output
    assert r.output == (f"Error: {option} {missing!r}: no such file and no bundled {kind} "
                        "of that name\n")


# ---- README ------------------------------------------------------------------

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_section(title: str) -> str:
    return README.read_text(encoding="utf-8").split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


@pytest.mark.parametrize("line", [
    line for line in readme_section("CLI").splitlines() if line.startswith("pregtrans ")
])
def test_readme_cli_example_runs(runner, line):
    r = runner.invoke(main, shlex.split(line)[1:])
    assert r.exit_code == 0, r.output


def test_readme_library_example_prints_what_its_comment_says(capsys):
    code = readme_section("Library").split("```python\n", 1)[1].split("```", 1)[0]
    said = re.search(r"^print\(.*\)\s*# (.*)$", code, re.M)
    assert said is not None
    exec(code, {})
    assert capsys.readouterr().out == said.group(1) + "\n"


def test_readme_parse_example_prints_its_last_comment_lines(capsys):
    code = readme_section("Library").split("```python\n")[2].split("```", 1)[0]
    said = re.search(r"(?:^# .*\n)+\Z", code, re.M)
    assert said is not None
    exec(code, {})
    assert capsys.readouterr().out == re.sub(r"^# ", "", said.group(0), flags=re.M)


def test_readme_names_every_naturality_square():
    section = " ".join(readme_section("CLI").split())
    claim = re.search(r"`check naturality` checks (.*?) at `--tol`", section)
    assert claim is not None and "brace-wise" in claim.group(1)
    assert all(name in claim.group(1) for name, *_ in SQUARES)
