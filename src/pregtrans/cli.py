"""Command-line front end.

Exit codes: 0 success, 1 configuration or input-file error, 2 linguistic
failure (not reducible / not translatable).  Tokens are separated by
whitespace, `|` separates brace segments, and `@0` is the empty word.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import click
import numpy as np

from . import data as bundled
from .core import (
    AtomTable,
    CompoundType,
    PregroupError,
    concat,
    parse_plain_type,
    parse_type,
    render_type,
)
from .functors import (
    FunctorSpec,
    NotTranslatableError,
    apply_functor,
    check_functor_laws,
    load_functor,
    load_wordmap,
    translate_sentence,
)
from .lexicon import UnknownWordError, load_lexicon
from .reduction import oracle_selections, reduce, render_diagram, type_selections
from .semantics import (
    AlphaSpec,
    check_naturality,
    lcg_array,
    load_tensor_fixture,
)

EXIT_CONFIG = 1
EXIT_LINGUISTIC = 2


class CliError(click.ClickException):
    exit_code = EXIT_CONFIG


def _configured(step, *args):
    """``step(*args)``, with a missing data file or bad data in one raised
    as a configuration error."""
    try:
        return step(*args)
    except (FileNotFoundError, PregroupError) as exc:
        raise CliError(str(exc)) from exc


def _locate(name: str, bundled_path) -> Path:
    """The file at path ``name``, or else the bundled data file so named."""
    path = Path(name)
    return path if path.exists() else _configured(bundled_path, name)


def _goal(target: str, table: AtomTable) -> CompoundType:
    """The ``--target`` type, which must not have brace segments."""
    try:
        return parse_plain_type(target, table)
    except PregroupError as exc:
        raise CliError(f"--target {target!r}: {exc}") from exc


def _sentences(sentence: str | None):
    if sentence is not None:
        return [sentence]
    return [line.strip() for line in sys.stdin if line.strip()]


@click.group()
def main():
    """Pregroup parsing, translation, and semantic checks."""


@main.command(name="parse")
@click.argument("sentence", required=False)
@click.option("--lex", "lexicon_name", required=True, help="Lexicon name or path.")
@click.option("--target", default="s", show_default=True, help="Target type string.")
@click.option("--all", "enumerate_all", is_flag=True, help="Enumerate all witnesses.")
@click.option("--limit", default=1024, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["text", "dot", "json"]), default="text")
def cmd_parse(sentence, lexicon_name, target, enumerate_all, limit, fmt):
    """Decide grammaticality and render reduction diagrams.

    Without SENTENCE, reads one sentence per line from standard input.
    """
    if enumerate_all and limit < 1:
        raise CliError("--limit must be at least 1")
    lex = _configured(load_lexicon, _locate(lexicon_name, bundled.lexicon_path))
    goal = _goal(target, lex.table)
    exit_code = 0
    budget = limit if enumerate_all else 1
    for line in _sentences(sentence):
        alternatives = [_configured(lex.alternatives, tok) for tok in line.split()]
        found = []  # (flat type, its rendering, witness)
        for selection, search in type_selections(alternatives, goal, lex.table):
            flat = concat(selection)
            shown = render_type(flat)
            found.extend((flat, shown, w) for w in search.witnesses(budget - len(found)))
            if len(found) >= budget:
                break
        if fmt == "json":
            click.echo(
                json.dumps(
                    {
                        "sentence": line,
                        "reducible": bool(found),
                        "witnesses": [
                            {
                                "type": shown,
                                "links": sorted(list(l) for l in w.links),
                                "residue": list(w.residue),
                            }
                            for _, shown, w in found
                        ],
                    },
                    ensure_ascii=False,
                )
            )
        elif not found:
            click.echo(f"not reducible: {line!r} does not reduce to {target!r}")
        else:
            for flat, _, w in found:
                click.echo(render_diagram(flat, w, format="text" if fmt == "text" else "dot"))
                click.echo()
        if not found:
            exit_code = EXIT_LINGUISTIC
    sys.exit(exit_code)


@main.command(name="translate")
@click.argument("sentence", required=False)
@click.option("--functor", "functor_name", required=True, help="Functor name or path.")
@click.option("--wordmap", "wordmap_name", default=None, help="Word map name or path.")
@click.option("--src", "src_name", default=None, help="Source lexicon name or path.")
@click.option("--tgt", "tgt_name", default=None, help="Target lexicon name or path.")
@click.option("--target", default="s", show_default=True, help="Source target type.")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
def cmd_translate(sentence, functor_name, wordmap_name, src_name, tgt_name, target, fmt):
    """Translate a sentence; `|` marks brace segment boundaries.

    Without SENTENCE, reads one sentence per line from standard input.
    """
    defaults = bundled.FUNCTOR_REGISTRY.get(functor_name, {})
    functor_path = _locate(functor_name, bundled.functor_path)
    lexicons = []
    for name, role in ((src_name, "src"), (tgt_name, "tgt")):
        if name is None and role not in defaults:
            raise CliError(f"functor {functor_name!r} needs an explicit --{role} lexicon")
        path = _locate(name or defaults[role], bundled.lexicon_path)
        lexicons.append(_configured(load_lexicon, path))
    src, tgt = lexicons
    _goal(target, src.table)  # a bad --target fails before any sentence is read
    functor = _configured(load_functor, functor_path, src.table, tgt.table)
    if wordmap_name is not None:
        wordmap_path = _locate(wordmap_name, bundled.wordmap_path)
    else:
        try:
            wordmap_path = bundled.wordmap_path(functor_name)
        except FileNotFoundError as exc:
            raise CliError(f"functor {functor_name!r} needs an explicit --wordmap") from exc
    wm = _configured(load_wordmap, wordmap_path)
    exit_code = 0
    for line in _sentences(sentence):
        tokens, bracing = [], []
        for piece in line.split():
            if piece == "|":
                bracing.append(len(tokens))
            else:
                tokens.append(piece)
        try:
            result = translate_sentence(
                src, tgt, functor, wm, tokens, tuple(bracing) or None, source_target=target
            )
        except (NotTranslatableError, UnknownWordError) as exc:
            click.echo(f"not translatable: {exc}")
            exit_code = EXIT_LINGUISTIC
            continue
        except PregroupError as exc:
            raise CliError(str(exc)) from exc
        if fmt == "json":
            click.echo(
                json.dumps(
                    {
                        "sentence": line,
                        "source_type": render_type(result.source_type),
                        "translated_type": render_type(result.translated),
                        "translation": result.text,
                        "target_reducible": result.target_witness is not None,
                        "diagnostic": result.diagnostic,
                    },
                    ensure_ascii=False,
                )
            )
        else:
            click.echo(f"source type:     {render_type(result.source_type)}")
            click.echo(render_diagram(result.source_type, result.source_witness))
            click.echo(f"translated type: {render_type(result.translated)}")
            if result.target_witness is not None:
                click.echo(render_diagram(result.translated, result.target_witness))
            else:
                click.echo(result.diagnostic)
            click.echo(f"translation:     {result.text}")
        if result.target_witness is None:
            exit_code = EXIT_LINGUISTIC
    sys.exit(exit_code)


def _law_suite() -> list[str]:
    from .core import left_adjoint, right_adjoint, SimpleType, contracts

    table = AtomTable({"a", "b", "c", "d"}, [("a", "b")])
    rng = random.Random(0)
    failures = []

    def random_type(max_len=6):
        parts = tuple(
            SimpleType(rng.choice("abcd"), rng.randint(-2, 2), rng.random() < 0.2)
            for _ in range(rng.randint(0, max_len))
        )
        return CompoundType(parts)

    for _ in range(1000):
        t, u = random_type(), random_type()
        if right_adjoint(left_adjoint(t)) != t or left_adjoint(right_adjoint(t)) != t:
            failures.append(f"involution fails on {render_type(t)!r}")
        if left_adjoint(t + u) != left_adjoint(u) + left_adjoint(t):
            failures.append(f"anti-distribution fails on {render_type(t + u)!r}")
        for p in t.parts:
            if not contracts(p, p.right, table) or not contracts(p.left, p, table):
                failures.append(f"contraction law fails on {p.render()!r}")
    if left_adjoint(CompoundType()) != CompoundType():
        failures.append("unit law fails")

    en = AtomTable({"a", "b", "c", "d"})
    samples = [random_type(3) for _ in range(20)]
    for mode in ("homomorphism", "antihomomorphism"):
        spec = FunctorSpec(
            "x", "y", mode, {a: parse_type(a, en) for a in "abcd"}, en
        )
        report = check_functor_laws(spec, samples)
        if not report.ok:
            failures.append(f"{mode} law violations: {len(report.violations)}")
    return failures


# name, tensor fixture, functor mode, goal, LCG seed of each atom's alpha component
_SQUARES = (
    ("adjective-noun", "adj_noun", "homomorphism", "n", {"n": 1}),
    ("five-word", "mori", "antihomomorphism", "s", {"n": 2, "o1": 2, "o5": 2, "s": 3}),
)


def _naturality_suite(tol: float) -> list[str]:
    failures = []
    en_table = AtomTable({"n", "s", "o1", "o2", "o5"})
    identity_map = {a: parse_type(a, en_table) for a in en_table.atoms}
    for name, fixture, mode, goal, seeds in _SQUARES:
        spaces, tensors = load_tensor_fixture(bundled.tensor_path(fixture))
        table = AtomTable(dict(spaces.dims).keys())
        flat = concat(wt.type for wt in tensors)
        src_w = reduce(flat, parse_type(goal, table), table)
        functor = FunctorSpec("ja", "en", mode, identity_map, en_table)
        tgt_w = reduce(apply_functor(functor, flat), parse_type(goal, en_table), en_table)
        alpha = AlphaSpec.make({
            atom: np.eye(spaces.dim(atom)) + 0.2 * lcg_array(seed, (spaces.dim(atom),) * 2)
            for atom, seed in seeds.items()
        })
        report = check_naturality(alpha, src_w, tensors, functor, tgt_w, tol)
        if not report.ok:
            failures.append(f"{name} square residual {report.max_residual:.3e}")
    return failures


def _oracle_suite(max_len: int, count: int) -> list[str]:
    """Random tokens of one to three alternative types, at most ``max_len``
    simple types per selection and 27 selections per sentence: the search
    must pick the same selections, in order, with the same witnesses as
    the brute-force oracle."""
    from .core import SimpleType

    table = AtomTable({"a", "b", "c", "d"}, [("a", "b")])
    rng = random.Random(42)
    failures = []
    goal = CompoundType((SimpleType("b"),))
    for _ in range(count):
        alternatives, room, selections = [], rng.randint(0, max_len), 1
        while room > 0:
            size = rng.randint(1, min(room, 3))
            ways = rng.randint(1, 3) if selections * 3 <= 27 else 1
            alternatives.append([
                CompoundType(tuple(
                    SimpleType(rng.choice("abb"), rng.randint(-1, 1))
                    for _ in range(rng.randint(0, size))
                ))
                for _ in range(ways)
            ])
            room, selections = room - size, selections * ways
        fast = [(s, set(w.witnesses())) for s, w in type_selections(alternatives, goal, table)]
        slow = [(s, set(ws)) for s, ws in oracle_selections(alternatives, goal, table)]
        if fast != slow:
            shown = " ".join("{" + " | ".join(map(render_type, a)) + "}" for a in alternatives)
            failures.append(f"mismatch on {shown}")
    return failures


@main.command(name="check")
@click.argument("suite", type=click.Choice(["laws", "naturality", "oracle"]))
@click.option("--tol", default=1e-9, show_default=True)
@click.option("--max-len", default=8, show_default=True)
@click.option("--count", default=300, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
def cmd_check(suite, tol, max_len, count, fmt):
    """Run a property suite: pregroup/functor laws, naturality squares,
    or the DP-versus-brute-force reduction oracle."""
    if suite == "laws":
        failures = _law_suite()
    elif suite == "naturality":
        failures = _naturality_suite(tol)
    else:
        failures = _oracle_suite(max_len, count)
    if fmt == "json":
        click.echo(json.dumps({"suite": suite, "ok": not failures, "failures": failures}))
    else:
        for f in failures:
            click.echo(f"FAIL {f}")
        click.echo(f"{suite}: {'ok' if not failures else f'{len(failures)} failure(s)'}")
    sys.exit(0 if not failures else EXIT_CONFIG)


@main.command(name="validate")
@click.argument("lexicon_name")
def cmd_validate(lexicon_name):
    """Load and validate a lexicon file (or bundled lexicon name)."""
    lex = _configured(load_lexicon, _locate(lexicon_name, bundled.lexicon_path))
    click.echo(
        f"ok: language {lex.language!r}, {len(lex.entries)} entries, "
        f"{len(lex.table.atoms)} atoms, {len(lex.metarules)} metarules"
    )


if __name__ == "__main__":
    main()
