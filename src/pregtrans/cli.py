"""Command-line front end.

Exit codes: 0 success, 1 usage, configuration or input-file error, 2
linguistic failure (not reducible / not translatable).  Tokens are separated
by whitespace, `|` separates brace segments, and `@0` is the empty word.

Standard input is read one line at a time, each answered before the next
is read.  A ``--format json`` line is composed from ``_json_string``
pieces and written with one ``write`` and a ``flush`` to click's stdout
stream: it holds no escape character (every control character is written
as a ``\\u`` escape), so ``click.echo``'s ANSI stripping could change
nothing there.  Text and dot output keep ``click.echo``, since stripping
can change the bytes of a line that echoes an escape sequence from the
input.

Only ``check`` imports the check suites and the tensor semantics, and with
them numpy; ``parse``, ``translate`` and ``validate`` load neither.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from . import data as bundled
from .core import (
    AtomTable,
    CompoundType,
    PregroupError,
    concat,
    parse_plain_type,
    render_type,
)
from .functors import (
    NotTranslatableError,
    load_functor,
    load_wordmap,
    translate_sentence,
)
from .lexicon import UnknownWordError, load_lexicon
from .reduction import DEFAULT_LIMIT, diagram_renderer, parse_sentence, render_diagram

EXIT_CONFIG = 1
EXIT_LINGUISTIC = 2

# what json.dumps(s, ensure_ascii=False) does for a string s, without
# building an encoder per call
_json_string = json.JSONEncoder(ensure_ascii=False).encode


class CliError(click.ClickException):
    exit_code = EXIT_CONFIG


def _configured(step, *args, **kwargs):
    """``step(*args, **kwargs)``, with a usage error, a missing data file or
    bad data in one made a configuration error."""
    try:
        return step(*args, **kwargs)
    except click.UsageError as exc:
        exc.exit_code = EXIT_CONFIG
        raise
    except (FileNotFoundError, PregroupError) as exc:
        raise CliError(str(exc)) from exc


class _Group(click.Group):
    """The one place that makes usage and data errors exit 1 (see
    :func:`_configured`): the group's options are parsed in make_context,
    and a command's options are parsed and the command run in invoke."""

    def make_context(self, *args, **kwargs):
        return _configured(super().make_context, *args, **kwargs)

    def invoke(self, ctx):
        return _configured(super().invoke, ctx)


def _locate(option: str, name: str, bundled_path, kind: str) -> Path:
    """The file at path ``name``, or else the bundled ``kind`` so named;
    an error naming ``option`` and ``name`` as given if neither exists."""
    path = Path(name)
    if path.is_file():
        return path
    try:
        return bundled_path(name)
    except FileNotFoundError:
        message = f"{option} {name!r}: no such file and no bundled {kind} of that name"
        raise CliError(message) from None


def _goal(target: str, table: AtomTable) -> CompoundType:
    """The ``--target`` type, which must not have brace segments."""
    try:
        return parse_plain_type(target, table)
    except PregroupError as exc:
        raise CliError(f"--target {target!r}: {exc}") from exc


def _sentences(sentence: str | None):
    """``[sentence]``, or else each non-blank stdin line, stripped, read
    only once the line before it is answered, so output streams."""
    if sentence is not None:
        return [sentence]
    return filter(None, map(str.strip, sys.stdin))


@click.group(cls=_Group)
def main():
    """Pregroup parsing, translation, and semantic checks."""


@main.command(name="parse")
@click.argument("sentence", required=False)
@click.option("--lex", "lexicon_name", required=True, help="Lexicon name or path.")
@click.option("--target", default="s", show_default=True, help="Target type string.")
@click.option("--all", "enumerate_all", is_flag=True, help="Enumerate all witnesses.")
@click.option("--limit", default=DEFAULT_LIMIT, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["text", "dot", "json"]), default="text")
def cmd_parse(sentence, lexicon_name, target, enumerate_all, limit, fmt):
    """Decide grammaticality and render reduction diagrams.

    Without SENTENCE, reads one sentence per line from standard input.
    """
    if enumerate_all and limit < 1:
        raise CliError("--limit must be at least 1")
    lex = load_lexicon(_locate("--lex", lexicon_name, bundled.lexicon_path, "lexicon"))
    goal = _goal(target, lex.table)
    exit_code = 0
    budget = limit if enumerate_all else 1
    link_text = _LinkText()
    out = click.get_text_stream("stdout")
    for line in _sentences(sentence):
        try:
            records = parse_sentence(lex, line.split(), goal, budget)
        except UnknownWordError as exc:  # an error for this line; the batch goes on
            click.echo(f"Error: {exc}", err=True)
            exit_code = EXIT_CONFIG
            continue
        found = []  # (flat type, its rendering, its witnesses) per selection
        for selection, witnesses in records:
            flat = concat(selection)
            found.append((flat, render_type(flat), witnesses))
        if fmt == "json":
            out.write(_json_parse_line(line, found, link_text) + "\n")
            out.flush()
        elif not found:
            click.echo(f"not reducible: {line!r} does not reduce to {target!r}")
        else:
            for flat, _, witnesses in found:
                draw = diagram_renderer(flat, fmt)
                for w in witnesses:
                    click.echo(draw(w) + "\n")
        if not found:
            exit_code = exit_code or EXIT_LINGUISTIC
    sys.exit(exit_code)


class _LinkText(dict):
    """Each link's JSON text, ``(i, j) -> "[i, j]"``, made on first use."""

    def __missing__(self, link):
        text = self[link] = "[%d, %d]" % link
        return text


def _json_parse_line(line: str, found, link_text: _LinkText) -> str:
    """One ``parse --format json`` line for ``found``, a list of (flat type,
    its rendering, its witnesses) per type selection; the same text as
    ``json.dumps`` (``ensure_ascii=False``) of ``{"sentence", "reducible",
    "witnesses"}`` with a ``{"type", "links", "residue"}`` dict per witness,
    written directly: the type once per selection, each distinct link once
    in ``link_text`` and each distinct residue's closing text once per
    line."""
    items, text, tails = [], link_text.__getitem__, {}
    for _, shown, witnesses in found:
        head = '{"type": %s, "links": [' % _json_string(shown)
        for links, residue in witnesses:
            tail = tails.get(residue)
            if tail is None:
                tail = tails[residue] = '], "residue": [%s]}' % ", ".join(map(str, residue))
            items.append(f"{head}{', '.join(map(text, links))}{tail}")
    return ('{"sentence": %s, "reducible": %s, "witnesses": [%s]}'
            % (_json_string(line), "true" if items else "false",
               ", ".join(items)))


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
    functor_path = _locate("--functor", functor_name, bundled.functor_path, "functor")
    lexicons = []
    for name, role in ((src_name, "src"), (tgt_name, "tgt")):
        if name is None and role not in defaults:
            raise CliError(f"functor {functor_name!r} needs an explicit --{role} lexicon")
        path = _locate(f"--{role}", name or defaults[role], bundled.lexicon_path, "lexicon")
        lexicons.append(load_lexicon(path))
    src, tgt = lexicons
    goal = _goal(target, src.table)  # a bad --target fails before any sentence is read
    functor = load_functor(functor_path, src.table, tgt.table)
    if wordmap_name is not None:
        wordmap_path = _locate("--wordmap", wordmap_name, bundled.wordmap_path, "word map")
    else:
        try:
            wordmap_path = bundled.wordmap_path(functor_name)
        except FileNotFoundError as exc:
            raise CliError(f"functor {functor_name!r} needs an explicit --wordmap") from exc
    wm = load_wordmap(wordmap_path)
    exit_code = 0
    out = click.get_text_stream("stdout")
    for line in _sentences(sentence):
        tokens, bracing = [], []
        for piece in line.split():
            if piece == "|":
                bracing.append(len(tokens))
            else:
                tokens.append(piece)
        try:
            result = translate_sentence(
                src, tgt, functor, wm, tokens, tuple(bracing) or None, source_target=goal
            )
        except (NotTranslatableError, UnknownWordError) as exc:
            click.echo(f"not translatable: {exc}")
            exit_code = exit_code or EXIT_LINGUISTIC
            continue
        except PregroupError as exc:  # an error for this line; the batch goes on
            click.echo(f"Error: {exc}", err=True)
            exit_code = EXIT_CONFIG
            continue
        if fmt == "json":
            out.write(_json_translate_line(line, result) + "\n")
            out.flush()
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
            exit_code = exit_code or EXIT_LINGUISTIC
    sys.exit(exit_code)


def _json_translate_line(line: str, result) -> str:
    """One ``translate --format json`` line: the same text as ``json.dumps``
    (``ensure_ascii=False``) of ``{"sentence", "source_type",
    "translated_type", "translation", "target_reducible", "diagnostic"}``,
    written directly."""
    diagnostic = result.diagnostic
    return ('{"sentence": %s, "source_type": %s, "translated_type": %s, "translation": %s, '
            '"target_reducible": %s, "diagnostic": %s}'
            % (_json_string(line), _json_string(render_type(result.source_type)),
               _json_string(render_type(result.translated)), _json_string(result.text),
               "false" if result.target_witness is None else "true",
               "null" if diagnostic is None else _json_string(diagnostic)))


@main.command(name="check")
@click.argument("suite", type=click.Choice(["laws", "naturality", "oracle"]))
@click.option("--tol", default=1e-9, show_default=True)
@click.option("--max-len", default=8, show_default=True)
@click.option("--count", default=300, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
def cmd_check(suite, tol, max_len, count, fmt):
    """Run a property suite: pregroup/functor laws, naturality squares,
    or the DP-versus-brute-force reduction oracle."""
    from . import checks  # loads numpy, which no other command needs

    if not 0 <= tol < float("inf"):  # false for nan too
        raise CliError("--tol must be a finite number at least 0")
    if suite == "oracle":
        if max_len < 0:
            raise CliError("--max-len must be at least 0")
        if max_len > checks.ORACLE_MAX_LEN:
            raise CliError(f"--max-len {max_len}: oracle limited to length <= "
                           f"{checks.ORACLE_MAX_LEN}")
        if count < 1:
            raise CliError("--count must be at least 1")
    if suite == "laws":
        failures = checks.law_failures()
    elif suite == "naturality":
        failures = checks.naturality_failures(tol)
    else:
        failures = checks.oracle_failures(max_len, count)
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
    lex = load_lexicon(_locate("LEXICON_NAME", lexicon_name, bundled.lexicon_path, "lexicon"))
    click.echo(
        f"ok: language {lex.language!r}, {len(lex.entries)} entries, "
        f"{len(lex.table.atoms)} atoms, {len(lex.metarules)} metarules"
    )


if __name__ == "__main__":
    main()
