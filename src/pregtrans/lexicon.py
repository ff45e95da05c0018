"""Per-language lexicons: word -> type assignments, atom tables, empty
words, and metarules that expand each word's type set.

Lexicon files are UTF-8 JSON objects with these fields:

* ``language`` (string, default ``"und"``);
* ``atoms`` (list of strings);
* ``order`` (list of ``[lesser, greater]`` pairs of strings, default empty);
* ``entries`` (list of objects: ``word`` string, ``types`` list of type
  strings, ``aliases`` list of strings, default empty);
* ``metarules`` (list of objects, default empty): ``kind`` string plus the
  kind's parameters, ``cases`` (list of strings) and ``head`` (string) for
  ``argument-swap``, ``atom`` and ``replacement`` (strings) for
  ``atom-expansion``, ``head`` (string) for ``slot-flip``;
* ``empty_words`` (list of type strings, default empty).

A file that does not decode, a missing field, a field of the wrong JSON
type, an order entry that is not a pair, and a metarule of unknown kind,
with fewer than two cases or with an empty parameter raise a
:class:`LexiconError` at once, naming the file and the field.  Grammar
errors are collected into one message: bad atom names, an order over
unknown atoms or with a cycle, type strings that do not parse, an entry
with an empty word or no valid type, conflicting duplicate entries, an
alias that is another entry's word or that two entries claim, and
metarules naming unknown atoms or with a bad replacement.
"""

from __future__ import annotations

import difflib
import json
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple

from .core import (
    AtomTable,
    CompoundType,
    JsonObject,
    PregroupError,
    SimpleType,
    TypeParseError,
    parse_plain_type,
    render_type,
)

EMPTY_TOKENS = {"∅", "@0"}  # the explicit empty word

# kind -> its parameters and their JSON types (a list holds strings)
METARULE_PARAMS = {
    "argument-swap": {"cases": list, "head": str},
    "atom-expansion": {"atom": str, "replacement": str},
    "slot-flip": {"head": str},
}

CLOSURE_DEPTH = 3


class LexiconError(PregroupError):
    pass


class UnknownWordError(LexiconError):
    def __init__(self, word: str, candidates=()):
        hint = f" (did you mean: {', '.join(candidates)}?)" if candidates else ""
        super().__init__(f"unknown word {word!r}{hint}")
        self.word = word


@dataclass(frozen=True)
class Metarule:
    """A schema that derives extra lexical types from existing ones.

    * ``argument-swap``: `X^r Y^r T...` also types as `Y^r X^r T...` when
      X, Y are case atoms and the remainder is sentence-headed.
    * ``atom-expansion``: a plain atom rewrites to a fixed type wherever it
      occurs at exponent 0 (genitive: o4 -> n n^l).
    * ``slot-flip``: `S X^l W...` <-> `X^r S W...` with S sentence-headed,
      applied in both directions.
    """

    kind: str
    params: dict  # parameter -> value, as in the rule's JSON object

    @classmethod
    def make(cls, kind: str, **params) -> "Metarule":
        if kind not in METARULE_PARAMS:
            raise LexiconError(f"unknown metarule kind {kind!r}")
        p = params
        if kind == "argument-swap" and (len(p.get("cases", ())) < 2 or not p.get("head")):
            raise LexiconError("argument-swap needs at least two case atoms and a head atom")
        if kind == "atom-expansion" and (not p.get("atom") or not p.get("replacement")):
            raise LexiconError("atom-expansion needs an atom and a replacement type")
        if kind == "slot-flip" and not p.get("head"):
            raise LexiconError("slot-flip needs a head atom")
        return cls(kind, params)

    @classmethod
    def from_json(cls, rule: JsonObject) -> "Metarule":
        """The metarule in the JSON object ``rule``: its ``kind`` and the
        parameters METARULE_PARAMS lists for that kind.  A missing field, a
        wrong JSON type and a rule :meth:`make` rejects raise ``rule.error``
        naming the file and the field; :meth:`check` checks the rule
        against a grammar."""
        kind = rule.get("kind", str)
        params = {
            name: rule.get(name, json_kind, str if json_kind is list else None)
            for name, json_kind in METARULE_PARAMS.get(kind, {}).items()
        }
        return rule.wrap(None, cls.make, kind, **params)

    def to_json(self) -> dict:
        return {"kind": self.kind, **self.params}

    def check(self, table: AtomTable):
        """Raise :class:`LexiconError` unless every atom the rule names is in
        ``table`` and an atom-expansion's replacement parses against it."""
        p = self.params
        for a in [*p.get("cases", ()), p.get("head", p.get("atom"))]:
            if a not in table:
                raise LexiconError(f"metarule references unknown atom {a!r}")
        if self.kind == "atom-expansion":
            try:
                parse_plain_type(p["replacement"], table)
            except TypeParseError as exc:
                raise LexiconError(str(exc)) from None

    @cached_property
    def _cases(self) -> frozenset[str]:
        # an argument-swap's case atoms, as a set made once per rule
        return frozenset(self.params["cases"])

    def apply(self, t: CompoundType, table: AtomTable) -> list[CompoundType]:
        """All types derivable from ``t`` by one application."""
        p = self.params
        out: list[CompoundType] = []
        parts = t.parts
        if self.kind == "argument-swap":
            cases = self._cases
            head = p["head"]
            if (
                len(parts) >= 3
                and parts[0].exponent == 1
                and parts[1].exponent == 1
                and not parts[0].beta
                and not parts[1].beta
                and parts[0].atom in cases
                and parts[1].atom in cases
                and parts[0].atom != parts[1].atom
                and any(
                    q.exponent == 0 and not q.beta and table.leq(q.atom, head)
                    for q in parts[2:]
                )
            ):
                out.append(CompoundType((parts[1], parts[0]) + parts[2:]))
        elif self.kind == "atom-expansion":
            for i, q in enumerate(parts):
                if q.atom == p["atom"] and q.exponent == 0 and not q.beta:
                    replacement = parse_plain_type(p["replacement"], table).parts
                    out.append(CompoundType(parts[:i] + replacement + parts[i + 1 :]))
        elif self.kind == "slot-flip":
            head = p["head"]
            if len(parts) >= 2:
                s, x = parts[0], parts[1]
                if s.exponent == 0 and not s.beta and table.leq(s.atom, head) and x.exponent == -1:
                    out.append(
                        CompoundType((SimpleType(x.atom, 1, x.beta), s) + parts[2:])
                    )
                if s.exponent == 1 and x.exponent == 0 and not x.beta and table.leq(x.atom, head):
                    out.append(
                        CompoundType((x, SimpleType(s.atom, -1, s.beta)) + parts[2:])
                    )
        return out

    @property
    def swaps_first_two(self) -> bool:
        """Whether a type the rule rewrites keeps its simple types in place
        but for its first two, which trade places (slot-flip also moves
        their adjoints), as ``argument-swap`` and ``slot-flip`` do."""
        return self.kind in ("argument-swap", "slot-flip")

    def apply_once(self, t: CompoundType, table: AtomTable) -> CompoundType:
        """Deterministic single application: the first derived type if the
        rule matches, otherwise the input unchanged."""
        derived = self.apply(t, table)
        return derived[0] if derived else t


class LexiconEntry(NamedTuple):
    """A word, its types and its aliases (a named tuple: a load makes one
    per entry, at half the cost of a frozen dataclass)."""

    word: str
    types: tuple[CompoundType, ...]
    aliases: tuple[str, ...] = ()


class Lexicon:
    """An immutable word -> types store for one language."""

    def __init__(
        self,
        language: str,
        table: AtomTable,
        entries: dict[str, LexiconEntry],
        metarules: list[Metarule] = (),
        empty_words: tuple[CompoundType, ...] = (),
    ):
        self.language = language
        self.table = table
        self.entries = dict(entries)
        self.metarules = list(metarules)
        self.empty_words = tuple(empty_words)
        self._alternatives: dict[str, tuple[CompoundType, ...]] = {}  # see alternatives()
        self._aliases = {}
        for entry in self.entries.values():
            for alias in entry.aliases:
                self._aliases[alias] = entry.word

    def resolve(self, token: str) -> str | None:
        if token in self.entries:
            return token
        return self._aliases.get(token)

    def types_of(self, word: str) -> frozenset[CompoundType]:
        """The word's types closed under the metarules (bounded depth)."""
        return frozenset(self.alternatives(word))

    def alternatives(self, word: str) -> tuple[CompoundType, ...]:
        """The word's types (see :meth:`types_of`) in rendered order, the
        order in which type selections try them, computed on first use and
        kept: a lexicon does not change."""
        found = self._alternatives.get(word)
        if found is None:
            found = self._alternatives[word] = tuple(sorted(self._close(word), key=render_type))
        return found

    def _close(self, word: str) -> frozenset[CompoundType]:
        if word in EMPTY_TOKENS:
            return frozenset(self.empty_words)
        key = self.resolve(word)
        if key is None:
            near = difflib.get_close_matches(word, list(self.entries) + list(self._aliases))
            raise UnknownWordError(word, near)
        closed = set(self.entries[key].types)
        frontier = set(closed)
        for _ in range(CLOSURE_DEPTH):
            new = set()
            for t in frontier:
                for rule in self.metarules:
                    for derived in rule.apply(t, self.table):
                        if derived not in closed:
                            new.add(derived)
            if not new:
                break
            closed |= new
            frontier = new
        return frozenset(closed)

    def to_dict(self) -> dict:
        return {
            "language": self.language,
            "atoms": sorted(self.table.atoms),
            "order": sorted(list(p) for p in self.table.order_pairs),
            "entries": [
                {
                    "word": e.word,
                    **({"aliases": list(e.aliases)} if e.aliases else {}),
                    "types": sorted(render_type(t) for t in e.types),
                }
                for e in (self.entries[w] for w in sorted(self.entries))
            ],
            "metarules": [r.to_json() for r in self.metarules],
            "empty_words": sorted(render_type(t) for t in self.empty_words),
        }


_parts = attrgetter("parts")


def _strings(value) -> bool:
    """Whether ``value`` is a JSON list of strings."""
    if type(value) is not list:
        return False
    for v in value:
        if type(v) is not str:
            return False
    return True


def load_lexicon(path: str | Path) -> Lexicon:
    """The lexicon in the JSON file at ``path``: a malformed file raises
    at once, grammar errors are collected (see the module docstring)."""
    doc = JsonObject.read(path, LexiconError)
    language = doc.get("language", str, default="und")
    atoms = doc.get("atoms", list, items=str)
    pairs = []
    for i, pair in enumerate(doc.get("order", list, items=list, default=[])):
        if len(doc.check(pair, list, str, f"order[{i}]")) != 2:
            raise LexiconError(f"{doc.where}: field 'order[{i}]': expected a [lesser, greater] pair")
        pairs.append(tuple(pair))
    entries = []
    for i, raw in enumerate(doc.get("entries", list, items=dict)):
        word, texts, aliases = raw.get("word"), raw.get("types"), raw.get("aliases", [])
        if not (type(word) is str and _strings(texts) and _strings(aliases)):
            # the same checks again, through JsonObject, for its message
            entry = JsonObject(raw, f"{doc.where}: entries[{i}]", LexiconError)
            word, texts = entry.get("word", str), entry.get("types", list, items=str)
            aliases = entry.get("aliases", list, items=str, default=[])
        entries.append((word, texts, tuple(aliases)))
    rules = [Metarule.from_json(JsonObject(raw, f"{doc.where}: metarules[{i}]", LexiconError))
             for i, raw in enumerate(doc.get("metarules", list, items=dict, default=[]))]
    empty_texts = doc.get("empty_words", list, items=str, default=[])

    errors: list[str] = []
    try:
        table = AtomTable(atoms, pairs)
    except PregroupError as exc:
        # keep collecting entry errors against an order-free table so one
        # load reports every problem in the file
        errors.append(str(exc))
        try:
            table = AtomTable(atoms)
        except PregroupError:
            raise LexiconError(f"{doc.where}: " + "; ".join(errors)) from exc

    def parsed(texts: list[str], what: str, *args) -> list[CompoundType]:
        # the types that parse; ``what % args`` heads the error of each that does not
        types = []
        for text in texts:
            try:
                types.append(parse_plain_type(text, table))
            except PregroupError as exc:
                errors.append(f"{what % args}: {exc}")
        return types

    words: dict[str, LexiconEntry] = {}
    for i, (word, texts, aliases) in enumerate(entries):
        if not word:
            errors.append(f"entries[{i}]: entry with empty word")
            continue
        types = parsed(texts, "entries[%d]: field 'types': word %r", i, word)
        if not types:
            errors.append(f"entries[{i}]: field 'types': word {word!r} has no valid types")
            continue
        if len(types) > 1:  # in the dataclass order, which compares (parts,)
            types = sorted(set(types), key=_parts)
        made = LexiconEntry(word, tuple(types), aliases)
        if word in words and words[word] != made:
            errors.append(f"entries[{i}]: duplicate word {word!r} with conflicting entry")
            continue
        words[word] = made
    owners: dict[str, str] = {}  # alias -> the word that claimed it first
    for entry in words.values():
        for alias in entry.aliases:
            if alias in words and alias != entry.word:
                errors.append(f"alias {alias!r} of word {entry.word!r} is another entry's word")
            elif owners.setdefault(alias, entry.word) != entry.word:
                errors.append(f"alias {alias!r} is claimed by {owners[alias]!r} and {entry.word!r}")
    for i, rule in enumerate(rules):
        try:
            rule.check(table)
        except PregroupError as exc:
            errors.append(f"metarules[{i}]: {exc}")
    empty_words = parsed(empty_texts, "empty word")
    if errors:
        raise LexiconError(f"{doc.where}: " + "; ".join(errors))
    return Lexicon(language, table, words, rules, tuple(empty_words))


def save_lexicon(lex: Lexicon, path: str | Path):
    Path(path).write_text(
        json.dumps(lex.to_dict(), ensure_ascii=False, indent=2) + "\n", encoding="utf-8"
    )
