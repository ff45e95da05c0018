"""Free pregroup types: atoms with a partial order, iterated adjoints,
beta modality tags, and k-brace decorations.

A type is a string of simple types.  Each simple type is an atom together
with an integer adjoint exponent (0 = plain, -1 = left adjoint, +1 = right
adjoint, iterated adjoints allowed) and a boolean beta tag.  Braced types
split a string into distinguished segments; they only matter to brace-wise
morphisms and are flattened before reduction.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Union


class PregroupError(Exception):
    """Base class for all errors raised by this package."""


class UnknownAtomError(PregroupError):
    def __init__(self, name: str):
        super().__init__(f"unknown atom {name!r}")
        self.name = name


class CyclicOrderError(PregroupError):
    pass


class TypeParseError(PregroupError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_JSON_KINDS = {dict: "object", list: "list", str: "string", int: "integer", bool: "boolean"}
_REQUIRED = object()


class JsonObject:
    """A JSON object from a data file, its fields read with their JSON type
    checked: a decode error, a missing field or a wrong type raises ``error``
    naming the file and the field."""

    def __init__(self, data, where: str, error: type[PregroupError] = PregroupError, items=None):
        self.where, self.error = where, error
        self.data = self.check(data, dict, items)

    @classmethod
    def read(cls, path, error: type[PregroupError] = PregroupError, items=None) -> "JsonObject":
        path = path if isinstance(path, Path) else Path(path)
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise error(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
        except (OSError, UnicodeDecodeError, RecursionError) as exc:  # or nested too deep
            raise error(f"{path}: {exc}") from exc
        return cls(data, str(path), error, items)

    def check(self, value, kind, items=None, name: str | None = None):
        """``value`` (this object or its field ``name``) if it is of ``kind``
        and its elements (values, for an object) are of ``items``, if given.
        Types are matched exactly, so a JSON boolean is not an integer."""
        if type(value) is kind or type(kind) is tuple and type(value) in kind:
            if items is None:
                return value
            # a plain loop, not all(): this runs for every field a load reads
            for v in value.values() if type(value) is dict else value:
                if type(v) is not items:
                    break
            else:
                return value
        kinds = kind if type(kind) is tuple else (kind,)
        expected = " or ".join(_JSON_KINDS[k] for k in kinds)
        expected += f" of {_JSON_KINDS[items]}s" if items is not None else ""
        raise self.error(f"{self._at(name)}: expected a JSON {expected}")

    def get(self, name: str, kind, items=None, default=_REQUIRED):
        """The field ``name``, checked as :meth:`check` does; a missing
        field is ``default``, or an error when no default is given."""
        value = self.data.get(name, _REQUIRED)
        if value is not _REQUIRED:
            return self.check(value, kind, items, name)
        if default is _REQUIRED:
            raise self.error(f"{self.where}: missing field {name!r}")
        return default

    def wrap(self, name: str | None, step, *args, **kwargs):
        """``step(*args, **kwargs)``, with a :class:`PregroupError` from it
        raised as ``error`` naming the file and the field ``name`` (none:
        this object)."""
        try:
            return step(*args, **kwargs)
        except PregroupError as exc:
            raise self.error(f"{self._at(name)}: {exc}") from exc

    def _at(self, name: str | None) -> str:
        return self.where if name is None else f"{self.where}: field {name!r}"

    def type(self, name: str, table: "AtomTable") -> "CompoundType":
        """The field ``name``: a type string without brace segments, parsed
        against ``table``."""
        return self.wrap(name, parse_plain_type, self.get(name, str), table)


# an atom name: no whitespace (``\s`` matches exactly the characters
# ``str.isspace`` accepts) and none of ``^()<>``
_ATOM_NAME = re.compile(r"[^\s^()<>]+")


class _Index(dict):
    """simple type -> frozenset of its contraction partners, filled on first
    lookup: the same beta tag, the exponent raised by one, and the atoms
    above (even exponent) or below (odd exponent) in the order ``up`` (atom
    -> atoms above it)."""

    __slots__ = ("up",)

    def __init__(self, up):
        super().__init__()
        self.up = up

    def __missing__(self, x):
        up, z = self.up, x.exponent
        if x.atom not in up:
            raise UnknownAtomError(x.atom)
        atoms = up[x.atom] if z % 2 == 0 else [a for a in up if x.atom in up[a]]
        found = self[x] = frozenset(SimpleType(a, z + 1, x.beta) for a in atoms)
        return found


class _Counts(dict):
    """simple type -> its count digit, and tuple of simple types (a type's
    parts) -> its count code, filled on first lookup.  A digit is
    ``1 << 64 * (2 * class + beta)``, negated at odd exponents, where the
    classes are the connected components of the order ``pairs`` over
    ``atoms``, numbered in the order of their least atoms; a code is the
    sum of its simple types' digits.  A contraction or an induced step
    keeps each class and tag's sum of (-1)^exponent, so a string reduces
    to a goal only if their codes are equal."""

    __slots__ = ("shift",)

    def __init__(self, atoms, pairs):
        super().__init__()
        near: dict[str, list[str]] = {}  # atom -> the atoms a pair joins it to
        for a, b in pairs:
            near.setdefault(a, []).append(b)
            near.setdefault(b, []).append(a)
        shift = self.shift = {}  # atom -> 128 * its class
        classes = 0
        for a in sorted(atoms):
            if a in shift:
                continue
            todo = [a]
            while todo:
                b = todo.pop()
                if b not in shift:
                    shift[b] = 128 * classes
                    todo += near.get(b, ())
            classes += 1

    def __missing__(self, x):
        if type(x) is tuple:  # a tuple hashes in C, a compound type in Python
            found = self[x] = sum(map(self.__getitem__, x))
            return found
        if x.atom not in self.shift:
            raise UnknownAtomError(x.atom)
        digit = 1 << self.shift[x.atom] + 64 * x.beta
        found = self[x] = -digit if x.exponent % 2 else digit
        return found


class AtomTable:
    """Atomic grammatical types plus a partial order between them.

    The order is given as generating pairs ``(lesser, greater)``; ``leq``
    answers against the reflexive-transitive closure.  Cycles between
    distinct atoms are rejected (antisymmetry).

    >>> table = AtomTable({"n", "pi", "s"}, [("n", "pi")])
    >>> table.leq("n", "pi"), table.leq("pi", "n")
    (True, False)
    """

    def __init__(self, atoms: Iterable[str], order_pairs: Iterable[tuple[str, str]] = ()):
        self.atoms = frozenset(atoms)
        for name in self.atoms:
            if _ATOM_NAME.fullmatch(name) is None:
                raise PregroupError(f"invalid atom name {name!r}")
        self.order_pairs = frozenset(tuple(p) for p in order_pairs)
        for a, b in self.order_pairs:
            for name in (a, b):
                if name not in self.atoms:
                    raise UnknownAtomError(name)
        self._up = self._close()
        # partners[x]: every y with contracts(x, y); counts[x]: x's count
        # digit, or code for a type; tokens[text]: the simple type a valid
        # token such as "b(n)^l" parses to; all three filled on first use
        self.partners = _Index(self._up)
        self.counts = _Counts(self.atoms, self.order_pairs)
        self.tokens: dict[str, SimpleType] = {}

    def _close(self) -> dict[str, frozenset[str]]:
        succ: dict[str, set[str]] = {}
        for a, b in self.order_pairs:
            succ.setdefault(a, set()).add(b)
        up = {a: frozenset((a,)) for a in self.atoms}  # kept for an atom below no other
        for start in succ:
            seen = {start}
            stack = [start]
            while stack:
                for nxt in succ.get(stack.pop(), ()):
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
            up[start] = frozenset(seen)
        for a in self.atoms:
            for b in up[a]:
                if a != b and a in up[b]:
                    raise CyclicOrderError(f"order cycle between {a!r} and {b!r}")
        return up

    def __contains__(self, name: str) -> bool:
        return name in self.atoms

    def leq(self, a: str, b: str) -> bool:
        for name in (a, b):
            if name not in self.atoms:
                raise UnknownAtomError(name)
        return b in self._up[a]

    def __repr__(self):
        return f"AtomTable({sorted(self.atoms)!r}, {sorted(self.order_pairs)!r})"


class SimpleType(NamedTuple):
    """An atom with an adjoint exponent and an optional beta tag (a named
    tuple, so the reduction search hashes and compares it at C speed)."""

    atom: str
    exponent: int = 0
    beta: bool = False

    @property
    def left(self) -> "SimpleType":
        return SimpleType(self.atom, self.exponent - 1, self.beta)

    @property
    def right(self) -> "SimpleType":
        return SimpleType(self.atom, self.exponent + 1, self.beta)

    def render(self) -> str:
        base = f"b({self.atom})" if self.beta else self.atom
        z = self.exponent
        return base + ("^l" * -z if z < 0 else "^r" * z)

    def __str__(self):
        return self.render()

    def __add__(self, other):  # not tuple concatenation; types concatenate as CompoundType
        return NotImplemented


class _Texts(dict):
    """simple type -> its text, made by :meth:`SimpleType.render` on first
    lookup: one entry per distinct simple type rendered."""

    __slots__ = ()

    def __missing__(self, x):
        text = self[x] = x.render()
        return text


simple_texts = _Texts()


@dataclass(frozen=True, order=True)
class CompoundType:
    """An ordered string of simple types; the empty string is the unit."""

    parts: tuple[SimpleType, ...] = ()

    def __len__(self):
        return len(self.parts)

    def __hash__(self):  # the parts' hash, without the dataclass' 1-tuple: types key caches
        return hash(self.parts)

    def __iter__(self) -> Iterator[SimpleType]:
        return iter(self.parts)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return CompoundType(self.parts[key])
        return self.parts[key]

    def __add__(self, other: "CompoundType") -> "CompoundType":
        return CompoundType(self.parts + other.parts)

    def render(self) -> str:
        return " ".join(map(simple_texts.__getitem__, self.parts))

    def __str__(self):
        return self.render()


@dataclass(frozen=True, order=True)
class BracedType:
    """A type split into k >= 1 distinguished segments."""

    segments: tuple[CompoundType, ...]

    def __post_init__(self):
        if not self.segments:
            raise PregroupError("a braced type needs at least one segment")

    def flatten(self) -> CompoundType:
        return concat(self.segments)

    def render(self) -> str:
        return " ".join(f"< {seg.render()} >" if seg.parts else "< >" for seg in self.segments)

    def __str__(self):
        return self.render()


Type = Union[CompoundType, BracedType]


def concat(types: Iterable[CompoundType]) -> CompoundType:
    """The concatenation of a sequence of types, in linear time."""
    return CompoundType(tuple(p for t in types for p in t.parts))


def flatten(t: Type) -> CompoundType:
    """``t`` as one compound type: a braced type's segments concatenated."""
    return t.flatten() if isinstance(t, BracedType) else t


def left_adjoint(t: CompoundType) -> CompoundType:
    """(xy)^l = y^l x^l: reverse the parts and decrement every exponent."""
    return CompoundType(tuple(p.left for p in reversed(t.parts)))


def right_adjoint(t: CompoundType) -> CompoundType:
    """(xy)^r = y^r x^r: reverse the parts and increment every exponent."""
    return CompoundType(tuple(p.right for p in reversed(t.parts)))


def simple_leq(x: SimpleType, y: SimpleType, table: AtomTable) -> bool:
    """Order between simple types: equal exponent and tag, with the atom
    order flipped at odd exponents (if x <= y then y^l <= x^l); x <= y
    exactly when x y^r -> 1."""
    return y.right in table.partners[x]


def contracts(x: SimpleType, y: SimpleType, table: AtomTable) -> bool:
    """Whether x y -> 1 is a licensed contraction (x at exponent z, y at
    z + 1, matching beta tags, atom order adjusted for parity)."""
    return y in table.partners[x]


_TOKEN = re.compile(r"<|>|[^\s<>]+")
_SIMPLE = re.compile(r"(b\()?([^\s^()<>]+)(\))?((?:\^[lr])*)\Z")


def _parse_simple(token: str, table: AtomTable, pos: int) -> SimpleType:
    if token in table.atoms:  # a plain atom: no tag, no adjoint
        return SimpleType(token)
    m = _SIMPLE.match(token)
    if m is None:
        raise TypeParseError(f"malformed token {token!r}", pos)
    opened, name, closed, suffix = m.groups()
    if (opened is None) != (closed is None):
        raise TypeParseError(f"unbalanced 'b(' in token {token!r}", pos)
    if name not in table.atoms:
        raise TypeParseError(f"unknown atom {name!r}", pos)
    return SimpleType(name, suffix.count("^r") - suffix.count("^l"), opened is not None)


def parse_type(text: str, table: AtomTable) -> Type:
    """Parse a type string; `< ... >` groups produce a :class:`BracedType`.
    Each distinct valid token is parsed once per table and kept in
    ``table.tokens``.

    >>> table = AtomTable({"n", "s"})
    >>> parse_type("n n^r s", table).render()
    'n n^r s'
    >>> sorted(table.tokens)
    ['n', 'n^r', 's']
    >>> parse_type("< n > s^x", table)
    Traceback (most recent call last):
    ...
    pregtrans.core.TypeParseError: material outside brace segments (at position 6)
    """
    known = table.tokens
    parts = tuple(map(known.get, text.split()))
    if None not in parts:  # known tokens only: no braces and nothing to check
        return CompoundType(parts)
    segments: list[CompoundType] = []
    current: list[SimpleType] = []
    in_brace = False
    braced = False
    for m in _TOKEN.finditer(text):
        token = m.group()
        if token == "<":
            if in_brace:
                raise TypeParseError("brace segments may not nest", m.start())
            if current:
                raise TypeParseError("material outside brace segments", m.start())
            in_brace = True
            braced = True
        elif token == ">":
            if not in_brace:
                raise TypeParseError("unmatched '>'", m.start())
            if not current:
                raise TypeParseError("empty brace segment", m.start())
            segments.append(CompoundType(tuple(current)))
            current = []
            in_brace = False
        else:
            if braced and not in_brace:
                raise TypeParseError("material outside brace segments", m.start())
            simple = known.get(token)
            if simple is None:  # only a valid token goes in
                simple = known[token] = _parse_simple(token, table, m.start())
            current.append(simple)
    if in_brace:
        raise TypeParseError("unclosed '<'", len(text))
    if braced:
        return BracedType(tuple(segments))
    return CompoundType(tuple(current))


def parse_plain_type(text: str, table: AtomTable) -> CompoundType:
    """Parse a type string where brace segments are not allowed."""
    t = parse_type(text, table)
    if isinstance(t, BracedType):
        raise TypeParseError("brace segments are not allowed here", text.index("<"))
    return t


def render_type(t: Type) -> str:
    """``t``'s text: its simple types' texts (``simple_texts``) joined by
    spaces, each brace segment as ``< ... >``."""
    return t.render()
