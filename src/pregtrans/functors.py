"""Syntactic translation functors between pregroups: homomorphisms,
anti-homomorphisms, and brace-wise morphisms with a per-segment reversal
mask, plus word-sequence realization in the target language.

Functor files are JSON: {source_language, target_language, mode,
atom_map, reversal_mask?, post_metarules?, simple_overrides?}.  Word map
files are a JSON object token -> replacement string (possibly empty or
multi-word).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .core import (
    AtomTable,
    BracedType,
    CompoundType,
    PregroupError,
    SimpleType,
    Type,
    left_adjoint,
    parse_type,
    render_type,
    right_adjoint,
)
from .lexicon import Lexicon, Metarule
from .reduction import ReductionWitness, reduce, type_selections

MODES = {"homomorphism", "antihomomorphism", "bracewise"}


class FunctorError(PregroupError):
    pass


class NotTranslatableError(PregroupError):
    """The source sentence cannot be typed or reduced."""


@dataclass
class FunctorSpec:
    source_language: str
    target_language: str
    mode: str
    atom_map: dict[str, CompoundType]
    target_table: AtomTable
    reversal_mask: tuple[bool, ...] | None = None
    post_metarules: tuple[Metarule, ...] = ()
    simple_overrides: dict[str, CompoundType] = field(default_factory=dict)

    def __post_init__(self):
        if self.mode not in MODES:
            raise FunctorError(f"unknown functor mode {self.mode!r}")
        if self.mode == "bracewise" and self.reversal_mask is None:
            raise FunctorError("bracewise mode needs a reversal_mask")

    def image_of_atom(self, atom: str) -> CompoundType:
        if atom not in self.atom_map:
            raise FunctorError(f"atom {atom!r} is not mapped by the functor")
        return self.atom_map[atom]

    def check_total(self, source_table: AtomTable):
        missing = sorted(source_table.atoms - set(self.atom_map))
        if missing:
            raise FunctorError(f"atom map not total; missing {missing}")


@dataclass(frozen=True)
class WordMap:
    pairs: tuple[tuple[str, str], ...]

    def get(self, token: str) -> str:
        for k, v in self.pairs:
            if k == token:
                return v
        raise FunctorError(f"word map has no entry for {token!r}")


def load_wordmap(path: str | Path) -> WordMap:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return WordMap(tuple(sorted(data.items())))


def load_functor(path: str | Path, source_table: AtomTable, target_table: AtomTable) -> FunctorSpec:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    atom_map = {
        atom: parse_type(text, target_table) for atom, text in data["atom_map"].items()
    }
    mask = data.get("reversal_mask")
    rules = tuple(
        Metarule.from_json(raw, target_table) for raw in data.get("post_metarules", [])
    )
    overrides = {
        key: parse_type(text, target_table)
        for key, text in data.get("simple_overrides", {}).items()
    }
    spec = FunctorSpec(
        data["source_language"],
        data["target_language"],
        data["mode"],
        atom_map,
        target_table,
        tuple(bool(b) for b in mask) if mask is not None else None,
        rules,
        overrides,
    )
    spec.check_total(source_table)
    return spec


def _power(image: CompoundType, z: int) -> CompoundType:
    while z < 0:
        image = left_adjoint(image)
        z += 1
    while z > 0:
        image = right_adjoint(image)
        z -= 1
    return image


def _tag(image: CompoundType, beta: bool) -> CompoundType:
    if not beta:
        return image
    return CompoundType(tuple(SimpleType(p.atom, p.exponent, True) for p in image.parts))


def apply_homomorphism(f: FunctorSpec, t: CompoundType) -> CompoundType:
    """Map each atom through the functor, applying exponents to the image
    by the adjoint laws; part order is preserved."""
    out = CompoundType()
    for p in t.parts:
        key = SimpleType(p.atom, p.exponent).render()
        if key in f.simple_overrides:
            image = f.simple_overrides[key]
        else:
            image = _power(f.image_of_atom(p.atom), p.exponent)
        out = out + _tag(image, p.beta)
    return out


def apply_antihomomorphism(f: FunctorSpec, t: CompoundType) -> CompoundType:
    """Phi(xy) = Phi(y)Phi(x); left adjoints map to right adjoints."""
    out = CompoundType()
    for p in reversed(t.parts):
        image = _power(f.image_of_atom(p.atom), -p.exponent)
        out = out + _tag(image, p.beta)
    return out


def apply_bracewise(f: FunctorSpec, t: BracedType) -> BracedType:
    """Transform each brace segment, anti-homomorphically where the mask
    is true, then apply the post metarules to each segment once."""
    if f.mode != "bracewise":
        raise FunctorError("functor is not brace-wise")
    mask = f.reversal_mask
    if len(mask) != len(t.segments):
        raise FunctorError(
            f"reversal mask has length {len(mask)}, braced type has k={len(t.segments)}"
        )
    segments = []
    for reverse, seg in zip(mask, t.segments):
        image = apply_antihomomorphism(f, seg) if reverse else apply_homomorphism(f, seg)
        for rule in f.post_metarules:
            image = rule.apply_once(image, f.target_table)
        segments.append(image)
    return BracedType(tuple(segments))


def apply_functor(f: FunctorSpec, t: Type) -> Type:
    if f.mode == "homomorphism":
        return apply_homomorphism(f, t.flatten() if isinstance(t, BracedType) else t)
    if f.mode == "antihomomorphism":
        return apply_antihomomorphism(f, t.flatten() if isinstance(t, BracedType) else t)
    if not isinstance(t, BracedType):
        t = BracedType((t,))
    return apply_bracewise(f, t)


@dataclass(frozen=True)
class LawViolation:
    law: str
    sample: str
    lhs: str
    rhs: str


@dataclass(frozen=True)
class FunctorLawReport:
    violations: tuple[LawViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_functor_laws(f: FunctorSpec, samples: list[CompoundType]) -> FunctorLawReport:
    """Check the monoidal functor laws on the given samples.  For a
    homomorphism adjoints must be preserved; for an anti-homomorphism
    they must be swapped.  Violations are reported, not raised."""
    violations = []

    def expect(law, sample, lhs, rhs):
        if lhs != rhs:
            violations.append(
                LawViolation(law, render_type(sample), render_type(lhs), render_type(rhs))
            )

    anti = f.mode == "antihomomorphism"
    apply = apply_antihomomorphism if anti else apply_homomorphism
    for x in samples:
        for y in samples:
            image = apply(f, x + y)
            if anti:
                expect("F(xy) = F(y)F(x)", x + y, image, apply(f, y) + apply(f, x))
            else:
                expect("F(xy) = F(x)F(y)", x + y, image, apply(f, x) + apply(f, y))
    for x in samples:
        if anti:
            expect("F(x^l) = F(x)^r", x, apply(f, left_adjoint(x)), right_adjoint(apply(f, x)))
            expect("F(x^r) = F(x)^l", x, apply(f, right_adjoint(x)), left_adjoint(apply(f, x)))
        else:
            expect("F(x^l) = F(x)^l", x, apply(f, left_adjoint(x)), left_adjoint(apply(f, x)))
            expect("F(x^r) = F(x)^r", x, apply(f, right_adjoint(x)), right_adjoint(apply(f, x)))
    return FunctorLawReport(tuple(violations))


@dataclass(frozen=True)
class TranslationResult:
    tokens: tuple[str, ...]
    source_type: BracedType
    source_witness: ReductionWitness
    translated: BracedType
    target_witness: ReductionWitness | None
    words: tuple[str, ...]
    diagnostic: str | None = None

    @property
    def text(self) -> str:
        return " ".join(self.words)


def _segments_from_bracing(tokens, bracing):
    cuts = list(bracing or ())
    if any(c <= 0 or c >= len(tokens) for c in cuts) or cuts != sorted(set(cuts)):
        raise FunctorError(f"bracing {cuts} does not partition {len(tokens)} tokens")
    bounds = [0] + cuts + [len(tokens)]
    return [tuple(tokens[a:b]) for a, b in zip(bounds, bounds[1:])]


def translate_sentence(
    lex_src: Lexicon,
    lex_tgt: Lexicon,
    f: FunctorSpec,
    wm: WordMap,
    tokens: list[str],
    bracing: tuple[int, ...] | None = None,
    source_target: str = "s",
) -> TranslationResult:
    """Translate a tokenized source sentence: find a type selection that
    reduces in the source grammar, push the braced type through the
    functor, reduce the image in the target grammar, and realize the
    target word sequence (segments are emitted reversed where the functor
    reverses them).  A failing target reduction is reported as a
    diagnostic, not an error."""
    segments = _segments_from_bracing(tokens, bracing)
    if f.mode == "bracewise":
        if len(segments) != len(f.reversal_mask):
            raise FunctorError(
                f"{len(segments)} brace segments, mask of length {len(f.reversal_mask)}"
            )
        mask = f.reversal_mask
    else:
        if len(segments) != 1:
            raise FunctorError(f"{f.mode} translation expects a single segment")
        mask = (f.mode == "antihomomorphism",)

    goal = parse_type(source_target, lex_src.table)
    alternatives = [lex_src.alternatives(tok) for tok in tokens]
    for chosen, search in type_selections(alternatives, goal, lex_src.table):
        break
    else:
        raise NotTranslatableError(
            f"no type selection of {tokens} reduces to {source_target!r} in "
            f"{lex_src.language}"
        )
    witness = search.witnesses(1)[0]

    seg_types = []
    pos = 0
    for seg in segments:
        t = CompoundType()
        for _ in seg:
            t = t + chosen[pos]
            pos += 1
        seg_types.append(t)
    source_braced = BracedType(tuple(seg_types))
    translated = apply_functor(f, source_braced)
    if not isinstance(translated, BracedType):
        translated = BracedType((translated,))

    goal_image = CompoundType()
    for p in goal.parts:
        goal_image = goal_image + f.image_of_atom(p.atom)
    target_witness = reduce(translated.flatten(), goal_image, lex_tgt.table)
    diagnostic = None
    if target_witness is None:
        diagnostic = (
            f"translated type {render_type(translated)!r} does not reduce to "
            f"{render_type(goal_image)!r} in {lex_tgt.language}"
        )

    words = []
    for reverse, seg in zip(mask, segments):
        for tok in reversed(seg) if reverse else seg:
            image = wm.get(tok)
            if image:
                words.append(image)
    return TranslationResult(
        tuple(tokens),
        source_braced,
        witness,
        translated,
        target_witness,
        tuple(words),
        diagnostic,
    )
