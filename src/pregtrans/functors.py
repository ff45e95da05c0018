"""Syntactic translation functors between pregroups: homomorphisms,
anti-homomorphisms, and brace-wise morphisms with a per-segment reversal
mask, plus word-sequence realization in the target language.

Functor files are JSON: {source_language, target_language, mode,
atom_map, reversal_mask?, post_metarules?, simple_overrides?}, the mask and
post metarules in bracewise mode only.  Word map files are a JSON object
token -> replacement string (possibly empty or multi-word).

``simple_overrides`` keys are untagged simple types of the source
grammar, and an override replaces that simple type's image in every mode.
A translation's goal maps through the same image function as the
sentence: reversed under an anti-homomorphism, homomorphically under a
brace-wise functor, and never through the post metarules.  One walk over
a sentence's brace segments, :func:`functor_image`, gives its image, the
target word order and the position map, through which a translation's
target witness is the image of its source witness; the image type is
searched only where that is not a reduction.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from .core import (
    AtomTable,
    BracedType,
    CompoundType,
    JsonObject,
    PregroupError,
    SimpleType,
    Type,
    concat,
    flatten,
    left_adjoint,
    parse_plain_type,
    parse_type,
    render_type,
    right_adjoint,
)
from .lexicon import Lexicon, Metarule
from .reduction import ReductionWitness, parse_sentence, reduce

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
    # untagged source simple type -> its image, in place of the computed one
    simple_overrides: dict[SimpleType, CompoundType] = field(default_factory=dict)
    # per direction (reversed or not), source simple type -> its image's
    # parts, written by _image alone: one entry per simple type met
    _images: tuple[dict, dict] = field(default_factory=lambda: ({}, {}), init=False,
                                       compare=False, repr=False)

    def __post_init__(self):
        if self.mode not in MODES:
            raise FunctorError(f"unknown functor mode {self.mode!r}")
        if self.mode == "bracewise" and self.reversal_mask is None:
            raise FunctorError("bracewise mode needs a reversal_mask")
        for name, given in (("reversal_mask", self.reversal_mask is not None),
                            ("post_metarules", bool(self.post_metarules))):
            if given and self.mode != "bracewise":
                raise FunctorError(f"{self.mode} mode takes no {name}")

    def image_of_atom(self, atom: str) -> CompoundType:
        if atom not in self.atom_map:
            raise FunctorError(f"atom {atom!r} is not mapped by the functor")
        return self.atom_map[atom]

    @property
    def reverses(self) -> bool:
        """Whether a whole type, such as a translation's goal, maps in reverse
        order: only under an anti-homomorphism, not under a brace-wise one."""
        return self.mode == "antihomomorphism"

    def mask(self, k: int) -> tuple[bool, ...]:
        """Which of ``k`` brace segments map in reverse order."""
        mask = self.reversal_mask if self.mode == "bracewise" else (self.reverses,)
        if len(mask) != k:
            raise FunctorError(f"{k} brace segments, {self.mode} mask of length {len(mask)}")
        return mask

    def check_total(self, source_table: AtomTable):
        missing = sorted(source_table.atoms - set(self.atom_map))
        if missing:
            raise FunctorError(f"atom map not total; missing {missing}")


class WordMap:
    """Source token -> its realization in the target language (possibly
    empty or multi-word), from a dict or (token, realization) pairs."""

    def __init__(self, pairs):
        self.entries: dict[str, str] = dict(pairs)

    def get(self, token: str) -> str:
        try:
            return self.entries[token]
        except KeyError:
            raise FunctorError(f"word map has no entry for {token!r}") from None


def load_wordmap(path: str | Path) -> WordMap:
    return WordMap(JsonObject.read(path, FunctorError, items=str).data)


def load_functor(path: str | Path, source_table: AtomTable, target_table: AtomTable) -> FunctorSpec:
    doc = JsonObject.read(path, FunctorError)
    images = JsonObject(
        doc.get("atom_map", dict, items=str), f"{doc.where}: field 'atom_map'", FunctorError
    )
    atom_map = {atom: images.type(atom, target_table) for atom in images.data}
    mask = doc.get("reversal_mask", list, items=bool, default=None)
    rules = []
    for i, raw in enumerate(doc.get("post_metarules", list, items=dict, default=[])):
        rule = JsonObject(raw, f"{doc.where}: post_metarules[{i}]", FunctorError)
        made = Metarule.from_json(rule)
        rule.wrap(None, made.check, target_table)
        rules.append(made)
    replacements = JsonObject(
        doc.get("simple_overrides", dict, items=str, default={}),
        f"{doc.where}: field 'simple_overrides'",
        FunctorError,
    )
    overrides = {}
    for key in replacements.data:
        try:
            simple = parse_type(key, source_table)
        except PregroupError:
            simple = None
        if not isinstance(simple, CompoundType) or len(simple) != 1 or simple[0].beta:
            raise FunctorError(f"{replacements.where}: key {key!r} is not "
                               "an untagged simple type of the source grammar")
        overrides[simple[0]] = replacements.type(key, target_table)
    spec = doc.wrap(
        "mode",
        FunctorSpec,
        doc.get("source_language", str),
        doc.get("target_language", str),
        doc.get("mode", str),
        atom_map,
        target_table,
        tuple(mask) if mask is not None else None,
        tuple(rules),
        overrides,
    )
    doc.wrap("atom_map", spec.check_total, source_table)
    return spec


def _simple_image(f: FunctorSpec, p: SimpleType, reverse: bool) -> tuple[SimpleType, ...]:
    # p = a^z maps to its override, or else to the z-th adjoint of F(a)
    # (exponents shifted by z, order reversed when z is odd), z negated
    # under reverse; a β tag on p tags its whole image
    image = f.simple_overrides.get(SimpleType(p.atom, p.exponent))
    if image is None:
        z = -p.exponent if reverse else p.exponent
        image = f.image_of_atom(p.atom).parts
        if z % 2:
            image = image[::-1]
    else:
        z, image = 0, image.parts
    if z or p.beta:
        image = tuple(SimpleType(q.atom, q.exponent + z, q.beta or p.beta) for q in image)
    return image


def _image(f: FunctorSpec, t: CompoundType, reverse: bool) -> CompoundType:
    """The image of ``t``, part by part, with ``reverse`` in reverse order
    and negated exponents, as under an anti-homomorphism.  Each simple
    type's image is made once per functor and direction and kept in
    ``f._images``, which every image reads and only this writes."""
    memo = f._images[reverse]
    out = []
    for p in reversed(t.parts) if reverse else t.parts:
        image = memo.get(p)
        if image is None:
            image = memo[p] = _simple_image(f, p, reverse)
        out += image
    return CompoundType(tuple(out))


def apply_homomorphism(f: FunctorSpec, t: CompoundType) -> CompoundType:
    """F(xy) = F(x)F(y); adjoints map to the same adjoints."""
    return _image(f, t, False)


def apply_antihomomorphism(f: FunctorSpec, t: CompoundType) -> CompoundType:
    """Phi(xy) = Phi(y)Phi(x); left adjoints map to right adjoints."""
    return _image(f, t, True)


def apply_bracewise(f: FunctorSpec, t: BracedType) -> BracedType:
    """Transform each brace segment, anti-homomorphically where the mask
    is true, then apply the post metarules to each segment once: the image
    :func:`functor_image` takes of each segment as one word."""
    if f.mode != "bracewise":
        raise FunctorError("functor is not brace-wise")
    return functor_image(f, t.segments, range(1, len(t.segments))).image


def apply_functor(f: FunctorSpec, t: Type) -> Type:
    if f.mode == "bracewise":
        return apply_bracewise(f, t if isinstance(t, BracedType) else BracedType((t,)))
    return _image(f, flatten(t), f.reverses)


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

    anti = f.reverses
    apply = apply_antihomomorphism if anti else apply_homomorphism
    product = "F(xy) = F(y)F(x)" if anti else "F(xy) = F(x)F(y)"
    adjoints = [("l", left_adjoint), ("r", right_adjoint)]
    images = adjoints[::-1] if anti else adjoints  # the adjoint each one maps to
    for x in samples:
        for y in samples:
            first, second = (y, x) if anti else (x, y)
            expect(product, x + y, apply(f, x + y), apply(f, first) + apply(f, second))
    for x in samples:
        for (side, adjoint), (image_side, image_adjoint) in zip(adjoints, images):
            expect(f"F(x^{side}) = F(x)^{image_side}", x,
                   apply(f, adjoint(x)), image_adjoint(apply(f, x)))
    return FunctorLawReport(tuple(violations))


@dataclass(frozen=True)
class TranslationResult:
    source_type: BracedType
    source_witness: ReductionWitness
    translated: BracedType
    target_witness: ReductionWitness | None
    words: tuple[str, ...]
    diagnostic: str | None = None

    @property
    def text(self) -> str:
        return " ".join(self.words)


def segment_bounds(n: int, bracing) -> list[tuple[int, int]]:
    """The (start, end) of each brace segment that the cuts ``bracing`` make in ``n`` words."""
    bounds = [0, *(bracing or ()), n]
    segments = list(zip(bounds, bounds[1:]))
    if len(segments) > 1 and any(a >= b for a, b in segments):  # cuts not 0 < c1 < ... < n
        raise FunctorError(f"bracing {bounds[1:-1]} does not partition {n} tokens")
    return segments


class FunctorImage(NamedTuple):
    """The word types cut into brace segments, their image, the position
    map (the target position of each source simple type, or None) and the
    order: each source word's index in target order, with whether its
    segment maps in reverse."""

    source: BracedType
    image: BracedType
    where: list[int] | None
    order: list[tuple[int, bool]]


def functor_image(f: FunctorSpec, types: Sequence[CompoundType], bracing=None) -> FunctorImage:
    """The word ``types`` cut into brace segments at ``bracing``, their image
    under ``f``, the position map and the order, in one walk over the words
    in target order: segments stay in order, and a reversed segment lists
    its words, and each word's parts, in reverse.  A post metarule that
    fires on a segment and exchanges its first two simple types exchanges
    their positions.  The map is None when some simple type's image is not
    one simple type, or another post metarule changes a segment."""
    return _functor_image(f, types, segment_bounds(len(types), bracing))


def _functor_image(f: FunctorSpec, types: Sequence[CompoundType], bounds) -> FunctorImage:
    # functor_image with the cuts' segment bounds already made
    rules, table = f.post_metarules, f.target_table
    source, segments, where, order = [], [], [], []
    for reverse, (a, b) in zip(f.mask(len(bounds)), bounds):
        seg = concat(types[a:b])
        source.append(seg)
        for i in range(b - 1, a - 1, -1) if reverse else range(a, b):
            order.append((i, reverse))
        memo, parts = f._images[reverse], []
        for p in reversed(seg.parts) if reverse else seg.parts:
            image = memo.get(p)
            if image is None:
                image = _image(f, CompoundType((p,)), reverse).parts
            parts += image
            if len(image) != 1:
                where = None
        image = CompoundType(tuple(parts))
        if where is not None:  # a one-to-one segment keeps its place, maybe reversed
            start, end = len(where), len(where) + len(seg)
            where += range(end - 1, start - 1, -1) if reverse else range(start, end)
        for rule in rules:
            changed = rule.apply_once(image, table)
            if changed != image and where is not None:
                if rule.swaps_first_two:  # the sources at the segment's first two targets
                    p, q = (end - 1, end - 2) if reverse else (start, start + 1)
                    where[p], where[q] = where[q], where[p]
                else:
                    where = None
            image = changed
        segments.append(image)
    return FunctorImage(BracedType(tuple(source)), BracedType(tuple(segments)), where, order)


def image_witness(where: list[int], w: ReductionWitness) -> ReductionWitness:
    """``w`` through the positions ``where``: each link the sorted pair of
    its ends' positions, in left-end order, and the residue increasing."""
    links = []
    for i, j in w.links:
        i, j = where[i], where[j]
        links.append((i, j) if i < j else (j, i))
    links.sort()
    return ReductionWitness(tuple(links), tuple(sorted([where[r] for r in w.residue])))


def translate_sentence(
    lex_src: Lexicon,
    lex_tgt: Lexicon,
    f: FunctorSpec,
    wm: WordMap,
    tokens: list[str],
    bracing: tuple[int, ...] | None = None,
    source_target: str | CompoundType = "s",
) -> TranslationResult:
    """Translate a tokenized source sentence: take the first type selection
    that reduces to ``source_target`` (a type string, or the type parsed, as
    the CLI passes it once per batch) in the source grammar, and its first
    witness, from :func:`parse_sentence` with limit 1, and take the braced
    type through the functor with :func:`functor_image`, which gives the
    image, the position map and the order the target words are realized
    in.  The target witness is the image of the source witness
    (:func:`image_witness`) when one linear check
    (:meth:`ReductionWitness.proves`) finds it a reduction of the image to
    the goal's image; only when there is no position map or the check fails,
    as under a non-functorial override or where image links cross, is the
    image searched with :func:`reduce`.  A failing target reduction is
    reported as a diagnostic, not an error."""
    bounds = segment_bounds(len(tokens), bracing)
    f.mask(len(bounds))  # a bad cut or mask fails first
    goal = (parse_plain_type(source_target, lex_src.table) if isinstance(source_target, str)
            else source_target)
    found = parse_sentence(lex_src, tokens, goal)
    if not found:
        raise NotTranslatableError(
            f"no type selection of {tokens} reduces to {render_type(goal)!r} in "
            f"{lex_src.language}"
        )
    [(chosen, [witness])] = found

    source_braced, translated, where, order = _functor_image(f, chosen, bounds)
    flat = translated.flatten()
    goal_image = _image(f, goal, f.reverses)
    target_witness = None
    if where is not None:
        target_witness = image_witness(where, witness)
        if not target_witness.proves(flat, goal_image, lex_tgt.table):
            target_witness = None
    if target_witness is None:
        target_witness = reduce(flat, goal_image, lex_tgt.table)
    diagnostic = None
    if target_witness is None:
        diagnostic = (
            f"translated type {render_type(translated)!r} does not reduce to "
            f"{render_type(goal_image)!r} in {lex_tgt.language}"
        )

    words = tuple(image for i, _ in order if (image := wm.get(tokens[i])))
    return TranslationResult(source_braced, witness, translated, target_witness, words, diagnostic)
