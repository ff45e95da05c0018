"""Desk-scale DisCoCat semantics: finite-dimensional spaces for atoms,
word tensors, reduction witnesses as epsilon contractions, and numeric
naturality checks for translations under functors of all three modes: a
square's target witness must be the image of its source witness.

``interpret`` contracts in an order read off the witness, with no
contraction-path search, and each alpha component is inverted once, when
its :class:`AlphaSpec` is made.  A stack merge in ``interpret`` is one
matmul of the two entries as (open, shared) and (shared, open) matrices,
each transposed first only where its axes are not in that order already.
Carrying a tensor by alpha is one matmul per axis on the tensor as a 2-D
array, and its shape is restored once, at the end.

Tensor fixture files are JSON {spaces: {atom: dim}, words: [{word, type,
data}]} where data is either nested arrays of numbers or {"seed": n}; seeded
data is generated by the 64-bit LCG below so fixtures reproduce bit-exactly,
and a seeded word has at most MAX_SEEDED_ENTRIES entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import (
    AtomTable,
    CompoundType,
    JsonObject,
    PregroupError,
    concat,
    render_type,
)
from .functors import FunctorSpec, apply_antihomomorphism, apply_homomorphism, functor_image
from .functors import image_witness
from .reduction import ReductionWitness, WitnessError

# Knuth MMIX linear congruential generator; values mapped to [-1, 1).
LCG_MULTIPLIER = 6364136223846793005
LCG_INCREMENT = 1442695040888963407
_MASK64 = (1 << 64) - 1

# entries a seeded word tensor may have: far above any fixture (the largest
# bundled or benchmarked word has 512), far below what exhausts memory
MAX_SEEDED_ENTRIES = 1 << 20


class SemanticsError(PregroupError):
    pass


def lcg_array(seed: int, shape: tuple[int, ...]) -> np.ndarray:
    """The first prod(shape) LCG values after ``seed``, filled row-major.

    State i is a^(i+1)·seed + c·(1 + a + … + a^i) mod 2^64, computed all at
    once: uint64 products and sums wrap mod 2^64, so every state is exact."""
    size = int(np.prod(shape)) if shape else 1
    powers = np.cumprod(np.full(size, LCG_MULTIPLIER, dtype=np.uint64))  # a^1 .. a^size
    geometric = np.cumsum(np.concatenate(([np.uint64(1)], powers[:-1])))  # 1 + a + … + a^i
    state = powers * np.uint64(seed & _MASK64) + geometric * np.uint64(LCG_INCREMENT)
    return ((state >> np.uint64(11)) * 2.0**-52 - 1.0).reshape(shape)


@dataclass(frozen=True)
class SpaceAssignment:
    """A fixture's declared dimension per atom, shared by its adjoints."""

    dims: dict[str, int]

    @classmethod
    def make(cls, dims: dict[str, int]) -> "SpaceAssignment":
        for atom, dim in dims.items():
            if dim < 1:
                raise SemanticsError(f"atom {atom!r} has non-positive dimension {dim}")
        return cls(dict(sorted(dims.items())))

    def dim(self, atom: str) -> int:
        try:
            return self.dims[atom]
        except KeyError:
            raise SemanticsError(f"atom {atom!r} has no assigned dimension") from None

    def shape_of(self, t: CompoundType) -> tuple[int, ...]:
        return tuple(self.dim(p.atom) for p in t.parts)


@dataclass(frozen=True)
class WordTensor:
    """A word meaning: one tensor axis per simple type of its grammar type."""

    word: str
    type: CompoundType
    data: np.ndarray

    def __post_init__(self):
        if self.data.ndim != len(self.type.parts):
            raise SemanticsError(
                f"{self.word!r}: tensor has {self.data.ndim} axes, "
                f"type {render_type(self.type)!r} has {len(self.type)}"
            )
        if not np.isfinite(self.data).all():
            raise SemanticsError(f"{self.word!r}: tensor has non-finite entries")


def make_word_tensor(word: str, t: CompoundType, data, spaces: SpaceAssignment) -> WordTensor:
    data = np.asarray(data, dtype=float)
    wt = WordTensor(word, t, data)
    if data.shape != spaces.shape_of(t):
        raise SemanticsError(
            f"{word!r}: tensor shape {data.shape} does not match {spaces.shape_of(t)}"
        )
    return wt


def epsilon(dim: int):
    """The basis pairing on a dim-dimensional space: (u, v) -> <u, v>."""
    if dim < 1:
        raise SemanticsError("dimension must be >= 1")

    def pairing(u, v) -> float:
        u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
        if u.shape != (dim,) or v.shape != (dim,):
            raise SemanticsError(f"epsilon({dim}) applied to shapes {u.shape}, {v.shape}")
        return float(u @ v)

    return pairing


def eta(dim: int) -> np.ndarray:
    """The unit 1 -> V (x) V: the identity pairing tensor."""
    if dim < 1:
        raise SemanticsError("dimension must be >= 1")
    return np.eye(dim)


def interpret(witness: ReductionWitness, tensors: list[WordTensor]) -> np.ndarray:
    """Contract every linked axis pair of the sentence tensor, leaving the
    residue axes in order: the meaning of the reduced phrase.  Each axis's
    dimension is read off its word tensor, and a link between axes of
    different dimensions raises SemanticsError.

    The contraction order is read off the witness, with no path search.
    Word tensors are pushed left to right, and the top two stack entries
    merge while they share a link and either the top has no link open to
    a later word or the merge leaves less than the top held.  A scalar
    on top (a word whose links all lie inside it, or a merge that closed
    every link it held) merges into the entry below at once, so it never
    keeps two entries that share a link apart.  What is left at the end
    merges left to right.  As the links of a reduction do not cross, a
    word is contracted with the words nested inside its links before it
    meets anything outside them.  Each merge is one matmul of the two
    entries laid out as (open, shared) and (shared, open) matrices.  A
    witness that is not a planar reduction of the concatenated word types
    raises SemanticsError."""
    dim = [d for wt in tensors for d in wt.data.shape]  # one axis per simple type
    try:
        partner = witness.partners(len(dim))
    except WitnessError as exc:
        raise SemanticsError(f"witness is not a planar reduction of the word types: {exc}") from exc
    for i, j in witness.links:
        if dim[i] != dim[j]:
            raise SemanticsError(f"link ({i}, {j}) pairs axes of dimensions {dim[i]} and {dim[j]}")
    if not tensors:
        return np.array(1.0)
    # an axis is labelled by its position, both ends of a link by its left
    # end; so partner[label] is the link's right end (-1: a residue axis)
    label = [q if -1 < q < p else p for p, q in enumerate(partner)]
    stack: list[tuple[np.ndarray, list[int]]] = []
    pos = 0
    for wt in tensors:
        start, pos = pos, pos + wt.data.ndim
        data, labels = entry = _word_entry(wt.data, label[start:pos])
        while stack and (not labels or not set(stack[-1][1]).isdisjoint(labels)):
            if any(partner[k] >= pos for k in labels):  # a link open to a later word
                merged = set(stack[-1][1]) ^ set(labels)
                if math.prod(dim[k] for k in merged) >= data.size:
                    break  # let the later words shrink the top first
            data, labels = entry = _merge(stack.pop(), entry)
        stack.append(entry)
    data, labels = stack[0]
    for entry in stack[1:]:
        data, labels = _merge((data, labels), entry)
    return data.transpose([labels.index(r) for r in witness.residue])


def _word_entry(data: np.ndarray, labels: list[int]) -> tuple[np.ndarray, list[int]]:
    """A word tensor as a stack entry, any link inside the word traced out."""
    if len(set(labels)) == len(labels):
        return data, labels
    for k in {x for x in labels if labels.count(x) > 1}:
        i = labels.index(k)
        j = labels.index(k, i + 1)
        data = np.trace(data, axis1=i, axis2=j)
        labels = labels[:i] + labels[i + 1 : j] + labels[j + 1 :]
    return data, labels


def _merge(left, right) -> tuple[np.ndarray, list[int]]:
    """Two stack entries contracted along the labels they share (none: their
    outer product) as one matmul; the left entry's open axes come first."""
    (x, xs), (y, ys) = left, right
    shared = [k for k in xs if k in ys]
    xfree = [k for k in xs if k not in shared]
    yfree = [k for k in ys if k not in shared]
    xorder, yorder = xfree + shared, shared + yfree
    if xs != xorder:  # a transpose that would leave every axis in place is skipped
        x = x.transpose([xs.index(k) for k in xorder])
    if ys != yorder:
        y = y.transpose([ys.index(k) for k in yorder])
    xshape, yshape = x.shape[: len(xfree)], y.shape[len(shared) :]
    data = x.reshape(math.prod(xshape), -1).dot(y.reshape(-1, math.prod(yshape)))
    return data.reshape(xshape + yshape), xfree + yfree


@dataclass(frozen=True)
class AlphaSpec:
    """Components of a translation natural transformation: one linear map
    per source atom, plus optional per-word target tensors that bypass
    the matrix path."""

    # atom -> (component, its inverse transpose), each built once
    carriers: dict[str, tuple[np.ndarray, np.ndarray]]
    overrides: dict[str, WordTensor] = field(default_factory=dict)

    @classmethod
    def make(cls, component_maps: dict[str, np.ndarray], word_overrides=None) -> "AlphaSpec":
        carriers = {}
        for atom, mat in sorted(component_maps.items()):
            mat = np.asarray(mat, dtype=float)
            if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
                raise SemanticsError(f"component for {atom!r} is not a square matrix")
            if not np.isfinite(mat).all():
                raise SemanticsError(f"component for {atom!r} has non-finite entries")
            try:
                inverse = np.linalg.inv(mat)
                cond = np.abs(mat).sum(0).max(initial=0) * np.abs(inverse).sum(0).max(initial=0)
            except np.linalg.LinAlgError:
                cond = np.inf
            if not cond <= 1e12:  # singular, or its 1-norm condition number is above 1e12
                raise SemanticsError(f"component for {atom!r} is not invertible")
            carriers[atom] = (mat, inverse.T)
        return cls(carriers, dict(word_overrides or {}))

    def component(self, atom: str, exponent: int = 0) -> np.ndarray:
        """The map carrying an axis of ``atom`` at ``exponent``: the
        component, or its inverse transpose where the exponent is odd."""
        try:
            return self.carriers[atom][exponent % 2]
        except KeyError:
            raise SemanticsError(f"no component map for atom {atom!r}") from None

    def override(self, word: str) -> WordTensor | None:
        return self.overrides.get(word)


def apply_alpha(
    alpha: AlphaSpec,
    t: WordTensor,
    image_type: CompoundType,
    reverse: bool,
) -> WordTensor:
    """Carry a word tensor into the target model: each axis is carried by
    its source simple type, through the atom's component map where the
    exponent is even and its inverse transpose where it is odd (so every
    epsilon pairing is preserved), whatever the image's exponent; axis order
    follows the functor image, whose parts are in reverse order when
    ``reverse`` (the image of a word in a reversed segment).  An override
    must have the image type and the shape of the carried tensor."""
    data, source_parts = (t.data.T, t.type.parts[::-1]) if reverse else (t.data, t.type.parts)
    override = alpha.override(t.word)
    if override is not None:
        if override.type != image_type:
            raise SemanticsError(
                f"{t.word!r}: override has type {render_type(override.type)!r}, "
                f"not the image type {render_type(image_type)!r}"
            )
        if override.data.shape != data.shape:
            raise SemanticsError(
                f"{t.word!r}: override has shape {override.data.shape}, not {data.shape}"
            )
        return override
    if len(image_type.parts) != len(source_parts):
        raise SemanticsError(
            f"{t.word!r}: image type length {len(image_type.parts)} != {len(source_parts)}"
        )
    return WordTensor(t.word, image_type, _carry(alpha, data, source_parts))


def _carry(alpha: AlphaSpec, data: np.ndarray, parts) -> np.ndarray:
    """Transform axis k of ``data`` by the component map of the atom of
    ``parts[k]``, one simple type per axis, or by its inverse transpose
    where that simple type's exponent is odd, so every epsilon pairing is
    preserved.  Each step is one matmul, (rest, leading axis) times the
    map's transpose, so the mapped axis comes last; its C-ordered result is
    already the next step's (leading axis, rest) layout, and after one pass
    over all axes they are back in order, so the shape is restored once."""
    shape = data.shape
    for p, d in zip(parts, shape):
        mat = alpha.component(p.atom, p.exponent)
        if len(mat) != d:
            raise SemanticsError(
                f"component for {p.atom!r} is {len(mat)}x{len(mat)}, "
                f"but the axis it carries has dimension {d}"
            )
        data = data.reshape(d, -1).T.dot(mat.T)
    return data.reshape(shape)


@dataclass(frozen=True)
class NaturalityReport:
    max_residual: float
    tolerance: float

    @property
    def ok(self) -> bool:
        return self.max_residual <= self.tolerance


def check_naturality(
    alpha: AlphaSpec,
    src_witness: ReductionWitness,
    src_tensors: list[WordTensor],
    functor: FunctorSpec,
    tgt_witness: ReductionWitness,
    tolerance: float,
    bracing: tuple[int, ...] | None = None,
) -> NaturalityReport:
    """Verify the translation square numerically: interpreting then
    applying alpha must equal applying alpha word-wise then interpreting
    in the target model, within the tolerance (max-abs norm).  Word order
    and target positions come from one :func:`functor_image` (brace cuts
    ``bracing``); a ``tgt_witness`` that is not the image of ``src_witness``
    raises SemanticsError, as do a post metarule, which has no tensor map,
    and a simple type whose image is not one simple type: no position map.
    Both witness checks come before any word tensor is carried."""
    if functor.post_metarules:
        raise SemanticsError(f"post metarule {functor.post_metarules[0].kind!r} has no tensor map")
    types = [wt.type for wt in src_tensors]
    meaning = interpret(src_witness, src_tensors)
    _, _, where, order = functor_image(functor, types, bracing)
    if where is None:
        raise SemanticsError("a simple type's image is not one simple type: no position map")
    if tgt_witness != image_witness(where, src_witness):
        raise SemanticsError("source and target witnesses do not correspond")
    translated = []
    for i, reverse in order:
        image = apply_antihomomorphism if reverse else apply_homomorphism
        translated.append(apply_alpha(alpha, src_tensors[i], image(functor, types[i]), reverse))

    # translate the source meaning's residue, its axes in target order
    flat, residue = concat(types), src_witness.residue
    meaning = _carry(alpha, meaning, [flat[r] for r in residue])
    meaning = meaning.transpose(sorted(range(meaning.ndim), key=lambda a: where[residue[a]]))
    target_meaning = interpret(tgt_witness, translated)
    residual = float(np.max(np.abs(meaning - target_meaning))) if meaning.size else 0.0
    return NaturalityReport(residual, tolerance)


def load_tensor_fixture(path: str | Path) -> tuple[SpaceAssignment, list[WordTensor]]:
    doc = JsonObject.read(path, SemanticsError)
    dims = doc.get("spaces", dict, items=int)
    spaces = doc.wrap("spaces", SpaceAssignment.make, dims)
    table = doc.wrap("spaces", AtomTable, dims.keys())
    tensors = []
    for i, raw in enumerate(doc.get("words", list, items=dict)):
        word = JsonObject(raw, f"{doc.where}: words[{i}]", SemanticsError)
        t = word.type("type", table)
        shape = spaces.shape_of(t)
        payload = word.get("data", (list, dict))
        if isinstance(payload, dict):
            seed = JsonObject(payload, f"{word.where}: field 'data'", SemanticsError)
            if math.prod(shape) > MAX_SEEDED_ENTRIES:
                raise SemanticsError(f"{seed.where}: a seeded tensor of shape {shape} has more "
                                     f"than {MAX_SEEDED_ENTRIES} entries")
            array = lcg_array(seed.get("seed", int), shape)
        else:
            leaves = [payload]
            while leaves:  # np.asarray would read "1.5" and true as numbers
                leaf = leaves.pop()
                if type(leaf) is list:
                    leaves += leaf
                elif type(leaf) not in (int, float):
                    raise SemanticsError(f"{word.where}: field 'data': {leaf!r} is not a number")
            try:
                array = np.asarray(payload, dtype=float)
            except (ValueError, OverflowError) as exc:  # ragged, or an int past float range
                raise SemanticsError(f"{word.where}: field 'data': {exc}") from exc
        name = word.get("word", str)
        tensors.append(word.wrap("data", make_word_tensor, name, t, array, spaces))
    return spaces, tensors
