"""Property checks, each defined once: the pregroup and functor laws, the
naturality squares, and the brute-force references for reduction and
``interpret``.  ``pregtrans check`` runs the suites, and the acceptance gate
runs the same ones.  Each suite returns its failures as lines of text.
"""

from __future__ import annotations

import itertools
import random

import numpy as np

from . import data as bundled
from .core import (
    AtomTable,
    CompoundType,
    PregroupError,
    SimpleType,
    Type,
    concat,
    contracts,
    flatten,
    left_adjoint,
    parse_type,
    render_type,
    right_adjoint,
    simple_leq,
)
from .functors import FunctorSpec, check_functor_laws, functor_image, image_witness
from .reduction import ReductionWitness, reduce, type_selections
from .semantics import AlphaSpec, SpaceAssignment, check_naturality, lcg_array, load_tensor_fixture

_TABLE = AtomTable({"a", "b", "c", "d"}, [("a", "b")])
_UNIT = CompoundType()
_IDENTITY = {a: CompoundType((SimpleType(a),)) for a in "abcd"}
_HOMOMORPHISM = FunctorSpec("x", "y", "homomorphism", _IDENTITY, _TABLE)
_ANTIHOMOMORPHISM = FunctorSpec("x", "y", "antihomomorphism", _IDENTITY, _TABLE)

# law name, predicate on two random types t and u
LAWS = (
    ("(t^l)^r = t", lambda t, u: right_adjoint(left_adjoint(t)) == t),
    ("(t^r)^l = t", lambda t, u: left_adjoint(right_adjoint(t)) == t),
    ("(tu)^l = u^l t^l", lambda t, u: left_adjoint(t + u) == left_adjoint(u) + left_adjoint(t)),
    ("(tu)^r = u^r t^r", lambda t, u: right_adjoint(t + u) == right_adjoint(u) + right_adjoint(t)),
    ("x x^r -> 1 and x^l x -> 1 for each part x of t", lambda t, u: all(
        contracts(p, p.right, _TABLE) and contracts(p.left, p, _TABLE) for p in t.parts)),
    ("1^l = 1 = 1^r and 1t = t = t1", lambda t, u: (
        left_adjoint(_UNIT) == _UNIT == right_adjoint(_UNIT) and _UNIT + t == t == t + _UNIT)),
    ("homomorphism laws on t and u", lambda t, u: check_functor_laws(_HOMOMORPHISM, [t, u]).ok),
    ("anti-homomorphism laws on t and u",
     lambda t, u: check_functor_laws(_ANTIHOMOMORPHISM, [t, u]).ok),
)


def law_failures(seed: int = 0) -> list[str]:
    """Every law in :data:`LAWS` on 1000 random pairs of types of up to 8
    parts, with exponents -3..3 and β tags on 3 parts in 10."""
    rng = random.Random(seed)

    def random_type():
        return CompoundType(tuple(
            SimpleType(rng.choice("abcd"), rng.randint(-3, 3), rng.random() < 0.3)
            for _ in range(rng.randint(0, 8))
        ))

    failures = []
    for _ in range(1000):
        t, u = random_type(), random_type()
        failures.extend(
            f"{name} fails on t = {render_type(t)!r}, u = {render_type(u)!r}"
            for name, holds in LAWS if not holds(t, u)
        )
    return failures


# name, tensor fixture, functor mode, reversal mask, brace cuts, goal, alpha seed per atom
SQUARES = (
    ("adjective-noun", "adj_noun", "homomorphism", None, None, "n", {"n": 1}),
    ("five-word", "mori", "antihomomorphism", None, None, "s", {"n": 2, "o1": 2, "o5": 2, "s": 3}),
    ("three-segment", "xi", "bracewise", (False, True, False), (2, 4), "sigma",
     {"nu": 4, "o": 5, "sigma": 6, "w": 7}),
)


def square(fixture: str, mode: str, mask, bracing, goal: str):
    """The spaces, word tensors, source witness, functor (the identity on the
    fixture's atoms, in ``mode`` with ``mask``) and target witness (the
    source witness's image) of a bundled fixture's square, cut at ``bracing``."""
    spaces, tensors = load_tensor_fixture(bundled.tensor_path(fixture))
    table = AtomTable(dict(spaces.dims).keys())
    functor = FunctorSpec("x", "y", mode, {a: parse_type(a, table) for a in table.atoms}, table,
                          mask)
    types = [wt.type for wt in tensors]
    src_w = reduce(concat(types), parse_type(goal, table), table)
    return spaces, tensors, src_w, functor, image_witness(
        functor_image(functor, types, bracing).where, src_w)


def square_alpha(spaces: SpaceAssignment, seeds: dict[str, int]) -> AlphaSpec:
    """Each atom's component: the identity plus 0.2 times LCG values."""
    return AlphaSpec.make({
        atom: np.eye(spaces.dim(atom)) + 0.2 * lcg_array(seed, (spaces.dim(atom),) * 2)
        for atom, seed in seeds.items()
    })


def naturality_failures(tol: float) -> list[str]:
    failures = []
    for name, fixture, mode, mask, bracing, goal, seeds in SQUARES:
        spaces, tensors, src_w, functor, tgt_w = square(fixture, mode, mask, bracing, goal)
        report = check_naturality(square_alpha(spaces, seeds), src_w, tensors, functor, tgt_w, tol,
                                  bracing)
        if not report.ok:
            failures.append(f"{name} square residual {report.max_residual:.3e}")
    return failures


def brute_force(witness: ReductionWitness, tensors: list, spaces: SpaceAssignment) -> np.ndarray:
    """Brute-force reference for ``semantics.interpret``: the product of the word
    tensors' entries summed over each index assignment that agrees on links."""
    dims = [spaces.dim(p.atom) for wt in tensors for p in wt.type.parts]
    out = np.zeros(tuple(dims[i] for i in witness.residue))
    for assign in itertools.product(*map(range, dims)):
        if all(assign[i] == assign[j] for i, j in witness.links):
            value, pos = 1.0, 0
            for wt in tensors:
                value *= wt.data[assign[pos : pos + len(wt.type)]]
                pos += len(wt.type)
            out[tuple(assign[i] for i in witness.residue)] += value
    return out


class OracleSizeError(PregroupError):
    pass


ORACLE_MAX_LEN = 12  # simple types; the oracle's work grows exponentially


def oracle_reduce(input: Type, target: CompoundType, table: AtomTable) -> list[ReductionWitness]:
    """Brute-force reference: apply single adjacent contractions in every
    order and collect the distinct witnesses whose remainder matches the
    target pointwise, sorted as tuples.  Guarded against blow-up."""
    parts = flatten(input).parts
    if len(parts) > ORACLE_MAX_LEN:
        raise OracleSizeError(f"oracle limited to length <= {ORACLE_MAX_LEN}, got {len(parts)}")
    goal = target.parts
    results: set[ReductionWitness] = set()
    seen: set[tuple] = set()

    def walk(state: tuple[int, ...], links: frozenset):
        key = (state, links)
        if key in seen:
            return
        seen.add(key)
        if len(state) == len(goal) and all(
            simple_leq(parts[i], g, table) for i, g in zip(state, goal)
        ):
            results.add(ReductionWitness(tuple(sorted(links)), state))
        for p in range(len(state) - 1):
            i, j = state[p], state[p + 1]
            if contracts(parts[i], parts[j], table):
                walk(state[:p] + state[p + 2 :], links | {(i, j)})

    walk(tuple(range(len(parts))), frozenset())
    return sorted(results)


def oracle_selections(alternatives, target: CompoundType, table: AtomTable) -> list:
    """Brute-force reference for ``reduction.type_selections``: each
    selection in ``itertools.product`` order with the witnesses
    :func:`oracle_reduce` finds, for the selections that have some."""
    found = []
    for selection in itertools.product(*alternatives):
        flat = concat(flatten(t) for t in selection)
        witnesses = oracle_reduce(flat, target, table)
        if witnesses:
            found.append((selection, witnesses))
    return found


_ORACLE_GOALS = tuple(parse_type(text, _TABLE) for text in ("", "b", "b b^l", "a^l b"))


def oracle_failures(max_len: int, count: int) -> list[str]:
    """Random tokens of one to three alternative types, at most ``max_len``
    simple types per selection and 27 selections per sentence, each with a
    target drawn from :data:`_ORACLE_GOALS`: the search must pick the same
    selections, in order, with the same witnesses as the brute-force
    oracle."""
    rng = random.Random(42)
    failures = []
    for _ in range(count):
        goal = rng.choice(_ORACLE_GOALS)
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
        fast = [(s, w.witnesses()) for s, w in type_selections(alternatives, goal, _TABLE)]
        slow = oracle_selections(alternatives, goal, _TABLE)
        if fast != slow:
            shown = " ".join("{" + " | ".join(map(render_type, a)) + "}" for a in alternatives)
            failures.append(f"mismatch on {shown} to {render_type(goal)!r}")
    return failures
