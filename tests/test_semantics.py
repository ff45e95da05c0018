"""Tensor semantics: contraction, snake identities, naturality squares."""

import itertools
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pregtrans import data as bundled
from pregtrans import checks, semantics
from pregtrans.checks import _TABLE, brute_force, oracle_reduce
from pregtrans.core import (
    AtomTable,
    BracedType,
    CompoundType,
    SimpleType,
    concat,
    contracts,
    flatten,
    parse_type,
    simple_leq,
)
from pregtrans.functors import (
    FunctorSpec,
    WordMap,
    apply_antihomomorphism,
    apply_functor,
    apply_homomorphism,
    functor_image,
    image_witness,
    load_functor,
    load_wordmap,
    segment_bounds,
    translate_sentence,
)
from pregtrans.lexicon import Lexicon, LexiconEntry, load_lexicon
from pregtrans.reduction import ReductionWitness, enumerate_reductions, reduce
from pregtrans.semantics import (
    AlphaSpec,
    SemanticsError,
    SpaceAssignment,
    apply_alpha,
    check_naturality,
    epsilon,
    eta,
    interpret,
    lcg_array,
    load_tensor_fixture,
    make_word_tensor,
)

EN = AtomTable({"n", "s", "o1", "o2", "o5"})
IDENTITY_MAP = {a: parse_type(a, EN) for a in EN.atoms}


def flat_type(tensors):
    t = CompoundType()
    for wt in tensors:
        t = t + wt.type
    return t


def sequential_contract(witness, tensors, spaces, link_order):
    """Alternative evaluator: outer-product everything, then trace out one
    link at a time in the given order."""
    full = np.array(1.0)
    for wt in tensors:
        full = np.multiply.outer(full, wt.data)
    flat = flat_type(tensors)
    positions = list(range(len(flat.parts)))
    for i, j in link_order:
        a, b = positions.index(i), positions.index(j)
        full = np.trace(full, axis1=a, axis2=b)
        positions = [p for p in positions if p not in (i, j)]
    perm = [positions.index(r) for r in witness.residue]
    return np.transpose(full, perm) if perm else full


# ---- generators and fixtures ---------------------------------------------------

def test_lcg_reproducible():
    assert lcg_array(7, (3,)).tolist() == lcg_array(7, (3,)).tolist()
    a = lcg_array(7, (2, 2))
    assert a.shape == (2, 2)
    assert np.all(a >= -1) and np.all(a < 1)
    assert not np.allclose(a, lcg_array(8, (2, 2)))


def python_lcg(seed, count):
    """The generator as a plain loop over 64-bit states."""
    mask = (1 << 64) - 1
    state, out = seed & mask, []
    for _ in range(count):
        state = (state * 6364136223846793005 + 1442695040888963407) & mask
        out.append((state >> 11) * 2.0**-52 - 1.0)
    return out


@pytest.mark.parametrize("seed", [0, 7, 2**63 + 12345, 2**64 - 1])
@pytest.mark.parametrize("count", [0, 1, 5, 512])
def test_lcg_matches_the_python_loop_bit_for_bit(seed, count):
    assert lcg_array(seed, (count,)).tolist() == python_lcg(seed, count)


def test_space_assignment_validation():
    with pytest.raises(SemanticsError):
        SpaceAssignment.make({"n": 0})
    sp = SpaceAssignment.make({"s1": 2, "s": 2})
    assert sp.dim("s1") == 2
    with pytest.raises(SemanticsError, match="no assigned dimension"):
        sp.dim("n")


def test_word_tensor_shape_checked():
    sp = SpaceAssignment.make({"n": 2})
    t = parse_type("n n^l", AtomTable({"n"}))
    with pytest.raises(SemanticsError):
        make_word_tensor("w", t, [1.0, 2.0], sp)
    # interpret reads one dimension per simple type off the tensor's shape
    with pytest.raises(SemanticsError, match=r"^'w': tensor has 1 axes, type 'n n\^l' has 2$"):
        semantics.WordTensor("w", t, np.ones(2))
    wt = make_word_tensor("w", t, [[1.0, 0.0], [0.0, 1.0]], sp)
    assert wt.data.shape == (2, 2)


def test_word_tensor_rejects_non_finite_entries():
    sp = SpaceAssignment.make({"n": 2})
    with pytest.raises(SemanticsError, match=r"^'w': tensor has non-finite entries$"):
        make_word_tensor("w", parse_type("n", AtomTable({"n"})), [np.nan, 1.0], sp)


def test_load_tensor_fixtures():
    for name in ["pigeons", "adj_noun", "mori", "xi"]:
        spaces, tensors = load_tensor_fixture(bundled.tensor_path(name))
        assert tensors
        for wt in tensors:
            assert wt.data.shape == spaces.shape_of(wt.type)


# ---- epsilon / eta / snake ------------------------------------------------------

def test_epsilon_is_dot_product():
    assert epsilon(2)([1.0, 2.0], [3.0, 4.0]) == 11.0
    with pytest.raises(SemanticsError):
        epsilon(2)([1.0], [1.0, 2.0])


def test_eta_is_identity_pairing():
    assert np.array_equal(eta(3), np.eye(3))


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_snake_identities(dim):
    u = lcg_array(dim * 17 + 1, (dim,))
    et = eta(dim)
    eps = epsilon(dim)
    # (eps (x) 1)(1 (x) eta) u = u
    left = np.array([eps(u, et[:, k]) for k in range(dim)])
    # (1 (x) eps)(eta (x) 1) u = u
    right = np.array([eps(et[k, :], u) for k in range(dim)])
    assert np.max(np.abs(left - u)) < 1e-12
    assert np.max(np.abs(right - u)) < 1e-12


# ---- interpret -------------------------------------------------------------------

def einsum_greedy(witness, tensors):
    """The contraction as one einsum call with numpy's greedy path search."""
    axis_index, counter = {}, 0
    for i, j in sorted(witness.links):
        axis_index[i] = axis_index[j] = counter
        counter += 1
    out_axes = []
    for i in witness.residue:
        axis_index[i] = counter
        out_axes.append(counter)
        counter += 1
    operands, pos = [], 0
    for wt in tensors:
        operands += [wt.data, [axis_index[pos + k] for k in range(len(wt.type))]]
        pos += len(wt.type)
    return np.einsum(*operands, out_axes, optimize=True)


def contraction_cases():
    """(name, word types, goal): coordinations with k = 2-5 conjuncts, a
    sentence contracting to a scalar, one-word sentences, links inside one
    word, an outer product (no word shares a link with another), two words
    sharing two links, and a word or a pair of words contracting to a
    scalar inside two links."""
    for k in range(2, 6):
        yield f"adj-{k}", ["n n^l", "n"] + ["n^r n n^l", "n"] * (k - 1), "n"
        yield f"eat-{k}", ["n", "n^r s n^l", "n"] + ["n^r n n^l", "n"] * (k - 1), "s"
    yield "scalar", ["n", "n^r s n^l", "n", "s^r"], ""
    yield "one-word", ["n^r s n^l"], "n^r s n^l"
    yield "one-word-scalar", ["n n^r"], ""
    yield "inner-link", ["s n^l", "n o5 o5^r", "s^r"], ""
    yield "outer-product", ["n", "n"], "n n"
    yield "two-links", ["n s", "s^r n^r"], ""
    yield "traced-scalar-inside", ["n^l", "s^l", "o5 o5^r", "s", "n"], ""
    yield "merged-scalar-inside", ["n^l", "s^l", "o5", "o5^r", "s", "n"], ""


FIXTURES = [("pigeons", "s"), ("adj_noun", "n"), ("mori", "s")]


def case_samples(words, goal):
    """(witness, tensors) for every witness of a contraction case:
    three random dimension sets (1-4 per atom), then every atom at dimension
    1, each with normal random word tensors."""
    rng = np.random.default_rng(0)
    types = [parse_type(w, EN) for w in words]
    witnesses = enumerate_reductions(concat(types), parse_type(goal, EN), EN)
    assert witnesses
    for w in witnesses:
        dim_sets = [{a: int(rng.integers(1, 5)) for a in sorted(EN.atoms)} for _ in range(3)]
        for dims in dim_sets + [dict.fromkeys(EN.atoms, 1)]:
            spaces = SpaceAssignment.make(dims)
            tensors = [make_word_tensor(f"w{i}", t, rng.normal(size=spaces.shape_of(t)), spaces)
                       for i, t in enumerate(types)]
            yield w, tensors


def fixture_samples(name, target):
    """(witness, tensors) for every witness of a bundled fixture."""
    spaces, tensors = load_tensor_fixture(bundled.tensor_path(name))
    table = AtomTable(dict(spaces.dims).keys())
    witnesses = enumerate_reductions(flat_type(tensors), parse_type(target, table), table)
    assert witnesses
    for w in witnesses:
        yield w, tensors


@pytest.mark.parametrize("name, words, goal", list(contraction_cases()))
def test_interpret_matches_einsum_with_path_search(name, words, goal):
    for w, tensors in case_samples(words, goal):
        got, want = interpret(w, tensors), einsum_greedy(w, tensors)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want), initial=0) <= 1e-12 * np.max(np.abs(want), initial=1)


@pytest.mark.parametrize("name, target", FIXTURES)
def test_interpret_matches_einsum_on_bundled_fixtures(name, target):
    for w, tensors in fixture_samples(name, target):
        got, want = interpret(w, tensors), einsum_greedy(w, tensors)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want), initial=0) <= 1e-12 * np.max(np.abs(want), initial=1)


SAMPLES = [pytest.param(case_samples, words, goal, id=name)
           for name, words, goal in contraction_cases()]
SAMPLES += [pytest.param(fixture_samples, name, target, id=name) for name, target in FIXTURES]


@pytest.mark.parametrize("samples, words, goal", SAMPLES)
def test_no_intermediate_is_larger_than_greedys_memory_limit(samples, words, goal, monkeypatch):
    # greedy's own largest intermediate can be smaller: on "scalar" with
    # n = 2, s = 3 it contracts the verb with s^r first (4 entries), while
    # the witness order contracts it with the subject first (6 entries)
    sizes = []
    merge = semantics._merge

    def recording_merge(left, right):
        data, labels = merge(left, right)
        sizes.append(data.size)
        return data, labels

    monkeypatch.setattr(semantics, "_merge", recording_merge)
    for w, tensors in samples(words, goal):
        sizes.clear()
        result = interpret(w, tensors)
        # the cap numpy's greedy path search holds its intermediates to
        limit = max([wt.data.size for wt in tensors] + [result.size])
        assert max(sizes, default=0) <= limit, (w, sizes)


def test_five_word_square_merges_at_most_four_entries(monkeypatch):
    # the verb's open links wait for the later words to shrink the stack's
    # top; merging at once would build an 8-entry intermediate here
    name, fixture, mode, mask, bracing, goal, seeds = checks.SQUARES[1]
    assert (name, fixture, mode) == ("five-word", "mori", "antihomomorphism")
    sizes = []
    merge = semantics._merge

    def recording_merge(left, right):
        data, labels = merge(left, right)
        sizes.append(data.size)
        return data, labels

    monkeypatch.setattr(semantics, "_merge", recording_merge)
    spaces, tensors, src_w, functor, tgt_w = checks.square(fixture, mode, mask, bracing, goal)
    report = check_naturality(checks.square_alpha(spaces, seeds), src_w, tensors, functor, tgt_w,
                              1e-9, bracing)
    assert report.ok, report.max_residual
    assert max(sizes) <= 4, sizes


class TransposeRecording(np.ndarray):
    """An array that records every transpose asked of it or of its views."""

    calls: list = []

    def transpose(self, *axes):
        TransposeRecording.calls.append(axes)
        return super().transpose(*axes)


@pytest.mark.parametrize("xs, ys, transposes", [
    ([0, 5, 1, 2], [2, 1, 7], 1),  # shared [1, 2] of x are [2, 1] in y: y is transposed
    ([0, 5, 1], [1, 7, 8], 0),  # both in (open, shared) and (shared, open) order already
    ([0, 1], [7], 0),  # nothing shared: an outer product
    ([], [1, 7], 0),  # a scalar
    ([1, 0], [7, 1], 2),
])
def test_merge_transposes_only_operands_out_of_order(xs, ys, transposes):
    rng = np.random.default_rng(len(xs) + 3 * len(ys))
    dims = {0: 2, 1: 3, 2: 4, 5: 1, 7: 2, 8: 3}
    x = rng.normal(size=[dims[k] for k in xs]).view(TransposeRecording)
    y = rng.normal(size=[dims[k] for k in ys]).view(TransposeRecording)
    TransposeRecording.calls = []
    data, labels = semantics._merge((x, xs), (y, ys))
    assert len(TransposeRecording.calls) == transposes
    free = [k for k in xs if k not in ys] + [k for k in ys if k not in xs]
    assert labels == free
    want = np.einsum(np.asarray(x), xs, np.asarray(y), ys, free)
    assert data.shape == want.shape
    assert np.allclose(data, want, rtol=1e-12, atol=1e-12)


def test_interpret_subject_verb_object():
    spaces, tensors = load_tensor_fixture(bundled.tensor_path("pigeons"))
    table = AtomTable(dict(spaces.dims).keys())
    w = reduce(flat_type(tensors), parse_type("s", table), table)
    v = interpret(w, tensors)
    subj, verb, obj = (wt.data for wt in tensors)
    assert np.allclose(v, np.einsum("i,ijk,k->j", subj, verb, obj), atol=1e-12)


@pytest.mark.parametrize("name,target", [("pigeons", "s"), ("adj_noun", "n"), ("mori", "s")])
def test_interpret_matches_brute_force(name, target):
    spaces, tensors = load_tensor_fixture(bundled.tensor_path(name))
    table = AtomTable(dict(spaces.dims).keys())
    w = reduce(flat_type(tensors), parse_type(target, table), table)
    assert w is not None
    assert np.max(np.abs(interpret(w, tensors) - brute_force(w, tensors, spaces))) < 1e-12


def test_interpret_invariant_under_link_order():
    spaces, tensors = load_tensor_fixture(bundled.tensor_path("mori"))
    table = AtomTable(dict(spaces.dims).keys())
    w = reduce(flat_type(tensors), parse_type("s", table), table)
    links = sorted(w.links)
    base = interpret(w, tensors)
    for order in [links, links[::-1], links[1:] + links[:1]]:
        alt = sequential_contract(w, tensors, spaces, order)
        assert np.max(np.abs(alt - base)) < 1e-12


def test_interpret_rejects_mismatched_witness():
    spaces, tensors = load_tensor_fixture(bundled.tensor_path("pigeons"))
    table = AtomTable(dict(spaces.dims).keys())
    w = reduce(flat_type(tensors), parse_type("s", table), table)
    with pytest.raises(SemanticsError):
        interpret(w, tensors[:-1])


@pytest.mark.parametrize("links, residue", [
    ({(0, 2), (1, 3)}, ()),  # crossing links
    ({(0, 3)}, (1, 2)),  # residue under a link
])
def test_interpret_rejects_witnesses_that_are_not_planar_reductions(links, residue):
    table = AtomTable({"n"})
    spaces = SpaceAssignment.make({"n": 2})
    t = parse_type("n n^r", table)
    tensors = [make_word_tensor(w, t, np.arange(4.0).reshape(2, 2), spaces) for w in "ab"]
    with pytest.raises(SemanticsError, match="not a planar reduction"):
        interpret(ReductionWitness(frozenset(links), residue), tensors)


def test_interpret_of_no_words_is_the_scalar_one():
    v = interpret(ReductionWitness((), ()), [])
    assert v.shape == () and v == 1.0


def test_interpret_rejects_a_link_between_axes_of_different_dimensions():
    # n <= pi licenses the link n pi^r, but the spaces of n and pi differ
    table = AtomTable({"n", "pi"}, [("n", "pi")])
    spaces = SpaceAssignment.make({"n": 2, "pi": 3})
    words = [("a", "n", np.ones(2)), ("b", "pi^r", np.ones(3))]
    tensors = [make_word_tensor(w, parse_type(t, table), d, spaces) for w, t, d in words]
    w = reduce(flat_type(tensors), CompoundType(), table)
    assert w == ReductionWitness(((0, 1),), ())
    with pytest.raises(SemanticsError, match=r"^link \(0, 1\) pairs axes of dimensions 2 and 3$"):
        interpret(w, tensors)


# ---- alpha -----------------------------------------------------------------------

def test_alpha_requires_invertible_components():
    with pytest.raises(SemanticsError):
        AlphaSpec.make({"n": np.zeros((2, 2))})
    with pytest.raises(SemanticsError):
        AlphaSpec.make({"n": np.ones((2, 3))})


def test_alpha_invertibility_does_not_depend_on_scale():
    # det 1e-15 but condition number 1: accepted, and the square commutes
    spaces, tensors = load_tensor_fixture(bundled.tensor_path("adj_noun"))
    table = AtomTable(dict(spaces.dims).keys())
    w = reduce(flat_type(tensors), parse_type("n", table), table)
    hom = FunctorSpec("ja", "en", "homomorphism", IDENTITY_MAP, EN)
    report = check_naturality(AlphaSpec.make({"n": 1e-5 * np.eye(3)}), w, tensors, hom, w, 1e-9)
    assert report.ok, report.max_residual
    # det 0.1 but condition number 1e13: refused
    with pytest.raises(SemanticsError, match=r"^component for 'n' is not invertible$"):
        AlphaSpec.make({"n": np.diag([1e6, 1e-7, 1])})
    with pytest.raises(SemanticsError, match=r"^component for 'n' is not invertible$"):
        AlphaSpec.make({"n": np.zeros((3, 3))})


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_alpha_refuses_non_finite_components(bad):
    mat = np.eye(2)
    mat[0, 1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before det or inv can warn
        with pytest.raises(SemanticsError, match=r"^component for 'n' has non-finite entries$"):
            AlphaSpec.make({"s": np.eye(3), "n": mat})


def test_alpha_preserves_epsilon_pairings():
    mat = np.eye(3) + 0.2 * lcg_array(5, (3, 3))
    alpha = AlphaSpec.make({"n": mat})
    u, v = lcg_array(6, (3,)), lcg_array(9, (3,))
    eps = epsilon(3)
    # plain axis via M, dual axis via inverse-transpose: pairing unchanged
    assert abs(eps(mat @ u, np.linalg.inv(mat).T @ v) - eps(u, v)) < 1e-9


def test_apply_alpha_reverses_axes_for_antihomomorphism():
    spaces = SpaceAssignment.make({"n": 2, "o5": 2})
    table = AtomTable({"n", "o5"})
    src = make_word_tensor("ni", parse_type("n^r o5", table), lcg_array(31, (2, 2)), spaces)
    image = parse_type("o5 n^l", EN)
    out = apply_alpha(AlphaSpec.make({"n": np.eye(2), "o5": np.eye(2)}), src, image, reverse=True)
    assert np.allclose(out.data, src.data.T)


def carry_by_inverting(components, data, axes):
    """Axis k through the component of its atom, inverted and transposed
    where the exponent is odd, one inversion per axis."""
    for k, (atom, exponent) in enumerate(axes):
        mat = components[atom]
        if exponent % 2:
            mat = np.linalg.inv(mat).T
        data = np.moveaxis(np.tensordot(mat, data, axes=(1, k)), 0, k)
    return data


@pytest.mark.parametrize("reverse", [False, True])
def test_apply_alpha_matches_inverting_each_axis(reverse):
    rng = np.random.default_rng(int(reverse))
    dims = {"n": 2, "s": 3, "o1": 4, "o2": 1, "o5": 5}
    spaces = SpaceAssignment.make(dims)
    components = {a: np.eye(d) + 0.3 * rng.uniform(-1, 1, (d, d)) for a, d in dims.items()}
    alpha = AlphaSpec.make(components)
    functor = FunctorSpec("x", "y", "antihomomorphism" if reverse else "homomorphism",
                          IDENTITY_MAP, EN)
    image_of = apply_antihomomorphism if reverse else apply_homomorphism
    atoms = sorted(dims)
    for _ in range(60):
        t = CompoundType(tuple(
            SimpleType(atoms[rng.integers(len(atoms))], int(rng.integers(-2, 3)))
            for _ in range(rng.integers(0, 5))
        ))
        wt = make_word_tensor("w", t, rng.normal(size=spaces.shape_of(t)), spaces)
        image = image_of(functor, t)
        got = apply_alpha(alpha, wt, image, reverse=reverse)
        data, parts = wt.data, t.parts
        if reverse:
            data, parts = data.transpose(tuple(range(data.ndim - 1, -1, -1))), parts[::-1]
        axes = [(p.atom, p.exponent) for p in parts]
        want = carry_by_inverting(components, data, axes)
        assert got.type == image and got.data.shape == want.shape
        assert np.max(np.abs(got.data - want), initial=0) <= 1e-12 * np.max(np.abs(want), initial=1)


def carry_by_einsum(components, data, axes):
    """Axis k through the component of its atom, inverted and transposed
    where the exponent is odd, one einsum per axis."""
    n = data.ndim
    for k, (atom, exponent) in enumerate(axes):
        mat = components[atom]
        if exponent % 2:
            mat = np.linalg.inv(mat).T
        out = list(range(n))
        out[k] = n
        data = np.einsum(mat, [n, k], data, list(range(n)), out)
    return data


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("nsa"), st.integers(-2, 2)), min_size=1, max_size=4),
       st.fixed_dictionaries({a: st.integers(1, 4) for a in "nsa"}), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_apply_alpha_matches_a_per_axis_einsum(axes, dims, reverse, seed):
    rng = np.random.default_rng(seed)
    components = {a: np.eye(d) + 0.3 * rng.uniform(-1, 1, (d, d)) for a, d in dims.items()}
    alpha = AlphaSpec.make(components)
    table = AtomTable(set(dims))
    functor = FunctorSpec("x", "y", "antihomomorphism" if reverse else "homomorphism",
                          {a: parse_type(a, table) for a in dims}, table)
    t = CompoundType(tuple(SimpleType(a, z) for a, z in axes))
    wt = semantics.WordTensor("w", t, rng.normal(size=[dims[a] for a, _ in axes]))
    image = (apply_antihomomorphism if reverse else apply_homomorphism)(functor, t)
    got = apply_alpha(alpha, wt, image, reverse)
    want = carry_by_einsum(components, wt.data.T if reverse else wt.data,
                           axes[::-1] if reverse else axes)
    assert got.type == image and got.data.shape == want.shape
    assert np.max(np.abs(got.data - want)) <= 1e-12 * max(np.max(np.abs(want)), 1)


def test_alpha_component_and_inverse_transpose():
    mat = np.eye(3) + 0.2 * lcg_array(5, (3, 3))
    alpha = AlphaSpec.make({"n": mat})
    assert np.array_equal(alpha.component("n"), mat)
    assert np.array_equal(alpha.component("n", 2), mat)
    assert np.allclose(alpha.component("n", -1), np.linalg.inv(mat).T)
    with pytest.raises(SemanticsError, match="no component map"):
        alpha.component("s")


def test_apply_alpha_word_override():
    spaces = SpaceAssignment.make({"n": 2})
    table = AtomTable({"n"})
    src = make_word_tensor("w", parse_type("n", table), [1.0, 0.0], spaces)
    repl = make_word_tensor("w", parse_type("n", EN), [5.0, 5.0], spaces)
    alpha = AlphaSpec.make({"n": np.eye(2)}, {"w": repl})
    assert np.array_equal(apply_alpha(alpha, src, parse_type("n", EN), reverse=False).data, [5.0, 5.0])
    repl = make_word_tensor("w", parse_type("s^r s s", EN), np.zeros((2, 2, 2)),
                            SpaceAssignment.make({"s": 2}))
    alpha = AlphaSpec.make({"n": np.eye(2)}, {"w": repl})
    with pytest.raises(SemanticsError, match=r"'w': override has type 's\^r s s', not the image "
                                             r"type 'n'"):
        apply_alpha(alpha, src, parse_type("n", EN), reverse=False)


@pytest.mark.parametrize("word, image, reverse, shape, carried", [
    ("n", "n", False, (3,), (2,)),
    ("n s", "n s", False, (3, 2), (2, 3)),
    ("n s", "s n", True, (2, 3), (3, 2)),  # a reversed word's axes are carried reversed
])
def test_apply_alpha_rejects_an_override_of_another_shape(word, image, reverse, shape, carried):
    spaces = SpaceAssignment.make({"n": 2, "s": 3})
    word, image = parse_type(word, EN), parse_type(image, EN)
    src = make_word_tensor("w", word, np.ones(spaces.shape_of(word)), spaces)
    alpha = AlphaSpec.make({"n": np.eye(2), "s": np.eye(3)},
                           {"w": semantics.WordTensor("w", image, np.zeros(shape))})
    message = f"'w': override has shape {shape}, not {carried}"
    with pytest.raises(SemanticsError, match=f"^{re.escape(message)}$"):
        apply_alpha(alpha, src, image, reverse)


def test_apply_alpha_rejects_an_image_type_of_another_length():
    src = make_word_tensor("w", parse_type("n", EN), [1.0, 0.0], SpaceAssignment.make({"n": 2}))
    alpha = AlphaSpec.make({"n": np.eye(2)})
    with pytest.raises(SemanticsError, match=r"^'w': image type length 2 != 1$"):
        apply_alpha(alpha, src, parse_type("n n^l", EN), reverse=False)


def test_apply_alpha_rejects_a_component_of_the_wrong_size():
    spaces = SpaceAssignment.make({"n": 2})
    src = make_word_tensor("w", parse_type("n", EN), [1.0, 0.0], spaces)
    alpha = AlphaSpec.make({"n": np.eye(3)})
    with pytest.raises(SemanticsError, match=r"component for 'n' is 3x3, but the axis it "
                                             r"carries has dimension 2"):
        apply_alpha(alpha, src, parse_type("n", EN), reverse=False)


# ---- naturality squares ------------------------------------------------------------

def test_naturality_homomorphism_square():
    spaces, tensors = load_tensor_fixture(bundled.tensor_path("adj_noun"))
    table = AtomTable(dict(spaces.dims).keys())
    w = reduce(flat_type(tensors), parse_type("n", table), table)
    hom = FunctorSpec("ja", "en", "homomorphism", IDENTITY_MAP, EN)
    alpha = AlphaSpec.make({"n": np.eye(3) + 0.2 * lcg_array(1, (3, 3))})
    report = check_naturality(alpha, w, tensors, hom, w, 1e-9)
    assert report.ok, report.max_residual


def test_naturality_rejects_witnesses_that_do_not_correspond():
    spaces, tensors = load_tensor_fixture(bundled.tensor_path("adj_noun"))
    table = AtomTable(dict(spaces.dims).keys())
    w = reduce(flat_type(tensors), parse_type("n", table), table)
    hom = FunctorSpec("ja", "en", "homomorphism", IDENTITY_MAP, EN)
    alpha = AlphaSpec.make({"n": np.eye(3)})
    other = ReductionWitness((), tuple(range(len(flat_type(tensors)))))
    with pytest.raises(SemanticsError, match=r"^source and target witnesses do not correspond$"):
        check_naturality(alpha, w, tensors, hom, other, 1e-9)


def test_naturality_antihomomorphism_square():
    spaces, tensors = load_tensor_fixture(bundled.tensor_path("mori"))
    table = AtomTable(dict(spaces.dims).keys())
    src_w = reduce(flat_type(tensors), parse_type("s", table), table)
    anti = FunctorSpec("ja", "en", "antihomomorphism", IDENTITY_MAP, EN)
    image = apply_antihomomorphism(anti, flat_type(tensors))
    tgt_w = reduce(image, parse_type("s", EN), EN)
    m = np.eye(2) + 0.2 * lcg_array(2, (2, 2))
    ms = np.eye(2) + 0.2 * lcg_array(3, (2, 2))
    alpha = AlphaSpec.make({"n": m, "o1": m, "o5": m, "s": ms})
    report = check_naturality(alpha, src_w, tensors, anti, tgt_w, 1e-9)
    assert report.ok, report.max_residual


def test_naturality_holds_for_unrelated_invertible_components():
    # the inverse-transpose convention on dual axes makes the square commute
    # even when atoms linked in the diagram carry unrelated component maps
    spaces, tensors = load_tensor_fixture(bundled.tensor_path("mori"))
    table = AtomTable(dict(spaces.dims).keys())
    src_w = reduce(flat_type(tensors), parse_type("s", table), table)
    anti = FunctorSpec("ja", "en", "antihomomorphism", IDENTITY_MAP, EN)
    image = apply_antihomomorphism(anti, flat_type(tensors))
    tgt_w = reduce(image, parse_type("s", EN), EN)
    alpha = AlphaSpec.make(
        {"n": np.eye(2) + 0.4 * lcg_array(13, (2, 2)), "o1": np.eye(2),
         "o5": np.eye(2), "s": np.eye(2)}
    )
    report = check_naturality(alpha, src_w, tensors, anti, tgt_w, 1e-9)
    assert report.ok


def test_naturality_square_takes_the_image_of_the_source_witness():
    # the image type under the identity anti-homomorphism is the source
    # type itself, and reduce's first witness of it is not the image of
    # reduce's first witness of the source
    table = AtomTable({"a", "b", "c"})
    rng = np.random.default_rng(4)
    spaces = SpaceAssignment.make({"a": 2, "b": 3, "c": 2})
    types = [parse_type(t, table) for t in ("b b^l", "b b^r b")]
    tensors = [make_word_tensor(f"w{i}", t, rng.normal(size=spaces.shape_of(t)), spaces)
               for i, t in enumerate(types)]
    anti = FunctorSpec("x", "y", "antihomomorphism", {a: parse_type(a, table) for a in "abc"},
                       table)
    goal = parse_type("b", table)
    src_w = reduce(concat(types), goal, table)
    searched = reduce(apply_antihomomorphism(anti, concat(types)), goal, table)
    image = ReductionWitness(((0, 3), (1, 2)), (4,))
    assert searched == ReductionWitness(((1, 4), (2, 3)), (0,)) == src_w
    assert image_witness(functor_image(anti, types).where, src_w) == image
    alpha = AlphaSpec.make({a: np.eye(d) + 0.3 * rng.uniform(-1, 1, (d, d))
                            for a, d in spaces.dims.items()})
    with pytest.raises(SemanticsError, match=r"^source and target witnesses do not correspond$"):
        check_naturality(alpha, src_w, tensors, anti, searched, 1e-9)
    report = check_naturality(alpha, src_w, tensors, anti, image, 1e-9)
    assert report.ok, report.max_residual


@st.composite
def monotone_functors(draw):
    """A homomorphism or anti-homomorphism on ``checks._TABLE`` (a <= b)
    sending each atom to one target atom, several maybe to the same one,
    with the target order holding F(a) <= F(b)."""
    image = {a: draw(st.sampled_from("wxyz")) for a in sorted(_TABLE.atoms)}
    order = [(image["a"], image["b"])] if image["a"] != image["b"] else []
    mode = draw(st.sampled_from(["homomorphism", "antihomomorphism"]))
    return FunctorSpec("x", "y", mode, {a: CompoundType((SimpleType(t),)) for a, t in image.items()},
                       AtomTable(set(image.values()), order))


@st.composite
def reducing_sentences(draw):
    """Word types and a goal they reduce to: contracting pairs put into the
    goal's parts at random places, cut into words at random."""
    goal = parse_type(draw(st.sampled_from(["", "b", "b b^l", "a^l b"])), _TABLE)
    parts = list(goal.parts)
    for _ in range(draw(st.integers(0, 4))):
        x = SimpleType(draw(st.sampled_from("abcd")), draw(st.integers(-2, 2)), draw(st.booleans()))
        at = draw(st.integers(0, len(parts)))
        parts[at:at] = [x, draw(st.sampled_from(sorted(_TABLE.partners[x])))]
    cuts = [0] + [k for k in range(1, len(parts)) if draw(st.booleans())] + [len(parts)]
    return [CompoundType(tuple(parts[a:b])) for a, b in zip(cuts, cuts[1:])], goal


@settings(max_examples=150, deadline=None)
@given(monotone_functors(), reducing_sentences(), st.integers(0, 2**32 - 1))
def test_the_image_of_every_reduction_is_a_reduction_of_the_image(functor, sentence, seed):
    types, goal = sentence
    target = functor.target_table
    where = functor_image(functor, types).where
    image_type, goal_image = apply_functor(functor, concat(types)), apply_functor(functor, goal)
    # a dimension per target atom, so F(a) and F(b) share one, and one
    # alpha component per class of the source order, so a and b share one
    rng = np.random.default_rng(seed)
    dims = {t: int(rng.integers(1, 4)) for t in sorted(target.atoms)}
    dims[functor.atom_map["b"][0].atom] = dims[functor.atom_map["a"][0].atom]
    spaces = SpaceAssignment.make({a: dims[functor.atom_map[a][0].atom] for a in "abcd"})
    tensors = [make_word_tensor(f"w{i}", t, rng.normal(size=spaces.shape_of(t)), spaces)
               for i, t in enumerate(types)]
    mats = {a: np.eye(spaces.dim(a)) + 0.3 * rng.uniform(-1, 1, (spaces.dim(a),) * 2)
            for a in "acd"}
    alpha = AlphaSpec.make({**mats, "b": mats["a"]})
    witnesses = oracle_reduce(concat(types), goal, _TABLE)
    assert witnesses
    for w in witnesses:
        image = image_witness(where, w)
        image.partners(len(image_type))
        assert all(contracts(image_type[i], image_type[j], target) for i, j in image.links)
        assert len(image.residue) == len(goal_image)
        assert all(simple_leq(image_type[r], g, target)
                   for r, g in zip(image.residue, goal_image.parts))
        report = check_naturality(alpha, w, tensors, functor, image, 1e-9)
        assert report.ok, report.max_residual


@st.composite
def translations(draw):
    """A sentence from :func:`reducing_sentences` and a homomorphism,
    anti-homomorphism or brace-wise functor (random cuts and mask) on
    ``checks._TABLE`` sending each atom to one target atom, several maybe to
    the same one, with F(a) <= F(b) in the target order or not, so the image
    of a reduction need not be one."""
    types, goal = draw(reducing_sentences())
    image = {a: draw(st.sampled_from("wxyz")) for a in sorted(_TABLE.atoms)}
    keep = image["a"] != image["b"] and draw(st.booleans())
    table = AtomTable(set(image.values()), [(image["a"], image["b"])] if keep else [])
    atom_map = {a: CompoundType((SimpleType(t),)) for a, t in image.items()}
    mode = draw(st.sampled_from(["homomorphism", "antihomomorphism", "bracewise"]))
    bracing, mask = None, None
    if mode == "bracewise":
        bracing = tuple(k for k in range(1, len(types)) if draw(st.booleans()))
        mask = tuple(draw(st.booleans()) for _ in range(len(bracing) + 1))
    return FunctorSpec("x", "y", mode, atom_map, table, mask), types, goal, bracing


@settings(max_examples=300, deadline=None)
@given(translations())
def test_translation_takes_the_image_and_searches_only_where_it_is_no_reduction(translation):
    functor, types, goal, bracing = translation
    target = functor.target_table
    words = [f"w{i}" for i in range(len(types))]
    src = Lexicon("x", _TABLE, {w: LexiconEntry(w, (t,)) for w, t in zip(words, types)})
    result = translate_sentence(src, Lexicon("y", target, {}), functor,
                                WordMap({w: w for w in words}), words, bracing,
                                source_target=goal)
    image_type = result.translated.flatten()
    goal_image = (apply_antihomomorphism if functor.reverses else apply_homomorphism)(functor, goal)
    tgt_w = result.target_witness
    assert (tgt_w is not None) == (reduce(image_type, goal_image, target) is not None)
    if tgt_w is not None:
        tgt_w.partners(len(image_type))
        assert all(contracts(image_type[i], image_type[j], target) for i, j in tgt_w.links)
    image = image_witness(functor_image(functor, types, bracing).where, result.source_witness)
    if image in oracle_reduce(image_type, goal_image, target):
        assert tgt_w == image


def braced(types, bracing):
    """The word types cut into brace segments at ``bracing``."""
    return BracedType(tuple(concat(types[a:b]) for a, b in segment_bounds(len(types), bracing)))


@pytest.mark.parametrize("mode, mask, bracing, words, goal, target_goal", [
    ("homomorphism", None, None, ["n", "n^r s", "o1"], "s o1", "s o1"),
    ("antihomomorphism", None, None, ["n", "n^r s", "o1"], "s o1", "o1 s"),
    ("bracewise", (False, True), (2,), ["n", "n^r s", "o1", "o2"], "s o1 o2", "s o2 o1"),
])
def test_naturality_square_puts_the_residue_axes_in_target_order(
    mode, mask, bracing, words, goal, target_goal
):
    # every dimension is 2, so only the values tell the residue axes apart
    rng = np.random.default_rng(5)
    spaces = SpaceAssignment.make({a: 2 for a in EN.atoms})
    types = [parse_type(w, EN) for w in words]
    tensors = [make_word_tensor(f"w{i}", t, rng.normal(size=spaces.shape_of(t)), spaces)
               for i, t in enumerate(types)]
    functor = FunctorSpec("x", "y", mode, IDENTITY_MAP, EN, mask)
    src_w = reduce(concat(types), parse_type(goal, EN), EN)
    tgt_w = reduce(flatten(apply_functor(functor, braced(types, bracing))),
                   parse_type(target_goal, EN), EN)
    alpha = AlphaSpec.make({a: np.eye(2) + 0.3 * rng.uniform(-1, 1, (2, 2))
                            for a in sorted(EN.atoms)})
    report = check_naturality(alpha, src_w, tensors, functor, tgt_w, 1e-9, bracing)
    assert report.ok, report.max_residual


@pytest.mark.parametrize("mode, mask, bracing", [
    ("homomorphism", None, None),
    ("antihomomorphism", None, None),
    ("bracewise", (True, False), (3,)),
])
def test_naturality_square_with_a_scalar_residue(mode, mask, bracing):
    # the sentence contracts to a scalar, so the residue carry maps no axis
    rng = np.random.default_rng(3)
    dims = {a: int(rng.integers(2, 5)) for a in sorted(EN.atoms)}
    spaces = SpaceAssignment.make(dims)
    types = [parse_type(w, EN) for w in ["n", "n^r s n^l", "n", "s^r"]]
    tensors = [make_word_tensor(f"w{i}", t, rng.normal(size=spaces.shape_of(t)), spaces)
               for i, t in enumerate(types)]
    functor = FunctorSpec("x", "y", mode, IDENTITY_MAP, EN, mask)
    image = apply_functor(functor, braced(types, bracing))
    src_w = reduce(concat(types), CompoundType(), EN)
    tgt_w = reduce(flatten(image), CompoundType(), EN)
    alpha = AlphaSpec.make({a: np.eye(d) + 0.3 * rng.uniform(-1, 1, (d, d))
                            for a, d in dims.items()})
    want = brute_force(src_w, tensors, spaces)
    assert want.shape == ()
    assert np.abs(interpret(src_w, tensors) - want) <= 1e-12 * max(abs(want), 1)
    report = check_naturality(alpha, src_w, tensors, functor, tgt_w, 1e-9, bracing)
    assert report.max_residual <= 1e-12 * max(abs(want), 1)


def test_naturality_needs_one_simple_type_per_image():
    # every word keeps its length, n -> n s and s -> 1, but no simple type
    # maps to one simple type, so there is no position map
    table = AtomTable({"n", "s"})
    spaces = SpaceAssignment.make({"n": 2, "s": 2})
    types = [parse_type(t, table) for t in ("n s", "s^r n^r")]
    tensors = [make_word_tensor(f"w{i}", t, np.ones(spaces.shape_of(t)), spaces)
               for i, t in enumerate(types)]
    functor = FunctorSpec("x", "y", "homomorphism",
                          {"n": parse_type("n s", table), "s": CompoundType()}, table)
    w = reduce(concat(types), CompoundType(), table)
    alpha = AlphaSpec.make({"n": np.eye(2), "s": np.eye(2)})
    with pytest.raises(SemanticsError, match="image is not one simple type: no position map"):
        check_naturality(alpha, w, tensors, functor, w, 1e-9)


def test_naturality_without_a_position_map_refuses_before_carrying(monkeypatch):
    # n -> n s s^l changes the word n's length, so apply_alpha would refuse
    # it too; the square names the cause first and carries no word
    table = AtomTable({"n", "s"})
    types = [parse_type(t, table) for t in ("n", "n^r s")]
    tensors = [semantics.WordTensor(f"w{i}", t, np.ones((2,) * len(t))) for i, t in enumerate(types)]
    functor = FunctorSpec("x", "y", "homomorphism",
                          {"n": parse_type("n s s^l", table), "s": parse_type("s", table)}, table)
    w = reduce(concat(types), parse_type("s", table), table)
    carried = []
    monkeypatch.setattr(semantics, "apply_alpha", lambda *args: carried.append(args))
    alpha = AlphaSpec.make({"n": np.eye(2), "s": np.eye(2)})
    with pytest.raises(SemanticsError,
                       match="^a simple type's image is not one simple type: no position map$"):
        check_naturality(alpha, w, tensors, functor, w, 1e-9)
    assert carried == []


@pytest.mark.parametrize("index", range(len(checks.SQUARES)))
def test_naturality_maps_and_carries_each_word_once_and_interprets_twice(index, monkeypatch):
    # the benchmark's per-layer call counters read these bindings
    name, fixture, mode, mask, bracing, goal, seeds = checks.SQUARES[index]
    spaces, tensors, src_w, functor, tgt_w = checks.square(fixture, mode, mask, bracing, goal)
    calls = []
    for attr in ("apply_homomorphism", "apply_antihomomorphism", "apply_alpha", "interpret"):
        def counted(*args, _attr=attr, _fn=getattr(semantics, attr)):
            calls.append(_attr)
            return _fn(*args)
        monkeypatch.setattr(semantics, attr, counted)
    report = check_naturality(checks.square_alpha(spaces, seeds), src_w, tensors, functor, tgt_w,
                              1e-9, bracing)
    assert report.ok, report.max_residual
    images = calls.count("apply_homomorphism") + calls.count("apply_antihomomorphism")
    assert images == calls.count("apply_alpha") == len(tensors)
    assert calls.count("interpret") == 2


def test_naturality_rejects_a_component_of_the_wrong_size():
    spaces, tensors = load_tensor_fixture(bundled.tensor_path("adj_noun"))
    table = AtomTable(dict(spaces.dims).keys())
    w = reduce(flat_type(tensors), parse_type("n", table), table)
    hom = FunctorSpec("ja", "en", "homomorphism", IDENTITY_MAP, EN)
    with pytest.raises(SemanticsError, match=r"component for 'n' is 2x2, but the axis it "
                                             r"carries has dimension 3"):
        check_naturality(AlphaSpec.make({"n": np.eye(2)}), w, tensors, hom, w, 1e-9)


def test_naturality_rejects_words_whose_axes_of_one_atom_differ_in_dimension():
    table = AtomTable({"n"})
    tensors = [semantics.WordTensor(f"w{d}", parse_type("n", table), np.ones(d)) for d in (2, 3)]
    w = ReductionWitness((), (0, 1))
    hom = FunctorSpec("x", "y", "homomorphism", {"n": parse_type("n", table)}, table)
    with pytest.raises(SemanticsError, match=r"component for 'n' is 2x2, but the axis it "
                                             r"carries has dimension 3"):
        check_naturality(AlphaSpec.make({"n": np.eye(2)}), w, tensors, hom, w, 1e-9)


@pytest.mark.parametrize("mode", ["homomorphism", "antihomomorphism"])
def test_naturality_carries_each_axis_by_its_source_simple_type(mode):
    # F(a) = b^l: a's axis is carried by alpha_a, not by the inverse
    # transpose its image's odd exponent would pick
    source, target = AtomTable({"a", "c"}), AtomTable({"b", "d"})
    functor = FunctorSpec("x", "y", mode, {"a": parse_type("b^l", target),
                                           "c": parse_type("d", target)}, target)
    spaces = SpaceAssignment.make({"a": 2, "c": 3})
    types = [parse_type(t, source) for t in ("a c^l", "c")]
    tensors = [make_word_tensor(f"w{i}", t, lcg_array(40 + i, spaces.shape_of(t)), spaces)
               for i, t in enumerate(types)]
    src_w = reduce(concat(types), parse_type("a", source), source)
    tgt_w = image_witness(functor_image(functor, types).where, src_w)
    alpha = AlphaSpec.make({a: np.eye(d) + 0.3 * lcg_array(50 + d, (d, d))
                            for a, d in spaces.dims.items()})
    report = check_naturality(alpha, src_w, tensors, functor, tgt_w, 1e-9)
    assert report.max_residual <= 1e-12, report.max_residual


def translated_square(name, sentence, goal, seed):
    """A bundled brace-wise functor's translation of ``sentence`` (``|``
    cuts segments) as a naturality square: random word tensors of the
    chosen source types, random dimensions and a random alpha."""
    reg = bundled.FUNCTOR_REGISTRY[name]
    src, tgt = (load_lexicon(bundled.lexicon_path(reg[role])) for role in ("src", "tgt"))
    functor = load_functor(bundled.functor_path(name), src.table, tgt.table)
    segments = [piece.split() for piece in sentence.split("|")]
    tokens = [tok for seg in segments for tok in seg]
    bracing = tuple(itertools.accumulate(len(seg) for seg in segments[:-1]))
    result = translate_sentence(src, tgt, functor, load_wordmap(bundled.wordmap_path(name)),
                                tokens, bracing, source_target=goal)
    assert result.target_witness is not None
    # the type chosen for each word: the one selection whose types concatenate to the source type
    chosen = next(types for types in itertools.product(*map(src.types_of, tokens))
                  if concat(types) == result.source_type.flatten())
    rng = np.random.default_rng(seed)
    spaces = SpaceAssignment.make({a: int(rng.integers(1, 5)) for a in sorted(src.table.atoms)})
    tensors = [make_word_tensor(tok, t, rng.normal(size=spaces.shape_of(t)), spaces)
               for tok, t in zip(tokens, chosen)]
    alpha = AlphaSpec.make({a: np.eye(d) + 0.3 * rng.uniform(-1, 1, (d, d))
                            for a, d in spaces.dims.items()})
    return alpha, result.source_witness, tensors, functor, result.target_witness, bracing


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name, sentence, goal", [
    ("psi3", "ie ni tuita | ga | tegami wo kaita", "s"),
    ("xi", "ketab ra | dar bazar | xarid", "sigma"),
])
def test_naturality_square_of_a_bracewise_translation(name, sentence, goal, seed):
    alpha, src_w, tensors, functor, tgt_w, bracing = translated_square(name, sentence, goal, seed)
    report = check_naturality(alpha, src_w, tensors, functor, tgt_w, 1e-9, bracing)
    assert report.ok, report.max_residual


def test_naturality_rejects_a_post_metarule():
    # psi's slot-flip rewrites a segment's type across word boundaries
    square = translated_square("psi", "issya ga | tegami wo kaku", "s", 0)
    with pytest.raises(SemanticsError, match="post metarule 'slot-flip' has no tensor map"):
        check_naturality(*square[:5], 1e-9, square[5])


# ---- tensor fixture files ------------------------------------------------------------

@pytest.mark.parametrize("text, message", [
    ('{"spaces": {"n": 2}, "words": [', "line 1"),
    (json.dumps({"spaces": {"n": 2}}), "missing field 'words'"),
    (json.dumps({"spaces": {"n": "2"}, "words": []}), "field 'spaces': expected"),
    (json.dumps({"spaces": {"n": 2}, "words": [{"word": "w", "type": "n", "data": [1, "x"]}]}),
     "words[0]: field 'data'"),
    (json.dumps({"spaces": {"n": 2}, "words": [{"word": "w", "type": "n", "data": {"seed": 1.5}}]}),
     "words[0]: field 'data': field 'seed'"),
    (json.dumps({"spaces": {"n": 2}, "words": [{"word": "w", "type": "< n >", "data": [1, 2]}]}),
     "words[0]: field 'type': brace segments are not allowed"),
    (json.dumps({"spaces": {"n": 2}, "words": [{"word": "w", "type": "q", "data": [1, 2]}]}),
     "words[0]: field 'type': unknown atom 'q'"),
    (json.dumps({"spaces": {"n": 2}, "words": [{"word": "w", "type": "n", "data": [1, 2, 3]}]}),
     "words[0]: field 'data': 'w': tensor shape"),
    (json.dumps({"spaces": {"n": 0}, "words": []}), "field 'spaces': atom 'n' has non-positive"),
    (json.dumps({"spaces": {"n": True}, "words": []}), "field 'spaces': expected"),
    (json.dumps({"spaces": {"n": 2}, "words": [{"word": "w", "type": "n", "data": {"seed": False}}]}),
     "words[0]: field 'data': field 'seed'"),
    (json.dumps({"spaces": {"n": 2}, "words": [{"word": "w", "type": "n", "data": [{"a": 1}]}]}),
     "words[0]: field 'data'"),
    (json.dumps({"spaces": {"n": 2}, "words": [{"word": "w", "type": "n", "data": ["1.5", 2]}]}),
     "words[0]: field 'data': '1.5' is not a number"),
    (json.dumps({"spaces": {"n": 2}, "words": [{"word": "w", "type": "n", "data": [1.5, True]}]}),
     "words[0]: field 'data': True is not a number"),
    (json.dumps({"spaces": {"n": 2**40}, "words": [{"word": "w", "type": "n", "data": {"seed": 1}}]}),
     "words[0]: field 'data': a seeded tensor"),
    (json.dumps({"spaces": {"n": 1}, "words": [{"word": "w", "type": "n", "data": [10**400]}]}),
     "words[0]: field 'data'"),
])
def test_bad_tensor_fixture_names_file_and_field(tmp_path, text, message):
    path = tmp_path / "fixture.json"
    path.write_text(text)
    with pytest.raises(SemanticsError) as info:
        load_tensor_fixture(path)
    assert str(path) in str(info.value) and message in str(info.value)
