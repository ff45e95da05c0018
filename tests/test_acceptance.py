"""Acceptance gate: every shipped guarantee, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import itertools
import random
import time

import numpy as np
import pytest

from pregtrans import data as bundled
from pregtrans.checks import (
    SQUARES,
    brute_force,
    law_failures,
    oracle_reduce,
    square,
    square_alpha,
)
from pregtrans.core import AtomTable, CompoundType, SimpleType, concat, parse_type, render_type
from pregtrans.functors import (
    apply_antihomomorphism,
    apply_bracewise,
    check_functor_laws,
    load_functor,
    load_wordmap,
    translate_sentence,
)
from pregtrans.lexicon import load_lexicon
from pregtrans.reduction import WitnessError, enumerate_reductions, reduce
from pregtrans.semantics import (
    check_naturality,
    epsilon,
    eta,
    interpret,
    lcg_array,
    load_tensor_fixture,
)


def report(name: str, ok: bool, detail: str = ""):
    line = f"{'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" — {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def ja():
    return load_lexicon(bundled.lexicon_path("ja"))


@pytest.fixture(scope="module")
def en():
    return load_lexicon(bundled.lexicon_path("en"))


@pytest.fixture(scope="module")
def fa():
    return load_lexicon(bundled.lexicon_path("fa"))


def sentence_witnesses(lex, tokens, target, limit=1024):
    goal = parse_type(target, lex.table)
    found = []
    for sel in itertools.product(
        *[sorted(lex.types_of(t), key=render_type) for t in tokens]
    ):
        flat = concat(sel)
        for w in enumerate_reductions(flat, goal, lex.table, limit=limit):
            found.append((flat, w))
    return found


def bundle(functor_name):
    reg = bundled.FUNCTOR_REGISTRY[functor_name]
    src = load_lexicon(bundled.lexicon_path(reg["src"]))
    tgt = load_lexicon(bundled.lexicon_path(reg["tgt"]))
    f = load_functor(bundled.functor_path(functor_name), src.table, tgt.table)
    wm = load_wordmap(bundled.wordmap_path(functor_name))
    return src, tgt, f, wm


# -----------------------------------------------------------------------------
# Criterion 1: golden reductions (exact link-set match, < 1 s each)
# -----------------------------------------------------------------------------

GOLDEN_SENTENCES = [
    # (lexicon, sentence, target, expected links, expected residue)
    ("en", "pigeons eat bread", "s", [(0, 1), (3, 4)], (2,)),
    ("ja", "neko ga sakana wo taberu", "s",
     [(0, 1), (2, 7), (3, 4), (5, 6)], (8,)),
    ("ja", "watasi no kuruma ha hasi wo watarenai", "s",
     [(0, 1), (2, 5), (3, 4), (7, 12), (8, 9), (10, 11)], (6,)),
    ("ja", "kyou toukyou kara untensita @0 onna", "n",
     [(0, 5), (1, 2), (3, 4), (6, 9), (7, 8), (11, 12)], (10,)),
    ("ja", "ie ni tuita ga tegami wo kaita", "s",
     [(0, 1), (2, 3), (4, 5), (7, 12), (8, 9), (10, 11)], (6,)),
    ("ja", "seihuku wo kita @0 gakusei ga tukue ni atta @0 hon wo nusunda", "s",
     [(0, 1), (2, 3), (4, 7), (5, 6), (8, 11), (9, 10), (12, 27), (13, 14),
      (15, 16), (17, 20), (18, 19), (21, 24), (22, 23), (25, 26)], (28,)),
    ("fa", "ketab ra dar bazar xarid", "sigma",
     [(0, 1), (2, 7), (3, 6), (4, 5)], (8,)),
]

COMPOSITE_BRACED = (
    "< n n^r o2 o2^r s o1^l o1 s^r n b(n)^l b(n) n^r o1 > "
    "< n n^r o5 o5^r s o1^l o1 s^r n b(n)^l b(n) n^r o2 o2^r o1^r s >"
)

FARSI_IMAGE_LINKS = [(0, 1), (2, 7), (3, 4), (5, 6)]  # of the translated Japanese type


def test_criterion_1_golden_reductions():
    lexes = {name: load_lexicon(bundled.lexicon_path(name)) for name in ("en", "ja", "fa")}
    for lexname, sentence, target, links, residue in GOLDEN_SENTENCES:
        lex = lexes[lexname]
        t0 = time.perf_counter()
        found = sentence_witnesses(lex, sentence.split(), target)
        elapsed = time.perf_counter() - t0
        hits = [(f, w) for f, w in found if sorted(w.links) == links and w.residue == residue]
        report(
            f"criterion 1: {sentence!r} -> {target}",
            bool(hits) and elapsed < 1.0,
            f"{len(found)} witness(es), {elapsed * 1000:.0f} ms",
        )
    # the beta-braced decorated typing of the composite sentence: one witness
    ja = lexes["ja"]
    braced = parse_type(COMPOSITE_BRACED, ja.table)
    ws = enumerate_reductions(braced.flatten(), parse_type("s", ja.table), ja.table)
    report(
        "criterion 1: composite beta-braced typing has exactly one witness",
        len(ws) == 1 and sorted(ws[0].links) == GOLDEN_SENTENCES[5][3],
        f"{len(ws)} witness(es)",
    )
    # the Farsi sentence's Japanese image reduces with the expected links
    src, tgt, f, wm = bundle("xi")
    res = translate_sentence(
        src, tgt, f, wm, "ketab ra dar bazar xarid".split(), bracing=(2, 4),
        source_target="sigma",
    )
    ok = (
        res.target_witness is not None
        and sorted(res.target_witness.links) == FARSI_IMAGE_LINKS
        and res.target_witness.residue == (8,)
    )
    report("criterion 1: Farsi translated-type reduction", ok)


# -----------------------------------------------------------------------------
# Criterion 2: ambiguity counts with beta decoration
# -----------------------------------------------------------------------------

def test_criterion_2_ambiguity_counts(en):
    goal = parse_type("n", en.table)
    plain = parse_type("n n^l n n^r n n^l n", en.table)
    ws = enumerate_reductions(plain, goal, en.table)
    parses = sorted(sorted(w.links) for w in ws)
    ok = parses == [[(0, 3), (1, 2), (5, 6)], [(1, 4), (2, 3), (5, 6)]]
    report("criterion 2: 'old teachers and students' has exactly 2 witnesses", ok,
           f"{len(ws)} witness(es)")

    var_a = parse_type("n b(n)^l b(n) n^r n n^l n", en.table)
    wsa = enumerate_reductions(var_a, goal, en.table)
    var_b = parse_type("n n^l b(n) b(n)^r n n^l n", en.table)
    wsb = enumerate_reductions(var_b, goal, en.table)
    ok = (
        len(wsa) == 1 and sorted(wsa[0].links) == [(0, 3), (1, 2), (5, 6)]
        and len(wsb) == 1 and sorted(wsb[0].links) == [(1, 4), (2, 3), (5, 6)]
    )
    report("criterion 2: each beta-decorated variant yields its single parse", ok)


# -----------------------------------------------------------------------------
# Criterion 3: functor outputs (exact type-string match) and the law obstruction
# -----------------------------------------------------------------------------

def test_criterion_3_functor_images():
    src, tgt, f, wm = bundle("jp-en-anti")
    flat = parse_type("n n^r o5 n n^r o1 o1^r o5^r s", src.table)
    img = apply_antihomomorphism(f, flat)
    report(
        "criterion 3: anti-homomorphism image of the five-word sentence",
        render_type(img) == "s o5^l o1^l o1 n^l n o5 n^l n",
        render_type(img),
    )
    w = reduce(img, parse_type("s", tgt.table), tgt.table)
    report(
        "criterion 3: image reduction chain",
        w is not None and sorted(w.links) == [(1, 6), (2, 3), (4, 5), (7, 8)]
        and w.residue == (0,),
    )

    src, tgt, f, wm = bundle("psi")
    braced = parse_type("< n n^r o1 > < n n^r o2 o2^r o1^r s >", src.table)
    img = apply_bracewise(f, braced)
    report(
        "criterion 3: two-brace reversal image (with slot flip)",
        render_type(img) == "< o1 n^l n > < o1^r s o2^l o2 n^l n >",
        render_type(img),
    )

    src, tgt, f, wm = bundle("psi3")
    braced = parse_type("< n n^r o5 o5^r s > < s^r s s^l > < n n^r o2 o2^r s >", src.table)
    img = apply_bracewise(f, braced)
    report(
        "criterion 3: three-brace extension image",
        render_type(img) == "< s o5^l o5 n^l n > < s^r s s^l > < s o2^l o2 n^l n >",
        render_type(img),
    )

    src, tgt, f, wm = bundle("xi")
    braced = parse_type("< nu nu^r o > < w nu^l nu > < w^r o^r sigma >", src.table)
    img = apply_bracewise(f, braced)
    report(
        "criterion 3: middle-segment reversal image (Farsi -> Japanese)",
        render_type(img) == "< n n^r o2 > < n n^r o5 > < o5^r o2^r s >",
        render_type(img),
    )

    reg = bundled.FUNCTOR_REGISTRY["jp-ro-hom"]
    src = load_lexicon(bundled.lexicon_path(reg["src"]))
    ro = load_lexicon(bundled.lexicon_path(reg["tgt"]))
    broken = load_functor(bundled.functor_path("jp-ro-hom"), src.table, ro.table)
    rep = check_functor_laws(
        broken, [parse_type("n^l", src.table), parse_type("n n^l", src.table)]
    )
    report(
        "criterion 3: post-posed-adjective homomorphism obstruction flagged",
        not rep.ok and any(v.law == "F(x^l) = F(x)^l" for v in rep.violations),
        f"{len(rep.violations)} violation(s)",
    )


# -----------------------------------------------------------------------------
# Criterion 4: end-to-end word sequences
# -----------------------------------------------------------------------------

def test_criterion_4_translations():
    cases = [
        ("jp-en-anti", "mori ni neko ga iru", None, "s",
         "there is a cat in the forest"),
        ("psi", "issya ga tegami wo kaku", (2,), "s",
         "(A/The) doctor write(s) (a/the) letter"),
        ("psi3", "ie ni tuita ga tegami wo kaita", (3, 4), "s",
         "(I) arrived home and (I) wrote (a) letter"),
    ]
    for name, sentence, bracing, target, expected in cases:
        src, tgt, f, wm = bundle(name)
        res = translate_sentence(
            src, tgt, f, wm, sentence.split(), bracing, source_target=target
        )
        report(
            f"criterion 4: {sentence!r}",
            res.text == expected and res.target_witness is not None,
            repr(res.text),
        )


# -----------------------------------------------------------------------------
# Criterion 5: property suites
# -----------------------------------------------------------------------------

def test_criterion_5_pregroup_identities():
    failures = law_failures(seed=2024)
    report("criterion 5: pregroup and functor laws on 1000 random type pairs",
           not failures, f"{len(failures)} failure(s)")


def test_criterion_5_dp_vs_oracle():
    table = AtomTable({"a", "b", "c", "d"}, [("a", "b")])
    goal = CompoundType((SimpleType("b"),))
    rng = random.Random(7)
    t0 = time.perf_counter()
    mismatches = 0
    non_planar = 0
    for _ in range(1000):
        parts = tuple(
            SimpleType(rng.choice("abcd"), rng.randint(-1, 1))
            for _ in range(rng.randint(0, 8))
        )
        t = CompoundType(parts)
        fast = set(enumerate_reductions(t, goal, table))
        slow = set(oracle_reduce(t, goal, table))
        if fast != slow:
            mismatches += 1
        for w in fast:
            try:
                w.partners(len(parts))
            except WitnessError:
                non_planar += 1
    elapsed = time.perf_counter() - t0
    report(
        "criterion 5: DP equals brute force on 1000 random strings (< 30 s)",
        mismatches == 0 and elapsed < 30.0,
        f"{mismatches} mismatch(es), {elapsed:.1f} s",
    )
    report("criterion 5: every emitted witness is planar and well-nested",
           non_planar == 0, f"{non_planar} violation(s)")


# -----------------------------------------------------------------------------
# Criterion 6: numeric suites
# -----------------------------------------------------------------------------

def test_criterion_6_snake_identities():
    worst = 0.0
    for dim in range(1, 6):
        u = lcg_array(dim * 13 + 5, (dim,))
        et = eta(dim)
        eps = epsilon(dim)
        left = np.array([eps(u, et[:, k]) for k in range(dim)])
        right = np.array([eps(et[k, :], u) for k in range(dim)])
        worst = max(worst, float(np.max(np.abs(left - u))), float(np.max(np.abs(right - u))))
    report("criterion 6: snake identities for dims 1-5 (tol 1e-12)",
           worst < 1e-12, f"max residual {worst:.2e}")


def test_criterion_6_interpret_vs_brute_force():
    worst = 0.0
    for name, target in [("pigeons", "s"), ("adj_noun", "n"), ("mori", "s")]:
        spaces, tensors = load_tensor_fixture(bundled.tensor_path(name))
        table = AtomTable(dict(spaces.dims).keys())
        w = reduce(concat(wt.type for wt in tensors), parse_type(target, table), table)
        fast, slow = interpret(w, tensors), brute_force(w, tensors, spaces)
        worst = max(worst, float(np.max(np.abs(fast - slow))))
    report("criterion 6: interpret equals full index summation (tol 1e-12)",
           worst < 1e-12, f"max residual {worst:.2e}")


def test_criterion_6_naturality_squares():
    for name, fixture, mode, mask, bracing, goal, seeds in SQUARES:
        spaces, tensors, src_w, functor, tgt_w = square(fixture, mode, mask, bracing, goal)
        worst = 0.0
        for s in range(100):  # alpha s: each atom's LCG seed k becomes 1000 k + s
            alpha = square_alpha(spaces, {atom: 1000 * k + s for atom, k in seeds.items()})
            rep = check_naturality(alpha, src_w, tensors, functor, tgt_w, 1e-9, bracing)
            worst = max(worst, rep.max_residual)
        report(f"criterion 6: {name} naturality, 100 random alpha (tol 1e-9)",
               worst < 1e-9, f"max residual {worst:.2e}")
