"""Seeded inputs and independent references for the four workloads.

Nothing here asks pregtrans for an expected answer.  Golden verdicts, link
sets and type strings are written by hand (NOTES.md gives the reasoning),
translations are composed from hand-written glosses, enumeration counts are
Catalan numbers, and witnesses are checked by the small contraction checker
at the bottom of this file.

Every workload is a list of *passes*.  A pass holds a fixed mix of inputs
(every template group, every size of a stress family), so the mix measured
in a run does not depend on the seed; the seed picks the words, the order
of corpus batches and naturality squares, which sentences are broken, the
tensor dimensions and the fixture data.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

# ---------------------------------------------------------------------------
# word pools (single-typed words only, so swapping them never changes a type)
# ---------------------------------------------------------------------------

EN_NOUNS = ("pigeons", "bread", "teachers", "students", "cat")  # n
EN_ADJECTIVES = ("old", "red")  # n n^l
JA_NOUNS = (  # n in the ja lexicon
    "neko", "sakana", "kuruma", "hasi", "ie", "eki", "sensei", "hon",
    "toukyou", "onna", "tegami", "seihuku", "gakusei", "tukue", "mori",
)

# ---------------------------------------------------------------------------
# corpus templates
#
# Slots are written N0, N1, ... (a noun) and A0, A1, ... (an adjective).  A
# break is ("drop", i) or ("swap", i, j) on the template's token list, with
# "|" counted as a token.  Every break yields a sentence that reduces under
# no type selection; NOTES.md gives the argument for each.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParseTemplate:
    text: str
    nouns: tuple[str, ...]
    type: str
    links: tuple[tuple[int, int], ...]
    residue: tuple[int, ...]
    breaks: tuple[tuple, ...]


@dataclass(frozen=True)
class TranslateTemplate:
    text: str
    nouns: tuple[str, ...]
    glosses: dict
    translation: str  # {0}, {1}: glosses of N0, N1
    source_type: str
    translated_type: str
    breaks: tuple[tuple, ...]


JA_PARSE = (
    ParseTemplate(
        "N0 ga N1 wo taberu", JA_NOUNS,
        "n pi^r o1 n n^r o2 o2^r o1^r s1",
        ((0, 1), (2, 7), (3, 4), (5, 6)), (8,),
        (("drop", 3), ("swap", 0, 1)),
    ),
    ParseTemplate(
        "watasi no N0 ha N1 wo watarenai", JA_NOUNS,
        "pi pi^r n n^l n pi^r sbar s^l n n^r o2 o2^r s1",
        ((0, 1), (2, 5), (3, 4), (7, 12), (8, 9), (10, 11)), (6,),
        (("drop", 3),),
    ),
    ParseTemplate(
        "N0 ni tuita ga N1 wo kaita", JA_NOUNS,
        "n n^r o5 o5^r s s^r s s^l n n^r o2 o2^r s",
        ((0, 1), (2, 3), (4, 5), (7, 12), (8, 9), (10, 11)), (6,),
        (("drop", 5), ("swap", 0, 1)),
    ),
    ParseTemplate(
        "N0 wo kita @0 N1 ga N2 ni atta @0 N3 wo nusunda", JA_NOUNS,
        "n n^r o2 o2^r s o1^l o1 s^r n n^l n pi^r o1 n n^r o5 o5^r s o1^l o1 s^r "
        "n n^l n n^r o2 o2^r o1^r s",
        ((0, 1), (2, 3), (4, 7), (5, 6), (8, 11), (9, 10), (12, 27), (13, 14),
         (15, 16), (17, 20), (18, 19), (21, 24), (22, 23), (25, 26)), (28,),
        (("drop", 12),),
    ),
)

EN_PARSE = (
    ParseTemplate(
        "A0 N0 eat A1 N1", EN_NOUNS,
        "n n^l n n^r s n^l n n^l n",
        ((0, 3), (1, 2), (5, 6), (7, 8)), (4,),
        (("drop", 2), ("swap", 0, 2)),
    ),
    ParseTemplate(
        "N0 and N1 eat A0 N2", EN_NOUNS,
        "n n^r n n^l n n^r s n^l n n^l n",
        ((0, 1), (2, 5), (3, 4), (7, 8), (9, 10)), (6,),
        (("drop", 5), ("swap", 0, 1)),
    ),
    # ambiguous object: the pinned witness is the first one the
    # left-to-right search finds, N1 and (N2 and N3)
    ParseTemplate(
        "N0 eat N1 and N2 and N3", EN_NOUNS,
        "n n^r s n^l n n^r n n^l n n^r n n^l n",
        ((0, 1), (3, 6), (4, 5), (7, 10), (8, 9), (11, 12)), (2,),
        (("drop", 6),),
    ),
)

TRANSLATE = {
    "jp-en-anti": TranslateTemplate(
        "N0 ni N1 ga iru", ("mori", "neko"), {"mori": "forest", "neko": "cat"},
        "there is a {1} in the {0}",
        "< n n^r o5 n n^r o1 o1^r o5^r s >",
        "< s o5^l o1^l o1 n^l n o5 n^l n >",
        (("drop", 3), ("swap", 0, 1)),
    ),
    "psi": TranslateTemplate(
        "N0 ga | N1 wo kaku", ("issya", "tegami"), {"issya": "doctor", "tegami": "letter"},
        "(A/The) {0} write(s) (a/the) {1}",
        "< n n^r o1 > < n n^r o2 o2^r o1^r s >",
        "< o1 n^l n > < o1^r s o2^l o2 n^l n >",
        (("drop", 4),),
    ),
    "psi3": TranslateTemplate(
        "N0 ni tuita | ga | N1 wo kaita", ("ie", "tegami"), {"ie": "home", "tegami": "letter"},
        "(I) arrived {0} and (I) wrote (a) {1}",
        "< n n^r o5 o5^r s > < s^r s s^l > < n n^r o2 o2^r s >",
        "< s o5^l o5 n^l n > < s^r s s^l > < s o2^l o2 n^l n >",
        (("drop", 7),),
    ),
    "xi": TranslateTemplate(
        "N0 ra | dar N1 | xarid", ("ketab", "bazar"), {"ketab": "hon", "bazar": "itiba"},
        "{0} wo {1} de kaimasita",
        "< nu nu^r o > < w nu^l nu > < w^r o^r sigma >",
        "< n n^r o2 > < n n^r o5 > < o5^r o2^r s >",
        (("drop", 1), ("swap", 0, 1)),
    ),
}

TRANSLATE_TARGETS = {"xi": "sigma"}

BROKEN_SHARE = 0.1


def _fill(text: str, nouns, rng: random.Random) -> tuple[list[str], list[str]]:
    """Tokens with every slot filled, and the nouns chosen for N0, N1, ..."""
    tokens, chosen = [], {}
    for tok in text.split():
        if tok[0] == "N" and tok[1:].isdigit():
            chosen[int(tok[1:])] = word = rng.choice(nouns)
            tokens.append(word)
        elif tok[0] == "A" and tok[1:].isdigit():
            tokens.append(rng.choice(EN_ADJECTIVES))
        else:
            tokens.append(tok)
    return tokens, [chosen[i] for i in sorted(chosen)]


def _break(tokens: list[str], rule: tuple) -> list[str]:
    tokens = list(tokens)
    if rule[0] == "drop":
        del tokens[rule[1]]
    else:
        i, j = rule[1], rule[2]
        tokens[i], tokens[j] = tokens[j], tokens[i]
    return tokens


@dataclass
class CliBatch:
    """One CLI call: its arguments, stdin lines and what each line must give.

    ``expect`` holds, per sentence, the parsed JSON object the output line
    must equal, or None where the line must say "not translatable".  Lines
    with the same ``keys`` entry do the same work (see ``Workload``).
    """

    args: list[str]
    lines: list[str]
    expect: list
    exit_code: int
    tokens: int
    keys: list[str]
    kind: str = "exact"  # "exact" or "enumerate"


def _parse_item(template: ParseTemplate, rng: random.Random, broken: bool):
    tokens, _ = _fill(template.text, template.nouns, rng)
    if broken:
        line = " ".join(_break(tokens, rng.choice(template.breaks)))
        return line, {"sentence": line, "reducible": False, "witnesses": []}
    line = " ".join(tokens)
    witness = {
        "type": template.type,
        "links": [list(link) for link in template.links],
        "residue": list(template.residue),
    }
    return line, {"sentence": line, "reducible": True, "witnesses": [witness]}


def _translate_item(template: TranslateTemplate, rng: random.Random, broken: bool):
    tokens, nouns = _fill(template.text, template.nouns, rng)
    if broken:
        line = " ".join(_break(tokens, rng.choice(template.breaks)))
        return line, None
    line = " ".join(tokens)
    return line, {
        "sentence": line,
        "source_type": template.source_type,
        "translated_type": template.translated_type,
        "translation": template.translation.format(*(template.glosses[n] for n in nouns)),
        "target_reducible": True,
        "diagnostic": None,
    }


def _batch(args, items, keys) -> CliBatch:
    lines = [line for line, _ in items]
    expect = [e for _, e in items]
    failing = any(e is None or e.get("reducible") is False for e in expect)
    tokens = sum(len([t for t in line.split() if t != "|"]) for line in lines)
    return CliBatch(args, lines, expect, 2 if failing else 0, tokens, keys)


class Workload:
    """A pool of passes and how to load what they use.

    Each item carries a key.  Items with the same key do the same work, and
    every key occurs equally often in the pool, so the run times each key
    by the fastest of its repetitions.  Corpus and naturality key an item
    by its place in the pool; reject and enumerate by family and size,
    since the words drawn do not change the work there.
    """

    name = ""
    tail_percentile = 99.0
    item_cap_s = 1.0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}:{seed}")
        self.pool = self.build()

    def build(self) -> list:
        raise NotImplementedError

    def describe(self) -> list:
        """A JSON-able view of the inputs, for the digest."""
        return [[vars(u) if isinstance(u, CliBatch) else u for u in p] for p in self.pool]

    def digest(self) -> str:
        blob = json.dumps(self.describe(), sort_keys=True, ensure_ascii=False)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def prepare(self):
        """Write input files the set-up loads (only naturality has any)."""

    def load(self, P):
        """Set-up: load every data file the workload uses, through the public loaders."""
        raise NotImplementedError


class CliWorkload(Workload):
    lexicons: tuple[str, ...] = ()
    functors: tuple[str, ...] = ()

    def load(self, P):
        data = P.data
        lexicons = {name: P.load_lexicon(data.lexicon_path(name)) for name in self.lexicons}
        for name in self.functors:
            reg = data.FUNCTOR_REGISTRY[name]
            src, tgt = lexicons[reg["src"]], lexicons[reg["tgt"]]
            P.load_functor(data.functor_path(name), src.table, tgt.table)
            P.load_wordmap(data.wordmap_path(name))
        return None


class Corpus(CliWorkload):
    """Everyday use: short template sentences through `parse` and `translate`."""

    name = "corpus"
    tail_percentile = 99.0
    item_cap_s = 1.0
    lexicons = ("ja", "en", "ja_mini", "fa")
    functors = ("jp-en-anti", "psi", "psi3", "xi")
    passes = 4  # few, so each sentence repeats often in a run
    batch_size = 25

    def _items(self, make, templates, broken):
        return [make(self.rng.choice(templates), self.rng, b) for b in broken]

    def build(self):
        pool = []
        for p in range(self.passes):
            groups = [(["parse", "--lex", "ja", "--format", "json"], _parse_item, JA_PARSE),
                      (["parse", "--lex", "en", "--format", "json"], _parse_item, EN_PARSE)]
            for functor, template in TRANSLATE.items():
                args = ["translate", "--functor", functor, "--format", "json"]
                if functor in TRANSLATE_TARGETS:
                    args += ["--target", TRANSLATE_TARGETS[functor]]
                groups.append((args, _translate_item, (template,)))
            # exactly a tenth of the pass is broken, spread over its batches
            size = len(groups) * self.batch_size
            broken = set(self.rng.sample(range(size), round(BROKEN_SHARE * size)))
            flags = [i in broken for i in range(size)]
            batches = []
            for b, (args, make, templates) in enumerate(groups):
                keys = [f"{p}.{b}.{i}" for i in range(self.batch_size)]
                items = self._items(make, templates, flags[b * self.batch_size:][:self.batch_size])
                batches.append(_batch(args, items, keys))
            self.rng.shuffle(batches)
            pool.append(batches)
        return pool


class Reject(CliWorkload):
    """Non-reducible stress, decision only: every size of both families once
    per pass, in ascending order, so that when the collector runs and what
    garbage it finds is the same for every seed."""

    name = "reject"
    tail_percentile = 75.0
    item_cap_s = 10.0
    lexicons = ("en", "ja")
    passes = 8
    en_conjuncts = range(6, 11)
    ja_repeats = range(1, 5)

    def _en(self, k):
        nouns = [self.rng.choice(EN_NOUNS) for _ in range(k + 1)]
        return f"{nouns[0]} eat " + " and ".join(nouns[1:]) + " eat"

    def _ja(self, k):
        n = lambda: self.rng.choice(JA_NOUNS)  # noqa: E731
        return "".join(f"{n()} ni tuita ga " for _ in range(k)) + f"{n()} wo kaita ga"

    def build(self):
        pool = []
        for _ in range(self.passes):
            batches = []
            for lex, make, sizes in (("en", self._en, self.en_conjuncts),
                                     ("ja", self._ja, self.ja_repeats)):
                items = []
                for k in sizes:
                    line = make(k)
                    items.append((line, {"sentence": line, "reducible": False, "witnesses": []}))
                batches.append(_batch(["parse", "--lex", lex, "--format", "json"], items,
                                      [f"{lex}-{k}" for k in sizes]))
            pool.append(batches)
        return pool


class Enumerate(CliWorkload):
    """`parse --all` on coordinations: Catalan(k) witnesses for k conjuncts."""

    name = "enumerate"
    tail_percentile = 75.0
    item_cap_s = 10.0
    lexicons = ("en",)
    passes = 4
    conjuncts = range(4, 10)
    limit = 20000  # above Catalan(9) = 4862, so no sentence is cut short

    def build(self):
        pool = []
        for _ in range(self.passes):
            # ascending, so each sentence's time includes releasing the
            # previous (smaller) result in the same way for every seed
            lines, expect = [], []
            for k in self.conjuncts:
                nouns = [self.rng.choice(EN_NOUNS) for _ in range(k)]
                lines.append(f"{self.rng.choice(EN_ADJECTIVES)} " + " and ".join(nouns))
                expect.append({"k": k, "type": "n n^l n" + " n^r n n^l n" * (k - 1),
                               "count": math.comb(2 * k, k) // (k + 1)})
            args = ["parse", "--lex", "en", "--target", "n", "--all",
                    "--limit", str(self.limit), "--format", "json"]
            tokens = sum(len(line.split()) for line in lines)
            keys = [f"k{k}" for k in self.conjuncts]
            pool.append([CliBatch(args, lines, expect, 0, tokens, keys, kind="enumerate")])
        return pool


@dataclass
class Square:
    """One naturality item: a fixture, a functor mode and a goal type."""

    fixture: str  # bundled name or file name in the work directory
    bundled: bool
    mode: str
    target: str
    tokens: int
    key: str = ""


class Naturality(Workload):
    """Translate-and-verify squares over bundled and generated tensor fixtures."""

    name = "naturality"
    tail_percentile = 99.0
    item_cap_s = 1.0
    passes = 7
    conjuncts = range(2, 9)
    dims = range(2, 9)  # as many dims as passes: see build
    bundled = (("adj_noun", "homomorphism", "n", 2),
               ("mori", "antihomomorphism", "s", 5),
               ("pigeons", "homomorphism", "s", 3))

    def build(self):
        # Latin squares over (pass, k): across the pool every k meets every
        # dimension of n and of s once per mode.  The squares are fixed, so
        # the fixture sizes, and with them set-up and item cost, do not
        # depend on the seed; the seed picks the words, data and order.
        offsets = range(4)
        self.fixtures = {}
        pool = []
        for p in range(self.passes):
            squares = [Square(name, True, mode, target, tokens)
                       for name, mode, target, tokens in self.bundled]
            for k in self.conjuncts:
                for m, mode in enumerate(("homomorphism", "antihomomorphism")):
                    dn = self.dims[(k + p + offsets[2 * m]) % len(self.dims)]
                    ds = self.dims[(k + 2 * p + offsets[2 * m + 1]) % len(self.dims)]
                    name = f"coord-{p}-{k}-{mode[:4]}.json"
                    self.fixtures[name] = self._coordination(k, dn, ds)
                    squares.append(Square(name, False, mode, "s", 2 * k + 1))
            self.rng.shuffle(squares)
            for i, sq in enumerate(squares):
                sq.key = f"{p}.{i}"
            pool.append(squares)
        return pool

    def _coordination(self, k: int, dn: int, ds: int) -> dict:
        """`N eat N and N ... and N` (k conjuncts) with seeded LCG tensors."""
        seed = lambda: {"seed": self.rng.getrandbits(63)}  # noqa: E731
        noun = lambda: {"word": self.rng.choice(EN_NOUNS), "type": "n", "data": seed()}  # noqa: E731
        words = [noun(), {"word": "eat", "type": "n^r s n^l", "data": seed()}, noun()]
        for _ in range(k - 1):
            words += [{"word": "and", "type": "n^r n n^l", "data": seed()}, noun()]
        return {"spaces": {"n": dn, "s": ds}, "words": words}

    def describe(self):
        return {"squares": [[vars(s) for s in p] for p in self.pool], "fixtures": self.fixtures}

    def prepare(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        for name, fixture in self.fixtures.items():
            (self.workdir / name).write_text(json.dumps(fixture), encoding="utf-8")

    def load(self, P):
        """Load every fixture; build each square's tables, functor and flat type."""
        loaded = {}
        for squares in self.pool:
            for sq in squares:
                key = (sq.fixture, sq.mode)
                if key in loaded:
                    continue
                path = (P.data.tensor_path(sq.fixture) if sq.bundled
                        else self.workdir / sq.fixture)
                spaces, tensors = P.load_tensor_fixture(path)
                dims = dict(spaces.dims)
                source = P.AtomTable(dims)
                target = P.AtomTable(dims)
                functor = P.FunctorSpec(
                    "src", "tgt", sq.mode, {a: P.parse_type(a, target) for a in dims}, target
                )
                flat = P.CompoundType(tuple(p for wt in tensors for p in wt.type.parts))
                loaded[key] = {
                    "tensors": tensors, "dims": dims, "source": source, "target": target,
                    "functor": functor, "flat": flat,
                    "goal": P.parse_type(sq.target, source),
                    "goal_image": P.parse_type(sq.target, target),
                }
        return loaded


WORKLOADS = {w.name: w for w in (Corpus, Reject, Enumerate, Naturality)}

# ---------------------------------------------------------------------------
# independent witness checker (atoms without an order, as in every lexicon
# and fixture these workloads check this way)
# ---------------------------------------------------------------------------


def simple_types(text: str) -> list[tuple[str, int, bool]]:
    """`n^r s b(n)^l` -> [(atom, exponent, beta), ...]; braces are dropped."""
    out = []
    for tok in text.split():
        if tok in "<>":
            continue
        beta = tok.startswith("b(")
        head, *adj = tok.split("^")
        atom = head[2:-1] if beta else head
        out.append((atom, adj.count("r") - adj.count("l"), beta))
    return out


def check_witness(parts, links, residue, goal) -> str | None:
    """Why (links, residue) is not a planar reduction of ``parts`` to ``goal``, or None."""
    n = len(parts)
    partner = [None] * n
    for i, j in links:
        if not 0 <= i < j < n or partner[i] is not None or partner[j] is not None:
            return f"link ({i}, {j}) is out of range or reuses a position"
        partner[i], partner[j] = j, i
        (a, z, b), (a2, z2, b2) = parts[i], parts[j]
        if a != a2 or b != b2 or z2 != z + 1:
            return f"link ({i}, {j}) joins {parts[i]} and {parts[j]}"
    unlinked = set(residue)
    opened = []
    for pos in range(n):
        other = partner[pos]
        if other is None:
            if pos not in unlinked:
                return f"position {pos} is neither linked nor in the residue"
            if opened:
                return f"residue position {pos} lies inside link ({opened[-1]}, ...)"
        elif pos in unlinked:
            return f"position {pos} is both linked and in the residue"
        elif other > pos:
            opened.append(pos)
        elif opened.pop() != other:
            return f"link ({other}, {pos}) crosses another link"
    if [parts[r] for r in residue] != goal:
        return "residue does not match the goal"
    return None
