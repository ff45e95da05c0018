"""Planar contraction search over a lattice of word type alternatives.

A witness is a non-crossing, well-nested tuple of contraction links in
order of left end plus the ordered residue of unlinked positions.  The
input is a lattice: tokens with one or more alternative types each, whose
simple types are the edges of a DAG whose paths spell the type selections;
a flat type has one alternative per token.  :class:`SpanSearch` decides
lazily, with memos, whether a path between two nodes reduces to the unit
(a span) or to the rest of the target (a goal state).  For N simple types
there are O(N^2) such states, each decided in O(N) steps in one Python
frame, so a sentence is decided in O(N^3) time and no state known to fail
is expanded twice.  The search recurses once per link and residue step:
under the default recursion limit, a chain of about 950 two-type words is
the longest it decides.  Witnesses come out depth first in a fixed search
order, entering only states that succeed, and a span's link sets are a
lazy stream shared by every context around it.  :func:`type_selections`
walks the tokens with more than one type left to right, building one
search per alternative it tries, and yields the selections in
``itertools.product`` order.  Induced order steps (s1 -> s, n -> pi) are
folded into the contraction and residue checks.  One linear bracket scan,
:meth:`ReductionWitness.partners`, checks a witness for
:func:`render_diagram` and for ``semantics.interpret``, which rejects a
witness that is not a planar reduction.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .core import (
    AtomTable,
    CompoundType,
    PregroupError,
    Type,
    flatten,
)

DEFAULT_LIMIT = 1024

Link = tuple[int, int]


class WitnessError(PregroupError):
    pass


class ReductionWitness(NamedTuple):
    """A planar reduction: links ``(i, j)``, ``i < j``, in order of left end,
    and residue positions in increasing order, so witnesses sort as tuples
    (a named tuple: enumeration builds thousands of them)."""

    links: tuple[Link, ...]
    residue: tuple[int, ...]

    def partners(self, n: int) -> list[int]:
        """Each of the ``n`` positions' partner (-1: residue), from one
        left-to-right bracket scan; :class:`WitnessError` unless each link
        ``(i, j)`` has ``0 <= i < j < n``, each position is touched once, no
        links cross and no residue lies under a link."""
        partner = [-2] * n  # -2: not touched
        for i, j in self.links:
            if not 0 <= i < j < n or partner[i] != -2 or partner[j] != -2:
                raise WitnessError(f"link ({i}, {j}) is not ordered, in range and unshared")
            partner[i], partner[j] = j, i
        for r in self.residue:
            if not 0 <= r < n or partner[r] != -2:
                raise WitnessError(f"residue position {r} is out of range or touched twice")
            partner[r] = -1
        opened = []  # left ends of the open links, innermost last
        for p, q in enumerate(partner):
            if q > p:
                opened.append(p)
            elif q >= 0:
                if (i := opened.pop()) != q:
                    raise WitnessError(f"links ({q}, {p}) and ({i}, {partner[i]}) cross")
            elif q == -2:
                raise WitnessError(f"position {p} is neither linked nor residue")
            elif opened:
                i = opened[-1]
                raise WitnessError(f"residue position {p} lies under link ({i}, {partner[i]})")
        return partner


_STOP = (-1, -1)  # memo move: take the empty path


class SpanSearch:
    """Memoised reduction search over a lattice of type alternatives.

    ``alternatives`` holds one sequence of types per token.  Position p is
    the simple type ``parts[p]`` on the edge ``src[p] -> dst[p]``; node 0
    is the start and ``end`` the end.  Nodes and positions are numbered in
    token order, so edges point forward, and with one alternative per token
    position p is the p-th simple type of the concatenation.  A state
    (u, t, v) asks whether a path from node u to node v reduces to
    ``goal[t:]``; with t = len(goal) that is the unit.  Its memo entry is
    False if it fails, else its first move in search order: ``(p, k)``
    links p to k, ``(p, -1)`` keeps p as residue and ``_STOP`` ends.
    """

    def __init__(self, alternatives, target: CompoundType, table: AtomTable):
        self.goal, self.table, self.m = target.parts, table, len(target)
        self.below = [table.below[g] for g in self.goal] + [()]
        self.eps: dict[int, frozenset[int]] = {}  # nodes reached over empty alternatives
        if all(len(a) == 1 for a in alternatives):
            self.parts = [x for a in alternatives for x in flatten(a[0]).parts]
            n = self.end = len(self.parts)
            self.src, self.dst, self.par = range(n), range(1, n + 1), None
            self.out = [(u,) for u in range(n)] + [()]
        else:
            self._layout([[flatten(a).parts for a in alts] for alts in alternatives])
        self.width, self.depth = self.end + 1, self.m + 1
        self.linked: list[list[int] | None] = [None] * len(self.parts)  # see linkable()
        self.memo: dict[int, object] = {}  # state -> False or its first move
        self.streams: dict[int, object] = {}  # span -> its link sets, see trees()

    def _layout(self, tokens):
        # node ids are position ids: a token starts at its first position,
        # and inside an alternative the node before position p is p
        parts, src, dst, skips = [], [], [], {}
        for strings in tokens:
            start = len(parts)
            end = start + sum(map(len, strings))
            for s in strings:
                for j, x in enumerate(s):
                    src.append(start if j == 0 else len(parts))
                    dst.append(end if j == len(s) - 1 else len(parts) + 1)
                    parts.append(x)
                if not s and end != start:  # an empty alternative skips the token
                    skips[start] = end
        out = [[] for _ in range(len(parts) + 1)]
        for p, u in enumerate(src):
            out[u].append(p)
        for u in sorted(skips, reverse=True):  # a skipped token's edges also leave u
            self.eps[u] = frozenset({skips[u]}) | self.eps.get(skips[u], frozenset())
            out[u] += out[skips[u]]
        par = [1] + [0] * len(parts)  # path lengths from the start: 1 even, 2 odd, 3 both
        for u, edges in enumerate(out):
            for p in edges:
                par[dst[p]] |= 3 if par[u] == 3 else 3 - par[u]
            for v in self.eps.get(u, ()):
                par[v] |= par[u]
        self.parts, self.src, self.dst, self.out, self.par = parts, src, dst, out, par
        self.end = len(parts)

    def linkable(self, p: int) -> list[int]:
        """The positions p may link to, nearest end node first, across a
        span that can have even length; found on first use."""
        found = self.linked[p]
        if found is None:
            parts, ys, dst = self.parts, self.table.partners[self.parts[p]], self.dst
            if self.par is None:  # flat: the later positions at odd distance
                found = [k for k in range(p + 1, len(parts), 2) if parts[k] in ys]
            else:
                d, src, par = dst[p], self.src, self.par
                found = [
                    k for k in range(p + 1, len(parts))
                    if parts[k] in ys and src[k] >= d and par[d] & par[src[k]]
                ]
                found.sort(key=dst.__getitem__)
            self.linked[p] = found
        return found

    def reach(self, u: int, t: int, v: int):
        """Whether some path from node u to node v reduces to ``goal[t:]``:
        the state's memo entry, found on first use."""
        m = self.m
        if u == v and t == m:
            return _STOP
        key = (u * self.depth + t) * self.width + v
        move = self.memo.get(key)
        if move is not None:
            return move
        if t == m and v in self.eps.get(u, ()):
            return _STOP
        memo, src, dst, reach = self.memo, self.src, self.dst, self.reach
        for p in self.out[u]:
            if self.parts[p] in self.below[t] and reach(dst[p], t + 1, v):
                memo[key] = move = (p, -1)
                return move
            for k in self.linkable(p):
                if dst[k] > v:
                    break
                if reach(dst[p], m, src[k]) and reach(dst[k], t, v):
                    memo[key] = move = (p, k)
                    return move
        memo[key] = False
        return False

    def reduces(self) -> bool:
        return bool(self.reach(0, 0, self.end))

    def trees(self, u: int, t: int, v: int):
        """The ways state (u, t, v) succeeds, in search order, each a tree
        ``((p, k), inner, rest)`` ending in None.  A span's trees (t =
        len(goal)) are a lazy stream shared by every context around it."""
        if t < self.m:
            return self._trees(u, t, v)
        if u == v:
            return (None,)
        key = u * self.width + v
        if key not in self.streams:  # a tee that never advances keeps every item
            self.streams[key] = itertools.tee(self._trees(u, t, v), 1)[0]
        return self.streams[key].__copy__()

    def _trees(self, u, t, v):
        m, src, dst, reach = self.m, self.src, self.dst, self.reach
        if t == m and (u == v or v in self.eps.get(u, ())):
            yield None
        for p in self.out[u]:
            if self.parts[p] in self.below[t] and reach(dst[p], t + 1, v):
                for rest in self.trees(dst[p], t + 1, v):
                    yield ((p, -1), None, rest)
            for k in self.linkable(p):
                if dst[k] > v:
                    break
                if reach(dst[p], m, src[k]) and reach(dst[k], t, v):
                    for inner in self.trees(dst[p], m, src[k]):
                        for rest in self.trees(dst[k], t, v):
                            yield ((p, k), inner, rest)

    def _first(self, u, t, v, links, residue):
        # the first tree of a state that succeeds, read off the memo
        while (move := self.reach(u, t, v)) is not _STOP:
            p, k = move
            if k < 0:
                residue.append(p)
                u, t = self.dst[p], t + 1
            else:
                links.append(move)
                self._first(self.dst[p], self.m, self.src[k], links, residue)
                u = self.dst[k]

    def witnesses(self, limit: int = DEFAULT_LIMIT) -> list[ReductionWitness]:
        """The first ``limit`` witnesses in search order, sorted.  The search
        reads positions left to right; at each it first keeps the simple type
        as the next residue element, then links it to its partners from the
        nearest on, taking inner link sets in the same order.  A tree is read
        inner span first, so links come out in order of left end."""
        if limit < 1:
            raise ValueError("limit must be >= 1")
        if not self.reduces():
            return []
        if limit == 1:
            links, residue = [], []
            self._first(0, 0, self.end, links, residue)
            return [ReductionWitness(tuple(links), tuple(residue))]
        found = []
        for tree in itertools.islice(self.trees(0, 0, self.end), limit):
            links, residue, todo = [], [], [tree]
            while todo:
                tree = todo.pop()
                if tree is not None:  # links share the search's (p, k) tuples
                    move, inner, rest = tree
                    if move[1] < 0:
                        residue.append(move[0])
                    else:
                        links.append(move)
                    todo += (rest, inner)
            found.append(ReductionWitness(tuple(links), tuple(residue)))
        self.streams.clear()  # its generators refer back to this search
        return sorted(found)


def type_selections(alternatives, target: CompoundType, table: AtomTable):
    """Yield ``(selection, search)`` for every choice of one type per token
    that reduces to ``target``, in ``itertools.product`` order; ``search``
    is the selection's flat :class:`SpanSearch`.  One walk fixes the tokens
    with more than one type left to right.  It keeps an alternative when one
    search, over the types fixed so far and the later tokens' alternatives,
    reduces; after the last such token that search is flat, and is the one
    yielded.  Where a selection is known to exist and no earlier alternative
    was kept, the last alternative is kept unchecked."""
    if not all(alternatives):  # a token with no type: no selection
        return
    chosen = [alts[0] for alts in alternatives]
    ambiguous = [t for t, alts in enumerate(alternatives) if len(alts) > 1]

    def search(t):  # chosen fixed up to token t, the later tokens left open
        fixed = [(x,) for x in chosen[:t + 1]] + list(alternatives[t + 1:])
        return SpanSearch(fixed, target, table)

    def walk(d, found):
        # the selections that extend chosen up to token ambiguous[d - 1];
        # found: the search that showed there is one, if any
        if d == len(ambiguous):
            found = found or search(len(chosen) - 1)
            if found.reduces():
                yield tuple(chosen), found
            return
        t = ambiguous[d]
        known = d > 0  # a selection extends chosen, and no alternative is kept yet
        for a, x in enumerate(alternatives[t]):
            chosen[t] = x
            found = None if known and a == len(alternatives[t]) - 1 else search(t)
            if found is None or found.reduces():
                yield from walk(d + 1, found)
                known = False

    yield from walk(0, None)


def enumerate_reductions(
    input: Type, target: CompoundType, table: AtomTable, limit: int = DEFAULT_LIMIT
) -> list[ReductionWitness]:
    """Witnesses reducing ``input`` to ``target``: the first ``limit`` in
    search order (see :meth:`SpanSearch.witnesses`), sorted as tuples.
    Below the limit this is every distinct witness."""
    return SpanSearch([(input,)], target, table).witnesses(limit)


def reduce(input: Type, target: CompoundType, table: AtomTable) -> ReductionWitness | None:
    """First witness in search order reducing ``input`` to ``target``, or None."""
    found = SpanSearch([(input,)], target, table).witnesses(1)
    return found[0] if found else None


def render_diagram(input: Type, w: ReductionWitness, format: str = "text") -> str:
    """Render a reduction witness; ``text`` draws ASCII under-brackets,
    ``dot`` emits a deterministic graph description."""
    parts = flatten(input).parts
    partner = w.partners(len(parts))
    if format == "dot":
        return _render_dot(parts, w)
    if format != "text":
        raise ValueError(f"unknown format {format!r}")
    return _render_text(parts, w, partner)


def _render_text(parts, w: ReductionWitness, partner: list[int]) -> str:
    if not parts:
        return ""
    tokens = [p.render() for p in parts]
    cols = []
    offset = 0
    for tok in tokens:
        cols.append(offset + (len(tok) - 1) // 2)
        offset += len(tok) + 1
    width = offset - 1

    # a link's row is 1 + the highest row nested directly inside it, 0 if
    # none; the scan closes links innermost first
    rows: dict[int, list[Link]] = {}
    inner = [-1]  # per open link, outermost first: the highest row closed inside it
    for p, q in enumerate(partner):
        if q > p:
            inner.append(-1)
        elif q >= 0:
            r = inner.pop() + 1
            inner[-1] = max(inner[-1], r)
            rows.setdefault(r, []).append((q, p))
    if w.residue:
        rows[len(rows)] = []  # a last row of residue strands only
    lines = [" ".join(tokens)]
    for r in range(len(rows)):
        line = [" "] * width
        for i, j in rows[r]:
            line[cols[i]] = "|"
            line[cols[j]] = "|"
            for c in range(cols[i] + 1, cols[j]):
                line[c] = "_"
        for i in w.residue:
            line[cols[i]] = "|"
        lines.append("".join(line).rstrip())
    return "\n".join(lines)


def _render_dot(parts, w: ReductionWitness) -> str:
    lines = ["graph reduction {"]
    for i, p in enumerate(parts):
        lines.append(f'  t{i} [label="{p.render()}"];')
    for i, j in w.links:
        lines.append(f"  t{i} -- t{j};")
    for i in w.residue:
        lines.append(f'  t{i} -- out [style=dashed];')
    lines.append("}")
    return "\n".join(lines)
