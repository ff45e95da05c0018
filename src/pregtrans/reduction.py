"""Planar contraction search over a lattice of word type alternatives.

A witness is a non-crossing, well-nested tuple of contraction links in
order of left end plus the ordered residue of unlinked positions.  The
input is a lattice: tokens with one or more alternative types each, whose
simple types are the edges of a DAG whose paths spell the type selections;
a flat type has one alternative per token.  A type reduces to a target
exactly when it, followed by the target's right adjoint (the goal tail),
reduces to the unit, so :class:`SpanSearch` appends the goal tail and
fills one bit set per node in one pass from the end back to the start: the
nodes it reaches over a path that reduces to the unit.  For N simple types
that is O(N^2) Python steps over N-bit sets, with no recursion.  A token
with one type is laid out in one step (its positions' edges each lead to
the next node), the fill takes each partner bit with one ``ends & -ends``
step, and empty edges are looked up only in a search that has them.  A
lattice search only decides; witnesses are read off a flat search with
explicit stacks.  :func:`type_selections` decides which selections reduce, after a
count check that refuses the alternatives whose count code
(``AtomTable.counts``) cannot balance against the target's, and
:func:`parse_sentence`, the one walk behind CLI ``parse`` and
translation, looks each token's types up with ``Lexicon.types_of`` and
reads witnesses off the selections up to a limit.  Induced order
steps (s1 -> s, n -> pi) are folded into the contraction partners.  One
linear bracket scan, :meth:`ReductionWitness.partners`, checks a witness
for :func:`render_diagram` and for ``semantics.interpret``, and
:meth:`ReductionWitness.proves` adds the contraction and residue checks, so
a translation can take the image of a source witness without a search.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import (
    AtomTable,
    CompoundType,
    PregroupError,
    Type,
    flatten,
    right_adjoint,
    simple_texts,
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

    def proves(self, input: Type, target: CompoundType, table: AtomTable) -> bool:
        """Whether this witnesses ``input`` reducing to ``target``: its links
        pass the :meth:`partners` scan and each contracts, and the k-th
        residue simple type is at most the target's k-th.  Linear time."""
        parts = flatten(input).parts
        try:
            self.partners(len(parts))
        except WitnessError:
            return False
        partners = table.partners  # contracts and simple_leq, inline
        return (len(self.residue) == len(target)
                and all(parts[j] in partners[parts[i]] for i, j in self.links)
                and all(g.right in partners[parts[r]] for r, g in zip(self.residue, target.parts)))


class SpanSearch:
    """Reduction search over a lattice of type alternatives, decided in one
    backward pass over one bit set per node; witnesses are read only off a
    flat search, one with one alternative per token, so no empty edges.

    ``alternatives`` holds one sequence of types per token, and the goal
    tail, the target's right adjoint, follows as one more token.  Position p
    is the simple type ``parts[p]`` on the edge from node p to node
    ``dst[p]``; node 0 is the start, ``tail`` the goal tail's first position
    and ``end`` the end.  A token starts at the node of its first
    alternative's first position, and empty edges (``eps``) lead from there
    to its other alternatives and, if one is empty, to its end.  A state
    (u, v) asks whether a path from node u to node v reduces to the unit;
    goal tail positions start no link, so the input reduces to the target
    when (0, end) does, and an input position linked into the goal tail is
    residue.  From ``end`` back to node 0 the pass fills ``spans[u]``, whose
    bit v is set when state (u, v) succeeds, so the right ends a link from
    position p can take are the set bits of ``spans[dst[p]]`` that hold a
    partner of ``parts[p]``.
    """

    def __init__(self, alternatives, target: CompoundType, table: AtomTable):
        self.table = table
        tokens = [[flatten(a).parts for a in alts] for alts in alternatives]
        self._layout(tokens + [[right_adjoint(target).parts]])
        self.tail = self.end - len(target)
        self._fill()
        if not all(alternatives):  # a token without a type: no path crosses it
            self.spans[0] = 0

    def _layout(self, tokens):
        parts, dst, eps = [], [], {}  # eps: node -> the nodes one empty edge leads to
        for strings in tokens:
            start = len(parts)
            if len(strings) == 1:  # one alternative: edges p -> p + 1, in one step
                parts += strings[0]
                dst += range(start + 1, len(parts) + 1)
                continue
            end = start + sum(map(len, strings))
            for s in strings:
                w = len(parts) if s else end  # where the alternative starts
                if w != start:
                    eps.setdefault(start, {})[w] = None
                for j, x in enumerate(s):
                    parts.append(x)
                    dst.append(end if j == len(s) - 1 else len(parts))
        self.parts, self.dst, self.eps, self.end = parts, dst, eps, len(parts)

    def _fill(self):
        n, tail, parts, dst = self.end, self.tail, self.parts, self.dst
        eps, partners = self.eps, self.table.partners
        where = {}
        spans = self.spans = [0] * n + [1 << n]
        for u in range(n - 1, -1, -1):
            x = parts[u]
            span = 1 << u
            if u < tail:  # a goal tail position starts no link
                ends = 0  # u links to a partner k across a span dst[u] -> k
                for y in partners[x]:
                    ends |= where.get(y, 0)
                ends &= spans[dst[u]]
                while ends:
                    k = ends & -ends  # the lowest partner bit
                    ends ^= k
                    span |= spans[dst[k.bit_length() - 1]]
                if eps:
                    for w in eps.get(u, ()):
                        span |= spans[w]
            spans[u] = span
            where[x] = where.get(x, 0) | 1 << u  # the positions from u on, by type

    def reduces(self) -> bool:
        return bool(self.spans[0] >> self.end & 1)

    def _ways(self, u: int, v: int, limit: int) -> list:
        # the first limit ways state (u, v) of a flat search succeeds, in
        # search order, each a move and the non-empty states it leaves, in
        # push order (inner span last, so it is read first): (u, -1) keeps u
        # as residue, linked to the goal tail's v - 1, and (u, k) links u to
        # the input position k
        parts, dst, spans, tail = self.parts, self.dst, self.spans, self.tail
        x, d = parts[u], dst[u]
        ys = self.table.partners[x]
        ways = []
        if v > tail and parts[v - 1] in ys and spans[d] >> v - 1 & 1:
            ways.append(((u, -1), ((d, v - 1),) if d != v - 1 else ()))
        ends = spans[d] & (1 << tail) - 1
        while ends and len(ways) < limit:
            k = (ends & -ends).bit_length() - 1
            ends &= ends - 1
            if parts[k] in ys and spans[dst[k]] >> v & 1:
                e = dst[k]
                states = ((e, v),) if e != v else ()
                if d != k:
                    states += ((d, k),)
                ways.append(((u, k), states))
        return ways

    def _first(self) -> ReductionWitness:
        # each state's first way in search order, off a stack of states: the
        # witness for limit 1, as reduce and translation take it once per
        # sentence; listing each state's ways and keeping branch records,
        # as the general walk does, costs about twice as much there
        tail, parts, dst, spans = self.tail, self.parts, self.dst, self.spans
        partners, inputs = self.table.partners, (1 << tail) - 1
        links, residue, todo = [], [], [(0, self.end)]
        while todo:
            u, v = todo.pop()
            while u != v:
                x, d = parts[u], dst[u]
                ys = partners[x]
                if v > tail and parts[v - 1] in ys and spans[d] >> v - 1 & 1:
                    residue.append(u)
                    u, v = d, v - 1
                    continue
                ends = spans[d] & inputs
                while ends:
                    k = (ends & -ends).bit_length() - 1
                    ends &= ends - 1
                    if parts[k] in ys and spans[dst[k]] >> v & 1:
                        links.append((u, k))
                        todo.append((dst[k], v))
                        u, v = d, k
                        break
                else:  # a state of a flat search that succeeds has a way
                    raise AssertionError(f"state {(u, v)} succeeds by no way")
        return ReductionWitness(tuple(links), tuple(residue))

    def witnesses(self, limit: int = DEFAULT_LIMIT) -> list[ReductionWitness]:
        """The first ``limit`` witnesses in search order, sorted.  The search
        reads positions left to right; at each it first keeps the simple type
        as the next residue element, then links it to its partners from the
        nearest on, taking inner link sets in the same order.  A witness is
        read inner span first, so links come out in order of left end.

        The walk is depth first over the packed forest of states: it follows
        each state's first way straight down and keeps a branch record only
        at a state with another way left, holding the links and residue
        kept, the state's ways, the next way's index and the states pending
        as nested pairs.  A witness is done when no state is pending, and
        the walk resumes from the latest record, so it pays about one step
        per move that differs between consecutive witnesses.  A state's ways
        are listed once, at most ``limit`` of them, as each way leads to a
        witness.  Limit 1 takes :meth:`_first`, a plain descent that lists
        no ways."""
        if limit < 1:
            raise ValueError("limit must be >= 1")
        if self.eps:
            raise ValueError("witnesses are read only off a flat search, one type per token")
        if not self.reduces():
            return []
        if limit == 1:
            return [self._first()]
        found, listed = [], {}
        links, residue = [], []
        branches = []  # [links kept, residue kept, ways, next way's index, states pending]
        pending = ((0, self.end), None) if self.end else None
        while True:
            if pending is None:
                found.append(ReductionWitness(tuple(links), tuple(residue)))
                if len(found) == limit or not branches:
                    break
                branch = branches[-1]
                kept, held, ways, i, pending = branch
                del links[kept:], residue[held:]
                if i + 1 < len(ways):
                    branch[3] = i + 1
                else:
                    branches.pop()
                move, states = ways[i]
            else:
                state, pending = pending
                ways = listed.get(state)
                if ways is None:
                    ways = listed[state] = self._ways(*state, limit)
                if len(ways) > 1:
                    branches.append([len(links), len(residue), ways, 1, pending])
                move, states = ways[0]
            if move[1] < 0:
                residue.append(move[0])
            else:
                links.append(move)
            for s in states:
                pending = (s, pending)
        return sorted(found)


def type_selections(alternatives, target: CompoundType, table: AtomTable):
    """Yield ``(selection, search)`` for every choice of one type per token
    that reduces to ``target``, in ``itertools.product`` order; ``search``
    is the selection's flat :class:`SpanSearch`.

    First the count check: a selection reduces only if its count code
    (``AtomTable.counts``) equals the target's.  Each alternative's code is
    looked up once, and for each token with more than one type after the
    first such token, the set of codes it and the later such tokens can add;
    a set never holds more entries than the lattice has simple types, and
    the tokens before the first set past that bound are not pruned, so this
    costs O(A N) for A alternatives and N simple types.  Then one walk fixes
    the tokens with more than one type left to right, trying only the
    alternatives whose code leaves a code the later tokens can add: a
    sentence whose code cannot balance builds no search.  The walk keeps an
    alternative when one search, over the types fixed so far and the later
    tokens' alternatives, reduces; that lattice search only decides, and
    after the last such token it is flat, and is the one yielded.  An
    alternative is kept unchecked when the count allows no other at its
    token."""
    if not all(alternatives):  # a token with no type: no selection
        return
    counts = table.counts
    chosen = [alts[0] for alts in alternatives]
    ambiguous, codes = [], []  # codes[d]: the codes of token ambiguous[d]'s alternatives
    need = counts[target.parts]  # less the unambiguous tokens': the code the others must add
    for t, alts in enumerate(alternatives):
        if len(alts) == 1:
            need -= counts[alts[0].parts]
        else:
            ambiguous.append(t)
            codes.append([counts[x.parts] for x in alts])
    # reach[d]: the codes tokens ambiguous[d:] can add, or None: not pruned
    reach = [None] * len(ambiguous) + [{0}]
    size = 0  # the lattice's simple types, counted when first needed
    for d in range(len(ambiguous) - 1, 0, -1):
        sums = {c + r for c in codes[d] for r in reach[d + 1]}
        size = size or sum(len(flatten(x).parts) for alts in alternatives for x in alts)
        if len(sums) > size:
            break
        reach[d] = sums

    def search(t):  # chosen fixed up to token t, the later tokens left open
        fixed = [(x,) for x in chosen[:t + 1]] + list(alternatives[t + 1:])
        return SpanSearch(fixed, target, table)

    # a stack of steps (d, i, found, rest): try the i-th alternative the
    # count allows at token ambiguous[d], where the tokens ambiguous[d:] must
    # add the code rest, or, past the last such token, yield chosen if found
    # (else its flat search) reduces
    todo = [(0, 0, None, need)]
    while todo:
        d, i, found, rest = todo.pop()
        if d == len(ambiguous):
            if not rest:  # else no token has more than one type, and the code is off
                found = found or search(len(chosen) - 1)
                if found.reduces():
                    yield tuple(chosen), found
            continue
        later = reach[d + 1]
        options = [a for a, c in enumerate(codes[d]) if later is None or rest - c in later]
        if not options:
            continue
        t, a = ambiguous[d], options[i]
        chosen[t] = alternatives[t][a]
        found = None if len(options) == 1 else search(t)
        if i + 1 < len(options):
            todo.append((d, i + 1, None, rest))
        if found is None or found.reduces():
            todo.append((d + 1, 0, found, rest - codes[d][a]))


def parse_sentence(lexicon, tokens, goal: CompoundType, limit: int = 1) -> list:
    """One ``(selection, witnesses)`` record per type selection of
    ``tokens`` that reduces to ``goal``, in :func:`type_selections` order,
    each with its first witnesses in search order (see
    :meth:`SpanSearch.witnesses`), until ``limit`` witnesses are taken over
    all selections.  ``lexicon`` gives each token's types as
    ``types_of(token)``, so an unknown word raises before any search,
    and the atom table as ``table``.  A ``limit`` below 1 raises
    ValueError before any token is looked up."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    alternatives = [lexicon.types_of(tok) for tok in tokens]
    found = []
    for selection, search in type_selections(alternatives, goal, lexicon.table):
        witnesses = search.witnesses(limit)
        found.append((selection, witnesses))
        limit -= len(witnesses)
        if not limit:
            break
    return found


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
    return diagram_renderer(input, format)(w)


def diagram_renderer(input: Type, format: str = "text"):
    """The function ``w -> render_diagram(input, w, format)``, with what
    depends on ``input`` alone, its row of simple types or its dot node
    lines, made once for every witness it renders."""
    tokens = list(map(simple_texts.__getitem__, flatten(input).parts))
    if format == "dot":
        nodes = ["graph reduction {", *(f'  t{i} [label="{tok}"];' for i, tok in enumerate(tokens))]
        return lambda w: _render_dot(nodes, w)
    if format != "text":
        raise ValueError(f"unknown format {format!r}")
    cols = []
    offset = 0
    for tok in tokens:
        cols.append(offset + (len(tok) - 1) // 2)
        offset += len(tok) + 1
    row = " ".join(tokens)
    return lambda w: _render_text(row, cols, w)


def _render_text(row: str, cols: list[int], w: ReductionWitness) -> str:
    w.partners(len(cols))  # a witness that is not a planar reduction fails here
    # a link's row is 1 + the highest row nested directly inside it, 0 if
    # none; links are taken right to left, so those nested directly inside
    # a link are the ones no link taken before it encloses
    rows: dict[int, list[tuple[int, str]]] = {}
    outer: list[tuple[int, int]] = []  # (left end, row), leftmost last
    for i, j in sorted(w.links, reverse=True):
        r = 0
        while outer and outer[-1][0] < j:
            r = max(r, outer.pop()[1] + 1)
        outer.append((i, r))
        rows.setdefault(r, []).append((cols[i], "|" + "_" * (cols[j] - cols[i] - 1) + "|"))
    if w.residue:
        rows[len(rows)] = []  # a last row of residue strands only
    # a row's links are disjoint and no residue strand lies under a link, so
    # a row is its pieces, in column order, with the gaps between them
    strands = [(cols[i], "|") for i in w.residue]
    lines = [row]
    for r in range(len(rows)):
        line, end = [], 0
        for c, piece in sorted(rows[r] + strands):
            line += (" " * (c - end), piece)
            end = c + len(piece)
        lines.append("".join(line))
    return "\n".join(lines)


def _render_dot(nodes: list[str], w: ReductionWitness) -> str:
    w.partners(len(nodes) - 1)  # a witness that is not a planar reduction fails here
    lines = list(nodes)
    for i, j in w.links:
        lines.append(f"  t{i} -- t{j};")
    for i in w.residue:
        lines.append(f'  t{i} -- out [style=dashed];')
    lines.append("}")
    return "\n".join(lines)
