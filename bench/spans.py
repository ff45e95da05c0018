"""Span recorder for the traced run.

``install`` wraps pregtrans's public functions at every module binding the
CLI and the library call through, so a call from any of them opens a span.
Each span has an id, its parent's id, a layer name, a start and an end.
Self time (duration minus direct children) and call counts are summed per
layer as spans close; the first SPAN_CAP spans are also kept and written
out at the end of the run.  Work counters are read off the wrapped calls'
arguments and results, outside the program.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

SPAN_CAP = 20000


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [span id, layer, time covered by children]
        self.next_id = 0
        self.spans: list[tuple] = []
        self.dropped = 0
        self.target_tables: set[int] = set()
        self.totals = self._empty()

    @staticmethod
    def _empty() -> dict:
        return {"calls": defaultdict(int), "self_s": defaultdict(float),
                "counts": defaultdict(float)}

    def take(self) -> dict:
        """Return the totals gathered so far and start new ones."""
        totals, self.totals = self.totals, self._empty()
        return totals

    def call(self, layer: str, fn, args, kwargs, after=None):
        stack = self.stack
        parent = stack[-1] if stack else None
        frame = [self.next_id, layer, 0.0]
        self.next_id += 1
        stack.append(frame)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            duration = t1 - t0
            totals = self.totals
            totals["self_s"][layer] += duration - frame[2]
            # a layer calling itself (reduce -> enumerate_reductions) is one call
            outermost = parent is None or parent[1] != layer
            if outermost:
                totals["calls"][layer] += 1
            if parent is not None:
                parent[2] += duration
            if len(self.spans) < SPAN_CAP:
                self.spans.append((frame[0], parent and parent[0], layer, t0, t1))
            else:
                self.dropped += 1
        if after is not None and outermost:
            after(self.totals["counts"], layer, args, kwargs, result)
        return result

    def wrap(self, layer, fn, after=None):
        """``layer`` is a name, or a function of (args, kwargs) returning one."""
        name_of = layer if callable(layer) else (lambda args, kwargs: layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name_of(args, kwargs), fn, args, kwargs, after)

        return wrapper

    def write(self, path: Path):
        rows = [
            {"id": i, "parent": p, "layer": name, "start": t0, "end": t1}
            for i, p, name, t0, t1 in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"spans": rows, "dropped": self.dropped}) + "\n", encoding="utf-8"
        )


def _count_types(counts, layer, args, kwargs, result):
    counts["types_of.results"] += len(result)


def _count_reduction(counts, layer, args, kwargs, result):
    if layer != "reduction.source":
        return
    source = args[0] if args else kwargs["input"]
    flat = source.flatten() if hasattr(source, "flatten") else source
    if isinstance(result, list):
        found = len(result)
    else:
        found = int(result is not None)
    counts["selections"] += 1
    counts["selections.hit"] += found > 0
    counts["witnesses"] += found
    counts["simple_types"] += len(flat)


# layer, attribute, modules binding it ("" is the package itself)
FUNCTIONS = (
    ("core.parse_type", "parse_type", ("core", "lexicon", "functors", "semantics", "cli", "")),
    ("core.render_type", "render_type", ("core", "lexicon", "functors", "semantics", "cli", "")),
    ("lexicon.load", "load_lexicon", ("lexicon", "cli", "")),
    ("functors.load", "load_functor", ("functors", "cli", "")),
    ("functors.load", "load_wordmap", ("functors", "cli", "")),
    ("semantics.load", "load_tensor_fixture", ("semantics", "cli", "")),
    ("semantics.lcg_array", "lcg_array", ("semantics", "cli")),
    ("functors.apply", "apply_functor", ("functors",)),
    # check_naturality maps each word type through these bindings
    ("functors.apply", "apply_homomorphism", ("semantics",)),
    ("functors.apply", "apply_antihomomorphism", ("semantics",)),
    ("semantics.interpret", "interpret", ("semantics", "")),
    ("semantics.apply_alpha", "apply_alpha", ("semantics", "")),
    ("semantics.check_naturality", "check_naturality", ("semantics", "cli", "")),
)


def _rebind(P, attr, modules, original, wrapper):
    for name in modules:
        module = getattr(P, name) if name else P
        if getattr(module, attr, None) is original:
            setattr(module, attr, wrapper)


def install(P, tracer: Tracer):
    """Wrap the public functions of the freshly imported package ``P``."""
    for layer, attr, modules in FUNCTIONS:
        original = getattr(getattr(P, modules[0]), attr)
        _rebind(P, attr, modules, original, tracer.wrap(layer, original))

    def reduction_layer(args, kwargs):
        table = args[2] if len(args) > 2 else kwargs["table"]
        return "reduction.target" if id(table) in tracer.target_tables else "reduction.source"

    for attr, modules in (("reduce", ("reduction", "functors", "cli", "")),
                          ("enumerate_reductions", ("reduction", "cli", ""))):
        original = getattr(P.reduction, attr)
        wrapper = tracer.wrap(reduction_layer, original, _count_reduction)
        _rebind(P, attr, modules, original, wrapper)

    translate = P.functors.translate_sentence

    def translate_sentence(lex_src, lex_tgt, *args, **kwargs):
        # reductions over the target lexicon's table are target reductions
        key = id(lex_tgt.table)
        tracer.target_tables.add(key)
        try:
            return tracer.call("functors.translate", translate,
                               (lex_src, lex_tgt) + args, kwargs)
        finally:
            tracer.target_tables.discard(key)

    _rebind(P, "translate_sentence", ("functors", "cli", ""), translate,
            functools.wraps(translate)(translate_sentence))

    lexicon_cls = P.lexicon.Lexicon
    lexicon_cls.types_of = tracer.wrap("lexicon.types_of", lexicon_cls.types_of, _count_types)
    wordmap_cls = P.functors.WordMap
    wordmap_cls.get = tracer.wrap("functors.realize", wordmap_cls.get)
    alpha_cls = P.semantics.AlphaSpec
    alpha_cls.make = classmethod(
        tracer.wrap("semantics.alpha_make", alpha_cls.__dict__["make"].__func__)
    )
    for command, layer in ((P.cli.cmd_parse, "cli.parse"), (P.cli.cmd_translate, "cli.translate")):
        command.callback = tracer.wrap(layer, command.callback)
