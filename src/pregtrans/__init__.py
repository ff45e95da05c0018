"""Pregroup grammar calculus with decorations, functorial translation
between language fragments, and a tensor (DisCoCat) semantics.

The package exports the names the README's library examples import, with
``FunctorSpec``, ``CompoundType``, ``BracedType`` and ``PregroupError``;
every other name lives in its module (``pregtrans.lexicon``,
``pregtrans.checks``, ...).  The tensor semantics, which loads numpy, is
imported on first use: ``pregtrans.semantics`` and
``pregtrans.load_tensor_fixture`` resolve to it then, and importing the
package or the CLI does not load it."""

import importlib

from .core import AtomTable, BracedType, CompoundType, PregroupError, parse_type, render_type
from .reduction import enumerate_reductions, parse_sentence, reduce
from .lexicon import load_lexicon
from .functors import FunctorSpec, load_functor, load_wordmap, translate_sentence

__version__ = "0.1.0"


def __getattr__(name: str):
    # importlib, not ``from . import semantics``: that asks this function
    # for the name again and recurses
    if name in ("semantics", "load_tensor_fixture"):
        semantics = importlib.import_module(".semantics", __name__)
        return semantics if name == "semantics" else semantics.load_tensor_fixture
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
