"""Every file loader turns bad input into a PregroupError naming the file:
a bundled data file with one field, at any depth, replaced by a random
JSON value either loads or raises that error, never another exception."""

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pregtrans import data as bundled
from pregtrans.core import PregroupError
from pregtrans.functors import FunctorError, load_functor, load_wordmap
from pregtrans.lexicon import LexiconError, load_lexicon
from pregtrans.semantics import SemanticsError, load_tensor_fixture

TABLES = {name: load_lexicon(bundled.lexicon_path(name)).table
          for name in ("ja", "ja_mini", "en", "fa", "ro")}


def _functor(path):
    roles = bundled.FUNCTOR_REGISTRY[path.stem]
    return load_functor(path, TABLES[roles["src"]], TABLES[roles["tgt"]])


# kind -> (bundled file names, their path, the loader)
KINDS = {
    "lexicon": (TABLES, bundled.lexicon_path, load_lexicon),
    "functor": (bundled.FUNCTOR_REGISTRY, bundled.functor_path, _functor),
    "wordmap": (("jp-en-anti", "psi", "psi3", "xi"), bundled.wordmap_path, load_wordmap),
    "tensor": (("adj_noun", "mori", "pigeons"), bundled.tensor_path, load_tensor_fixture),
}

# words a loader gives meaning to, so a draw can reach the checks past
# the JSON types; integers are small, or large enough that a dimension
# such as 2**40 would ask the seeded generator for more memory than any
# machine has
WORDS = ["", "n", "s", "o1", "o4", "q", "n^l", "n^r o5", "b(n)", "< n >", "n s^l",
         "argument-swap", "atom-expansion", "slot-flip",
         "homomorphism", "antihomomorphism", "bracewise", "seed"]
SCALARS = (st.none() | st.booleans() | st.integers(-2, 8) | st.integers(2**20, 2**40)
           | st.floats(allow_nan=False, allow_infinity=False)
           | st.sampled_from(WORDS) | st.text("no1s^lr<>b() ", max_size=8))
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(WORDS) | st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


def _places(doc, at=()):
    """The path of every value in ``doc``, itself included."""
    yield at
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _places(value, at + (key,))


def _replaced(doc, at, value):
    if not at:
        return value
    doc = json.loads(json.dumps(doc))
    inner = doc
    for key in at[:-1]:
        inner = inner[key]
    inner[at[-1]] = value
    return doc


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated")


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=150, deadline=None)
@given(draw=st.data())
def test_loader_raises_only_pregroup_errors(workdir, kind, draw):
    names, locate, load = KINDS[kind]
    name = draw.draw(st.sampled_from(sorted(names)), label="file")
    doc = json.loads(locate(name).read_text(encoding="utf-8"))
    at = draw.draw(st.sampled_from(list(_places(doc))), label="field")
    path = workdir / kind / f"{name}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(_replaced(doc, at, draw.draw(JSON_VALUES, label="value"))))
    try:
        load(path)
    except PregroupError as exc:
        assert str(path) in str(exc)


# a document nested deeper than json.loads can decode
TOO_DEEP = '{"atoms": ' + "[" * 100_000 + "]" * 100_000 + "}"


@pytest.mark.parametrize("kind, error", [
    ("lexicon", LexiconError), ("functor", FunctorError), ("wordmap", FunctorError),
    ("tensor", SemanticsError),
])
def test_a_file_nested_too_deeply_raises_the_loaders_error(workdir, kind, error):
    names, _, load = KINDS[kind]
    path = workdir / f"deep-{kind}" / f"{sorted(names)[0]}.json"
    path.parent.mkdir()
    path.write_text(TOO_DEEP)
    with pytest.raises(error, match=f"^{re.escape(str(path))}: "):
        load(path)
