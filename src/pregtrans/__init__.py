"""Pregroup grammar calculus with decorations, functorial translation
between language fragments, and a tensor (DisCoCat) semantics."""

from .core import (
    AtomTable,
    BracedType,
    CompoundType,
    PregroupError,
    SimpleType,
    TypeParseError,
    UnknownAtomError,
    contracts,
    left_adjoint,
    parse_type,
    render_type,
    right_adjoint,
    simple_leq,
)
from .reduction import (
    ReductionWitness,
    enumerate_reductions,
    parse_sentence,
    reduce,
    render_diagram,
    type_selections,
)
from .lexicon import (
    Lexicon,
    LexiconEntry,
    LexiconError,
    Metarule,
    UnknownWordError,
    load_lexicon,
)
from .functors import (
    FunctorSpec,
    NotTranslatableError,
    TranslationResult,
    WordMap,
    apply_antihomomorphism,
    apply_bracewise,
    apply_homomorphism,
    check_functor_laws,
    load_functor,
    load_wordmap,
    translate_sentence,
)
from .semantics import (
    AlphaSpec,
    SpaceAssignment,
    WordTensor,
    apply_alpha,
    check_naturality,
    epsilon,
    eta,
    interpret,
    load_tensor_fixture,
)
from .checks import oracle_reduce

__version__ = "0.1.0"
