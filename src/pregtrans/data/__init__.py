"""Bundled lexicons, functors, word maps, and tensor fixtures."""

from pathlib import Path

# default wordmap and source/target lexicons per bundled functor
FUNCTOR_REGISTRY = {
    "jp-en-anti": {"src": "ja_mini", "tgt": "en"},
    "psi": {"src": "ja_mini", "tgt": "en"},
    "psi3": {"src": "ja_mini", "tgt": "en"},
    "xi": {"src": "fa", "tgt": "ja_mini"},
    "jp-ro-hom": {"src": "ja_mini", "tgt": "ro"},
}


_ROOT = Path(__file__).parent


def data_path(*parts: str) -> Path:
    path = _ROOT.joinpath(*parts)
    if not path.exists():
        raise FileNotFoundError(f"no bundled data file {'/'.join(parts)!r}")
    return path


def lexicon_path(name: str) -> Path:
    return data_path("lexicons", f"{name}.json")


def functor_path(name: str) -> Path:
    return data_path("functors", f"{name}.json")


def wordmap_path(name: str) -> Path:
    return data_path("wordmaps", f"{name}.json")


def tensor_path(name: str) -> Path:
    return data_path("tensors", f"{name}.json")
