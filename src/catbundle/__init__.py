"""Computational categorical bundles over finite groups and SO(2)/SO(3):
crossed modules, twisted-product bundles (the product bundle is the trivial
twist), functorial cocycles, and decorated bundles with connection-driven
parallel transport, together with verification suites that certify the
algebraic laws.

The names below resolve on first access (PEP 562): `import catbundle`
compiles no submodule, and a name compiles only the submodule that defines
it, with that submodule's imports."""

import importlib

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {
    "CompositionUndefined": "crossed",
    "CrossedModule": "crossed",
    "TwoGroupMorphism": "crossed",
    "catalog": "crossed",
    "get_module": "crossed",
    "QuiverCategory": "basecat",
    "PathCategory": "basecat",
    "SampledPath": "basecat",
    "compose_paths": "basecat",
    "FunctorUG": "bundle",
    "functor_from_h": "bundle",
    "Cover": "cocycle",
    "CocycleData": "cocycle",
    "OverlapCategory": "cocycle",
    "build_theta": "cocycle",
    "EtaMap": "twisted",
    "TwistedBundle": "twisted",
    "TwistedMorphism": "twisted",
    "Connection": "decorated",
    "DecoratedBundle": "decorated",
    "DecoratedMorphism": "decorated",
    "parallel_transport": "decorated",
    "LawRecord": "report",
    "LawReport": "report",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
