"""Computational categorical bundles over finite groups and SO(2)/SO(3):
crossed modules, twisted-product bundles (the product bundle is the trivial
twist), functorial cocycles, and decorated bundles with connection-driven
parallel transport, together with verification suites that certify the
algebraic laws."""

from .basecat import PathCategory, QuiverCategory, SampledPath, compose_paths
from .bundle import FunctorUG, functor_from_h
from .cocycle import CocycleData, Cover, OverlapCategory, build_theta
from .crossed import CompositionUndefined, CrossedModule, TwoGroupMorphism, catalog, get_module
from .decorated import Connection, DecoratedBundle, DecoratedMorphism, parallel_transport
from .report import LawRecord, LawReport
from .twisted import EtaMap, TwistedBundle, TwistedMorphism

__version__ = "0.1.0"

__all__ = [
    "CompositionUndefined",
    "CrossedModule",
    "TwoGroupMorphism",
    "catalog",
    "get_module",
    "QuiverCategory",
    "PathCategory",
    "SampledPath",
    "compose_paths",
    "FunctorUG",
    "functor_from_h",
    "Cover",
    "CocycleData",
    "OverlapCategory",
    "build_theta",
    "EtaMap",
    "TwistedBundle",
    "TwistedMorphism",
    "Connection",
    "DecoratedBundle",
    "DecoratedMorphism",
    "parallel_transport",
    "LawRecord",
    "LawReport",
    "__version__",
]
