"""Scenario files: JSON declarations of a crossed module, a base category,
and the optional cover/cocycle/connection/functor data that verification
suites consume.

Group elements are written as ints (cyclic groups), cycle strings or image
lists (permutations), {"angle": t} (SO(2)), {"axis": [...], "angle": t} or
explicit matrix rows (SO(3)/SO(2)). Arrow words are space-joined names in
application order (first applied first); "" is the identity word.

`Scenario.path_category()` alone makes the path base (`base.dim`,
`tolerances.pt`). Each accessor checks the fields it reads, and a malformed or
contradictory one is a ScenarioError. An accessor that builds a law module's
object imports that module itself, so loading a scenario compiles none of
`cocycle`, `decorated` or `twisted`.
"""
from __future__ import annotations

import json
import math
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .basecat import DEFAULT_PT_TOL, DEFAULT_WORD_BOUND, PathCategory, QuiverCategory, SampledPath
from .crossed import CrossedModule, get_module
from .groups import (
    DEFAULT_GRP_TOL,
    CyclicGroup,
    SpecialOrthogonalGroup,
    SymmetricGroup,
    perm_from_cycles,
    skew_expm1,
)
from .report import DEFAULT_BUDGET
from .stream import Stream

if TYPE_CHECKING:
    from .cocycle import CocycleData, Cover, TrivializationFamily
    from .decorated import Connection
    from .twisted import EtaMap


# the names under "tolerances": the group, endpoint and isomorphism tolerances
TOLERANCES = ("grp", "pt", "iso")


class ScenarioError(ValueError):
    """Malformed scenario file or unresolved reference (CLI exit code 2)."""


def _checked_int(label: str, value, minimum: int = 1) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ScenarioError(f"{label} must be an integer >= {minimum}, got {value!r}")
    return value


def _checked_object(label: str, value, *fields: str) -> dict:
    """`value`, which must be a JSON object holding each of `fields`."""
    if not isinstance(value, dict):
        raise ScenarioError(f"{label} must be a JSON object, got {type(value).__name__}")
    missing = [f for f in fields if f not in value]
    if missing:
        raise ScenarioError(f"{label} is missing {missing}")
    return value


def _index(key) -> int:
    try:
        return int(key)  # a cover index, written as a JSON object key
    except (TypeError, ValueError):
        raise ScenarioError(f"cover index must be an integer, got {key!r}") from None


def _finite_reals(group, spec: dict, key: str, n: int | None = None):
    """spec[key] of an SO(n) element spec: one finite real (the angle), or
    n of them (the axis)."""
    try:
        value = np.asarray(spec[key], dtype=float)
    except (KeyError, TypeError, ValueError):
        value = np.array(np.nan)
    if value.shape != (() if n is None else (n,)) or not np.all(np.isfinite(value)):
        what = "a finite real" if n is None else f"{n} finite reals"
        raise ScenarioError(f"{group.name} element spec needs '{key}' as {what}, got {spec!r}")
    return float(value) if n is None else value


def parse_element(group, value):
    """A finite group's int code (the inverse of `fmt`), or an SO(n) matrix."""
    if isinstance(group, CyclicGroup):
        if isinstance(value, str) and value.isdecimal():  # as `fmt` writes it
            value = int(value)
        if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value < group.n:
            raise ScenarioError(f"{group.name} element must be an int in [0, {group.n}), got {value!r}")
        return value
    if isinstance(group, SymmetricGroup):
        try:
            if isinstance(value, str):
                return group.code(perm_from_cycles(value, group.n))
            if isinstance(value, (list, tuple)):
                return group.code(tuple(int(v) for v in value))
        except (ValueError, TypeError, IndexError):
            raise ScenarioError(f"not a permutation of {group.n} points: {value!r}") from None
        raise ScenarioError(f"{group.name} element must be a cycle string or image list")
    if isinstance(group, SpecialOrthogonalGroup):
        if isinstance(value, dict):
            if group.n == 2 and "angle" in value:
                return group.identity + skew_expm1(np.array([_finite_reals(group, value, "angle")]))
            if group.n == 3 and "axis" in value:
                axis = _finite_reals(group, value, "axis", 3)
                angle = _finite_reals(group, value, "angle")
                norm = float(np.linalg.norm(axis))
                if norm == 0:
                    return group.identity
                return group.identity + skew_expm1(axis / norm * angle)
            raise ScenarioError(f"unsupported {group.name} element spec: {value!r}")
        try:
            mat = np.asarray(value, dtype=float)
        except (TypeError, ValueError):
            mat = np.array(np.nan)  # not a matrix
        if not group.contains(mat):
            raise ScenarioError(f"not an {group.name} matrix: {value!r}")
        return mat
    raise ScenarioError(f"no element parser for group {group.name}")


class Scenario:
    def __init__(self, raw: dict, origin: str = "<inline>"):
        if not isinstance(raw, dict):
            raise ScenarioError("scenario must be a JSON object")
        self.raw = raw
        self.origin = origin

    @staticmethod
    def load(path: str | Path) -> "Scenario":
        p = Path(path)
        try:
            raw = json.loads(p.read_text())
        except OSError as exc:
            raise ScenarioError(f"cannot read scenario file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"scenario is not valid JSON: {exc}") from exc
        return Scenario(raw, origin=str(p))

    def _get(self, key: str, required: bool = True, default=None):
        if key not in self.raw:
            if required:
                raise ScenarioError(f"scenario {self.origin} is missing {key!r}")
            return default
        return self.raw[key]

    def _object(self, key: str, *fields: str, required: bool = True) -> dict:
        return _checked_object(repr(key), self._get(key, required, {}), *fields)

    def _base(self, kind: str, *fields: str) -> dict:
        spec = self._object("base")
        if spec.get("kind", "quiver") != kind:
            raise ScenarioError(f"this needs a {kind} base, not kind {spec.get('kind', 'quiver')!r}")
        return _checked_object("'base'", spec, *fields)

    # -- plain fields --

    def _int(self, key: str, default: int, minimum: int = 1) -> int:
        return _checked_int(repr(key), self._get(key, required=False, default=default), minimum)

    @property
    def seed(self) -> int:
        return self._int("seed", 0, minimum=0)

    @property
    def budget(self) -> int:
        return self._int("budget", DEFAULT_BUDGET)

    # steps and prop62_pairs repeat the defaults of decorated (DEFAULT_STEPS and
    # verify_prop62's n_pairs): naming them here would import decorated at every start
    @property
    def steps(self) -> int:
        return self._int("steps", 200)

    @property
    def prop62_pairs(self) -> int:
        return self._int("prop62_pairs", 50)

    @property
    def path_budget(self) -> int:
        """Sample count for path-base suites, where every case costs an ODE
        integration; far smaller than the combinatorial budget."""
        return self._int("path_budget", 200)

    @property
    def tolerances(self) -> dict:
        """The tolerances set, each checked whichever suite reads it."""
        tols = self._object("tolerances", required=False)
        for name, value in tols.items():
            if name not in TOLERANCES:
                raise ScenarioError(f"unknown tolerance {name!r}; known: {', '.join(TOLERANCES)}")
            number = isinstance(value, (int, float)) and not isinstance(value, bool)
            if not (number and 0 < value < math.inf):  # json reads NaN and Infinity too
                raise ScenarioError(f"tolerance {name!r} must be finite and > 0, got {value!r}")
        return tols

    def tolerance(self, name: str, default: float) -> float:
        return float(self.tolerances.get(name, default))

    @property
    def suites(self) -> list[str]:
        names = self._get("suites", required=False, default=[])
        if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
            raise ScenarioError(f"'suites' must be a list of suite names, got {names!r}")
        return list(names)

    # -- structured pieces --

    def crossed_module(self) -> CrossedModule:
        name = self._get("crossed_module")
        try:
            cm = get_module(str(name))
        except KeyError as exc:
            raise ScenarioError(str(exc)) from exc
        eps = self.tolerance("grp", DEFAULT_GRP_TOL)
        for grp in (cm.G, cm.H):
            if isinstance(grp, SpecialOrthogonalGroup):
                grp.tol = eps
        return cm

    def quiver(self) -> QuiverCategory:
        spec = self._base("quiver", "objects", "arrows")
        try:
            if not isinstance(spec["objects"], list):
                raise TypeError(f"'objects' must be a list, got {spec['objects']!r}")
            word_bound = spec.get("word_bound", DEFAULT_WORD_BOUND)
            return QuiverCategory([str(o) for o in spec["objects"]],
                                  [tuple(map(str, a)) for a in spec["arrows"]],
                                  _checked_int("'word_bound'", word_bound))
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"bad quiver declaration: {exc}") from exc

    def path_category(self) -> PathCategory:
        """The path base; nothing else makes a PathCategory from a scenario."""
        spec = self._base("paths", "dim")
        try:
            return PathCategory(_checked_int("'base.dim'", spec["dim"]),
                                self.tolerance("pt", DEFAULT_PT_TOL))
        except ValueError as exc:
            raise ScenarioError(f"bad path base: {exc}") from exc

    def paths(self) -> dict[str, SampledPath]:
        """Declared paths: lists of finite points of the base's dimension
        (checked here, where a bad one can be named), or {"compose": [first, second]}
        naming earlier declarations, composed by the base (so within its
        eps_pt) and recorded structurally: transport of the composite is the
        product of the pieces'."""
        base = self.path_category()
        out: dict[str, SampledPath] = {}
        for name, decl in _checked_object("'base.paths'", self._base("paths").get("paths", {})).items():
            try:
                if isinstance(decl, dict) and "compose" in decl:
                    first, second = decl["compose"]
                    out[name] = base.compose(out[second], out[first])
                else:
                    out[name] = SampledPath(decl)
                    if out[name].dim != base.dim or not np.isfinite(out[name].samples).all():
                        raise ValueError(f"needs finite points in R^{base.dim}")
            except (KeyError, TypeError, ValueError) as exc:  # KeyError: an undeclared piece
                raise ScenarioError(f"bad path {name!r}: {type(exc).__name__}: {exc}") from exc
        return out

    def path(self, name: str) -> SampledPath:
        ps = self.paths()
        if name not in ps:
            raise ScenarioError(f"unknown path {name!r}; declared: {sorted(ps)}")
        return ps[name]

    def cover(self) -> Cover:
        from .cocycle import Cover

        base, spec = self.quiver(), self._object("cover")
        for key, objects in spec.items():
            _index(key)  # from_dict reads each key as an int
            if not isinstance(objects, list) or not all(o in base.objects for o in objects):
                raise ScenarioError(f"cover set {key!r} must list base objects, got {objects!r}")
        cover = Cover.from_dict(spec)
        cover.check_covers(base)
        return cover

    def cocycle_data(self, cm: CrossedModule, cover: Cover) -> CocycleData:
        from .cocycle import CocycleData, constructive_cocycle

        spec = self._object("cocycle")
        mode = spec.get("mode", "constructive")
        if mode == "constructive":
            rng = Stream(_checked_int("'cocycle.seed'", spec.get("seed", self.seed), 0))
            return constructive_cocycle(cover, cm, rng)
        if mode == "tables":
            def load(name: str, arity: int) -> dict:
                out = {}
                for key, pts in _checked_object(f"'cocycle.{name}'", spec[name]).items():
                    idx = tuple(_index(t) for t in str(key).split(","))
                    if len(idx) != arity:
                        raise ScenarioError(f"cocycle key {key!r} has wrong arity")
                    pts = _checked_object(f"'cocycle.{name}.{key}'", pts)
                    out[idx] = {pt: parse_element(cm.H, v) for pt, v in pts.items()}
                return out
            _checked_object("'cocycle'", spec, "pairs", "triples")
            return CocycleData(load("pairs", 2), load("triples", 3))
        raise ScenarioError(f"unknown cocycle mode {mode!r}")

    def triple_tags(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        spec = self._object("triple", "lower", "upper")

        def tags(key: str) -> tuple[int, ...]:
            if not isinstance(spec[key], list) or len(spec[key]) != 3:
                raise ScenarioError(f"triple.{key} must list three cover indices, got {spec[key]!r}")
            return tuple(map(_index, spec[key]))

        return tags("lower"), tags("upper")

    def functors(self, cm: CrossedModule, base: QuiverCategory) -> dict[str, dict]:
        """Object-level H tables, one per named functor declaration, each
        giving exactly one element per object of `base`."""
        out = {}
        objects = set(base.objects)
        for name, table in self._object("functors", required=False).items():
            if not isinstance(table, dict) or set(table) != objects:
                raise ScenarioError(f"functor {name!r} must give one element per base "
                                    f"object {sorted(objects)}, got {table!r}")
            out[name] = {obj: parse_element(cm.H, v) for obj, v in table.items()}
        return out

    def trivializations(self, cm: CrossedModule, cover: Cover) -> TrivializationFamily:
        from .cocycle import TrivializationFamily

        spec = self._get("trivializations", required=False, default=None)
        if spec is None or _checked_object("'trivializations'", spec).keys() == {"seed"}:
            seed = self.seed if spec is None else _checked_int(
                "'trivializations.seed'", spec["seed"], minimum=0)
            return TrivializationFamily.seeded(cm, cover, Stream(seed))
        h_maps = {}
        for key, table in spec.items():
            table, i = _checked_object(f"'trivializations.{key}'", table), _index(key)
            if i not in cover.sets:
                raise ScenarioError(f"trivialization {key!r} names no cover index "
                                    f"{list(cover.index_set)}")
            if set(table) != cover.sets[i]:
                raise ScenarioError(f"trivialization {key!r} must give one element per point "
                                    f"of cover set {sorted(cover.sets[i])}, got {table!r}")
            h_maps[i] = {pt: parse_element(cm.H, v) for pt, v in table.items()}
        missing = set(cover.index_set) - set(h_maps)
        if missing:
            raise ScenarioError(f"trivializations missing for indices {sorted(missing)}")
        return TrivializationFamily(cm, cover, h_maps)

    def connection(self) -> Connection:
        """The connection on the path base, whose dim its `base_dim` must be; it
        is linear exactly when `linear` is given, as a declared `family` must say."""
        from .decorated import Connection

        spec = self._object("connection", "group_dim", "base_dim", "matrices")
        dim, family = self.path_category().dim, "constant" if spec.get("linear") is None else "linear"
        if spec["base_dim"] != dim:
            raise ScenarioError(f"connection base_dim {spec['base_dim']!r} != base dim {dim}")
        if spec.get("family", family) != family:
            raise ScenarioError(f"connection family {spec['family']!r} contradicts whether "
                                "'linear' is given")
        try:
            return Connection(int(spec["group_dim"]), dim, spec["matrices"], spec.get("linear"))
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"bad connection declaration: {exc}") from exc

    def eta(self, cm: CrossedModule) -> EtaMap:
        from .twisted import EtaMap

        spec = self._object("eta")
        if spec.get("from_connection"):
            from .decorated import eta_from_connection
            return eta_from_connection(self.path_category(), cm, self.connection(), self.steps)
        if "table" in spec:
            base, table = self.quiver(), _checked_object("'eta.table'", spec["table"])
            if not set(table) <= set(base.arrows):
                raise ScenarioError(f"eta table names arrows the base lacks: "
                                    f"{sorted(set(table) - set(base.arrows))}")
            return EtaMap.from_table(base, cm, {a: parse_element(cm.G, v) for a, v in table.items()})
        if "raw" in spec:
            values = {tuple(w for w in str(word).split(" ") if w): parse_element(cm.G, v)
                      for word, v in _checked_object("'eta.raw'", spec["raw"]).items()}
            default = spec.get("default")
            default = parse_element(cm.G, default) if default is not None else None
            return EtaMap.from_raw(self.quiver(), cm, values, default=default)
        raise ScenarioError("eta must declare 'table', 'raw', or 'from_connection'")
