"""Scenario files: JSON declarations of a crossed module, a base category,
and the optional cover/cocycle/connection/functor data that verification
suites consume.

Group elements are written as ints or decimal strings (cyclic groups), cycle
strings or image lists (permutations), {"angle": t} (SO(2)),
{"axis": [...], "angle": t} or explicit matrix rows (SO(3)/SO(2)). Arrow words
are space-joined names in application order (first applied first); "" is the
identity word.

Each field is read by the one reader of its kind: `_int` (a JSON int within
bounds), `_key` (an integer spelled as an object key or a printed residue),
`_reals` (finite JSON numbers of a shape) or `_choice` (one of a few names),
and a malformed one is a ScenarioError naming its dotted path. Each accessor
reads only the fields it needs. One that builds a law module's object imports
that module itself, so loading a scenario compiles none of `cocycle`,
`decorated` or `twisted`.
"""
from __future__ import annotations

import json
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
# integrator substeps per path, whose memory grows with them: at 2**20, transport
# along so3_decorated's `diag` took 1.2 s and 303 MiB peak on a 2-CPU Xeon host
MAX_STEPS = 2**20


class ScenarioError(ValueError):
    """Malformed scenario file or unresolved reference (CLI exit code 2)."""


def _int(path: str, value, minimum: int | None = 1, maximum: int | None = None) -> int:
    """The integer at `path`: a JSON int, not a bool, a float or a string, in
    [minimum, maximum] (None: no bound)."""
    if (isinstance(value, bool) or not isinstance(value, int)
            or minimum is not None and value < minimum or maximum is not None and value > maximum):
        bounds = ("" if minimum is None else f" >= {minimum}" if maximum is None
                  else f" in [{minimum}, {maximum}]")
        raise ScenarioError(f"{path} must be an integer{bounds}, got {value!r}")
    return value


def _checked_object(label: str, value, *fields: str) -> dict:
    """`value`, which must be a JSON object holding each of `fields`."""
    if not isinstance(value, dict):
        raise ScenarioError(f"{label} must be a JSON object, got {type(value).__name__}")
    missing = [f for f in fields if f not in value]
    if missing:
        raise ScenarioError(f"{label} is missing {missing}")
    return value


def _key(path: str, key) -> int:
    """The integer a JSON object key or a printed residue spells: "3" or "-1",
    but not " 1", "01", "1_0" or "٣", which `int` would also read."""
    try:
        if key == str(int(key)):
            return int(key)
    except (TypeError, ValueError):
        pass
    raise ScenarioError(f"{path} must be an integer in canonical decimal, got {key!r}")


def _numbers(value) -> bool:
    """Whether `value` is a JSON number (not a bool), or nested lists of them."""
    if isinstance(value, list):
        return all(map(_numbers, value))
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _reals(path: str, value, shape: tuple = (), positive: bool = False):
    """The finite JSON numbers at `path`, nested in lists of `shape`: a float
    for shape (), else an array; `positive` asks each to be > 0 as well."""
    try:
        array = np.array(value, dtype=float) if _numbers(value) else None
    except (ValueError, OverflowError):  # ragged lists, or an int past the float range
        array = None
    if (array is None or array.shape != shape or not np.isfinite(array).all()
            or positive and not (array > 0).all()):
        what = "finite and > 0" if positive else (
            "a finite real" if shape == () else f"finite reals of shape {shape}")
        raise ScenarioError(f"{path} must be {what}, got {value!r}")
    return float(array) if shape == () else array


def _choice(path: str, value, choices: tuple[str, ...]) -> str:
    if value not in choices:
        raise ScenarioError(f"{path} must be one of {', '.join(map(repr, choices))}, got {value!r}")
    return value


def parse_element(group, value, path: str = "value"):
    """A finite group's int code (the inverse of `fmt`), or an SO(n) matrix;
    `path` names the field in an error."""
    label = f"{group.name} element {path!r}"
    if isinstance(group, CyclicGroup):
        return _int(label, _key(label, value) if isinstance(value, str) else value, 0, group.n - 1)
    if isinstance(group, SymmetricGroup):
        if isinstance(value, list):
            value = tuple(_int(f"{group.name} element '{path}[{i}]'", v, 0, group.n - 1)
                          for i, v in enumerate(value))
        elif not isinstance(value, str):
            raise ScenarioError(f"{label} must be a cycle string or image list, got {value!r}")
        try:
            return group.code(value if isinstance(value, tuple) else perm_from_cycles(value, group.n))
        except (ValueError, TypeError, IndexError):
            raise ScenarioError(f"{label} is not a permutation of {group.n} points: {value!r}") from None
    if isinstance(group, SpecialOrthogonalGroup):
        if isinstance(value, dict):
            if ("angle" if group.n == 2 else "axis") not in value:
                raise ScenarioError(f"unsupported {label} spec: {value!r}")
            angle = _reals(f"{group.name} element '{path}.angle'", value.get("angle"))
            if group.n == 2:
                return group.identity + skew_expm1(np.array([angle]))
            axis = _reals(f"{group.name} element '{path}.axis'", value["axis"], (3,))
            norm = float(np.linalg.norm(axis))
            return group.identity if norm == 0 else group.identity + skew_expm1(axis / norm * angle)
        mat = _reals(label, value, (group.n, group.n))
        if not group.contains(mat):
            raise ScenarioError(f"{label} is not an {group.name} matrix: {value!r}")
        return mat
    raise ScenarioError(f"no element parser for group {group.name}")


def _elements(group, table, path: str) -> dict:
    """The JSON object of `group` elements at `path`, each parsed."""
    table = _checked_object(repr(path), table)
    return {k: parse_element(group, v, f"{path}.{k}") for k, v in table.items()}


def _top_int(name: str, default: int, minimum: int = 1, maximum: int | None = None) -> property:
    return property(lambda sc: _int(repr(name), sc.raw.get(name, default), minimum, maximum))


class Scenario:
    def __init__(self, raw: dict, origin: str = "<inline>"):
        if not isinstance(raw, dict):
            raise ScenarioError("scenario must be a JSON object")
        self.raw = raw
        self.origin = origin

    @staticmethod
    def load(path: str | Path) -> "Scenario":
        try:
            return Scenario(json.loads(Path(path).read_text()), origin=str(path))
        except OSError as exc:
            raise ScenarioError(f"cannot read scenario file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"scenario is not valid JSON: {exc}") from exc

    def _get(self, key: str, required: bool = True, default=None):
        if required and key not in self.raw:
            raise ScenarioError(f"scenario {self.origin} is missing {key!r}")
        return self.raw.get(key, default)

    def _object(self, key: str, *fields: str, required: bool = True) -> dict:
        return _checked_object(repr(key), self._get(key, required, {}), *fields)

    def _base(self, kind: str, *fields: str) -> dict:
        spec = self._object("base")
        if _choice("'base.kind'", spec.get("kind", "quiver"), ("quiver", "paths")) != kind:
            raise ScenarioError(f"this needs a {kind} base, not kind {spec.get('kind', 'quiver')!r}")
        return _checked_object("'base'", spec, *fields)

    seed = _top_int("seed", 0, minimum=0)
    budget = _top_int("budget", DEFAULT_BUDGET)
    # steps and prop62_pairs repeat the defaults of decorated (DEFAULT_STEPS and
    # verify_prop62's n_pairs): naming them here would import decorated at every start
    steps = _top_int("steps", 200, maximum=MAX_STEPS)
    prop62_pairs = _top_int("prop62_pairs", 50)
    # the sample count of path-base suites, each case an ODE integration
    path_budget = _top_int("path_budget", 200)

    @property
    def tolerances(self) -> dict[str, float]:
        """The tolerances set, each checked whichever suite reads it."""
        return {_choice("'tolerances' key", k, TOLERANCES): _reals(f"tolerance {k!r}", v, positive=True)
                for k, v in self._object("tolerances", required=False).items()}

    def tolerance(self, name: str, default: float) -> float:
        return self.tolerances.get(name, default)

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
        word_bound = _int("'base.word_bound'", spec.get("word_bound", DEFAULT_WORD_BOUND))
        try:
            if not isinstance(spec["objects"], list):
                raise TypeError(f"'objects' must be a list, got {spec['objects']!r}")
            return QuiverCategory([str(o) for o in spec["objects"]],
                                  [tuple(map(str, a)) for a in spec["arrows"]], word_bound)
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"bad quiver declaration: {exc}") from exc

    def path_category(self) -> PathCategory:
        """The path base; nothing else makes a PathCategory from a scenario."""
        spec = self._base("paths", "dim")
        return PathCategory(_int("'base.dim'", spec["dim"], 1, 3),
                            self.tolerance("pt", DEFAULT_PT_TOL))

    def paths(self) -> dict[str, SampledPath]:
        """Declared paths: lists of finite points in R^base.dim (on a 1-D base,
        also a list of numbers), or {"compose": [first, second]} naming earlier
        ones, composed by the base (within its eps_pt) and recorded
        structurally: transport of the composite is the pieces' product."""
        base = self.path_category()
        out: dict[str, SampledPath] = {}
        for name, decl in _checked_object("'base.paths'", self._base("paths").get("paths", {})).items():
            try:
                if isinstance(decl, dict) and "compose" in decl:
                    first, second = decl["compose"]
                    out[name] = base.compose(out[second], out[first])
                elif not isinstance(decl, list):
                    raise ScenarioError(f"'base.paths.{name}' must be a list of points or a "
                                        f"compose, got {decl!r}")
                else:  # on a 1-D base, a list of numbers is a list of points
                    flat = base.dim == 1 and decl and not any(isinstance(p, list) for p in decl)
                    shape = (len(decl),) if flat else (len(decl), base.dim)
                    out[name] = SampledPath(_reals(f"'base.paths.{name}'", decl, shape))
            except (KeyError, TypeError, ValueError) as exc:  # KeyError: an undeclared piece
                why = exc if isinstance(exc, ScenarioError) else (
                    f"'base.paths.{name}': {type(exc).__name__}: {exc}")
                raise ScenarioError(f"bad path {name!r}: {why}") from exc
        return out

    def path(self, name: str) -> SampledPath:
        ps = self.paths()
        if name not in ps:
            raise ScenarioError(f"unknown path {name!r}; declared: {sorted(ps)}")
        return ps[name]

    def cover(self) -> Cover:
        from .cocycle import Cover

        base, sets = self.quiver(), {}
        for key, objects in self._object("cover").items():
            if not isinstance(objects, list) or not all(o in base.objects for o in objects):
                raise ScenarioError(f"cover set {key!r} must list base objects, got {objects!r}")
            sets[_key("'cover' key", key)] = frozenset(objects)
        cover = Cover(tuple(sorted(sets)), sets)
        cover.check_covers(base)
        return cover

    def cocycle_data(self, cm: CrossedModule, cover: Cover) -> CocycleData:
        from .cocycle import CocycleData, constructive_cocycle

        spec = self._object("cocycle")
        mode = _choice("'cocycle.mode'", spec.get("mode", "constructive"), ("constructive", "tables"))
        if mode == "constructive":
            seed = _int("'cocycle.seed'", spec.get("seed", self.seed), 0)
            return constructive_cocycle(cover, cm, Stream(seed))

        def load(name: str, arity: int) -> dict:
            out = {}
            for key, pts in _checked_object(f"'cocycle.{name}'", spec[name]).items():
                idx = tuple(_key(f"'cocycle.{name}' key {key!r}", t) for t in key.split(","))
                if len(idx) != arity:
                    raise ScenarioError(f"cocycle key {key!r} has wrong arity")
                out[idx] = _elements(cm.H, pts, f"cocycle.{name}.{key}")
            return out

        _checked_object("'cocycle'", spec, "pairs", "triples")
        return CocycleData(load("pairs", 2), load("triples", 3))

    def triple_tags(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        spec = self._object("triple", "lower", "upper")
        for key in ("lower", "upper"):
            if not isinstance(spec[key], list) or len(spec[key]) != 3:
                raise ScenarioError(f"'triple.{key}' must list three cover indices, got {spec[key]!r}")
        return tuple(tuple(_int(f"'triple.{key}[{i}]'", v, None) for i, v in enumerate(spec[key]))
                     for key in ("lower", "upper"))

    def functors(self, cm: CrossedModule, base: QuiverCategory) -> dict[str, dict]:
        """Object-level H tables, one per named functor declaration, each
        giving exactly one element per object of `base`."""
        out = {}
        objects = set(base.objects)
        for name, table in self._object("functors", required=False).items():
            if not isinstance(table, dict) or set(table) != objects:
                raise ScenarioError(f"functor {name!r} must give one element per base "
                                    f"object {sorted(objects)}, got {table!r}")
            out[name] = _elements(cm.H, table, f"functors.{name}")
        return out

    def trivializations(self, cm: CrossedModule, cover: Cover) -> TrivializationFamily:
        from .cocycle import TrivializationFamily

        spec = self._get("trivializations", required=False, default=None)
        if spec is None or _checked_object("'trivializations'", spec).keys() == {"seed"}:
            seed = self.seed if spec is None else _int("'trivializations.seed'", spec["seed"], 0)
            return TrivializationFamily.seeded(cm, cover, Stream(seed))
        h_maps = {}
        for key, table in spec.items():
            i = _key("'trivializations' key", key)
            table = _elements(cm.H, table, f"trivializations.{key}")
            if i not in cover.sets:
                raise ScenarioError(f"trivialization {key!r} names no cover index "
                                    f"{list(cover.index_set)}")
            if set(table) != cover.sets[i]:
                raise ScenarioError(f"trivialization {key!r} must give one element per point "
                                    f"of cover set {sorted(cover.sets[i])}, got {table!r}")
            h_maps[i] = table
        missing = set(cover.index_set) - set(h_maps)
        if missing:
            raise ScenarioError(f"trivializations missing for indices {sorted(missing)}")
        return TrivializationFamily(cm, cover, h_maps)

    def connection(self) -> Connection:
        """The connection on the path base, whose dim its `base_dim` must be; it
        is linear exactly when `linear` is given, as a declared `family` must say."""
        from .decorated import Connection

        spec = self._object("connection", "group_dim", "base_dim", "matrices")
        dim, n = self.path_category().dim, _int("'connection.group_dim'", spec["group_dim"])
        if _int("'connection.base_dim'", spec["base_dim"]) != dim:
            raise ScenarioError(f"connection base_dim {spec['base_dim']!r} != base dim {dim}")
        linear = spec.get("linear")
        family = "constant" if linear is None else "linear"
        if _choice("'connection.family'", spec.get("family", family), ("constant", "linear")) != family:
            raise ScenarioError(f"'connection.family' must be {family!r}, as 'linear' says")
        if linear is not None:
            linear = _reals("'connection.linear'", linear, (dim, dim, n, n))
        matrices = _reals("'connection.matrices'", spec["matrices"], (dim, n, n))
        return Connection(n, dim, matrices, linear)

    def eta(self, cm: CrossedModule) -> EtaMap:
        from .twisted import EtaMap

        spec = self._object("eta")
        kinds = spec.keys() & {"table", "raw", "from_connection"}
        if len(kinds) != 1 or spec.get("from_connection", True) is not True:
            raise ScenarioError(f"'eta' must declare exactly one of 'table', 'raw' or "
                                f"'from_connection': true, got {spec!r}")
        if "from_connection" in kinds:
            from .decorated import eta_from_connection
            return eta_from_connection(self.path_category(), cm, self.connection(), self.steps)
        if "table" in kinds:
            base, table = self.quiver(), _elements(cm.G, spec["table"], "eta.table")
            if not set(table) <= set(base.arrows):
                raise ScenarioError(f"eta table names arrows the base lacks: "
                                    f"{sorted(set(table) - set(base.arrows))}")
            return EtaMap.from_table(base, cm, table)
        values = {tuple(w for w in word.split(" ") if w): g
                  for word, g in _elements(cm.G, spec["raw"], "eta.raw").items()}
        default = spec.get("default")
        default = None if default is None else parse_element(cm.G, default, "eta.default")
        return EtaMap.from_raw(self.quiver(), cm, values, default=default)
