"""Scenario files: JSON declarations of a crossed module, a base category,
and the optional cover/cocycle/connection/functor data that verification
suites consume.

Group elements are written as ints (cyclic groups), cycle strings or image
lists (permutations), {"angle": t} (SO(2)), {"axis": [...], "angle": t} or
explicit matrix rows (SO(3)/SO(2)). Arrow words are space-joined names in
application order (first applied first); "" is the identity word.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .basecat import PathCategory, QuiverCategory, SampledPath
from .cocycle import CocycleData, Cover, TrivializationFamily, constructive_cocycle
from .crossed import CrossedModule, get_module
from .decorated import Connection, eta_from_connection
from .groups import (
    CyclicGroup,
    SpecialOrthogonalGroup,
    SymmetricGroup,
    perm_from_cycles,
    rotation2,
    skew3,
    skew_exp,
)
from .report import DEFAULT_BUDGET
from .twisted import EtaMap


class ScenarioError(ValueError):
    """Malformed scenario file or unresolved reference (CLI exit code 2)."""


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
                return rotation2(float(value["angle"]))
            if group.n == 3 and "axis" in value:
                axis = np.asarray(value["axis"], dtype=float)
                norm = float(np.linalg.norm(axis))
                if norm == 0:
                    return group.identity
                return skew_exp(skew3(axis / norm * float(value["angle"])))
            raise ScenarioError(f"unsupported {group.name} element spec: {value!r}")
        mat = np.asarray(value, dtype=float)
        if not group.contains(mat):
            raise ScenarioError(f"matrix is not in {group.name}")
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

    # -- plain fields --

    def _int(self, key: str, default: int, minimum: int = 1) -> int:
        value = self._get(key, required=False, default=default)
        if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
            raise ScenarioError(f"{key!r} must be an integer >= {minimum}, got {value!r}")
        return value

    @property
    def seed(self) -> int:
        return self._int("seed", 0, minimum=0)

    @property
    def budget(self) -> int:
        return self._int("budget", DEFAULT_BUDGET)

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

    def tolerance(self, name: str, default: float) -> float:
        tols = self._get("tolerances", required=False, default={})
        value = tols.get(name, default) if isinstance(tols, dict) else None
        if isinstance(value, bool) or not isinstance(value, (int, float)) or value <= 0:
            raise ScenarioError(f"tolerance {name!r} must be a positive number, got {value!r}")
        return float(value)

    @property
    def suites(self) -> list[str]:
        return list(self._get("suites", required=False, default=[]))

    # -- structured pieces --

    def crossed_module(self) -> CrossedModule:
        name = self._get("crossed_module")
        try:
            cm = get_module(str(name))
        except KeyError as exc:
            raise ScenarioError(str(exc)) from exc
        eps = self.tolerance("grp", 1e-9)
        for grp in (cm.G, cm.H):
            if isinstance(grp, SpecialOrthogonalGroup):
                grp.tol = eps
        return cm

    def quiver(self) -> QuiverCategory:
        spec = self._get("base")
        if spec.get("kind", "quiver") != "quiver":
            raise ScenarioError("this suite needs a quiver base")
        try:
            return QuiverCategory(
                [str(o) for o in spec["objects"]],
                [tuple(map(str, a)) for a in spec["arrows"]],
                word_bound=int(spec.get("word_bound", 3)),
            )
        except (KeyError, ValueError) as exc:
            raise ScenarioError(f"bad quiver declaration: {exc}") from exc

    def path_category(self) -> PathCategory:
        spec = self._get("base")
        if spec.get("kind") != "paths":
            raise ScenarioError("this suite needs a path base")
        return PathCategory(int(spec["dim"]), eps_pt=self.tolerance("pt", 1e-12))

    def paths(self) -> dict[str, SampledPath]:
        """Declared paths: coordinate lists, or {"compose": [first, second]}
        referencing earlier declarations (composition is recorded structurally,
        so transport of the composite is the product of the pieces')."""
        spec = self._get("base")
        out: dict[str, SampledPath] = {}
        from .basecat import compose_paths
        for name, decl in spec.get("paths", {}).items():
            if isinstance(decl, dict) and "compose" in decl:
                first, second = decl["compose"]
                if first not in out or second not in out:
                    raise ScenarioError(
                        f"path {name!r} composes undeclared paths (declare pieces first)")
                out[name] = compose_paths(out[second], out[first])
            else:
                out[name] = SampledPath(decl)
        return out

    def path(self, name: str) -> SampledPath:
        ps = self.paths()
        if name not in ps:
            raise ScenarioError(f"unknown path {name!r}; declared: {sorted(ps)}")
        return ps[name]

    def cover(self) -> Cover:
        cover = Cover.from_dict(self._get("cover"))
        cover.check_covers(self.quiver())
        return cover

    def cocycle_data(self, cm: CrossedModule, cover: Cover) -> CocycleData:
        spec = self._get("cocycle")
        mode = spec.get("mode", "constructive")
        if mode == "constructive":
            rng = np.random.default_rng(int(spec.get("seed", self.seed)))
            return constructive_cocycle(cover, cm, rng)
        if mode == "tables":
            def load(table: dict, arity: int) -> dict:
                out = {}
                for key, pts in table.items():
                    idx = tuple(int(t) for t in str(key).split(","))
                    if len(idx) != arity:
                        raise ScenarioError(f"cocycle key {key!r} has wrong arity")
                    out[idx] = {pt: parse_element(cm.H, v) for pt, v in pts.items()}
                return out
            return CocycleData(load(spec["pairs"], 2), load(spec["triples"], 3))
        raise ScenarioError(f"unknown cocycle mode {mode!r}")

    def triple_tags(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        spec = self._get("triple")
        return tuple(int(i) for i in spec["lower"]), tuple(int(i) for i in spec["upper"])

    def functors(self, cm: CrossedModule, base: QuiverCategory) -> dict[str, dict]:
        """Object-level H tables, one per named functor declaration, each
        giving exactly one element per object of `base`."""
        out = {}
        objects = set(base.objects)
        for name, table in self._get("functors", required=False, default={}).items():
            if not isinstance(table, dict) or set(table) != objects:
                raise ScenarioError(f"functor {name!r} must give one element per base "
                                    f"object {sorted(objects)}, got {table!r}")
            out[name] = {obj: parse_element(cm.H, v) for obj, v in table.items()}
        return out

    def trivializations(self, cm: CrossedModule, cover: Cover) -> TrivializationFamily:
        spec = self._get("trivializations", required=False, default=None)
        if spec is None or (isinstance(spec, dict) and "seed" in spec and len(spec) == 1):
            seed = self.seed if spec is None else int(spec["seed"])
            return TrivializationFamily.seeded(cm, cover, np.random.default_rng(seed))
        h_maps = {}
        for key, table in spec.items():
            h_maps[int(key)] = {pt: parse_element(cm.H, v) for pt, v in table.items()}
        missing = set(cover.index_set) - set(h_maps)
        if missing:
            raise ScenarioError(f"trivializations missing for indices {sorted(missing)}")
        return TrivializationFamily(cm, cover, h_maps)

    def connection(self) -> Connection:
        spec = self._get("connection")
        try:
            return Connection(
                group_dim=int(spec["group_dim"]),
                base_dim=int(spec["base_dim"]),
                family=str(spec.get("family", "constant")),
                constant=spec["matrices"],
                linear=spec.get("linear"),
            )
        except (KeyError, ValueError) as exc:
            raise ScenarioError(f"bad connection declaration: {exc}") from exc

    def eta(self, cm: CrossedModule, steps: int | None = None) -> EtaMap:
        spec = self._get("eta")
        if "from_connection" in spec and spec["from_connection"]:
            conn = self.connection()
            return eta_from_connection(cm, conn, steps or self.steps)
        if "table" in spec:
            table = {name: parse_element(cm.G, v) for name, v in spec["table"].items()}
            return EtaMap.from_table(self.quiver(), cm, table)
        if "raw" in spec:
            values = {}
            for word, v in spec["raw"].items():
                key = tuple(w for w in str(word).split(" ") if w)
                values[key] = parse_element(cm.G, v)
            default = spec.get("default")
            default_el = parse_element(cm.G, default) if default is not None else None
            return EtaMap.from_raw(self.quiver(), cm, values, default=default_el)
        raise ScenarioError("eta must declare 'table', 'raw', or 'from_connection'")
