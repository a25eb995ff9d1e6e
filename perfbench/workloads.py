"""Seeded workload generators for the catbundle benchmark.

Each workload is a list of items; an item is one scenario file run with one
suite through `catbundle run`. Shapes, budgets and integrator steps are fixed
here, so the number of law cases barely depends on the seed. The seed picks
group elements, functor and eta tables, connection coefficients, declared
paths and the scenario `seed` that drives catbundle's own sampling.

Why each workload exists:

* finite-exhaustive: tuple/int group arithmetic, the crossed-module calculus
  and case enumeration do almost all the work; no transport runs. A finite
  group-table backend would show here and nowhere else.
* path-transport: parallel transport along sampled paths dominates. A batched
  integrator or an eta-cache change shows here, and should leave the other
  two workloads unchanged.
* matrix-sampled: the same groups/crossed layers as finite-exhaustive, but on
  ndarray carriers with tolerance equality, seeded sampling and no transport.
  A finite-only speed-up that slows the matrix path shows here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

FINITE_BUDGET = 20_000
MATRIX_BUDGET = 3_000
PATH_STEPS = 80
PATH_BUDGET = 12
PROP62_PAIRS = 12

S3_QUIVER_SUITES = ("crossed-module", "exchange-law", "bundle-axioms",
                    "prop31-roundtrip", "prop41-section", "prop42-correspondence")
PATH_SUITES = ("transport-convergence", "prop62", "twisted-bundle", "e-action")
MATRIX_SUITES = ("crossed-module", "exchange-law", "prop31-roundtrip", "prop42-correspondence")

# (group dim, connection family, base dim) of each path-transport scenario
CONNECTIONS = ((2, "constant", 1), (2, "linear", 2), (3, "linear", 1), (3, "constant", 2))

# Expected failing laws and their witnesses for the shipped negative
# scenarios. Every failing law is checked exhaustively, so the first witness
# in enumeration order does not depend on the seed.
NEGATIVE_BROKEN_MODULE = {
    "crossed-module": {
        "peiffer": {"h": "(1 2)", "h2": "(0 1)", "lhs": "(0 1)", "rhs": "(0 2)"},
    },
    "exchange-law": {
        "exchange-law": {"lhs": "((0 1 2), 0)", "phi1": "((1 2), 0)", "phi2": "(e, 0)",
                         "psi1": "(e, 0)", "psi2": "((0 1), 0)", "rhs": "((0 2 1), 0)"},
    },
}
NEGATIVE_ETA = {
    "twisted-bundle": {
        "associativity": {"error": "CompositionUndefined: twisted target 3 != source 2"},
        "boundary-coherence": {"gamma1": "f:a->b", "gamma2": "g:b->c",
                               "t_comp": "3", "t_tm2": "2"},
        "eta-homomorphism": {"gamma1": "f:a->b", "gamma2": "g:b->c", "lhs": "3", "rhs": "2"},
    },
}


@dataclass(frozen=True)
class Item:
    id: str
    scenario: str
    suite: str
    failing: dict = field(default_factory=dict)  # law id -> expected witness

    @property
    def exit_code(self) -> int:
        return 1 if self.failing else 0


@dataclass
class Workload:
    scenarios: dict[str, dict]
    items: list[Item]
    oracle_paths: dict[str, list[str]] = field(default_factory=dict)  # SO(2) scenario -> path ids


def _chain_quiver(word_bound: int = 3) -> dict:
    return {"kind": "quiver", "objects": ["a", "b", "c"],
            "arrows": [["f", "a", "b"], ["g", "b", "c"]], "word_bound": word_bound}


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**31))


def _perm(rng: np.random.Generator) -> list[int]:
    return [int(v) for v in rng.permutation(3)]


def finite_exhaustive(rng: np.random.Generator) -> Workload:
    scenarios = {
        "s3_quiver": {
            "crossed_module": "s3-conj", "seed": _seed(rng), "budget": FINITE_BUDGET,
            "base": _chain_quiver(),
            "functors": {name: {o: _perm(rng) for o in "abc"} for name in ("sigma1", "sigma2")},
        },
        "z4_gu": {
            "crossed_module": "z4-z2", "seed": _seed(rng), "budget": FINITE_BUDGET,
            "base": {"kind": "quiver", "objects": ["a", "b"], "arrows": [["f", "a", "b"]],
                     "word_bound": 3},
        },
        "z4_twist": {
            "crossed_module": "z4-conj", "seed": _seed(rng), "budget": FINITE_BUDGET,
            "base": _chain_quiver(),
            "eta": {"table": {"f": int(rng.integers(4)), "g": int(rng.integers(4))}},
        },
        "s3_cocycle": {
            "crossed_module": "s3-conj", "seed": _seed(rng),
            "base": {"kind": "quiver", "objects": [f"a{i}" for i in range(6)],
                     "arrows": [["f1", "a0", "a4"], ["f2", "a1", "a5"], ["f3", "a0", "a5"],
                                ["f4", "a1", "a4"], ["g1", "a0", "a2"], ["g2", "a2", "a4"]],
                     "word_bound": 3},
            "cover": {"0": ["a0", "a1", "a2"], "1": ["a0", "a1", "a3"], "2": ["a0", "a1"],
                      "3": ["a4", "a5"], "4": ["a4", "a5", "a2"], "5": ["a4", "a5", "a3"]},
            "cocycle": {"mode": "constructive", "seed": _seed(rng)},
            "trivializations": {"seed": _seed(rng)},
            "triple": {"lower": [0, 1, 2], "upper": [3, 4, 5]},
        },
        "negative_broken_module": {
            "crossed_module": "z2-s3-broken", "seed": _seed(rng),
            "base": {"kind": "quiver", "objects": ["a", "b"], "arrows": [["f", "a", "b"]],
                     "word_bound": 2},
        },
        "negative_eta": {
            "crossed_module": "z4-conj", "seed": _seed(rng),
            "base": _chain_quiver(word_bound=2),
            "eta": {"raw": {"f": 1, "g": 1, "f g": 3}, "default": 0},
        },
    }
    items = [Item(f"s3_quiver/{s}", "s3_quiver", s) for s in S3_QUIVER_SUITES]
    items.append(Item("z4_gu/prop34-gu-group", "z4_gu", "prop34-gu-group"))
    items += [Item(f"z4_twist/{s}", "z4_twist", s) for s in ("twisted-bundle", "e-action")]
    items += [Item(f"s3_cocycle/{s}", "s3_cocycle", s)
              for s in ("cocycle", "prop51", "transition-cocycle")]
    for name, expected in (("negative_broken_module", NEGATIVE_BROKEN_MODULE),
                           ("negative_eta", NEGATIVE_ETA)):
        items += [Item(f"{name}/{s}", name, s, failing) for s, failing in expected.items()]
    return Workload(scenarios, items)


def _skew(rng: np.random.Generator, group_dim: int, scale: float) -> list[list[float]]:
    if group_dim == 2:
        a = float(rng.uniform(-scale, scale))
        return [[0.0, -a], [a, 0.0]]
    x, y, z = (float(v) for v in rng.uniform(-scale, scale, size=3))
    return [[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]]


def _path(rng: np.random.Generator, start: list[float], n_segments: int = 2) -> list[list[float]]:
    pts = [start]
    for _ in range(n_segments):
        pts.append([p + float(d) for p, d in zip(pts[-1], rng.uniform(-0.8, 0.8, size=len(start)))])
    return pts


def path_transport(rng: np.random.Generator) -> Workload:
    scenarios, items, oracle = {}, [], {}
    for group_dim, family, base_dim in CONNECTIONS:
        name = f"so{group_dim}_{family}_d{base_dim}"
        conn = {"family": family, "group_dim": group_dim, "base_dim": base_dim,
                "matrices": [_skew(rng, group_dim, 1.0) for _ in range(base_dim)]}
        if family == "linear":
            conn["linear"] = [[_skew(rng, group_dim, 0.5) for _ in range(base_dim)]
                              for _ in range(base_dim)]
        p = _path(rng, [float(v) for v in rng.uniform(-1, 1, size=base_dim)])
        q = _path(rng, p[-1], n_segments=3)
        scenarios[name] = {
            "crossed_module": f"so{group_dim}-conj", "seed": _seed(rng),
            "steps": PATH_STEPS, "path_budget": PATH_BUDGET, "prop62_pairs": PROP62_PAIRS,
            "base": {"kind": "paths", "dim": base_dim,
                     "paths": {"p": p, "q": q, "pq": {"compose": ["p", "q"]}}},
            "connection": conn,
            "eta": {"from_connection": True},
        }
        items += [Item(f"{name}/{s}", name, s) for s in PATH_SUITES]
        if group_dim == 2:
            oracle[name] = ["p", "q", "pq"]
    return Workload(scenarios, items, oracle)


def _matrix_element(rng: np.random.Generator, group_dim: int) -> dict:
    angle = float(rng.uniform(-math.pi, math.pi))
    if group_dim == 2:
        return {"angle": angle}
    return {"axis": [float(v) for v in rng.normal(size=3)], "angle": angle}


def matrix_sampled(rng: np.random.Generator) -> Workload:
    scenarios, items = {}, []
    for group_dim in (2, 3):
        name = f"so{group_dim}_quiver"
        scenarios[name] = {
            "crossed_module": f"so{group_dim}-conj", "seed": _seed(rng), "budget": MATRIX_BUDGET,
            "base": _chain_quiver(),
            "functors": {f: {o: _matrix_element(rng, group_dim) for o in "abc"}
                         for f in ("sigma1", "sigma2")},
        }
        items += [Item(f"{name}/{s}", name, s) for s in MATRIX_SUITES]
    return Workload(scenarios, items)


GENERATORS = {
    "finite-exhaustive": finite_exhaustive,
    "path-transport": path_transport,
    "matrix-sampled": matrix_sampled,
}


def generate(name: str, seed: int) -> Workload:
    return GENERATORS[name](np.random.default_rng([seed, sum(map(ord, name))]))


def so2_transport_oracle(scenario: dict, path_id: str) -> np.ndarray:
    """Exact SO(2) transport along a declared path: rotation2(-integral of A).

    SO(2) is abelian, so transport is the rotation by minus the integral of the
    connection's (1, 0) entry; on a linear segment with A linear in position
    the midpoint value times the displacement is that integral exactly."""
    conn = scenario["connection"]
    paths = scenario["base"]["paths"]
    const = [m[1][0] for m in conn["matrices"]]
    lin = [[m[1][0] for m in row] for row in conn["linear"]] if conn.get("linear") else None

    def integral(pid: str) -> float:
        decl = paths[pid]
        if isinstance(decl, dict):
            return sum(integral(piece) for piece in decl["compose"])
        total = 0.0
        for a, b in zip(decl[:-1], decl[1:]):
            mid = [(x + y) / 2 for x, y in zip(a, b)]
            for k, dk in enumerate(y - x for x, y in zip(a, b)):
                coeff = const[k] + (sum(mid[l] * lin[k][l] for l in range(len(mid))) if lin else 0.0)
                total += dk * coeff
        return total

    theta = -integral(path_id)
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])
