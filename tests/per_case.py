"""Test helpers: each law's stream from numpy's generators, CaseSpace plans
as they come without blocks, a check that every block of a passing law
holds whole, parallel transport integrated one segment at a time (by the
stacked kernel's arithmetic, and by the f - I matrix integrator), random
paths drawn point by point, path samples deduplicated point by point, the
Prop 4.1 section laws element by element, b1-surjectivity on a listed
space, and the small builders only tests
use: cocycle data with one value perturbed, the non-identity morphisms of an
overlap category and the SO(2) generator."""
import zlib
from contextlib import contextmanager

import numpy as np
import pytest

from catbundle import report
from catbundle.basecat import QuiverCategory, SampledPath
from catbundle.bundle import FunctorUG, SectionIso
from catbundle.cocycle import CocycleData, OverlapCategory
from catbundle.crossed import CrossedModule
from catbundle.decorated import Connection
from catbundle.groups import StructuralError, skew_coords, skew_expm1
from catbundle.report import CaseSpace, LawReport
from catbundle.twisted import (EtaMap, TwistedBundle, TwistedMorphism, b1_ok, bundle_morphisms,
                               composable_chains, verify_action_functorial, verify_E_properties,
                               verify_twisted_bundle)


def law_streams(seed: int, make=np.random.default_rng):
    """Each law's stream for a verify operation, by law id:
    `make([seed, crc32(law)])`, numpy's generator by default."""
    return lambda law: make([seed, zlib.crc32(law.encode())])


def twisted_suites_jsonl(bundle: TwistedBundle, budget: int, streams) -> str:
    """The JSONL of the twisted-bundle suite, then of the e-action suite: the
    E-properties joined by action functoriality, as `catbundle run` files
    them."""
    e_action = verify_E_properties(bundle, budget, streams).extend(
        verify_action_functorial(bundle, budget, streams))
    return verify_twisted_bundle(bundle, budget, streams).to_jsonl() + e_action.to_jsonl()


@contextmanager
def per_case_plans():
    """Inside, `CaseSpace.plan` gives every case on its own: each block of a
    plan comes as its singles, built one case at a time from the same part
    columns (int codes, or draw numbers into the draws kept), so each law's
    `ok` sees single cases only."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(report, "_block", lambda k, singles, part: singles())
        yield


def whole_blocks(monkeypatch) -> dict:
    """Rebinds `report.run_law`, which every law reaches through
    `LawReport.law`: the mask of every Block a plan yields must hold on all
    its cases. run_law reruns a block from its first False case by case,
    which gives the same report, so a block path that wrongly says False
    only costs time unless this checks it. The plan is read as run_law reads
    it, so the RNG is drawn as without this. Returns {law: [blocks, single
    cases]} of the items run_law took."""
    seen, original = {}, report.run_law

    def run_law(law, anchor, plan, ok, witness):
        counts = seen[law] = [0, 0]

        def checked():
            for item in plan:
                block = isinstance(item, report.Block)
                counts[not block] += 1
                assert not block or np.all(ok(item.cases)), law
                yield item

        return original(law, anchor, report.Plan(checked(), plan.exhaustive, plan.space),
                        ok, witness)

    monkeypatch.setattr(report, "run_law", run_law)
    return seen


SO2_GEN = np.array([[0.0, -1.0], [1.0, 0.0]])


def segments(path: SampledPath):
    """The (start, end) sample pairs of a directly-sampled path, in order."""
    return zip(path.samples[:-1], path.samples[1:])


def perturbed_triple(data: CocycleData, cm: CrossedModule, i: int, j: int, k: int,
                     point: str, factor) -> CocycleData:
    """Copy of `data` with h_ijk at one point multiplied by `factor`."""
    triples = {key: dict(val) for key, val in data.triples.items()}
    triples[(i, j, k)][point] = cm.H.mul(factor, triples[(i, j, k)][point])
    return CocycleData({key: dict(val) for key, val in data.pairs.items()}, triples)


def perturbed_pair(data: CocycleData, cm: CrossedModule, i: int, j: int, point: str,
                   factor) -> CocycleData:
    """Copy of `data` with h_ij at one point multiplied by `factor`."""
    pairs = {key: dict(val) for key, val in data.pairs.items()}
    pairs[(i, j)][point] = cm.H.mul(factor, pairs[(i, j)][point])
    return CocycleData(pairs, {key: dict(val) for key, val in data.triples.items()})


def non_identity_morphisms(overlap: OverlapCategory) -> list:
    return [m for m in overlap.morphisms if not m.is_identity]


def _ordered_product(e: np.ndarray) -> np.ndarray:
    """f[s-1] ··· f[0] for the factors f[j] = I + e[j] of one (s, n, n) stack,
    by pairwise tree reduction, the later factor on the left."""
    while len(e) > 1:
        later, earlier = e[1::2], e[:len(e) - 1:2]
        paired = later + earlier + later @ earlier
        e = paired if len(e) % 2 == 0 else np.concatenate([paired, e[-1:]])
    return np.eye(e.shape[-1]) + e[0]


def reference_evaluate(conn: Connection, points: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """A(point) applied to one `vector` at each of the (s, dim) `points`, as
    one segment's call computed it before evaluation was stacked: one matmul
    per coefficient array on the 1-d vector, and the skew check on its
    values alone."""
    n, dim = conn.group_dim, conn.base_dim
    shape = points.shape[:-1] + (n, n)
    out = (vector @ conn.constant.reshape(dim, n * n)).reshape(n, n)
    if conn.linear is not None:
        per_point = (vector @ conn.linear.reshape(dim, dim * n * n)).reshape(dim, n * n)
        out = out + (points @ per_point).reshape(shape)
    if not abs(out + out.swapaxes(-1, -2)).max() <= 1e-10:
        raise StructuralError("connection value is not skew")
    return out if conn.linear is not None else np.broadcast_to(out, shape)


def skew_expm1_batch(a: np.ndarray) -> np.ndarray:
    """exp(a) - I for each matrix in an (s, n, n) stack of 2x2 or 3x3 skew
    matrices, in closed form (angles for SO(2), Rodrigues with a small-angle
    series for SO(3)), 1 - cos taken as 2·sin^2(theta/2)."""
    n = a.shape[-1]
    if n == 2:
        theta = a[:, 1, 0]
        s, cm1 = np.sin(theta), -2.0 * np.sin(theta / 2) ** 2
        out = np.empty(a.shape)
        out[:, 0, 0], out[:, 0, 1], out[:, 1, 0], out[:, 1, 1] = cm1, -s, s, cm1
        return out
    theta2 = a[:, 2, 1] ** 2 + a[:, 0, 2] ** 2 + a[:, 1, 0] ** 2
    theta = np.sqrt(theta2)
    small = theta < 1e-8
    safe = np.where(small, 1.0, theta)  # keeps the discarded branch finite
    c1 = np.where(small, 1.0 - theta2 / 6.0, np.sin(safe) / safe)
    c2 = np.where(small, 0.5 - theta2 / 24.0, 0.5 * (np.sin(safe / 2) / (safe / 2)) ** 2)
    return c1[:, None, None] * a + c2[:, None, None] * (a @ a)


def _folded(segment_product, conn: Connection, path, steps: int) -> np.ndarray:
    """`segment_product(a, d)` of each nonzero segment (start a, substep
    displacement d) folded left in path order, exactly I if there is none; a
    composite is the product of its pieces'."""
    if path.pieces is not None:
        first, second = path.pieces
        return (_folded(segment_product, conn, second, steps)
                @ _folded(segment_product, conn, first, steps))
    if steps < 1:
        raise StructuralError("need at least one integration substep per segment")
    total = None
    for a, b in segments(path):
        if np.any(b - a):
            seg = segment_product(a, (b - a) / steps)
            total = seg if total is None else seg @ total
    return np.eye(conn.group_dim) if total is None else total


def matrix_transport(conn: Connection, path, steps: int) -> np.ndarray:
    """Transport by the f - I matrix integrator, a tolerance reference: per
    nonzero segment, A evaluated at every substep midpoint, each factor
    exp(-A·d) - I by `skew_expm1_batch`, and their ordered product."""
    offsets = (np.arange(steps) + 0.5)[:, None]
    return _folded(lambda a, d: _ordered_product(
        skew_expm1_batch(-reference_evaluate(conn, a + offsets * d, d))), conn, path, steps)


def reference_transport(conn: Connection, path, steps: int) -> np.ndarray:
    """Transport by the stacked kernel's arithmetic, one segment at a time:
    A·d at the first and the last midpoint by `reference_evaluate` (both
    skew-checked), the first factor's angle or rotation vector v and its
    per-substep slope from the linear coefficients; on SO(2) the rotation by
    the summed angles, on SO(3) the factors of v + j·slope and their ordered
    product, each rotation or factor as I + `groups.skew_expm1`."""
    n, dim = conn.group_dim, conn.base_dim

    def product(a, d):
        v = -skew_coords(reference_evaluate(conn, a + np.array([[0.5], [steps - 0.5]]) * d, d)[0])
        slope = np.zeros_like(v)
        if conn.linear is not None:
            lin = skew_coords(conn.linear).reshape(dim, -1)
            slope = -(d[None] @ (d[None] @ lin).reshape(dim, -1))[0]
        if n == 3:
            return _ordered_product(skew_expm1(v + np.arange(steps)[:, None] * slope))
        return np.eye(2) + skew_expm1(steps * (v + (steps - 1) / 2 * slope))

    return _folded(product, conn, path, steps)


def reference_random_path(dim: int, rng, n_segments=None, start=None, scale=1.0) -> SampledPath:
    """A random path drawn point by point: one `integers` draw for the
    segment count unless given, one `uniform` draw for the start unless
    given, then one per step, each added to the point before."""
    if n_segments is None:
        n_segments = int(rng.integers(1, 4))
    if start is None:
        start = rng.uniform(-1.0, 1.0, size=dim)
    pts = [np.asarray(start, dtype=float)]
    for _ in range(n_segments):
        pts.append(pts[-1] + rng.uniform(-scale, scale, size=dim))
    return SampledPath(np.stack(pts))


def reference_dedup(samples: np.ndarray, tol: float) -> np.ndarray:
    """Samples with each point dropped that lies within `tol` (max-abs) of
    the last point kept, the first always kept; a path left with one point
    gets its last sample back as a second."""
    keep = [samples[0]]
    for p in samples[1:]:
        if np.max(np.abs(p - keep[-1])) > tol:
            keep.append(p)
    if len(keep) == 1:
        keep.append(samples[-1])
    return np.array(keep)


def reference_b1_surjectivity(base: QuiverCategory, cm: CrossedModule, budget: int,
                              streams) -> LawReport:
    """bundle-axioms' b1-surjectivity as a listed space: the objects, then the
    morphisms, of the product bundle, each lifted through the unit and
    checked on its own."""
    report = LawReport(suite="bundle-axioms", budget=budget, streams=streams)
    bundle = TwistedBundle(base, cm, EtaMap.trivial(base, cm))
    report.law(
        "b1-surjectivity", "§2.2 (b1)", CaseSpace.finite(list(base.objects) + base.morphisms_upto()),
        lambda x: b1_ok(bundle, TwistedMorphism(base.identity(x) if isinstance(x, str) else x,
                                                cm.unit)),
        lambda x: {"missing": repr(x)},
    )
    return report


def reference_section_iso(F: FunctorUG, budget: int, streams) -> LawReport:
    """The prop41-section laws element by element: the objects and the
    bundle morphisms listed whole, objects as (name, code) tuples, and each
    bijectivity law one case that walks them in a loop."""
    report = LawReport(suite="prop41-section", budget=budget, streams=streams)
    base, cm = F.base, F.cm
    iso = SectionIso(F)
    bundle = iso.bundle
    objects = [(a, g) for a in base.objects for g in cm.G.elements]
    morphisms = list(bundle_morphisms(bundle))

    report.law(
        "section-projection", "Prop 4.1", CaseSpace.finite(list(base.objects)),
        lambda a: iso.on_object(a, cm.G.identity)[0] == a, lambda a: {"object": a},
    )
    report.law(
        "equivariance-objects", "Eq 4.4", CaseSpace.product(objects, cm.G.elements),
        lambda p: cm.G.eq(
            iso.on_object(*bundle.act_object(p[0], p[1]))[1],
            cm.G.mul(iso.on_object(*p[0])[1], p[1]),
        ),
        lambda p: {"object": str(p[0][0])},
    )
    report.law(
        "equivariance-morphisms", "Eq 4.4",
        CaseSpace.product(bundle_morphisms(bundle), cm.morphism_space()),
        lambda p: bundle.morphism_eq(
            iso.on_morphism(bundle.act(p[0], p[1])),
            bundle.act(iso.on_morphism(p[0]), p[1]),
        ),
        lambda p: {"gamma": repr(p[0].gamma)},
    )
    report.law(
        "fiber-preservation", "Prop 4.1", CaseSpace.finite(objects + morphisms),
        lambda x: ((iso.on_object(*x)[0] == x[0]) if isinstance(x, tuple)
                   else (iso.on_morphism(x).gamma == x.gamma)),
        lambda x: {"case": "fiber"},
    )

    def obj_bij(_):
        seen = {}  # each image, and the first object mapped to it
        for x in objects:
            y = iso.on_object(*x)
            if y in seen:
                return {"collision": f"{seen[y]} vs {x}"}
            seen[y] = x
        for x in objects:  # surjectivity via the explicit inverse
            back = iso.on_object(*iso.inv_object(*x))
            if not (back[0] == x[0] and cm.G.eq(back[1], x[1])):
                return {"no-preimage": str(x[0])}
        return None

    report.law(
        "bijectivity-objects", "Prop 4.1",
        CaseSpace.finite([0]), lambda c: obj_bij(c) is None, obj_bij)

    def mor_bij(_):
        keys = set()
        for tm in morphisms:
            y = iso.on_morphism(tm)
            k = (y.gamma, y.m.h, y.m.g)
            if k in keys:
                return {"collision": repr(tm.gamma)}
            keys.add(k)
        for tm in morphisms:
            back = iso.on_morphism(iso.inv_morphism(tm))
            if not bundle.morphism_eq(back, tm):
                return {"no-preimage": repr(tm.gamma)}
        return None

    report.law(
        "bijectivity-morphisms", "Prop 4.1",
        CaseSpace.finite([0]), lambda c: mor_bij(c) is None, mor_bij)

    report.law(
        "composition-preservation", "Eq 4.5", composable_chains(bundle, 2),
        lambda p: bundle.morphism_eq(
            iso.on_morphism(bundle.compose(p[0], p[1])),
            bundle.compose(iso.on_morphism(p[0]), iso.on_morphism(p[1])),
        ),
        lambda p: {"gamma2": repr(p[0].gamma), "gamma1": repr(p[1].gamma)},
    )
    return report
