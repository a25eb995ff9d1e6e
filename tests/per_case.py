"""Test helpers: each law's stream from numpy's generators, CaseSpace plans
as they come without blocks, a check that every block of a passing law
holds whole, parallel transport integrated one segment at a time by the
evaluation formula of one segment's own call, random paths drawn point by
point, path samples deduplicated point by point, and the small builders
only tests use: cocycle data with one value perturbed, the non-identity
morphisms of an overlap category and the SO(2) generator."""
import zlib
from contextlib import contextmanager

import numpy as np
import pytest

from catbundle import report
from catbundle.basecat import SampledPath
from catbundle.cocycle import CocycleData, OverlapCategory
from catbundle.crossed import CrossedModule
from catbundle.decorated import Connection
from catbundle.groups import StructuralError, skew_expm1_batch


def law_streams(seed: int, make=np.random.default_rng):
    """Each law's stream for a verify operation, by law id:
    `make([seed, crc32(law)])`, numpy's generator by default."""
    return lambda law: make([seed, zlib.crc32(law.encode())])


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


def reference_transport(conn: Connection, path, steps: int) -> np.ndarray:
    """Transport integrated segment by segment: one `reference_evaluate`,
    one skew_expm1_batch and one ordered product per nonzero segment, folded
    left in path order; a composite is the product of its pieces'."""
    if path.pieces is not None:
        first, second = path.pieces
        return reference_transport(conn, second, steps) @ reference_transport(conn, first, steps)
    if steps < 1:
        raise StructuralError("need at least one integration substep per segment")
    offsets = (np.arange(steps) + 0.5)[:, None]
    total = None
    for a, b in segments(path):
        delta = b - a
        if not np.any(delta):
            continue
        d = delta / steps
        seg = _ordered_product(skew_expm1_batch(-reference_evaluate(conn, a + offsets * d, d)))
        total = seg if total is None else seg @ total
    return np.eye(conn.group_dim) if total is None else total


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
