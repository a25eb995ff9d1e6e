"""Test helpers: CaseSpace plans as they come without blocks, a check that
every block of a passing law holds whole, parallel transport integrated one
segment at a time, and random paths drawn point by point."""
from contextlib import contextmanager

import numpy as np
import pytest

from catbundle import bundle, cocycle, crossed, decorated, report, twisted
from catbundle.basecat import SampledPath
from catbundle.decorated import Connection
from catbundle.groups import StructuralError, skew_expm1_batch


@contextmanager
def per_case_plans():
    """Inside, `CaseSpace.plan` gives every case on its own: each block of a
    plan comes as its singles, built one case at a time from the same part
    columns, or drawn one case at a time from the block's saved RNG state,
    so each law's `ok` sees single cases only."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(report, "_block", lambda k, stacked, singles: singles())
        yield


def whole_blocks(monkeypatch) -> dict:
    """Rebinds `run_law` wherever a law calls it: the mask of every Block a
    plan yields must hold on all its cases. run_law reruns a block from its
    first False case by case, which gives the same report, so a block path
    that wrongly says False only costs time unless this checks it. The plan
    is read as run_law reads it, so the RNG is drawn as without this.
    Returns {law: [blocks, single cases]} of the items run_law took."""
    seen = {}

    def run_law(law, anchor, plan, ok, witness):
        counts = seen[law] = [0, 0]

        def checked():
            for item in plan:
                block = isinstance(item, report.Block)
                counts[not block] += 1
                assert not block or np.all(ok(item.cases)), law
                yield item

        return report.run_law(law, anchor, report.Plan(checked(), plan.exhaustive, plan.space),
                              ok, witness)

    for module in (bundle, cocycle, crossed, decorated, twisted):
        monkeypatch.setattr(module, "run_law", run_law)
    return seen


def _ordered_product(e: np.ndarray) -> np.ndarray:
    """f[s-1] ··· f[0] for the factors f[j] = I + e[j] of one (s, n, n) stack,
    by pairwise tree reduction, the later factor on the left."""
    while len(e) > 1:
        later, earlier = e[1::2], e[:len(e) - 1:2]
        paired = later + earlier + later @ earlier
        e = paired if len(e) % 2 == 0 else np.concatenate([paired, e[-1:]])
    return np.eye(e.shape[-1]) + e[0]


def reference_transport(conn: Connection, path, steps: int) -> np.ndarray:
    """Transport integrated segment by segment: one evaluate, one
    skew_expm1_batch and one ordered product per nonzero segment, folded
    left in path order; a composite is the product of its pieces'."""
    if path.pieces is not None:
        first, second = path.pieces
        return reference_transport(conn, second, steps) @ reference_transport(conn, first, steps)
    if steps < 1:
        raise StructuralError("need at least one integration substep per segment")
    offsets = (np.arange(steps) + 0.5)[:, None]
    total = None
    for a, b in path.segments():
        delta = b - a
        if not np.any(delta):
            continue
        d = delta / steps
        seg = _ordered_product(skew_expm1_batch(-conn.evaluate(a + offsets * d, d)))
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
