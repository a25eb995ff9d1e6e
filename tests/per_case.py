"""Test helpers: CaseSpace plans as they come without blocks, a check that
every block of a passing law holds whole, and parallel transport integrated
one segment at a time."""
from contextlib import contextmanager

import numpy as np
import pytest

from catbundle import bundle, cocycle, crossed, decorated, report, twisted
from catbundle.decorated import Connection
from catbundle.groups import StructuralError, skew_expm1_batch


@contextmanager
def per_case_plans():
    """Inside, `CaseSpace.plan` gives every case on its own: no space counts
    as coded, an open sampled space is drawn one case per `draw`, and the
    lists of a counted product are drawn case by case and enumerated, so
    each law's `ok` sees single cases only. A sampled plan decodes each
    pick with `space[i]`, which here decodes each case of a space once: a
    coded space decodes a single case with numpy calls, slow per pick."""
    decoded = {}
    getitem = report.CaseSpace.__getitem__

    def once(space, i):
        key = id(space), i
        if key not in decoded:
            decoded[key] = space, getitem(space, i)  # the space keeps its id
        return decoded[key][1]

    def draws(space, budget, rng):
        return (space.draw(rng) for _ in range(budget))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(report, "_is_coded", lambda axis: False)
        mp.setattr(report, "_blocks", draws)
        mp.setattr(report, "_draw_list", lambda axis, n, rng: list(draws(axis, n, rng)))
        mp.setattr(report, "_gathered", lambda lists, build: report._cases(
            report.CaseSpace.product(*lists, build=build)))
        mp.setattr(report.CaseSpace, "__getitem__", once)
        yield


def whole_blocks(monkeypatch) -> dict:
    """Rebinds `run_law` wherever a law calls it: each law's plan is listed
    first, and the mask of every Block in it must hold on all its cases.
    run_law reruns a block from its first False case by case, which gives
    the same report, so a block path that wrongly says False only costs time
    unless this checks it. Returns {law: [blocks, single cases]}."""
    seen = {}

    def run_law(law, anchor, plan, ok, witness):
        items = list(plan)
        blocks = [item for item in items if isinstance(item, report.Block)]
        seen[law] = [len(blocks), len(items) - len(blocks)]
        for block in blocks:
            assert np.all(ok(block.cases)), law
        return report.run_law(law, anchor, report.Plan(items, plan.exhaustive, plan.space),
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
