"""A test helper: CaseSpace plans as they come without blocks."""
from contextlib import contextmanager

import pytest

from catbundle import report


@contextmanager
def per_case_plans():
    """Inside, `CaseSpace.plan` gives every case on its own: no space counts
    as coded, and an open stackable space is drawn one case per `draw`, so
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

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(report, "_is_coded", lambda axis: False)
        mp.setattr(report, "_blocks",
                   lambda space, budget, rng: (space.draw(rng) for _ in range(budget)))
        mp.setattr(report.CaseSpace, "__getitem__", once)
        yield
