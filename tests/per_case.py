"""A test helper: CaseSpace plans as they come without blocks."""
from contextlib import contextmanager

import pytest

from catbundle import report


@contextmanager
def per_case_plans():
    """Inside, `CaseSpace.plan` gives every case on its own: no space counts
    as coded, and an open stackable space is drawn one case per `draw`, so
    each law's `ok` sees single cases only."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(report, "_is_coded", lambda axis: False)
        mp.setattr(report, "_blocks",
                   lambda space, budget, rng: (space.draw(rng) for _ in range(budget)))
        yield
