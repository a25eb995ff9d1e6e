"""Blocks against single cases: every shipped scenario × suite, on a quiver
or a path base, and every input behind a committed golden gives the same
JSONL bytes on seeds 1-3 with blocked plans as with every case checked on its
own; every block of a passing shipped quiver law holds whole; and no witness
or error message formats a block."""
import json
from pathlib import Path

import numpy as np
import pytest

from catbundle.basecat import QuiverCategory
from catbundle.bundle import (
    enumerate_functors,
    verify_bundle_axioms,
    verify_GU_categorical_group,
    verify_section_iso,
)
from catbundle.crossed import get_module, verify_crossed_module, verify_exchange_law
from catbundle.groups import Group, SpecialOrthogonalGroup, SymmetricGroup
from catbundle.scenario import Scenario
from catbundle.suites import run_suite
from catbundle.twisted import EtaMap, TwistedBundle
from per_case import law_streams, per_case_plans, twisted_suites_jsonl, whole_blocks
from test_finite_blocks import alpha_mutant as s3_mutant
from test_so_blocks import alpha_mutant as so3_mutant
from test_transport_stack import transport_mutant_jsonl

SCEN = Path(__file__).resolve().parents[1] / "scenarios"


def chain(word_bound: int = 3) -> QuiverCategory:
    return QuiverCategory(["a", "b", "c"], [("f", "a", "b"), ("g", "b", "c")], word_bound)


def shipped():
    for path in sorted(SCEN.glob("*.json")):
        for suite in json.loads(path.read_text()).get("suites", []):
            yield path.stem, suite


def shipped_jsonl(name: str, suite: str, seed: int) -> str:
    raw = json.loads((SCEN / f"{name}.json").read_text())
    return run_suite(Scenario({**raw, "seed": seed}), suite).to_jsonl()


def crossed_jsonl(cm, budget: int, seed: int) -> str:
    return (verify_crossed_module(cm, budget, law_streams(seed)).to_jsonl()
            + verify_exchange_law(cm, budget, law_streams(seed)).to_jsonl())


def twisted_jsonl(base, cm, eta: EtaMap, budget: int, seed: int) -> str:
    return twisted_suites_jsonl(TwistedBundle(base, cm, eta), budget, law_streams(seed))


def mutant_twisted_jsonl(budget: int, seed: int) -> str:
    base, cm = chain(), s3_mutant()
    return (verify_bundle_axioms(base, cm, budget, law_streams(seed)).to_jsonl()
            + twisted_jsonl(base, cm, EtaMap.from_table(base, cm, {"f": 3, "g": 1}), budget, seed)
            + verify_section_iso(enumerate_functors(base, cm)[100], budget,
                                 law_streams(seed)).to_jsonl())


def raw_eta_jsonl(f: int, g: int, seed: int) -> str:
    base, cm = chain(word_bound=1), get_module("s3-conj")
    return twisted_jsonl(base, cm, EtaMap.from_raw(base, cm, {(): 0, ("f",): f, ("g",): g}), 20000, seed)


def loop_jsonl(seed: int) -> str:
    base, cm = QuiverCategory(["a"], [("l", "a", "a")], word_bound=2), get_module("s3-conj")
    return (verify_bundle_axioms(base, cm, 20000, law_streams(seed)).to_jsonl()
            + twisted_jsonl(base, cm, EtaMap.from_table(base, cm, {"l": 4}), 20000, seed))


# the inputs of the goldens of test_finite_blocks, test_so_blocks,
# test_twisted_blocks and test_transport_stack, each as a function of the seed
GOLDEN_INPUTS = {
    **{f"s3_alpha_mutant_{b}": lambda seed, b=b: crossed_jsonl(s3_mutant(), b, seed)
       for b in (200, 1000, 46656)},
    **{f"s3_alpha_mutant_gu_{b}": lambda seed, b=b: verify_GU_categorical_group(
        QuiverCategory(["a", "b"], [("f", "a", "b")], word_bound=2), s3_mutant(), b,
        law_streams(seed)).to_jsonl() for b in (300, 3000)},
    **{f"s3_alpha_mutant_twisted_{b}": lambda seed, b=b: mutant_twisted_jsonl(b, seed)
       for b in (300, 20000)},
    **{f"so3_alpha_mutant_{t}": lambda seed, t=t: crossed_jsonl(so3_mutant(t), 3000, seed)
       for t in (0.99, 0.999)},
    **{f"so3_alpha_mutant_transport_{t}": lambda seed, t=t: transport_mutant_jsonl(t, seed)
       for t in (0.9, 0.99)},
    "s3_loop_quiver": loop_jsonl,
    "s3_raw_eta_undefined": lambda seed: raw_eta_jsonl(3, 1, seed),
    "s3_raw_eta_undefined_elsewhere_trivial": lambda seed: raw_eta_jsonl(0, 0, seed),
}


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name, suite", list(shipped()))
def test_shipped_suites_give_the_same_bytes_per_case(name, suite, seed, monkeypatch):
    blocked = shipped_jsonl(name, suite, seed)
    seen = whole_blocks(monkeypatch)
    with per_case_plans():
        assert shipped_jsonl(name, suite, seed) == blocked
    assert seen and not any(blocks for blocks, _ in seen.values())  # no Block reached run_law


# on a quiver, every twisted-bundle, e-action and bundle-axioms law runs in
# blocks, b1-surjectivity's objects-then-morphisms space too
IN_BLOCKS = {"twisted-bundle", "e-action", "bundle-axioms"}


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name, suite", [
    (name, suite) for name, suite in shipped() if not name.startswith("negative")
    and json.loads((SCEN / f"{name}.json").read_text())["base"]["kind"] == "quiver"])
def test_shipped_quiver_laws_pass_in_whole_blocks(name, suite, seed, monkeypatch):
    raw = json.loads((SCEN / f"{name}.json").read_text())
    seen = whole_blocks(monkeypatch)
    assert run_suite(Scenario({**raw, "seed": seed}), suite).passed
    if suite in IN_BLOCKS:
        assert all(singles == 0 for _, singles in seen.values())


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(GOLDEN_INPUTS))
def test_golden_inputs_give_the_same_bytes_per_case(name, seed):
    blocked = GOLDEN_INPUTS[name](seed)
    with per_case_plans():
        assert GOLDEN_INPUTS[name](seed) == blocked


def test_no_witness_or_error_formats_a_block(monkeypatch):
    # every element formatted while the negative scenarios and the S3 and
    # SO(3) alpha mutants fail is one case: a finite code, or one matrix
    seen = []
    for cls in (Group, SymmetricGroup, SpecialOrthogonalGroup):
        fmt = cls.fmt
        monkeypatch.setattr(cls, "fmt", lambda self, a, fmt=fmt: seen.append((self, a)) or fmt(self, a))
    for name in ("negative_broken_module", "negative_eta"):
        for suite in json.loads((SCEN / f"{name}.json").read_text())["suites"]:
            shipped_jsonl(name, suite, 1)
    for name, run in GOLDEN_INPUTS.items():
        if "alpha_mutant" in name:
            run(1)
    assert seen
    for group, a in seen:
        if isinstance(group, SpecialOrthogonalGroup):
            assert np.shape(a) == (group.n, group.n)
        else:
            assert not isinstance(a, np.ndarray)
