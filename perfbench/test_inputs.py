"""The generator's equivalence check: renamed variants differ only in name.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_inputs.py

Every variant the benchmark can send must be a new cache key (its
``query_digest`` differs from every other variant's) and must ask the
solver the same question as the original (equal synthesis statistics).
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import inputs
import pytest
import run

from repro.service import api
from repro.service.cache import query_digest
from repro.syntax.parser import parse_program

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"
SOURCES = inputs.load_sources(EXAMPLES)
#: (seed, index) pairs: two requests of one run, and the same index under
#: other seeds.
VARIANTS = ((0, 0), (0, 1), (7, 0), (123456, 98))
STATISTICS = ("generated", "pruned_early", "goal_checks", "abductions")


def _digest(request: inputs.Request) -> str:
    program = parse_program(request.text)
    if request.kind.verb == "check":
        return query_digest("check", program, {"workers": 1})
    body = request.body()
    options = {
        "only": body["only"],
        "depth": body["depth"],
        "max_conditionals": 2,
        "max_matches": 1,
        "workers": 1,
    }
    return query_digest("synth", program, options)


def _synth_statistics(text: str, goal: str, depth: int) -> dict:
    payload = api.compute_synth(parse_program(text), only=goal, depth=depth)
    (item,) = payload["items"]
    assert item["solved"] and item["verified"]
    return {key: item["statistics"][key] for key in STATISTICS}


def test_every_variant_has_its_own_digest():
    digests = [
        _digest(inputs.make_request(SOURCES, kind, seed, index))
        for kind in inputs.KINDS.values()
        for seed, index in VARIANTS
    ]
    assert len(set(digests)) == len(digests)


@pytest.mark.parametrize(
    "kind", [k for k in inputs.KINDS.values() if k.verb == "synth"], ids=lambda k: k.name
)
def test_variants_keep_the_original_synthesis_statistics(kind):
    original = _synth_statistics(SOURCES[kind.source], kind.goal, kind.depth)
    for seed, index in VARIANTS:
        request = inputs.make_request(SOURCES, kind, seed, index)
        renamed = _synth_statistics(request.text, request.body()["only"], kind.depth)
        assert renamed == original, (kind.name, seed, index)


def test_rename_keeps_the_prelude_and_moves_primes_last():
    tag = inputs.suffix(3, 4)
    assert inputs.rename("Cons x xs' -> len(xs) + nu", tag) == (
        f"Cons x{tag} xs{tag}' -> len(xs{tag}) + nu"
    )


def test_schedule_keeps_each_share_per_round():
    weights = (("check-ok", 2), ("synth-max", 1))
    kinds = list(itertools.islice(inputs.schedule(weights, seed=5), 30))
    for start in range(0, 30, 3):
        names = sorted(kind.name for kind in kinds[start : start + 3])
        assert names == ["check-ok", "check-ok", "synth-max"]
    assert kinds == list(itertools.islice(inputs.schedule(weights, seed=5), 30))


def test_layer_predictions_cover_every_per_layer_metric():
    root = Path(__file__).resolve().parent
    bench = json.loads((root.parent / "BENCHMARK.json").read_text())
    layers = json.loads((root / "layers.json").read_text())
    names = {metric["name"] for metric in bench["per_layer"]}
    assert set(layers["metrics"]) == names
    assert set(layers["workloads"]) == {w["name"] for w in bench["workloads"]}
    assert set(run.SELF_TIME.values()) | set(run.PER_OP_COUNTS) | set(run.RATIOS) <= names
