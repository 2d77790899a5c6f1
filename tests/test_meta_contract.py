"""The compiled ``meta`` block still holds what the benchmark reads.

``bench/workloads.py`` counts loop rounds from the ``check`` and ``probe``
ids of ``meta.instances`` and sums ``meta.stats.trigger_cells``, so a meta
edit that drops either would only surface in a benchmark run.  This pins the
key set and those two reads, and holds README's document example to the
same key set, and its circuit block to ``Circuit``'s sections and records.
"""
from __future__ import annotations

import dataclasses
import json
import re
import typing
from pathlib import Path

import pytest

from conftest import ADD, MU_MONUS
from murec import Circuit, Compose, Const, Succ, compile_program

META_KEYS = {"latency", "stats", "big_m", "instances"}
PROGRAMS = {
    "add": ADD,
    "mu_monus": MU_MONUS,
    "loop_free": Compose(Succ(), (Const(3, 1),)),
}


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_meta_holds_exactly_the_documented_keys(name):
    meta = compile_program(PROGRAMS[name]).meta
    assert set(meta) == META_KEYS
    assert set(meta["stats"]) == {"trigger_cells"}


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_every_loop_instance_names_its_round_counter(name):
    meta = compile_program(PROGRAMS[name]).meta
    round_keys = {"primrec": "check", "mu": "probe"}
    for instance in meta["instances"]:
        assert isinstance(instance[round_keys[instance["kind"]]], int), instance
    assert meta["stats"]["trigger_cells"] == 2 * len(meta["instances"])


def test_readme_document_example_shows_exactly_the_meta_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    formats = readme.split("\n## File formats\n", 1)[1]
    example = re.search(r"^```json\n(.*?)^```$", formats, re.MULTILINE | re.DOTALL)
    assert example, "no json block under File formats"
    doc = json.loads(example.group(1))
    assert set(doc["meta"]) == META_KEYS
    assert set(doc["meta"]["stats"]) == {"trigger_cells"}
    # Each section holds one record type, a tuple[Record, ...], written as arrays of its fields.
    hints = typing.get_type_hints(Circuit)
    assert list(doc["circuit"]) == [f.name for f in dataclasses.fields(Circuit)]
    for section, records in doc["circuit"].items():
        record, _ = typing.get_args(hints[section])
        assert records and {len(record._fields)} == set(map(len, records)), section
