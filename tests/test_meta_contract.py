"""The compiled ``meta`` block still holds what the benchmark reads.

``bench/workloads.py`` counts loop rounds from the ``check`` and ``probe``
ids of ``meta.instances`` and sums ``meta.stats.trigger_cells``, so a meta
edit that drops either would only surface in a benchmark run.  This pins the
key set and those two reads.
"""
from __future__ import annotations

import pytest

from conftest import ADD, MU_MONUS
from murec import Compose, Const, Succ, compile_program

META_KEYS = {"ports", "latency", "stats", "big_m", "instances"}
PROGRAMS = {
    "add": ADD,
    "mu_monus": MU_MONUS,
    "loop_free": Compose(Succ(), (Const(3, 1),)),
}


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_meta_holds_exactly_the_documented_keys(name):
    assert set(compile_program(PROGRAMS[name]).meta) == META_KEYS


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_every_loop_instance_names_its_round_counter(name):
    meta = compile_program(PROGRAMS[name]).meta
    round_keys = {"primrec": "check", "mu": "probe"}
    for instance in meta["instances"]:
        assert isinstance(instance[round_keys[instance["kind"]]], int), instance
    assert meta["stats"]["trigger_cells"] == 2 * len(meta["instances"])
