"""Direct unit tests for the public scenario cache-key helpers.

The serve layer's single-flight coalescing map and the sweep/ledger
path must provably agree on scenario identity — both must assemble the
*same* sha256 key for the same compilation. These tests pin that
agreement down on :func:`repro.flow.sweep.scenario_key` /
:func:`scenario_key_doc`, the single assembly site everything routes
through.
"""

from __future__ import annotations

import itertools

import pytest

from repro.flow.artifacts import ArtifactStore
from repro.flow.sweep import (
    ScenarioSpec,
    run_sweep,
    scenario_key,
    scenario_key_doc,
)
from repro.utils import jsonable, stable_digest


def test_scenario_key_matches_spec_method():
    spec = ScenarioSpec(workload="prae", device="zcu104", precision="INT8")
    assert scenario_key(spec) == spec.cache_key()
    assert scenario_key_doc(spec) == spec.key_doc()


def test_scenario_key_is_digest_of_key_doc():
    spec = ScenarioSpec(workload="prae")
    assert scenario_key(spec) == stable_digest(
        scenario_key_doc(spec), length=32
    )


def test_scenario_key_hashes_the_canonical_key_doc_over_a_grid():
    """The one-walk hash equals ``stable_digest`` of the key document on
    every registry workload and a synth seed, x 2 devices x 3 precisions
    x 2 backends x accuracy off/on (144 specs)."""
    workloads = ("nvsa", "mimonet", "lvrf", "prae", "scalable_nsai", "synth")
    specs = [
        ScenarioSpec(
            workload=workload,
            overrides=(("seed", 5),) if workload == "synth" else (),
            device=device, precision=precision, backend=backend,
            accuracy=accuracy,
        )
        for workload, device, precision, backend, accuracy in itertools.product(
            workloads, ("u250", "zcu104"), ("FP16", "INT8", "MP"),
            ("analytic", "schedule"), (False, True),
        )
    ]
    assert len(specs) == 144
    keys = [scenario_key(spec) for spec in specs]
    assert keys == [stable_digest(scenario_key_doc(s), 32) for s in specs]
    assert len(set(keys)) == 144


@pytest.mark.parametrize("spec, key", [
    (ScenarioSpec(workload="prae"), "0e2ca339ad9891fa340a00f7389c6d46"),
    # perfbench/reference.json's first sweep key.
    (ScenarioSpec(workload="synth", overrides=(("seed", 0),)),
     "acaff210d12a37d849e5d53163a1f17f"),
])
def test_keys_are_pinned(spec, key):
    """A change to the key document re-keys every store; it must be
    deliberate (an ``ENGINE_CACHE_EPOCH`` or format bump), never silent."""
    assert scenario_key(spec) == key


def test_scenario_key_deterministic_across_constructions():
    """Equal compilations hash equal, however the spec was spelled."""
    a = ScenarioSpec(
        workload="synth", overrides=(("seed", 3), ("n_ops", 12))
    )
    b = ScenarioSpec(
        workload="synth", overrides=(("n_ops", 12), ("seed", 3))
    )
    assert scenario_key(a) == scenario_key(b)


@pytest.mark.parametrize(
    "field, value",
    [
        ("device", "zcu104"),
        ("precision", "INT8"),
        ("iter_max", 4),
        ("loops", 2),
        ("max_pes", 1024),
        ("backend", "schedule"),
        ("overrides", (("seed", 7),)),
        ("overrides", (("n_ops", 12),)),
        ("accuracy", True),
        ("workload", "prae"),
    ],
)
def test_result_affecting_fields_change_the_key(field, value):
    base = ScenarioSpec(workload="synth")
    changed = ScenarioSpec(**{"workload": "synth", field: value})
    assert scenario_key(base) != scenario_key(changed)


def test_key_doc_is_jsonable():
    """The doc must survive canonical-JSON hashing and store metadata."""
    doc = scenario_key_doc(ScenarioSpec(workload="prae"))
    assert jsonable(doc) == doc
    assert doc["workload"]["name"] == "prae"
    assert doc["engine"]["backend"]["name"] == "analytic"


def test_run_sweep_stores_under_scenario_key(tmp_path):
    """The sweep path files artifacts under exactly this key."""
    spec = ScenarioSpec(workload="synth", overrides=(("seed", 0),))
    store = ArtifactStore(tmp_path / "cache")
    result = run_sweep([spec], store=store)
    assert result.n_errors == 0
    key = scenario_key(spec)
    assert result.outcomes[0].key == key
    assert store.load(key) is not None
