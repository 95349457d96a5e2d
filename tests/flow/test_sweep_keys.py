"""Direct unit tests for the public scenario cache-key helpers.

The serve layer's single-flight coalescing map and the sweep/ledger
path must provably agree on scenario identity — both must assemble the
*same* sha256 key for the same compilation. These tests pin that
agreement down on :func:`repro.flow.sweep.scenario_key` /
:func:`scenario_key_doc`, the single assembly site everything routes
through.
"""

from __future__ import annotations

import pytest

from repro.flow.artifacts import ArtifactStore, scenario_cache_key
from repro.flow.sweep import (
    ScenarioSpec,
    run_sweep,
    scenario_key,
    scenario_key_doc,
)
from repro.utils import jsonable, stable_digest
from repro.workloads import workload_config


def test_scenario_key_matches_spec_method():
    spec = ScenarioSpec(workload="prae", device="zcu104", precision="INT8")
    assert scenario_key(spec) == spec.cache_key()
    assert scenario_key_doc(spec) == spec.key_doc()


def test_scenario_key_is_digest_of_key_doc():
    spec = ScenarioSpec(workload="prae")
    assert scenario_key(spec) == stable_digest(
        scenario_key_doc(spec), length=32
    )


def test_scenario_key_matches_store_helper():
    """The sweep helper and the store's kwargs helper assemble one key."""
    spec = ScenarioSpec(workload="prae", iter_max=4, loops=2)
    assert scenario_key(spec) == scenario_cache_key(
        workload=spec.workload,
        workload_config=jsonable(workload_config(spec.workload)),
        device=spec.device_obj,
        precision=spec.precision_obj,
        iter_max=spec.iter_max,
        loops=spec.loops,
        max_pes=spec.resolved_max_pes(),
        backend=spec.backend,
    )


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
