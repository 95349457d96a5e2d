"""Unit tests for the content-addressed artifact store."""

import json

import artifacts_oracle
import pytest

import repro.flow.artifacts as artifacts_module
from repro import NSFlow, build_workload
from repro.arch.resources import U250, ZCU104
from repro.flow.artifacts import (
    ARTIFACT_FORMAT_VERSION,
    ArtifactStore,
    scenario_cache_key,
)
from repro.flow.sweep import ScenarioGrid, run_sweep
from repro.quant import MIXED_PRECISION_PRESETS
from repro.trace.serialize import trace_fingerprint
from repro.utils import jsonable
from repro.workloads import available_workloads, workload_config


def _key(**overrides):
    kwargs = dict(
        workload="mimonet",
        workload_config=jsonable(workload_config("mimonet")),
        device=U250,
        precision=MIXED_PRECISION_PRESETS["MP"],
        iter_max=8,
        loops=1,
        max_pes=8192,
    )
    kwargs.update(overrides)
    return scenario_cache_key(**kwargs)


@pytest.fixture(scope="module")
def compiled():
    return NSFlow(device=U250).compile(build_workload("mimonet"))


class TestCacheKey:
    def test_deterministic(self):
        assert _key() == _key()

    def test_sensitive_to_every_input(self):
        base = _key()
        assert _key(workload="nvsa",
                    workload_config=jsonable(workload_config("nvsa"))) != base
        assert _key(device=ZCU104) != base
        assert _key(precision=MIXED_PRECISION_PRESETS["INT8"]) != base
        assert _key(iter_max=4) != base
        assert _key(loops=2) != base
        assert _key(max_pes=1024) != base

    def test_config_override_changes_key(self):
        cfg = jsonable(workload_config("mimonet", superposition=4))
        assert _key(workload_config=cfg) != _key()

    def test_key_is_hex(self):
        key = _key()
        assert len(key) == 32
        int(key, 16)  # parses as hex


class TestArtifactStore:
    def test_miss_then_hit_roundtrip(self, tmp_path, compiled):
        store = ArtifactStore(tmp_path)
        key = _key()
        assert store.load(key) is None
        store.store(key, compiled, {"any": "doc"})
        art = store.load(key)
        assert art is not None
        assert art.config == compiled.config
        assert art.resources == compiled.resources
        assert art.report.pareto == compiled.dse.pareto
        assert art.report.phase1 == compiled.dse.phase1
        assert art.report.phase2 == compiled.dse.phase2
        assert art.latency_ms == compiled.latency_ms
        assert len(art.trace) == len(compiled.trace)
        assert store.stats.hits == 1
        assert store.stats.misses == 1
        assert store.stats.stores == 1
        assert len(store) == 1

    def test_tampered_trace_is_a_miss(self, tmp_path, compiled):
        """In-place edits of an entry's trace fail the fingerprint audit."""
        from repro.trace.serialize import trace_from_json

        store = ArtifactStore(tmp_path)
        key = _key()
        store.store(key, compiled, {})
        trace_path = store.path_for(key) / "trace.json"
        doc = json.loads(trace_path.read_text())
        doc["ops"] = doc["ops"][:-1]  # drop an op; still valid JSON/schema
        trace_path.write_text(json.dumps(doc))
        assert trace_from_json(trace_path.read_text()) is not None  # parses
        assert store.load(key) is None  # ...but fails the integrity audit

    def test_corrupt_entry_is_a_miss(self, tmp_path, compiled):
        store = ArtifactStore(tmp_path)
        key = _key()
        store.store(key, compiled, {})
        (store.path_for(key) / "report.json").write_text("{ truncated")
        assert store.load(key) is None

    def test_format_version_skew_is_a_miss(self, tmp_path, compiled):
        store = ArtifactStore(tmp_path)
        key = _key()
        store.store(key, compiled, {})
        path = store.path_for(key)
        meta = json.loads((path / "meta.json").read_text())
        meta["format"] = ARTIFACT_FORMAT_VERSION + 1
        (path / "meta.json").write_text(json.dumps(meta))
        assert store.load(key) is None

    def test_store_returns_the_entry_digest(self, tmp_path, compiled):
        store = ArtifactStore(tmp_path)
        key = _key()
        digest = store.store(key, compiled, {})
        assert digest == store.entry_digest(key) == store.load(key).entry_digest

    def test_store_overwrites_stale_entry(self, tmp_path, compiled):
        store = ArtifactStore(tmp_path)
        key = _key()
        store.store(key, compiled, {})
        (store.path_for(key) / "report.json").write_text("garbage")
        store.store(key, compiled, {})
        assert store.load(key) is not None

    def test_has_does_not_touch_counters(self, tmp_path, compiled):
        store = ArtifactStore(tmp_path)
        key = _key()
        assert not store.has(key)
        store.store(key, compiled, {})
        assert store.has(key)
        assert store.stats.lookups == 0


class TestBackendKeying:
    """The backend knob is result-affecting: artifacts must never collide."""

    def test_backend_changes_key(self):
        assert _key(backend="schedule") != _key(backend="analytic")
        assert _key(backend="analytic") == _key()  # the default

    def test_backend_version_joins_key(self, monkeypatch):
        """A pricing-semantics bump invalidates that backend's entries."""
        from repro.model.backend import ScheduleBackend

        base = _key(backend="schedule")
        monkeypatch.setattr(ScheduleBackend, "version", "99")
        assert _key(backend="schedule") != base
        assert _key() == _key(backend="analytic")  # others unaffected

    def test_analytic_and_schedule_entries_never_collide(self, tmp_path):
        """Storing both backends' artifacts keeps both retrievable, each
        self-describing about the backend that produced it."""
        store = ArtifactStore(tmp_path)
        designs = {}
        for backend in ("analytic", "schedule"):
            design = NSFlow(
                device=U250, max_pes=256, backend=backend
            ).compile(build_workload("mimonet"))
            store.store(_key(max_pes=256, backend=backend), design, {})
            designs[backend] = design
        assert len(store) == 2
        for backend in ("analytic", "schedule"):
            art = store.load(_key(max_pes=256, backend=backend))
            assert art is not None
            assert art.report.backend is not None
            assert art.report.backend.name == backend
            assert art.report.backend == designs[backend].dse.backend

    def test_backend_roundtrips_through_report_doc(self, tmp_path, compiled):
        store = ArtifactStore(tmp_path)
        key = _key()
        store.store(key, compiled, {})
        art = store.load(key)
        assert art.report.backend == compiled.dse.backend
        assert art.report.backend.name == "analytic"


class TestCorruptionQuarantine:
    """Regression: corruption is counted and preserved, never silent.

    ``load`` historically swallowed every read failure as a plain miss,
    destroying the evidence on the next ``store``. A present-but-broken
    entry must now bump the ``corrupt`` counter and move to
    ``<root>/quarantine/<key>`` for post-mortem.
    """

    def test_corrupt_entry_is_counted_and_quarantined(
        self, tmp_path, compiled
    ):
        store = ArtifactStore(tmp_path)
        key = _key()
        store.store(key, compiled, {})
        (store.path_for(key) / "report.json").write_text("{ truncated")
        assert store.load(key) is None
        assert store.stats.corrupt == 1
        assert store.stats.quarantined == 1
        assert store.stats.misses == 1
        # The broken entry moved aside intact, with a machine-readable
        # reason, and its slot is free for the recompile.
        qdir = tmp_path / "quarantine" / key
        assert (qdir / "report.json").read_text() == "{ truncated"
        tag = json.loads((qdir / "QUARANTINE.json").read_text())
        assert tag["key"] == key and tag["reason"]
        assert not store.path_for(key).exists()
        assert store.quarantined_keys() == [key]

    def test_tampered_trace_reason_names_the_audit(self, tmp_path, compiled):
        from repro.trace.serialize import trace_from_json

        store = ArtifactStore(tmp_path)
        key = _key()
        store.store(key, compiled, {})
        trace_path = store.path_for(key) / "trace.json"
        doc = json.loads(trace_path.read_text())
        doc["ops"] = doc["ops"][:-1]          # valid JSON, wrong content
        trace_path.write_text(json.dumps(doc))
        assert trace_from_json(trace_path.read_text()) is not None
        assert store.load(key) is None
        tag = json.loads(
            (tmp_path / "quarantine" / key / "QUARANTINE.json").read_text()
        )
        assert "fingerprint" in tag["reason"]

    def test_version_skew_is_not_corruption(self, tmp_path, compiled):
        store = ArtifactStore(tmp_path)
        key = _key()
        store.store(key, compiled, {})
        path = store.path_for(key)
        meta = json.loads((path / "meta.json").read_text())
        meta["format"] = ARTIFACT_FORMAT_VERSION + 1
        (path / "meta.json").write_text(json.dumps(meta))
        assert store.load(key) is None
        assert store.stats.corrupt == 0
        assert store.stats.quarantined == 0
        assert store.quarantined_keys() == []

    def test_absent_entry_is_a_plain_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.load(_key()) is None
        assert store.stats.misses == 1 and store.stats.corrupt == 0

    def test_store_after_quarantine_restores_the_entry(
        self, tmp_path, compiled
    ):
        store = ArtifactStore(tmp_path)
        key = _key()
        store.store(key, compiled, {})
        (store.path_for(key) / "design_config.json").write_text("garbage")
        assert store.load(key) is None
        store.store(key, compiled, {})
        assert store.load(key) is not None
        # The quarantined evidence survives the recompile's store.
        assert store.quarantined_keys() == [key]

    def test_requarantine_replaces_stale_evidence(self, tmp_path, compiled):
        store = ArtifactStore(tmp_path)
        key = _key()
        for marker in ("first", "second"):
            store.store(key, compiled, {})
            (store.path_for(key) / "report.json").write_text(marker)
            assert store.load(key) is None
        assert store.stats.corrupt == 2
        qreport = tmp_path / "quarantine" / key / "report.json"
        assert qreport.read_text() == "second"


def _scale(doc: dict, field: str, factor: int = 10) -> None:
    doc[field] *= factor


class TestStoreAudit:
    """Every artifact file is audited against its stored fingerprint."""

    @pytest.mark.parametrize("name, edit", [
        ("trace.json", lambda doc: doc["ops"].pop()),
        ("design_config.json", lambda doc: _scale(doc, "estimated_cycles")),
        ("report.json", lambda doc: _scale(doc["schedule"], "latency_ms")),
    ])
    def test_in_place_edit_is_quarantined(self, tmp_path, compiled, name, edit):
        store = ArtifactStore(tmp_path)
        key = _key()
        store.store(key, compiled, {})
        path = store.path_for(key) / name
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc, indent=2))
        # Still valid JSON and schema: the eager load served the config
        # and report edits as hits; only the trace had an audit.
        assert (artifacts_oracle.load(store, key) is None) == (name == "trace.json")
        assert store.load(key) is None
        stats = store.stats
        assert (stats.misses, stats.corrupt, stats.quarantined) == (1, 1, 1)
        tag = json.loads(
            (tmp_path / "quarantine" / key / "QUARANTINE.json").read_text()
        )
        assert tag["reason"] == f"ValueError: {name} fingerprint mismatch"

    def test_entry_without_file_fingerprints_is_version_skew(
        self, tmp_path, compiled
    ):
        store = ArtifactStore(tmp_path)
        key = _key()
        store.store(key, compiled, {})
        path = store.path_for(key)
        meta = json.loads((path / "meta.json").read_text())
        del meta["files"]
        (path / "meta.json").write_text(json.dumps(meta, indent=2))
        assert artifacts_oracle.load(store, key) is not None
        assert store.load(key) is None
        assert store.stats.misses == 1 and store.stats.corrupt == 0
        assert store.quarantined_keys() == []
        store.store(key, compiled, {})
        assert "files" in json.loads((path / "meta.json").read_text())
        assert store.load(key) is not None

    def test_hit_parses_its_trace_on_first_read(
        self, tmp_path, compiled, monkeypatch
    ):
        parses = []
        parse = artifacts_module.trace_from_json
        monkeypatch.setattr(artifacts_module, "trace_from_json",
                            lambda text: parses.append(text) or parse(text))
        store = ArtifactStore(tmp_path)
        key = _key()
        store.store(key, compiled, {})
        art = store.load(key)
        assert parses == []
        assert art.trace == compiled.trace and len(parses) == 1
        assert art.trace is art.trace and len(parses) == 1
        assert art.entry_digest == store.entry_digest(key)


def test_lazy_load_matches_the_eager_oracle(tmp_path):
    """On every registry workload and synth seeds 0-199, the byte-audited
    lazy load and the eager oracle accept the same entries and return
    equal artifacts, whose trace still matches ``trace_fingerprint``."""
    registry = tuple(n for n in available_workloads() if n != "synth")
    grid = ScenarioGrid(workloads=registry + ("synth:0-199",))
    result = run_sweep(grid, store=ArtifactStore(tmp_path))
    assert result.n_errors == 0 and len(result.outcomes) == len(registry) + 200
    store = ArtifactStore(tmp_path)
    for outcome in result.outcomes:
        loaded = store.load(outcome.key)
        eager = artifacts_oracle.load(store, outcome.key)
        assert loaded is not None and eager is not None
        assert loaded == eager
        meta = json.loads((store.path_for(outcome.key) / "meta.json").read_text())
        assert trace_fingerprint(loaded.trace) == meta["trace_fingerprint"]
        assert loaded.entry_digest == outcome.artifact_digest
    assert store.stats.hits == len(result.outcomes)
