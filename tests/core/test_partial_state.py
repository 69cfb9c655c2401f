"""State round-trip contract for the ``*Partial`` aggregates.

The ``repro.serve`` checkpoint layer persists every partial through
``to_state()`` / ``from_state()`` — versioned, pickle-free, JSON-safe.
The contract tested here:

* round trips are *lossless*: a restored partial merges and finalizes
  identically to the original;
* round trips are *canonical*: encoding the restored state again yields
  byte-identical JSON (so checkpoint digests are stable);
* restoring is a *deep copy*: mutating a restored partial never leaks
  back into the source (``finalize_slots`` relies on this to keep the
  live state intact across report queries);
* unknown state versions are rejected loudly.
"""

import json

import pytest

from repro.core.encounters import stream_dwell_intervals
from repro.core.parallel import (
    ActivityPartial,
    AdoptionPartial,
    AppsPartial,
    CensusPartial,
    ComparisonPartial,
    DevicesPartial,
    DomainsPartial,
    EncountersPartial,
    MobilityPartial,
    ProtocolsPartial,
    ShardPartials,
    ThroughDevicePartial,
)
from repro.core.weekly import WeeklyPartial
from repro.logs.quarantine import QuarantineCollector
from repro.state import decode_value, encode_value

PARTIAL_CLASSES = {
    "census": CensusPartial,
    "adoption": AdoptionPartial,
    "activity": ActivityPartial,
    "comparison": ComparisonPartial,
    "mobility": MobilityPartial,
    "apps": AppsPartial,
    "domains": DomainsPartial,
    "through_device": ThroughDevicePartial,
    "weekly": WeeklyPartial,
    "protocols": ProtocolsPartial,
    "devices": DevicesPartial,
    "encounters": EncountersPartial,
}


@pytest.fixture(scope="module")
def computed(small_dataset):
    """Real partials from the small simulation (one full-trace shard)."""
    partials = ShardPartials.compute(small_dataset, shard=0)
    # The encounter join side is fed separately from the full MME stream
    # (see _analyze_shard); include it so the pair-keyed accumulators
    # (tuple dict keys) exercise the state codec too.
    window = small_dataset.window
    partials.encounters.consume_intervals(
        stream_dwell_intervals(iter(small_dataset.mme_records), window),
        window.study_start,
    )
    return partials


@pytest.fixture(scope="module")
def finalize_args(small_dataset):
    from repro.simnet.appcatalog import builtin_app_catalog

    catalog = builtin_app_catalog()
    return (
        small_dataset.window,
        small_dataset.device_db,
        {app.name: app.category for app in catalog},
    )


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(PARTIAL_CLASSES))
    def test_state_is_json_safe(self, computed, name):
        state = getattr(computed, name).to_state()
        assert json.loads(json.dumps(state)) == state

    @pytest.mark.parametrize("name", sorted(PARTIAL_CLASSES))
    def test_roundtrip_is_canonical(self, computed, name):
        cls = PARTIAL_CLASSES[name]
        state = getattr(computed, name).to_state()
        blob = json.dumps(state, sort_keys=True)
        again = cls.from_state(json.loads(blob)).to_state()
        assert json.dumps(again, sort_keys=True) == blob

    def test_bundle_roundtrip_is_canonical(self, computed):
        state = computed.to_state()
        blob = json.dumps(state, sort_keys=True)
        again = ShardPartials.from_state(json.loads(blob)).to_state()
        assert json.dumps(again, sort_keys=True) == blob

    def test_restored_bundle_finalizes_identically(
        self, computed, finalize_args
    ):
        # finalize() consumes its bundle, so run each on its own copy.
        original = ShardPartials.from_state(computed.to_state())
        restored = ShardPartials.from_state(
            json.loads(json.dumps(computed.to_state()))
        )
        assert original.finalize(*finalize_args) == restored.finalize(
            *finalize_args
        )

    def test_merge_after_restore_equals_merge_before(
        self, small_dataset, computed
    ):
        other = ShardPartials.compute(small_dataset, shard=1)
        direct = ShardPartials.from_state(computed.to_state()).merge(
            ShardPartials.from_state(other.to_state())
        )
        via_restore = ShardPartials.from_state(
            json.loads(json.dumps(computed.to_state()))
        ).merge(
            ShardPartials.from_state(json.loads(json.dumps(other.to_state())))
        )
        assert direct.to_state() == via_restore.to_state()

    def test_restore_is_a_deep_copy(self, computed):
        state = computed.census.to_state()
        copy = CensusPartial.from_state(state)
        copy.imeis.add("intruder")
        assert "intruder" not in computed.census.imeis
        assert CensusPartial.from_state(state).to_state() == state


class TestVersioning:
    @pytest.mark.parametrize("name", sorted(PARTIAL_CLASSES))
    def test_unknown_version_is_rejected(self, computed, name):
        cls = PARTIAL_CLASSES[name]
        state = dict(getattr(computed, name).to_state())
        state["v"] = 999
        with pytest.raises(ValueError):
            cls.from_state(state)

    def test_quarantine_collector_version_rejected(self):
        collector = QuarantineCollector()
        state = collector.to_state()
        state["v"] = 999
        with pytest.raises(ValueError):
            QuarantineCollector.from_state(state)


class TestQuarantineCollectorState:
    def test_roundtrip_preserves_report(self):
        collector = QuarantineCollector()
        collector.saw_row("proxy")
        collector.saw_row("proxy")
        collector.saw_row("mme")
        collector.quarantine_row("proxy", "proxy-imei", "malformed IMEI", "x")
        collector.note("mme-order", "records out of time order", "mme[3]")
        restored = QuarantineCollector.from_state(
            json.loads(json.dumps(collector.to_state()))
        )
        assert restored.report() == collector.report()
        # The restored collector keeps accumulating correctly.
        restored.quarantine_row("proxy", "proxy-imei", "malformed IMEI", "y")
        assert restored.count("proxy-imei") == 2
        assert collector.count("proxy-imei") == 1


class TestCodec:
    CASES = [
        None,
        True,
        0,
        -17,
        3.5,
        float("inf"),
        "text",
        [1, 2, 3],
        (1, "a", 2.0),
        {"plain": "dict", "nested": [1, (2, 3)]},
        {1: "int-key", 2: "another"},
        {"a", "b"},
        frozenset({3, 1, 2}),
        [(1, {"x"}), {"d": frozenset({"y"})}],
    ]

    @pytest.mark.parametrize("value", CASES, ids=repr)
    def test_roundtrip(self, value):
        encoded = encode_value(value)
        assert json.loads(json.dumps(encoded)) == encoded
        assert decode_value(encoded) == value

    @pytest.mark.parametrize("value", CASES, ids=repr)
    def test_type_is_preserved(self, value):
        decoded = decode_value(encode_value(value))
        assert type(decoded) is type(value)

    def test_sets_encode_sorted(self):
        assert encode_value({3, 1, 2}) == encode_value({2, 3, 1})

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            encode_value(object())

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError):
            decode_value({"zz": []})
