"""Unit tests for :mod:`repro.serve.state`: the replay buffers, the
finalize's hold on the live state, and restoring older shard states."""

import json

from repro.logs.columns import ColumnTable
from repro.logs.records import ProxyRecord
from repro.serve.service import AnalysisService, ServeConfig
from repro.serve.state import ReplayBuffer, ShardSlot
from repro.state import encode_value

from tests.logs.test_binfmt import proxy_records
from tests.serve.conftest import drain


class TestReplayBuffer:
    def test_slices_compact_into_one_table(self):
        records = proxy_records(150)
        source = ColumnTable.from_records(ProxyRecord, records)
        buffer = ReplayBuffer(ProxyRecord)
        for row in range(len(records)):
            buffer.append(source.take([row]))
            assert len(buffer._slices) < ReplayBuffer.MAX_SLICES
            assert len(buffer) == row + 1
        table = buffer.table()
        assert buffer._slices == []
        assert table.records == records
        assert table.columns()["host"].values.tolist() == list(
            dict.fromkeys(r.host for r in records)
        )

    def test_empty_slices_are_not_kept(self):
        source = ColumnTable.from_records(ProxyRecord, proxy_records(3))
        buffer = ReplayBuffer(ProxyRecord)
        buffer.append(source.take([]))
        assert buffer._slices == []
        assert len(buffer) == 0
        assert list(buffer) == []


class TestFinalize:
    def test_a_finalize_leaves_every_slot_as_it_was(self, small_trace_dir):
        """Finalize merges every shard into the first shard's bundle; the
        live state it reads, every slot's state included, must survive
        unchanged to keep ingesting."""
        service = AnalysisService(ServeConfig(trace_dir=small_trace_dir, shards=3))
        drain(service)
        before = [slot.to_state() for slot in service.slots]
        service.report()
        assert [slot.to_state() for slot in service.slots] == before


class TestOlderStates:
    def test_a_weekly_state_with_window_and_tacs_restores(self, small_trace_dir):
        """Checkpoints written while the weekly partial kept its own
        state carry two more keys in it, the study window and the TAC
        set; they restore, and the two keys are ignored."""
        service = AnalysisService(ServeConfig(trace_dir=small_trace_dir, shards=2))
        drain(service)
        slot = service.slots[0]
        artifacts = service.artifacts
        window = artifacts.window
        state = slot.to_state()
        weekly = state["weekly"]
        state["weekly"] = {
            "v": weekly["v"],
            "window": {
                "study_start": window.study_start,
                "total_days": window.total_days,
                "detailed_days": window.detailed_days,
            },
            "tacs": encode_value(artifacts.device_db.wearable_tacs()),
            **weekly,
        }
        restored = ShardSlot.from_state(json.loads(json.dumps(state)), artifacts)
        assert restored.weekly.finalize() == slot.weekly.finalize()
        assert restored.to_state() == slot.to_state()
