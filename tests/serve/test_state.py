"""Unit tests for :mod:`repro.serve.state`: the replay buffers and the
finalize's hold on the live state."""

from repro.logs.columns import ColumnTable
from repro.logs.records import ProxyRecord
from repro.serve.service import AnalysisService, ServeConfig
from repro.serve.state import ReplayBuffer

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
