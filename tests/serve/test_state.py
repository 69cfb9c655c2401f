"""Unit tests for :class:`repro.serve.state.ReplayBuffer`."""

from repro.logs.columns import ColumnTable
from repro.logs.records import ProxyRecord
from repro.serve.state import ReplayBuffer

from tests.logs.test_binfmt import proxy_records


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
