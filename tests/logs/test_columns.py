"""Column tables and the group-by helpers the column folds are made of."""

from __future__ import annotations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.logs.binfmt import read_bin_table, write_bin_records
from repro.logs.columns import (
    ColumnTable,
    Dictionary,
    distinct,
    first_seen,
    group_sum,
    runs,
)
from repro.logs.records import MmeRecord, ProxyRecord, fields_for


def proxy_rows(count: int) -> list[ProxyRecord]:
    return [
        ProxyRecord(
            timestamp=1_513_296_000.0 + 7.25 * i,
            subscriber_id=f"s{i % 5}",
            imei=f"3588470800000{i % 3:02d}",
            host=("a.example", "b.example")[i % 2],
            path="" if i % 3 else f"/p{i % 4}",
            bytes_up=(i % 4) * 1000,
            bytes_down=(i * 7919) % 90_000,
        )
        for i in range(count)
    ]


def reference_first_seen(keys: list[int]) -> tuple[list[int], list[int]]:
    positions: dict[int, int] = {}
    for key in keys:
        positions.setdefault(key, len(positions))
    return list(positions), [positions[key] for key in keys]


class TestGroupBys:
    @given(
        st.lists(
            st.one_of(st.integers(-5, 40), st.integers(0, 10**12)), max_size=80
        )
    )
    def test_first_seen(self, keys):
        distinct_keys, index = first_seen(np.array(keys, dtype=np.int64))
        assert (distinct_keys.tolist(), index.tolist()) == reference_first_seen(keys)

    @given(
        st.lists(
            st.tuples(st.integers(-3, 30), st.integers(0, 2000), st.integers(0, 23)),
            max_size=80,
        )
    )
    def test_distinct(self, rows):
        columns = [np.array(column, dtype=np.int64) for column in zip(*rows)] or [
            np.empty(0, dtype=np.int64)
        ] * 3
        got = list(zip(*(column.tolist() for column in distinct(*columns))))
        assert got == sorted(set(rows))

    def test_runs(self):
        assert list(runs(np.array([2, 2, 5, 7, 7, 7]))) == [
            (2, 0, 2),
            (5, 2, 3),
            (7, 3, 6),
        ]
        assert list(runs(np.empty(0, dtype=np.int64))) == []

    def test_group_sum_stays_exact_past_2_53(self):
        values = np.array([2**60, 1, 2**60, 3], dtype=np.int64)
        groups = np.array([0, 0, 1, 1])
        assert group_sum(groups, values, 2).tolist() == [2**60 + 1, 2**60 + 3]
        # float64 weights would lose the low bits
        assert np.bincount(groups, weights=values)[0] == float(2**60)


class TestColumnTable:
    def test_row_backed_columns(self):
        records = proxy_rows(20)
        table = ColumnTable.from_records(ProxyRecord, records)
        assert len(table) == 20
        assert table.records is records
        subscribers = table.column("subscriber_id")
        assert isinstance(subscribers, Dictionary)
        assert subscribers.codes.dtype == np.int32
        assert subscribers.values.tolist() == ["s0", "s1", "s2", "s3", "s4"]
        assert subscribers.values[subscribers.codes].tolist() == [
            r.subscriber_id for r in records
        ]
        assert table.column("bytes_down").dtype == np.int64
        assert table.column("timestamp").tolist() == [r.timestamp for r in records]

    def test_decoded_table_builds_equal_rows(self, tmp_path):
        records = proxy_rows(50)
        path = tmp_path / "proxy.bin"
        write_bin_records(path, records, ProxyRecord, block_rows=8)
        table = read_bin_table(path, ProxyRecord)
        # One global dictionary per field, whatever the block boundaries.
        assert table.column("host").values.tolist() == ["a.example", "b.example"]
        assert table.column("imei").values.tolist() == sorted(
            {r.imei for r in records}, key=[r.imei for r in records].index
        )
        rows = table.records
        assert rows == records
        # Rows share one object per dictionary entry and per byte count.
        assert rows[0].host is rows[2].host
        same = [r for r in rows if r.bytes_up == rows[1].bytes_up]
        assert len(same) > 1 and all(r.bytes_up is rows[1].bytes_up for r in same)

    def test_both_producers_agree(self, tmp_path):
        records = [r for r in proxy_rows(40) if r.bytes_down % 3]
        path = tmp_path / "proxy.bin"
        write_bin_records(path, records, ProxyRecord, block_rows=7)
        decoded = read_bin_table(path, ProxyRecord)
        wrapped = ColumnTable.from_records(ProxyRecord, records)
        for name in fields_for(ProxyRecord):
            a, b = decoded.column(name), wrapped.column(name)
            if isinstance(a, Dictionary):
                assert a.values[a.codes].tolist() == b.values[b.codes].tolist()
            else:
                assert a.tolist() == b.tolist()

    def test_masks_take_and_sort_keys(self, tmp_path):
        records = proxy_rows(30)
        path = tmp_path / "proxy.bin"
        write_bin_records(path, records, ProxyRecord, block_rows=8)
        table = read_bin_table(path, ProxyRecord)
        mask = table.entry_mask("subscriber_id", lambda s: s in {"s1", "s3"})
        assert mask.tolist() == [r.subscriber_id in {"s1", "s3"} for r in records]
        assert table.distinct("subscriber_id", mask) == ["s1", "s3"]
        index = np.flatnonzero(mask)
        assert table.sort_keys(index) == [records[i].sort_key() for i in index]
        kept = table.take(mask)
        assert kept.column("host").values is table.column("host").values
        assert kept.records == [r for r, m in zip(records, mask) if m]

    def test_empty_log(self, tmp_path):
        path = tmp_path / "mme.bin"
        write_bin_records(path, [], MmeRecord)
        table = read_bin_table(path, MmeRecord)
        assert len(table) == 0
        assert table.records == []
        assert table.entry_mask("imei", bool).tolist() == []
