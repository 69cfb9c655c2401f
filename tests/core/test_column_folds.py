"""The six split-safe panels' column folds against their row folds.

Census, adoption, activity, comparison, weekly and devices fold a dataset
as group-bys over its column table.  The reference below is the row
fold each partial ran before the data plane went columnar, kept here
as the oracle (bodies of the per-row ``consume`` loops and of the weekly
fold's ``add``, which here takes the TAC set from the device database
and writes the partial's fields), the way
``tests/core/test_encounters.py`` keeps ``reference_join``.

A property test builds small datasets through both table producers —
from row lists, and from a ``.bin`` write decoded by
``read_bin_table`` — folds them in as two deltas (the service's shape:
the second delta lands on non-empty state), and requires every
partial's ``to_state()`` to equal the reference's, dict insertion order
included, so serve checkpoints stay byte-identical.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.dataset import StudyDataset, StudyWindow
from repro.core.parallel import (
    ActivityPartial,
    AdoptionPartial,
    CensusPartial,
    ComparisonPartial,
    DevicesPartial,
)
from repro.core.weekly import WeeklyPartial
from repro.logs.binfmt import read_bin_table, write_bin_records, write_bin_rows
from repro.logs.io import LogReadError, read_records
from repro.logs.records import (
    EVENT_ATTACH,
    EVENT_HANDOVER,
    PROXY_FIELDS,
    PROTOCOL_HTTP,
    PROTOCOL_HTTPS,
    MmeRecord,
    ProxyRecord,
    record_sort_key,
    record_to_row,
)
from repro.logs.timeutil import (
    SECONDS_PER_DAY,
    SECONDS_PER_HOUR,
    hour_of_day,
    is_weekend,
    parse_timestamp,
    weekday,
)
from repro.devicedb.tac import make_imei
from tests.core.helpers import (
    DEVICE_DB,
    LG_WATCH_TAC,
    PHONE_IMEI,
    PHONE_IMEI_2,
    SECTORS,
    WATCH_IMEI,
    WATCH_IMEI_2,
    WATCH_TAC,
)


# ------------------------------------------------------------ reference
def _partitions(proxy_rows, mme_rows):
    tacs = DEVICE_DB.wearable_tacs()
    return (
        [r for r in proxy_rows if r.tac in tacs],
        [r for r in mme_rows if r.tac in tacs],
    )


def _owner_accounts(proxy_rows, mme_rows, directory):
    wearable_proxy, wearable_mme = _partitions(proxy_rows, mme_rows)
    ids = {r.subscriber_id for r in wearable_mme}
    ids.update(r.subscriber_id for r in wearable_proxy)
    return frozenset(directory[s] for s in ids if s in directory)


def reference_census(partial, proxy_rows, mme_rows, window, directory):
    _, wearable_mme = _partitions(proxy_rows, mme_rows)
    partial.imeis.update(r.imei for r in wearable_mme)


def reference_adoption(partial, proxy_rows, mme_rows, window, directory):
    wearable_proxy, wearable_mme = _partitions(proxy_rows, mme_rows)
    for record in wearable_mme:
        day = window.day_of(record.timestamp)
        if not 0 <= day < window.total_days:
            continue
        subscriber = record.subscriber_id
        partial.daily[day].add(subscriber)
        mine = partial.first_seen.get(subscriber)
        if mine is None or day < mine:
            partial.first_seen[subscriber] = day
        mine = partial.last_seen.get(subscriber)
        if mine is None or day > mine:
            partial.last_seen[subscriber] = day
    partial.data_users.update(record.subscriber_id for record in wearable_proxy)


def reference_activity(partial, proxy_rows, mme_rows, window, directory):
    wearable_proxy, _ = _partitions(proxy_rows, mme_rows)
    first_day = window.detailed_first_day
    for record in wearable_proxy:
        if not window.in_detailed(record.timestamp):
            continue
        day = window.day_of(record.timestamp)
        if not first_day <= day < window.total_days:
            continue
        weekend = is_weekend(record.timestamp)
        hour = hour_of_day(record.timestamp)
        subscriber = record.subscriber_id
        size = record.total_bytes
        key = (weekend, hour)
        partial.day_type_days[weekend].add(day)
        partial.hour_users.setdefault(key, set()).add((subscriber, day))
        partial.hour_tx[key] = partial.hour_tx.get(key, 0) + 1
        partial.hour_bytes[key] = partial.hour_bytes.get(key, 0) + size
        partial.weekly_users.setdefault((day - first_day) // 7, set()).add(
            subscriber
        )
        partial.daily_users.setdefault(day, set()).add(subscriber)
        partial.user_days.setdefault(subscriber, set()).add(day)
        partial.user_day_hours.setdefault(subscriber, set()).add((day, hour))
        partial.user_tx[subscriber] = partial.user_tx.get(subscriber, 0) + 1
        partial.user_bytes[subscriber] = (
            partial.user_bytes.get(subscriber, 0) + size
        )
        partial.sizes[size] = partial.sizes.get(size, 0) + 1


def reference_comparison(partial, proxy_rows, mme_rows, window, directory):
    wearable_tacs = DEVICE_DB.wearable_tacs()
    wearable_bytes = partial.account_wearable_bytes
    for record in proxy_rows:
        if not window.in_detailed(record.timestamp):
            continue
        account = directory.get(record.subscriber_id)
        if account is None:
            continue
        size = record.total_bytes
        partial.account_bytes[account] = partial.account_bytes.get(account, 0) + size
        partial.account_tx[account] = partial.account_tx.get(account, 0) + 1
        if record.tac in wearable_tacs:
            wearable_bytes[account] = wearable_bytes.get(account, 0) + size
    partial.owner_accounts |= _owner_accounts(proxy_rows, mme_rows, directory)


def reference_weekly(weekly, proxy_rows, mme_rows, window, directory):
    wearable_tacs = DEVICE_DB.wearable_tacs()
    for record in proxy_rows:
        timestamp = record.timestamp
        if not window.in_detailed(timestamp):
            continue
        hour = hour_of_day(timestamp)
        weekend = is_weekend(timestamp)
        dow = weekday(timestamp)
        date = window.day_of(timestamp)
        weekly.seen_dates.setdefault(dow, set()).add(date)
        weekly.hour_total[hour] += 1
        weekly.daytype_total[weekend] += 1
        if record.tac in wearable_tacs:
            weekly.dow_tx[dow] += 1
            weekly.dow_bytes[dow] += record.total_bytes
            weekly.dow_users[dow].add((record.subscriber_id, date))
            weekly.hour_wearable[hour] += 1
            weekly.daytype_wearable[weekend] += 1


def reference_devices(partial, proxy_rows, mme_rows, window, directory):
    wearable_proxy, wearable_mme = _partitions(proxy_rows, mme_rows)
    for record in wearable_mme:
        model = DEVICE_DB.lookup_imei(record.imei)
        if model is None:
            continue
        key = record_sort_key(record)
        mine = partial.imei_first.get(record.imei)
        if mine is None or key < mine:
            partial.imei_first[record.imei] = key
        day = window.day_of(record.timestamp)
        week = day // 7
        if 0 <= week < partial.total_weeks:
            partial.weekly[week].setdefault(model.manufacturer, set()).add(
                record.imei
            )
    partial.data_imeis.update(r.imei for r in wearable_proxy)


# ------------------------------------------------------------- datasets
#: A non-midnight start, so study days and UTC dates disagree.
START = parse_timestamp("2017-12-15T05:30:00")
WINDOW = StudyWindow(study_start=START, total_days=21, detailed_days=9)

#: s5 and s6 are missing from the billing directory; a1 has two SIMs.
DIRECTORY = {"s1": "a1", "s2": "a1", "s3": "a2", "s4": "a3"}
SUBSCRIBERS = ("s1", "s2", "s3", "s4", "s5", "s6")

#: Wearable, phone and malformed-but-wearable-TAC IMEIs (the last has
#: no device model, so devices skips it while census counts it).
IMEIS = (
    WATCH_IMEI,
    WATCH_IMEI_2,
    make_imei(LG_WATCH_TAC, 7),
    PHONE_IMEI,
    PHONE_IMEI_2,
    WATCH_TAC + "12345",
)

#: Instants the generated rows gather around: the study start and end,
#: the detailed-window start, UTC midnights and hours, and fixed times
#: several rows share.
ANCHORS = (
    START,
    WINDOW.detailed_start,
    WINDOW.study_end,
    parse_timestamp("2017-12-23T00:00:00"),
    parse_timestamp("2017-12-30T18:00:00"),
    START + 16 * SECONDS_PER_DAY + 7 * SECONDS_PER_HOUR,
)
OFFSETS = (0.0, -5e-7, 5e-7, -1e-6, 2.5e-7, -1.0, 1.0)

timestamps = st.one_of(
    st.floats(
        min_value=START - 3 * SECONDS_PER_DAY,
        max_value=WINDOW.study_end + 3 * SECONDS_PER_DAY,
        allow_nan=False,
    ),
    st.builds(
        lambda anchor, offset: anchor + offset,
        st.sampled_from(ANCHORS),
        st.sampled_from(OFFSETS),
    ),
)
#: Includes sizes far apart, so the sparse-key group-by path runs too.
sizes = st.one_of(
    st.sampled_from([0, 1, 404, 1197, 60_000, 5_000_000]),
    st.integers(0, 3000),
    st.integers(0, 10**9),
)

proxy_rows = st.builds(
    ProxyRecord,
    timestamp=timestamps,
    subscriber_id=st.sampled_from(SUBSCRIBERS),
    imei=st.sampled_from(IMEIS),
    host=st.sampled_from(["api.example.com", "cdn.example.net"]),
    path=st.sampled_from(["", "/a", "/b?c=1"]),
    protocol=st.sampled_from([PROTOCOL_HTTP, PROTOCOL_HTTPS]),
    bytes_up=sizes,
    bytes_down=sizes,
)
mme_rows = st.builds(
    MmeRecord,
    timestamp=timestamps,
    subscriber_id=st.sampled_from(SUBSCRIBERS),
    imei=st.sampled_from(IMEIS),
    sector_id=st.sampled_from(["HOME", "WORK", "FAR"]),
    event=st.sampled_from([EVENT_ATTACH, EVENT_HANDOVER]),
)


def rows_dataset(proxy, mme) -> StudyDataset:
    return StudyDataset(
        proxy_records=list(proxy),
        mme_records=list(mme),
        device_db=DEVICE_DB,
        sector_map=SECTORS,
        account_directory=DIRECTORY,
        window=WINDOW,
    )


def bin_dataset(proxy, mme, scratch: Path) -> StudyDataset:
    """The same rows written as ``.bin`` (three rows a block, so the
    dictionaries are recoded across blocks) and decoded into tables."""
    tables = []
    for stem, rows, record_type in (
        ("proxy", proxy, ProxyRecord),
        ("mme", mme, MmeRecord),
    ):
        path = scratch / f"{stem}.bin"
        write_bin_records(path, rows, record_type, block_rows=3)
        tables.append(read_bin_table(path, record_type))
    return StudyDataset(
        proxy_records=tables[0],
        mme_records=tables[1],
        device_db=DEVICE_DB,
        sector_map=SECTORS,
        account_directory=DIRECTORY,
        window=WINDOW,
    )


#: (new partial, column fold, reference fold) per panel.
FOLDS = {
    "census": (CensusPartial, reference_census),
    "adoption": (
        lambda: AdoptionPartial(total_days=WINDOW.total_days),
        reference_adoption,
    ),
    "activity": (ActivityPartial, reference_activity),
    "comparison": (ComparisonPartial, reference_comparison),
    "weekly": (WeeklyPartial, reference_weekly),
    "devices": (
        lambda: DevicesPartial(total_weeks=max(1, WINDOW.total_days // 7)),
        reference_devices,
    ),
}


def canonical_state(partial) -> str:
    """``to_state()`` as JSON text: equal exactly when the states are,
    dict insertion order included."""
    return json.dumps(partial.to_state())


# ------------------------------------------------------------------ tests
class TestColumnFoldsMatchRowFolds:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        proxy=st.lists(proxy_rows, max_size=40),
        mme=st.lists(mme_rows, max_size=30),
        cut=st.floats(0.0, 1.0),
        producer=st.sampled_from(["rows", "bin"]),
    )
    def test_states_equal(self, proxy, mme, cut, producer):
        deltas = [
            (proxy[: int(cut * len(proxy))], mme[: int(cut * len(mme))]),
            (proxy[int(cut * len(proxy)) :], mme[int(cut * len(mme)) :]),
        ]
        with tempfile.TemporaryDirectory() as scratch:
            datasets = []
            for index, (delta_proxy, delta_mme) in enumerate(deltas):
                if producer == "rows":
                    datasets.append(rows_dataset(delta_proxy, delta_mme))
                else:
                    part = Path(scratch) / str(index)
                    part.mkdir()
                    datasets.append(bin_dataset(delta_proxy, delta_mme, part))
            for name, (make, reference) in FOLDS.items():
                columnar = make()
                expected = make()
                for dataset, (delta_proxy, delta_mme) in zip(datasets, deltas):
                    columnar.consume(dataset)
                    reference(expected, delta_proxy, delta_mme, WINDOW, DIRECTORY)
                assert canonical_state(columnar) == canonical_state(expected), name

    def test_ties_on_the_first_timestamp(self):
        """An IMEI whose first rows share a timestamp keeps the smallest
        full sort key, whichever order the rows arrive in."""
        at = WINDOW.detailed_start + 10.0
        mme = [
            MmeRecord(at, "s3", WATCH_IMEI, "WORK", EVENT_HANDOVER),
            MmeRecord(at, "s1", WATCH_IMEI, "WORK", EVENT_ATTACH),
            MmeRecord(at, "s1", WATCH_IMEI, "HOME", EVENT_ATTACH),
            MmeRecord(at - 5.0, "s2", WATCH_IMEI_2, "FAR", EVENT_ATTACH),
        ]
        for rows in (mme, mme[::-1]):
            columnar = DevicesPartial(total_weeks=3)
            columnar.consume(rows_dataset([], rows))
            expected = DevicesPartial(total_weeks=3)
            reference_devices(expected, [], rows, WINDOW, DIRECTORY)
            assert canonical_state(columnar) == canonical_state(expected)
            assert columnar.imei_first[WATCH_IMEI] == (
                at, "s1", WATCH_IMEI, "HOME", EVENT_ATTACH
            )


class TestStrictBinValues:
    """A strict load decodes ``.bin`` into columns through the reader's
    own block loop, so an out-of-domain value fails exactly as
    ``read_records`` fails on it."""

    @pytest.fixture
    def trace(self, small_output, small_trace_dir, tmp_path):
        for name in ("metadata.json", "accounts.csv", "devices.csv", "sectors.csv"):
            (tmp_path / name).write_bytes((small_trace_dir / name).read_bytes())
        write_bin_records(
            tmp_path / "mme.bin", small_output.mme_records[:50], MmeRecord
        )
        return tmp_path

    @pytest.mark.parametrize(
        ("field", "value"), [("bytes_up", -5), ("protocol", "gopher")]
    )
    def test_same_error_as_read_records(self, small_output, trace, field, value):
        rows = [record_to_row(r) for r in small_output.proxy_records[:40]]
        index = PROXY_FIELDS.index(field)
        rows[23] = rows[23][:index] + (value,) + rows[23][index + 1 :]
        write_bin_rows(
            trace / "proxy.bin", [("row", row) for row in rows], ProxyRecord,
            block_rows=16,
        )
        with pytest.raises(LogReadError) as expected:
            list(read_records(trace / "proxy.bin", ProxyRecord))
        with pytest.raises(LogReadError) as loaded:
            StudyDataset.load(trace, format="bin")
        assert loaded.value.code == expected.value.code == "value"
        assert str(loaded.value) == str(expected.value)
        assert "row 7" in str(loaded.value)


class TestStrictBinShards:
    """A strict ``.bin`` shard load masks the decoded table by the shard
    of each subscriber dictionary entry."""

    @pytest.fixture(scope="class")
    def bin_trace(self, small_output, tmp_path_factory):
        path = tmp_path_factory.mktemp("bin-shards")
        small_output.write(path, format="bin")
        return path

    def test_shards_partition_the_rows(self, bin_trace):
        shards = [
            StudyDataset.load(bin_trace, shard=shard, shards=3) for shard in range(3)
        ]
        whole = StudyDataset.load(bin_trace)
        for name in ("proxy_records", "mme_records"):
            rows = [r for dataset in shards for r in getattr(dataset, name)]
            assert sorted(rows, key=record_sort_key) == getattr(whole, name)

    @pytest.mark.parametrize(("shard", "shards"), [(3, 3), (-1, 3), (0, 0)])
    def test_bad_shard_arguments_raise(self, bin_trace, shard, shards):
        for lenient in (False, True):
            with pytest.raises(ValueError, match="shard"):
                StudyDataset.load(
                    bin_trace, shard=shard, shards=shards, lenient=lenient
                )
