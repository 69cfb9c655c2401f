"""The six cross-row panels' column folds against their row folds.

Mobility, apps, domains, through-device, protocols and the encounter
account side fold a dataset's column tables, and §3.3 attribution
(:func:`~repro.core.app_mapping.attribute_table`) and §5.1 sessions
(:func:`~repro.core.sessions.session_table`) are column kernels.  The
reference below is the row code they replaced, kept verbatim as the
oracle the way ``tests/core/test_column_folds.py`` keeps the six
group-bys' row folds: the bodies of the row ``consume`` methods
(``self`` renamed ``partial``), of ``consume_classification``, and of
the row forms of attribution and sessionisation.  The references read
the dataset's rows and split them into wearable and phone rows with its
TAC rule where the bodies read its row partitions.

A property test builds small datasets through both table producers —
row lists, and a ``.bin`` write decoded by ``read_bin_table`` — folds
them in as two deltas, and requires every partial's ``to_state()`` to
equal the reference's, dict insertion order included.  The generated
rows gather at the instants and gaps the rules treat specially: a
shared host equidistant from two direct rows, direct rows of different
apps at one instant, a session gap of exactly 60 s, two MME events at
one instant in different sectors, subscribers missing from the billing
directory, rows outside the study and detailed windows, and one
subscriber on fingerprint hosts of different kinds.
"""

from __future__ import annotations

import dataclasses
import tempfile
from bisect import bisect_left
from collections import defaultdict
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.app_mapping import (
    CATEGORY_UNKNOWN,
    SignatureCatalog,
    attribute_table,
)
from repro.core.mobility import build_timelines
from repro.core.dataset import StudyDataset
from repro.core.parallel import (
    AppsPartial,
    DomainsPartial,
    EncountersPartial,
    MobilityPartial,
    PanelInputs,
    ProtocolsPartial,
    ThroughDevicePartial,
    _analyze_shard,
    _sector_intervals,
)
from repro.core.pipeline import WearableStudy
from repro.core.sessions import session_table
from repro.core.throughdevice import TD_FINGERPRINT_HOSTS
from repro.logs.columns import ColumnTable
from repro.logs.records import (
    EVENT_ATTACH,
    EVENT_HANDOVER,
    PROTOCOL_HTTP,
    PROTOCOL_HTTPS,
    MmeRecord,
    ProxyRecord,
    record_sort_key,
)
from repro.logs.timeutil import SECONDS_PER_DAY
from repro.simnet.appcatalog import builtin_app_catalog
from repro.stats.entropy import dwell_weighted_entropy
from repro.stats.geo import GeoPoint, max_displacement_km
from tests.core.helpers import (
    DEVICE_DB,
    AttributedRecord,
    UsageSession,
    attributed_rows,
    phone_rows,
    session_rows,
    wearable_rows,
)
from tests.core.test_column_folds import (
    ANCHORS,
    IMEIS,
    SUBSCRIBERS,
    WINDOW,
    bin_dataset,
    canonical_state,
    rows_dataset,
    sizes,
)


# ------------------------------------------------------------ reference
def reference_attribute(records, signatures, window_seconds=60.0):
    matches = [signatures.classify_host(record.host) for record in records]

    # Index direct attributions per subscriber, time-ordered.
    direct_times: dict[str, list[float]] = defaultdict(list)
    direct_apps: dict[str, list[str]] = defaultdict(list)
    order: dict[str, list[tuple[float, str]]] = defaultdict(list)
    for record, match in zip(records, matches):
        if match.app is not None:
            order[record.subscriber_id].append((record.timestamp, match.app))
    for subscriber, pairs in order.items():
        pairs.sort(key=lambda pair: pair[0])
        direct_times[subscriber] = [pair[0] for pair in pairs]
        direct_apps[subscriber] = [pair[1] for pair in pairs]

    attributed: list[AttributedRecord] = []
    for record, match in zip(records, matches):
        app = match.app
        if app is None and match.domain_category != CATEGORY_UNKNOWN:
            times = direct_times.get(record.subscriber_id)
            if times:
                apps = direct_apps[record.subscriber_id]
                index = bisect_left(times, record.timestamp)
                best_gap = float("inf")
                best_app = None
                for candidate in (index - 1, index):
                    if 0 <= candidate < len(times):
                        gap = abs(times[candidate] - record.timestamp)
                        if gap < best_gap:
                            best_gap = gap
                            best_app = apps[candidate]
                if best_app is not None and best_gap <= window_seconds:
                    app = best_app
        attributed.append(
            AttributedRecord(
                record=record, app=app, domain_category=match.domain_category
            )
        )
    return attributed


def reference_sessionize(attributed, gap_seconds=60.0):
    if gap_seconds <= 0:
        raise ValueError("gap_seconds must be positive")
    grouped: dict[tuple[str, str], list[tuple[float, int]]] = defaultdict(list)
    for item in attributed:
        if item.app is None:
            continue
        grouped[(item.record.subscriber_id, item.app)].append(
            (item.record.timestamp, item.record.total_bytes)
        )

    sessions: list[UsageSession] = []
    for (subscriber, app), events in grouped.items():
        events.sort(key=lambda event: event[0])
        start, _ = events[0]
        last = start
        tx_count = 0
        bytes_total = 0
        for timestamp, size in events:
            if timestamp - last >= gap_seconds and tx_count > 0:
                sessions.append(
                    UsageSession(subscriber, app, start, last, tx_count, bytes_total)
                )
                start = timestamp
                tx_count = 0
                bytes_total = 0
            tx_count += 1
            bytes_total += size
            last = timestamp
        sessions.append(
            UsageSession(subscriber, app, start, last, tx_count, bytes_total)
        )
    sessions.sort(key=lambda session: session.start)
    return sessions


def reference_mobility(partial, dataset):
    window = dataset.window
    study_start = window.study_start
    sector_map = dataset.sector_map
    owner_accounts = dataset.wearable_accounts
    detailed_wearable = [
        r
        for r in wearable_rows(dataset, dataset.mme_records)
        if window.in_detailed(r.timestamp)
    ]
    detailed_general = [
        r
        for r in phone_rows(dataset, dataset.mme_records)
        if window.in_detailed(r.timestamp)
        and dataset.account_of(r.subscriber_id) not in owner_accounts
    ]
    wearable_timelines = build_timelines(detailed_wearable)
    general_timelines = build_timelines(detailed_general)

    def reduce_side(timelines, days_out, mean_out, entropy_out) -> None:
        for subscriber, timeline in timelines.items():
            values: list[float] = []
            for sectors in timeline.daily_sectors(study_start).values():
                points: list[GeoPoint] = []
                for sector in sectors:
                    location = sector_map.get(sector)
                    if location is not None:
                        points.append(location)
                values.append(max_displacement_km(points))
            if values:
                days_out.extend(values)
                mean_out[subscriber] = sum(values) / len(values)
            entropy_out[subscriber] = dwell_weighted_entropy(
                timeline.dwell_seconds(study_start)
            )

    reduce_side(
        wearable_timelines,
        partial.wearable_days,
        partial.wearable_user_mean,
        partial.wearable_entropy,
    )
    reduce_side(
        general_timelines,
        partial.general_days,
        partial.general_user_mean,
        partial.general_entropy,
    )

    tx_sectors: dict[str, set[str]] = {}
    tx_hours: dict[str, set[tuple[int, int]]] = {}
    for record in wearable_rows(dataset, dataset.proxy_records):
        if not window.in_detailed(record.timestamp):
            continue
        subscriber = record.subscriber_id
        timeline = wearable_timelines.get(subscriber)
        if timeline is None:
            continue
        sector = timeline.sector_at(record.timestamp)
        tx_sectors.setdefault(subscriber, set())
        if sector is not None:
            tx_sectors[subscriber].add(sector)
        partial.tx_counts[subscriber] = partial.tx_counts.get(subscriber, 0) + 1
        day = window.day_of(record.timestamp)
        hour = int(
            (record.timestamp - study_start) % SECONDS_PER_DAY // 3600
        )
        tx_hours.setdefault(subscriber, set()).add((day, hour))
    for subscriber, sectors in tx_sectors.items():
        partial.tx_sector_count[subscriber] = len(sectors)
    for subscriber, hours in tx_hours.items():
        partial.tx_hour_count[subscriber] = len(hours)


def reference_apps(partial, dataset, attributed, sessions):
    window = dataset.window
    for item in attributed:
        if item.app is None:
            continue
        record = item.record
        if not window.in_detailed(record.timestamp):
            continue
        day = window.day_of(record.timestamp)
        subscriber = record.subscriber_id
        app = item.app
        partial.app_day_users.setdefault(app, set()).add((subscriber, day))
        partial.any_day_users.setdefault(day, set()).add(subscriber)
        partial.app_users.setdefault(app, set()).add(subscriber)
        partial.app_tx[app] = partial.app_tx.get(app, 0) + 1
        partial.app_bytes[app] = partial.app_bytes.get(app, 0) + record.total_bytes
        partial.user_apps.setdefault(subscriber, set()).add(app)
        key = record_sort_key(record)
        mine = partial.app_first.get(app)
        if mine is None or key < mine:
            partial.app_first[app] = key
    for session in sessions:
        if not window.in_detailed(session.start):
            continue
        partial.app_sessions[session.app] = (
            partial.app_sessions.get(session.app, 0) + 1
        )
        if session.is_interactive:
            day = window.day_of(session.start)
            partial.user_day_interactive.setdefault(
                (session.subscriber_id, day), set()
            ).add(session.app)


def reference_domains(partial, dataset, attributed, sessions):
    window = dataset.window
    pair_first: dict[tuple[str, str], tuple] = {}
    for item in attributed:
        if item.app is None:
            continue
        pair = (item.record.subscriber_id, item.app)
        key = record_sort_key(item.record)
        mine = pair_first.get(pair)
        if mine is None or key < mine:
            pair_first[pair] = key
    for session in sessions:
        if not window.in_detailed(session.start):
            continue
        app = session.app
        partial.usage_tx[app] = partial.usage_tx.get(app, 0) + session.tx_count
        partial.usage_bytes[app] = (
            partial.usage_bytes.get(app, 0) + session.bytes_total
        )
        partial.usage_count[app] = partial.usage_count.get(app, 0) + 1
        order_key = (
            session.start,
            pair_first[(session.subscriber_id, app)],
        )
        mine = partial.usage_first.get(app)
        if mine is None or order_key < mine:
            partial.usage_first[app] = order_key
    for item in attributed:
        category = item.domain_category
        if category == CATEGORY_UNKNOWN:
            continue
        record = item.record
        if not window.in_detailed(record.timestamp):
            continue
        partial.dom_users.setdefault(category, set()).add(
            record.subscriber_id
        )
        partial.dom_tx[category] = partial.dom_tx.get(category, 0) + 1
        partial.dom_data[category] = (
            partial.dom_data.get(category, 0) + record.total_bytes
        )


def reference_through_device(partial, dataset):
    window = dataset.window
    owner_accounts = dataset.wearable_accounts
    for record in phone_rows(dataset, dataset.proxy_records):
        if not window.in_detailed(record.timestamp):
            continue
        if dataset.account_of(record.subscriber_id) in owner_accounts:
            continue
        subscriber = record.subscriber_id
        partial.tx_count[subscriber] = partial.tx_count.get(subscriber, 0) + 1
        partial.byte_count[subscriber] = (
            partial.byte_count.get(subscriber, 0) + record.total_bytes
        )
        partial.phone_imei.setdefault(subscriber, record.imei)
        kind = TD_FINGERPRINT_HOSTS.get(record.host)
        if kind is not None:
            partial.detected_kind[subscriber] = kind
    detailed_mme = [
        r
        for r in phone_rows(dataset, dataset.mme_records)
        if window.in_detailed(r.timestamp)
        and dataset.account_of(r.subscriber_id) not in owner_accounts
    ]
    study_start = window.study_start
    for subscriber, timeline in build_timelines(detailed_mme).items():
        per_day: list[float] = []
        for sectors in timeline.daily_sectors(study_start).values():
            points: list[GeoPoint] = []
            for sector in sectors:
                location = dataset.sector_map.get(sector)
                if location is not None:
                    points.append(location)
            per_day.append(max_displacement_km(points))
        if per_day:
            partial.displacement_mean[subscriber] = sum(per_day) / len(
                per_day
            )


def reference_protocols(partial, dataset, attributed, app_categories):
    window = dataset.window
    for item in attributed:
        record = item.record
        if not window.in_detailed(record.timestamp):
            continue
        partial.total += 1
        is_http = record.protocol == PROTOCOL_HTTP
        if is_http:
            partial.http_total += 1
        if item.app is None:
            continue
        app = item.app
        partial.app_tx[app] = partial.app_tx.get(app, 0) + 1
        key = record_sort_key(record)
        mine = partial.app_first.get(app)
        if mine is None or key < mine:
            partial.app_first[app] = key
        category = app_categories.get(app, "Tools")
        partial.category_tx[category] = partial.category_tx.get(category, 0) + 1
        if is_http:
            partial.app_http[app] = partial.app_http.get(app, 0) + 1
            partial.category_http[category] = (
                partial.category_http.get(category, 0) + 1
            )
            if record.path:
                partial.app_url[app] = partial.app_url.get(app, 0) + 1


def reference_classification(
    dataset,
    *,
    wearable_subs: set[str],
    phone_subs: set[str],
    tx_count: dict[str, int],
    tx_bytes: dict[str, int],
    account_wearables: dict[str, set[str]],
    account_phones: dict[str, set[str]],
) -> None:
    window = dataset.window
    for record in wearable_rows(dataset, dataset.mme_records):
        if window.in_detailed(record.timestamp):
            wearable_subs.add(record.subscriber_id)
    for record in phone_rows(dataset, dataset.mme_records):
        if window.in_detailed(record.timestamp):
            phone_subs.add(record.subscriber_id)
    for record in dataset.proxy_records:
        if not window.in_detailed(record.timestamp):
            continue
        subscriber = record.subscriber_id
        tx_count[subscriber] = tx_count.get(subscriber, 0) + 1
        tx_bytes[subscriber] = tx_bytes.get(subscriber, 0) + record.total_bytes
    for subscriber in sorted(wearable_subs):
        account = dataset.account_of(subscriber)
        if account is not None:
            account_wearables.setdefault(account, set()).add(subscriber)
    for subscriber in sorted(phone_subs):
        account = dataset.account_of(subscriber)
        if account is not None:
            account_phones.setdefault(account, set()).add(subscriber)


# ------------------------------------------------------------- datasets
SIGNATURES = SignatureCatalog.from_app_catalog(builtin_app_catalog())
APP_CATEGORIES = {app.name: app.category for app in builtin_app_catalog()}


def _hosts() -> tuple[list[str], list[str]]:
    """One exclusive host of each of three apps, and two shared hosts."""
    direct: dict[str, str] = {}
    shared: list[str] = []
    for app in builtin_app_catalog():
        for share in app.domains:
            if SIGNATURES.classify_host(share.host).app is not None:
                direct.setdefault(app.name, share.host)
            elif share.host not in shared:
                shared.append(share.host)
    return [direct[name] for name in sorted(direct)[:3]], sorted(shared)[:2]


DIRECT_HOSTS, SHARED_HOSTS = _hosts()
#: Direct, shared, fingerprint (two kinds) and unknown hosts.
HOSTS = (
    *DIRECT_HOSTS,
    *SHARED_HOSTS,
    *sorted(TD_FINGERPRINT_HOSTS)[:2],
    "unknown.example.org",
)
#: Gaps the §3.3 and §5.1 rules and the day boundaries treat specially.
GAPS = (0.0, 30.0, -30.0, 59.999, 60.0, -60.0, 61.0, 0.5, -1.0, 7200.0)

#: A shared-host row equidistant from direct rows of two apps, and a
#: second usage of one app exactly 60 s after its first.
EQUIDISTANT = [
    ProxyRecord(ANCHORS[4] + gap, "s1", IMEIS[0], host)
    for gap, host in (
        (-30.0, DIRECT_HOSTS[1]),
        (0.0, SHARED_HOSTS[0]),
        (30.0, DIRECT_HOSTS[0]),
        (90.0, DIRECT_HOSTS[0]),
    )
]

timestamps = st.one_of(
    st.floats(
        min_value=WINDOW.study_start - 3 * SECONDS_PER_DAY,
        max_value=WINDOW.study_end + 3 * SECONDS_PER_DAY,
        allow_nan=False,
    ),
    st.builds(
        lambda anchor, gap: anchor + gap,
        st.sampled_from(ANCHORS),
        st.sampled_from(GAPS),
    ),
)
proxy_rows = st.builds(
    ProxyRecord,
    timestamp=timestamps,
    subscriber_id=st.sampled_from(SUBSCRIBERS),
    imei=st.sampled_from(IMEIS),
    host=st.sampled_from(HOSTS),
    path=st.sampled_from(["", "/a"]),
    protocol=st.sampled_from([PROTOCOL_HTTP, PROTOCOL_HTTPS]),
    bytes_up=sizes,
    bytes_down=sizes,
)
#: ``GONE`` is missing from the cell plan.
mme_rows = st.builds(
    MmeRecord,
    timestamp=timestamps,
    subscriber_id=st.sampled_from(SUBSCRIBERS),
    imei=st.sampled_from(IMEIS),
    sector_id=st.sampled_from(["HOME", "WORK", "FAR", "GONE"]),
    event=st.sampled_from([EVENT_ATTACH, EVENT_HANDOVER]),
)


def bursts(rows: st.SearchStrategy) -> st.SearchStrategy:
    """Rows of one subscriber and device around one anchor, ``GAPS``
    apart, so that equal gaps and equal instants are common."""

    def place(row, anchor, gaps):
        return [
            dataclasses.replace(row, timestamp=anchor + gap, **fields)
            for gap, fields in gaps
        ]

    fields = (
        st.fixed_dictionaries({"host": st.sampled_from(HOSTS)})
        if rows is proxy_rows
        else st.fixed_dictionaries(
            {"sector_id": st.sampled_from(["HOME", "WORK", "FAR", "GONE"])}
        )
    )
    return st.builds(
        place,
        rows,
        st.sampled_from(ANCHORS),
        st.lists(st.tuples(st.sampled_from(GAPS), fields), min_size=1, max_size=6),
    )


def trace_rows(rows: st.SearchStrategy, max_size: int) -> st.SearchStrategy:
    """Bursts and scattered rows, concatenated."""
    return st.builds(
        lambda groups, scattered: [row for group in groups for row in group]
        + scattered,
        st.lists(bursts(rows), max_size=4),
        st.lists(rows, max_size=max_size),
    )


def new_partials() -> dict:
    return {
        "mobility": MobilityPartial(),
        "apps": AppsPartial(),
        "domains": DomainsPartial(),
        "through_device": ThroughDevicePartial(),
        "protocols": ProtocolsPartial(),
        "encounters": EncountersPartial(),
    }


def feed_columns(partials: dict, dataset) -> None:
    inputs = PanelInputs(dataset)
    partials["mobility"].consume(dataset)
    partials["apps"].consume(dataset, inputs.attribution, inputs.usage)
    partials["domains"].consume(dataset, inputs.attribution, inputs.usage)
    partials["through_device"].consume(dataset)
    partials["protocols"].consume(dataset, inputs.attribution, APP_CATEGORIES)
    partials["encounters"].consume(dataset)


def feed_rows(partials: dict, dataset) -> None:
    attributed = reference_attribute(
        wearable_rows(dataset, dataset.proxy_records), SIGNATURES
    )
    sessions = reference_sessionize(attributed)
    reference_mobility(partials["mobility"], dataset)
    reference_apps(partials["apps"], dataset, attributed, sessions)
    reference_domains(partials["domains"], dataset, attributed, sessions)
    reference_through_device(partials["through_device"], dataset)
    reference_protocols(partials["protocols"], dataset, attributed, APP_CATEGORIES)
    encounters = partials["encounters"]
    reference_classification(
        dataset,
        wearable_subs=encounters.wearable_subs,
        phone_subs=encounters.phone_subs,
        tx_count=encounters.tx_count,
        tx_bytes=encounters.tx_bytes,
        account_wearables=encounters.account_wearables,
        account_phones=encounters.account_phones,
    )


# ------------------------------------------------------------------ tests
class TestCrossRowFoldsMatchRowFolds:
    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        proxy=trace_rows(proxy_rows, 24),
        mme=trace_rows(mme_rows, 18),
        cut=st.floats(0.0, 1.0),
        producer=st.sampled_from(["rows", "bin"]),
    )
    @example(proxy=EQUIDISTANT, mme=[], cut=0.0, producer="rows")
    def test_states_equal(self, proxy, mme, cut, producer):
        """Two deltas folded column-wise and row-wise give equal states
        (the second delta lands on non-empty state)."""
        deltas = [
            (proxy[: int(cut * len(proxy))], mme[: int(cut * len(mme))]),
            (proxy[int(cut * len(proxy)) :], mme[int(cut * len(mme)) :]),
        ]
        columnar = new_partials()
        expected = new_partials()
        with tempfile.TemporaryDirectory() as workdir:
            for index, (delta_proxy, delta_mme) in enumerate(deltas):
                if producer == "rows":
                    feed_columns(columnar, rows_dataset(delta_proxy, delta_mme))
                    feed_rows(expected, rows_dataset(delta_proxy, delta_mme))
                    continue
                part = Path(workdir) / str(index)
                part.mkdir()
                feed_columns(columnar, bin_dataset(delta_proxy, delta_mme, part))
                feed_rows(expected, bin_dataset(delta_proxy, delta_mme, part))
        for name, partial in expected.items():
            assert canonical_state(columnar[name]) == canonical_state(partial), name

    @settings(max_examples=200, deadline=None)
    @given(
        proxy=trace_rows(proxy_rows, 24),
        gap=st.sampled_from([60.0, 30.0, 1.5]),
    )
    @example(proxy=EQUIDISTANT, gap=60.0)
    def test_row_adapters(self, proxy, gap):
        """``attribute_table`` and ``session_table``, read back as rows,
        return what the row bodies returned, in the same order."""
        rows = [r for r in proxy if r.tac in DEVICE_DB.wearable_tacs()]
        attribution = attribute_table(
            ColumnTable.from_records(ProxyRecord, rows), SIGNATURES
        )
        attributed = attributed_rows(attribution)
        assert attributed == reference_attribute(rows, SIGNATURES)
        assert session_rows(
            session_table(attribution, gap)
        ) == reference_sessionize(attributed, gap)


class TestNoRowObjects:
    """The analysis folds columns: a ``.bin``-loaded batch run and an
    analysis shard step never build a proxy or MME row."""

    @pytest.fixture
    def no_rows(self, monkeypatch):
        def refuse(self):
            raise AssertionError(f"{self.record_type.__name__} rows built")

        monkeypatch.setattr(ColumnTable, "_record_chunks", refuse)

    @pytest.fixture(scope="class")
    def bin_trace(self, small_output, tmp_path_factory):
        path = tmp_path_factory.mktemp("no-rows")
        small_output.write(path, format="bin")
        return path

    def test_batch_run_all(self, bin_trace, no_rows):
        report = WearableStudy(StudyDataset.load(bin_trace)).run_all()
        assert report.apps.per_app

    def test_shard_task(self, bin_trace, no_rows):
        dataset = StudyDataset.load(bin_trace)
        _, stats = _analyze_shard(dataset, 0, 2, _sector_intervals(dataset, 2)[0])
        assert stats.proxy_records == len(dataset.shard(0, 2).proxy)
