"""Metamorphic relations: the paper's rules, checked end to end.

The golden digests pin what the code computes; these tests pin what it
must compute.  Each one perturbs a trace in a way whose effect on the
report is known from the paper's rules and checks for exactly that
effect, through the batch path (``StudyDataset.load`` +
``WearableStudy.run_all``) and through a 4-shard ``analyze_parallel``:

* §3.3 timeframe attribution: a shared-host row takes the app of the
  nearest direct row of its subscriber within 60 s, the earlier of two
  equally near ones;
* §5.1 sessions: a gap of 60 s or more splits a usage;
* encounters: 60 s of co-presence in one (sector, hour) cell is an
  event, and swapping the MME streams of two subscribers of the same SIM
  class leaves the event totals, the pair mix and the degrees unchanged;
* an order-preserving relabelling of subscribers and accounts, and a
  shift of the whole trace by whole weeks, leave the report unchanged;
* lenient ingest: exact copies inserted right after rows, and rows with
  a malformed IMEI, an unknown sector or negative byte counts, leave
  every analysis field unchanged and add exactly the quarantine issues
  injected.  These run through the lenient batch load of a CSV and of a
  ``.bin`` trace and through a 4-shard ``analyze_parallel(lenient=True)``.

The traces are the small preset with hand-built probe rows added: probe
subscribers with their own accounts, and for the encounter relation
probe sectors no other subscriber visits.  Timestamps of probe rows are
whole seconds, so every gap below is exact.
"""

from __future__ import annotations

import csv
import dataclasses
import random
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.app_mapping import SignatureCatalog
from repro.core.dataset import StudyDataset
from repro.core.parallel import PanelInputs, analyze_parallel
from repro.core.pipeline import WearableStudy
from repro.core.sessions import sessionize
from repro.devicedb.tac import make_imei, tac_of
from repro.logs.binfmt import write_bin_rows
from repro.logs.records import (
    MmeRecord,
    ProxyRecord,
    fields_for,
    record_sort_key,
    record_to_row,
)
from repro.logs.timeutil import SECONDS_PER_DAY, SECONDS_PER_HOUR, SECONDS_PER_WEEK
from repro.simnet.appcatalog import builtin_app_catalog
from repro.simnet.topology import Sector, SectorMap
from repro.stats.geo import GeoPoint

SHARDS = (1, 4)

relation = settings(
    max_examples=3,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.function_scoped_fixture,
    ],
)


# ------------------------------------------------------------------ traces
def report_of(output, workdir: Path, shards: int):
    """The report of a trace: batch for ``shards=1``, else ``analyze_parallel``."""
    workdir.mkdir(parents=True, exist_ok=True)
    output.write(workdir, format="bin")
    if shards == 1:
        return WearableStudy(StudyDataset.load(workdir)).run_all()
    return analyze_parallel(workdir, shards=shards).report


def with_rows(base, proxy=(), mme=(), accounts=None, sectors=()):
    """``base`` plus probe rows, accounts and sectors, in canonical order."""
    directory = dict(base.account_directory)
    directory.update(accounts or {})
    sector_map = base.sector_map
    if sectors:
        sector_map = SectorMap([*base.sector_map, *sectors])
    return dataclasses.replace(
        base,
        proxy_records=sorted([*base.proxy_records, *proxy], key=record_sort_key),
        mme_records=sorted([*base.mme_records, *mme], key=record_sort_key),
        account_directory=directory,
        sector_map=sector_map,
    )


def wearable_imei(base, serial: int) -> str:
    return make_imei(sorted(base.device_db.wearable_tacs())[0], 900_000 + serial)


def detailed_instant(base, day: int, second: int) -> float:
    """Whole-second instant ``second`` into detailed day ``day``."""
    config = base.config
    first = config.total_days - config.detailed_days
    return float(
        int(config.study_start) + (first + day) * SECONDS_PER_DAY + second
    )


def probe_proxy(base, at: float, host: str, subscriber: str = "zz-probe"):
    return ProxyRecord(
        timestamp=at,
        subscriber_id=subscriber,
        imei=wearable_imei(base, 1),
        host=host,
        bytes_down=1000,
    )


PROBE_ACCOUNTS = {"zz-probe": "zz-probe-account"}


def _hosts() -> tuple[dict[str, str], list[str]]:
    """One exclusive host per app, and the shared hosts of the catalog."""
    signatures = SignatureCatalog.from_app_catalog(builtin_app_catalog())
    direct: dict[str, str] = {}
    shared: list[str] = []
    for app in builtin_app_catalog():
        for share in app.domains:
            match = signatures.classify_host(share.host)
            if match.app is not None:
                direct.setdefault(match.app, share.host)
            elif share.host not in shared:
                shared.append(share.host)
    return direct, sorted(shared)


DIRECT_HOSTS, SHARED_HOSTS = _hosts()
APPS = sorted(DIRECT_HOSTS)


def app_transactions(report) -> dict[str, int]:
    return {row.app: row.transactions for row in report.protocols.per_app}


# -------------------------------------------------------------- §3.3 rule
class TestTimeframeAttribution:
    @pytest.mark.parametrize("shards", SHARDS)
    @relation
    @given(
        day=st.integers(0, 12),
        second=st.integers(200, 80_000),
        app=st.sampled_from(APPS),
        host=st.sampled_from(SHARED_HOSTS),
        after=st.booleans(),
    )
    def test_within_sixty_seconds(
        self, small_output, tmp_path_factory, shards, day, second, app, host, after
    ):
        """The direct row 59 or 60 s away attributes the shared-host row;
        61 s away it does not."""
        at = detailed_instant(small_output, day, second)
        workdir = tmp_path_factory.mktemp("attribution")
        counts = {}
        for gap in (59, 60, 61):
            direct = at + gap if after else at - gap
            trace = with_rows(
                small_output,
                proxy=[
                    probe_proxy(small_output, at, host),
                    probe_proxy(small_output, direct, DIRECT_HOSTS[app]),
                ],
                accounts=PROBE_ACCOUNTS,
            )
            report = report_of(trace, workdir / str(gap), shards)
            counts[gap] = app_transactions(report).get(app, 0)
        assert counts[59] == counts[60] == counts[61] + 1

    @pytest.mark.parametrize("shards", SHARDS)
    @relation
    @given(
        day=st.integers(0, 12),
        second=st.integers(200, 80_000),
        apps=st.lists(st.sampled_from(APPS), min_size=2, max_size=2, unique=True),
        host=st.sampled_from(SHARED_HOSTS),
        gap=st.integers(2, 60),
        nearer=st.integers(1, 30),
    )
    def test_earlier_wins_an_equal_gap(
        self, small_output, tmp_path_factory, shards, day, second, apps, host,
        gap, nearer,
    ):
        """Of two direct rows equally near, the earlier one's app wins; of
        two at different gaps, the nearer one's."""
        at = detailed_instant(small_output, day, second)
        earlier, later = apps
        workdir = tmp_path_factory.mktemp("ties")
        for later_gap, winner in ((gap, earlier), (max(1, gap - nearer), later)):
            directs = [
                probe_proxy(small_output, at - gap, DIRECT_HOSTS[earlier]),
                probe_proxy(small_output, at + later_gap, DIRECT_HOSTS[later]),
            ]
            shared = probe_proxy(small_output, at, host)
            without = report_of(
                with_rows(small_output, proxy=directs, accounts=PROBE_ACCOUNTS),
                workdir / f"{later_gap}-without",
                shards,
            )
            with_shared = report_of(
                with_rows(
                    small_output, proxy=[*directs, shared], accounts=PROBE_ACCOUNTS
                ),
                workdir / f"{later_gap}-with",
                shards,
            )
            before = app_transactions(without)
            after = app_transactions(with_shared)
            for app in apps:
                expected = before.get(app, 0) + (app == winner)
                assert after.get(app, 0) == expected, (app, winner)


# ------------------------------------------------------------- §5.1 rule
def usage_counts(report) -> dict[str, int]:
    return {row.app: row.usage_count for row in report.domains.per_app_usage}


@pytest.fixture(scope="module")
def listed_apps(small_output) -> list[str]:
    """Apps the small preset's Fig. 7 lists (five or more usages)."""
    return sorted(usage_counts(WearableStudy(StudyDataset.from_simulation(small_output)).run_all()))


class TestSessionGap:
    @pytest.mark.parametrize("shards", SHARDS)
    @relation
    @given(
        day=st.integers(0, 12),
        second=st.integers(0, 80_000),
        pick=st.integers(0, 10**6),
    )
    def test_sixty_seconds_split(
        self, small_output, listed_apps, tmp_path_factory, shards, day, second, pick
    ):
        """Two transactions 60 s apart are two usages; 59.999 s apart, one."""
        app = listed_apps[pick % len(listed_apps)]
        at = detailed_instant(small_output, day, second)
        workdir = tmp_path_factory.mktemp("sessions")
        counts = {}
        for gap in (60.0, 59.999):
            trace = with_rows(
                small_output,
                proxy=[
                    probe_proxy(small_output, at, DIRECT_HOSTS[app]),
                    probe_proxy(small_output, at + gap, DIRECT_HOSTS[app]),
                ],
                accounts=PROBE_ACCOUNTS,
            )
            counts[gap] = usage_counts(report_of(trace, workdir / str(gap), shards))[
                app
            ]
        assert counts[60.0] == counts[59.999] + 1

    @pytest.mark.parametrize("shards", SHARDS)
    @settings(max_examples=10, deadline=None)
    @given(gaps=st.lists(st.floats(1.0, 600.0), min_size=2, max_size=2, unique=True))
    def test_larger_gap_never_more_sessions(self, small_dataset, shards, gaps):
        low, high = sorted(gaps)
        parts = (
            [small_dataset]
            if shards == 1
            else [small_dataset.shard(k, shards) for k in range(shards)]
        )
        attributed = [PanelInputs(part).attributed for part in parts]

        def sessions(gap: float) -> int:
            return sum(len(sessionize(items, gap)) for items in attributed)

        assert sessions(high) <= sessions(low)


# ------------------------------------------------------------- encounters
PROBE_SECTORS = [
    Sector(name, GeoPoint(45.0, longitude))
    for name, longitude in (("zz-X", 1.0), ("zz-Y", 1.5), ("zz-Z", 2.0))
]


class TestEncounterOverlap:
    @pytest.mark.parametrize("shards", SHARDS)
    @relation
    @given(
        day=st.integers(0, 12),
        hour=st.integers(0, 23),
        offset=st.integers(0, 2500),
        names=st.sampled_from([("zz-p", "zz-q"), ("zz-q", "zz-p")]),
    )
    def test_sixty_seconds_in_one_cell(
        self, small_output, tmp_path_factory, shards, day, hour, offset, names
    ):
        """Two probes share sector X for exactly 60 s inside one hour: one
        more event than when they share it for 59.999 s."""
        start = detailed_instant(small_output, day, hour * SECONDS_PER_HOUR + offset)
        first, second = names
        imeis = [wearable_imei(small_output, serial) for serial in (2, 3)]
        workdir = tmp_path_factory.mktemp("encounters")
        events = {}
        for late in (0.0, 0.001):
            mme = [
                MmeRecord(start + 100, first, imeis[0], "zz-X", "attach"),
                MmeRecord(start + 400, first, imeis[0], "zz-Y", "handover"),
                MmeRecord(start + 340 + late, second, imeis[1], "zz-X", "attach"),
                MmeRecord(start + 1000, second, imeis[1], "zz-Z", "handover"),
            ]
            trace = with_rows(
                small_output,
                mme=mme,
                accounts={first: "zz-a1", second: "zz-a2"},
                sectors=PROBE_SECTORS,
            )
            encounters = report_of(trace, workdir / str(late), shards).encounters
            events[late] = (encounters.n_events, encounters.n_pairs)
        assert events[0.0] == (events[0.001][0] + 1, events[0.001][1] + 1)


#: The encounter fields a swap of two same-class MME streams must keep.
SWAP_INVARIANT = (
    "n_subscribers",
    "n_pairs",
    "n_events",
    "pairs_wearable_wearable",
    "pairs_wearable_phone",
    "pairs_phone_phone",
    "wearable_degree",
    "phone_degree",
)


def sim_classes(base) -> dict[str, list[str]]:
    """The subscribers with detailed-window MME rows, by SIM class (the
    TAC of the IMEIs on their MME rows)."""
    start = detailed_instant(base, 0, 0)
    wearable_tacs = base.device_db.wearable_tacs()
    classes: dict[str, set[bool]] = {}
    for r in base.mme_records:
        if r.timestamp >= start:
            classes.setdefault(r.subscriber_id, set()).add(
                tac_of(r.imei) in wearable_tacs
            )
    return {
        name: sorted(s for s, kinds in classes.items() if kinds == {wearable})
        for name, wearable in (("wearable", True), ("phone", False))
    }


class TestEncounterSwap:
    @pytest.mark.parametrize("shards", SHARDS)
    @relation
    @given(sim=st.sampled_from(["wearable", "phone"]), seed=st.integers(0, 10**6))
    def test_swapped_streams(self, small_output, tmp_path_factory, shards, sim, seed):
        """Swapping the MME streams of two subscribers of the same SIM
        class moves every dwell interval, and so every encounter, from
        one to the other, intact: the pair and event totals, the pair mix
        by class and each class's degree distribution stay as they were.
        The join is keyed by sector, so neither the account partition
        nor the subscriber names may change which pairs it finds."""
        first, second = random.Random(seed).sample(sim_classes(small_output)[sim], 2)
        names = {first: second, second: first}
        swapped = dataclasses.replace(
            small_output,
            mme_records=sorted(
                (
                    dataclasses.replace(
                        r, subscriber_id=names.get(r.subscriber_id, r.subscriber_id)
                    )
                    for r in small_output.mme_records
                ),
                key=record_sort_key,
            ),
        )
        workdir = tmp_path_factory.mktemp("swap")
        after = report_of(swapped, workdir / "swapped", shards).encounters
        before = report_of(small_output, workdir / "base", shards).encounters
        assert [getattr(after, name) for name in SWAP_INVARIANT] == [
            getattr(before, name) for name in SWAP_INVARIANT
        ]


# ------------------------------------------------------------- invariance
def relabel(ids, scheme: str, seed: int) -> dict[str, str]:
    """An order-preserving renaming of ``ids``."""
    ordered = sorted(ids)
    if scheme == "prefix":
        return {name: f"r{seed % 97}-{name}" for name in ordered}
    rng = random.Random(seed)
    value = 0
    names = {}
    for name in ordered:
        value += rng.randint(1, 1000)
        names[name] = f"u{value:012d}"
    return names


class TestInvariance:
    @pytest.mark.parametrize("shards", SHARDS)
    @relation
    @given(
        scheme=st.sampled_from(["prefix", "rank"]),
        seed=st.integers(0, 10**6),
    )
    def test_relabelled_ids(self, small_output, tmp_path_factory, shards, scheme, seed):
        """Renaming subscribers and accounts in order (accounts keep their
        members, devices their IMEIs) leaves the report as it was.  The
        report holds no subscriber or account name, so mapping the names
        back is the identity."""
        base = small_output
        subscribers = {r.subscriber_id for r in base.proxy_records}
        subscribers.update(r.subscriber_id for r in base.mme_records)
        subscribers.update(base.account_directory)
        new_sub = relabel(subscribers, scheme, seed)
        new_account = relabel(set(base.account_directory.values()), scheme, seed + 1)
        renamed = dataclasses.replace(
            base,
            proxy_records=[
                dataclasses.replace(r, subscriber_id=new_sub[r.subscriber_id])
                for r in base.proxy_records
            ],
            mme_records=[
                dataclasses.replace(r, subscriber_id=new_sub[r.subscriber_id])
                for r in base.mme_records
            ],
            account_directory={
                new_sub[s]: new_account[a] for s, a in base.account_directory.items()
            },
        )
        workdir = tmp_path_factory.mktemp("relabel")
        assert report_of(renamed, workdir / "renamed", shards) == report_of(
            base, workdir / "base", shards
        )

    @pytest.mark.parametrize("shards", SHARDS)
    @relation
    @given(weeks=st.integers(-60, 60).filter(bool))
    def test_shift_by_whole_weeks(self, small_output, tmp_path_factory, shards, weeks):
        """Moving every timestamp and the study window by whole weeks
        keeps every weekday, hour and gap, so the report is unchanged."""

        def shifted(by: float):
            config = small_output.config
            return dataclasses.replace(
                small_output,
                config=dataclasses.replace(
                    config, study_start=config.study_start + by
                ),
                proxy_records=[
                    dataclasses.replace(r, timestamp=float(int(r.timestamp)) + by)
                    for r in small_output.proxy_records
                ],
                mme_records=[
                    dataclasses.replace(r, timestamp=float(int(r.timestamp)) + by)
                    for r in small_output.mme_records
                ],
            )

        workdir = tmp_path_factory.mktemp("shift")
        assert report_of(
            shifted(weeks * SECONDS_PER_WEEK), workdir / "moved", shards
        ) == report_of(shifted(0.0), workdir / "base", shards)


# --------------------------------------------------------- lenient ingest
#: (wire format, shards): the lenient batch load of each format, and a
#: 4-shard ``analyze_parallel`` over the ``.bin`` trace.
LENIENT_PATHS = [("csv", 1), ("bin", 1), ("bin", 4)]

LOG_TYPES = (("proxy", ProxyRecord), ("mme", MmeRecord))


def write_raw_trace(output, workdir: Path, fmt: str, rows: dict) -> None:
    """``output``'s side files plus logs of raw value tuples, written
    without the record checks (so out-of-domain values reach the file)."""
    output.write(workdir, format=fmt)
    for stem, record_type in LOG_TYPES:
        path = workdir / f"{stem}.{fmt}"
        if fmt == "bin":
            write_bin_rows(path, (("row", row) for row in rows[stem]), record_type)
            continue
        with path.open("w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(fields_for(record_type))
            writer.writerows(rows[stem])


def lenient_report(output, workdir: Path, path: tuple[str, int], rows: dict):
    fmt, shards = path
    workdir.mkdir(parents=True, exist_ok=True)
    write_raw_trace(output, workdir, fmt, rows)
    if shards == 1:
        return WearableStudy(StudyDataset.load(workdir, lenient=True)).run_all()
    return analyze_parallel(workdir, shards=shards, lenient=True).report


def analysis_fields(report):
    return dataclasses.replace(report, quarantine=None)


def issue_counts(report) -> dict[str, int]:
    return {issue.code: issue.count for issue in report.quarantine.issues}


@pytest.fixture(scope="module")
def clean_rows(small_output) -> dict:
    return {
        "proxy": [record_to_row(r) for r in small_output.proxy_records],
        "mme": [record_to_row(r) for r in small_output.mme_records],
    }


@pytest.fixture(scope="module")
def clean_lenient(small_output, clean_rows, tmp_path_factory) -> dict:
    """The lenient report of the unmodified trace, per path."""
    workdir = tmp_path_factory.mktemp("lenient-clean")
    return {
        path: lenient_report(
            small_output, workdir / f"{path[0]}-{path[1]}", path, clean_rows
        )
        for path in LENIENT_PATHS
    }


def insert_after(rows: list, picks: dict[int, list[tuple]]) -> list:
    """``rows`` with ``picks[i]`` inserted right after row ``i``."""
    out = []
    for index, row in enumerate(rows):
        out.append(row)
        out.extend(picks.get(index, ()))
    return out


def picked(rng: random.Random, rows: list, count: int) -> list[int]:
    return rng.sample(range(len(rows)), count)


MALFORMED_IMEIS = ["35884708000001", "3588470800000111", "35884708000001x", ""]


class TestLenientIngest:
    @pytest.mark.parametrize("path", LENIENT_PATHS)
    @relation
    @given(
        copies=st.tuples(st.integers(1, 12), st.integers(1, 12)),
        seed=st.integers(0, 10**6),
    )
    def test_exact_copies(
        self, small_output, clean_rows, clean_lenient, tmp_path_factory, path,
        copies, seed,
    ):
        """k exact copies, each right after its row, add k duplicates."""
        rng = random.Random(seed)
        rows = {}
        for (stem, _), count in zip(LOG_TYPES, copies):
            base = clean_rows[stem]
            rows[stem] = insert_after(
                base, {i: [base[i]] for i in picked(rng, base, count)}
            )
        report = lenient_report(
            small_output, tmp_path_factory.mktemp("copies"), path, rows
        )
        clean = clean_lenient[path]
        assert analysis_fields(report) == analysis_fields(clean)
        expected = issue_counts(clean)
        for (stem, _), count in zip(LOG_TYPES, copies):
            code = f"{stem}-duplicate"
            expected[code] = expected.get(code, 0) + count
        assert issue_counts(report) == expected

    @pytest.mark.parametrize("path", LENIENT_PATHS)
    @relation
    @given(
        imeis=st.tuples(st.integers(1, 6), st.integers(1, 6)),
        sectors=st.integers(1, 6),
        negative=st.integers(2, 8),
        seed=st.integers(0, 10**6),
    )
    def test_unanalysable_rows(
        self, small_output, clean_rows, clean_lenient, tmp_path_factory, path,
        imeis, sectors, negative, seed,
    ):
        """Rows with a malformed IMEI, an unknown sector or a negative byte
        count (up and down alternately), each a copy of a row with that one
        field changed and inserted right after it, add exactly their
        ``<stream>-imei``, ``mme-sector`` and ``proxy-value`` issues."""
        rng = random.Random(seed)
        proxy, mme = clean_rows["proxy"], clean_rows["mme"]
        bad_proxy: dict[int, list[tuple]] = {}
        bad_mme: dict[int, list[tuple]] = {}
        for n, index in enumerate(picked(rng, proxy, imeis[0])):
            row = list(proxy[index])
            row[2] = MALFORMED_IMEIS[n % len(MALFORMED_IMEIS)]
            bad_proxy.setdefault(index, []).append(tuple(row))
        for n, index in enumerate(picked(rng, proxy, negative)):
            row = list(proxy[index])
            row[6 + n % 2] = -1 - n
            bad_proxy.setdefault(index, []).append(tuple(row))
        for n, index in enumerate(picked(rng, mme, imeis[1])):
            row = list(mme[index])
            row[2] = MALFORMED_IMEIS[n % len(MALFORMED_IMEIS)]
            bad_mme.setdefault(index, []).append(tuple(row))
        for n, index in enumerate(picked(rng, mme, sectors)):
            row = list(mme[index])
            row[3] = f"zz-unplanned-{n}"
            bad_mme.setdefault(index, []).append(tuple(row))
        rows = {
            "proxy": insert_after(proxy, bad_proxy),
            "mme": insert_after(mme, bad_mme),
        }
        report = lenient_report(
            small_output, tmp_path_factory.mktemp("unanalysable"), path, rows
        )
        clean = clean_lenient[path]
        assert analysis_fields(report) == analysis_fields(clean)
        expected = issue_counts(clean)
        for code, count in (
            ("proxy-imei", imeis[0]),
            ("mme-imei", imeis[1]),
            ("mme-sector", sectors),
            ("proxy-value", negative),
        ):
            expected[code] = expected.get(code, 0) + count
        assert issue_counts(report) == expected
