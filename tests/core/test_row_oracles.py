"""Trace validation and the two extensions against their row bodies.

:func:`~repro.logs.validate.validate_trace`,
:func:`~repro.core.cohorts.analyze_cohorts` and
:func:`~repro.core.throughdevice_full.analyze_through_device_full` must
give what the row loops in ``tests/core/row_oracles.py`` give over the
same rows.  A property test builds small datasets through both table
producers (row lists, and a ``.bin`` write decoded by ``read_bin_table``)
from rows with out-of-order and out-of-window timestamps, malformed
IMEIs and IMEIs of TACs the device database does not know, subscribers
missing from the billing directory, sectors missing from the cell plan,
and subscriber-days with a single event.  It requires an equal
:class:`~repro.logs.validate.ValidationReport` and an equal
:class:`~repro.core.cohorts.CohortResult` (or the same error), and for
the through-device analysis equal counts and float means within 1e-9
relative: the row body sums its per-user means in set order.

Two more tests pin what the columns bought.  Over the small preset
written as ``.bin`` and loaded strictly or leniently, a batch run,
validation and the two extensions build no row object; and the full
through-device analysis gives the same bits under any ``PYTHONHASHSEED``,
which the row body, summing over sets, did not.
"""

from __future__ import annotations

import dataclasses
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.cohorts import analyze_cohorts
from repro.core.dataset import StudyDataset
from repro.core.pipeline import WearableStudy
from repro.core.throughdevice import TD_FINGERPRINT_HOSTS
from repro.core.throughdevice_full import analyze_through_device_full
from repro.devicedb.tac import make_imei
from repro.logs import binfmt
from repro.logs.columns import ColumnTable
from repro.logs.records import EVENT_ATTACH, EVENT_HANDOVER, MmeRecord, ProxyRecord
from repro.logs.validate import validate_trace
from tests.core.helpers import PHONE_IMEI, WATCH_IMEI
from tests.core.row_oracles import (
    reference_cohorts,
    reference_through_device_full,
    reference_validate,
)
from tests.core.test_column_folds import (
    IMEIS,
    SUBSCRIBERS,
    WINDOW,
    bin_dataset,
    rows_dataset,
    sizes,
)
from tests.core.test_cross_row_folds import GAPS, HOSTS, timestamps

#: Adds a well-formed IMEI of an unknown TAC and a non-digit one.
ALL_IMEIS = (*IMEIS, make_imei("99999999", 3), "3588470800X0001")

proxy_rows = st.builds(
    ProxyRecord,
    timestamp=timestamps,
    subscriber_id=st.sampled_from(SUBSCRIBERS),
    imei=st.sampled_from(ALL_IMEIS),
    host=st.sampled_from(HOSTS),
    bytes_up=sizes,
    bytes_down=sizes,
)
#: ``GONE`` is missing from the cell plan.
mme_rows = st.builds(
    MmeRecord,
    timestamp=timestamps,
    subscriber_id=st.sampled_from(SUBSCRIBERS),
    imei=st.sampled_from(ALL_IMEIS),
    sector_id=st.sampled_from(["HOME", "WORK", "FAR", "GONE"]),
    event=st.sampled_from([EVENT_ATTACH, EVENT_HANDOVER]),
)
#: Phone rows of s5 and s6, who are in no owner account; s5's proxy rows
#: are on a fingerprint host.
SYNC_HOST = sorted(TD_FINGERPRINT_HOSTS)[0]
phone_users = st.sampled_from(["s5", "s6"])
phone_proxy_rows = st.builds(
    lambda row, subscriber: dataclasses.replace(
        row,
        subscriber_id=subscriber,
        imei=PHONE_IMEI,
        host=SYNC_HOST if subscriber == "s5" else row.host,
    ),
    proxy_rows,
    phone_users,
)
phone_mme_rows = st.builds(
    lambda row, subscriber: dataclasses.replace(
        row, subscriber_id=subscriber, imei=PHONE_IMEI
    ),
    mme_rows,
    phone_users,
)


def traces(rows: st.SearchStrategy, max_size: int) -> st.SearchStrategy:
    """Runs of one row repeated ``GAPS`` apart, then scattered rows."""
    repeated = st.builds(
        lambda row, gaps: [
            dataclasses.replace(row, timestamp=row.timestamp + gap) for gap in gaps
        ],
        rows,
        st.lists(st.sampled_from(GAPS), min_size=1, max_size=5),
    )
    return st.builds(
        lambda runs, scattered: [row for run in runs for row in run] + scattered,
        st.lists(repeated, max_size=3),
        st.lists(rows, max_size=max_size),
    )


#: A through-device user (s5 is in no owner account), a SIM-wearable
#: user and one phone user per group, each with a detailed-window
#: timeline.
AT = WINDOW.detailed_start + 3600.0
THREE_GROUPS = (
    [
        ProxyRecord(AT, "s5", PHONE_IMEI, SYNC_HOST, bytes_down=10),
        ProxyRecord(AT + 30.0, "s1", WATCH_IMEI, HOSTS[0], bytes_down=20),
        ProxyRecord(AT - 30.0, "s6", PHONE_IMEI, HOSTS[0], bytes_down=30),
    ],
    [
        MmeRecord(AT, "s5", PHONE_IMEI, "HOME"),
        MmeRecord(AT + 600.0, "s5", PHONE_IMEI, "FAR"),
        MmeRecord(AT, "s1", WATCH_IMEI, "WORK"),
        MmeRecord(AT - 60.0, "s6", PHONE_IMEI, "GONE"),
    ],
)


def outcome(call, *args):
    """The result of ``call``, or the ValueError it raised."""
    try:
        return call(*args)
    except ValueError as error:
        return ("ValueError", str(error))


def assert_close(actual, expected, where: str = "result") -> None:
    """Equal, with floats within 1e-9 relative."""
    assert type(actual) is type(expected), where
    if isinstance(expected, float):
        assert math.isclose(actual, expected, rel_tol=1e-9), where
    elif dataclasses.is_dataclass(expected):
        for spec in dataclasses.fields(expected):
            assert_close(
                getattr(actual, spec.name),
                getattr(expected, spec.name),
                f"{where}.{spec.name}",
            )
    elif isinstance(expected, list):
        assert len(actual) == len(expected), where
        for index, (mine, theirs) in enumerate(zip(actual, expected)):
            assert_close(mine, theirs, f"{where}[{index}]")
    else:
        assert actual == expected, where


class TestColumnsMatchRowBodies:
    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        proxy=traces(st.one_of(proxy_rows, phone_proxy_rows), 24),
        mme=traces(st.one_of(mme_rows, phone_mme_rows), 18),
        producer=st.sampled_from(["rows", "bin"]),
    )
    @example(proxy=THREE_GROUPS[0], mme=THREE_GROUPS[1], producer="rows")
    @example(proxy=THREE_GROUPS[0], mme=THREE_GROUPS[1], producer="bin")
    def test_equal_results(self, proxy, mme, producer):
        with tempfile.TemporaryDirectory() as scratch:
            if producer == "rows":
                dataset = rows_dataset(proxy, mme)
            else:
                dataset = bin_dataset(proxy, mme, Path(scratch))
            assert validate_trace(dataset) == reference_validate(dataset, proxy, mme)
            assert outcome(analyze_cohorts, dataset) == outcome(
                reference_cohorts, dataset, mme
            )
            assert_close(
                outcome(analyze_through_device_full, dataset),
                outcome(reference_through_device_full, dataset, proxy, mme),
            )


@pytest.fixture(scope="module")
def bin_trace(small_output, tmp_path_factory):
    path = tmp_path_factory.mktemp("row-oracles")
    small_output.write(path, format="bin")
    return path


class TestNoRowObjects:
    """Over a ``.bin`` trace, loaded strictly or leniently, the batch
    callers never build a proxy or MME row."""

    CALLS = {
        "run_all": lambda dataset: WearableStudy(dataset).run_all().apps.per_app,
        "validate_trace": lambda dataset: validate_trace(dataset).ok,
        "analyze_cohorts": lambda dataset: analyze_cohorts(dataset).total_users,
        "analyze_through_device_full": lambda dataset: (
            analyze_through_device_full(dataset).through_device.users
        ),
    }

    @pytest.mark.parametrize("call", sorted(CALLS))
    @pytest.mark.parametrize("lenient", [False, True])
    def test_builds_no_row(self, bin_trace, lenient, call):
        refuse = AssertionError("rows built")
        with patch.object(
            ColumnTable, "_record_chunks", side_effect=refuse
        ), patch.object(binfmt, "record_maker", side_effect=refuse):
            dataset = StudyDataset.load(bin_trace, lenient=lenient, format="bin")
            assert self.CALLS[call](dataset)


#: Prints the full through-device analysis of a trace, floats as
#: ``float.hex``.
HEXED = """
import dataclasses, json, sys
from repro.core.dataset import StudyDataset
from repro.core.throughdevice_full import analyze_through_device_full
from repro.stats.cdf import ECDF

def hexed(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, ECDF):
        value = value.sample
    if dataclasses.is_dataclass(value):
        value = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
        return {name: hexed(item) for name, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [hexed(item) for item in value]
    return value

dataset = StudyDataset.load(sys.argv[1], format="bin")
print(json.dumps(hexed(analyze_through_device_full(dataset))))
"""


class TestHashSeed:
    def test_same_bits_under_every_hash_seed(self, bin_trace):
        """Fresh interpreters under ``PYTHONHASHSEED`` 0-3 print the same
        ``float.hex`` for every field."""
        src = str(Path(__file__).resolve().parents[2] / "src")
        outputs = {
            seed: subprocess.run(
                [sys.executable, "-c", HEXED, str(bin_trace)],
                env={**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src},
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            for seed in range(4)
        }
        assert len(set(outputs.values())) == 1, outputs
