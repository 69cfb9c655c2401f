"""Generated cut points: the service against batch across a restart.

A small-preset trace arrives in two to four appends whose ends
hypothesis draws, per log: block boundaries for ``.bin`` logs, any byte
for CSV.  The service drains after each append.  After one drawn append
it writes a checkpoint and a fresh service restores from it: the
restored report and quarantine must equal the live service's there.
The restored service then takes the remaining appends and must end with
the report and quarantine batch ``analyze_parallel`` computes on the
same bytes, issue order included.
"""

from __future__ import annotations

from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.export import report_to_dict
from repro.core.parallel import analyze_parallel
from repro.logs import binfmt
from repro.logs.faults import FaultSpec, corrupt_trace
from repro.logs.records import MmeRecord, ProxyRecord
from repro.serve.service import AnalysisService, ServeConfig, ServiceNotReady

from tests.serve.conftest import drain, make_growing_dir

SHARDS = 2

#: Rows per block of the ``.bin`` logs: small, so a log has many blocks
#: to cut between.
BLOCK_ROWS = 512

#: Every row-level fault but truncation, which a tailer and a batch read
#: account differently by design.
FAULTS = FaultSpec(
    seed=13,
    duplicate_rate=0.01,
    shuffle_rate=0.01,
    bad_imei_rate=0.01,
    bad_sector_rate=0.01,
    bad_bytes_rate=0.01,
    garbage_rate=0.002,
)

LOGS = {"proxy": ProxyRecord, "mme": MmeRecord}

#: Mode -> (wire suffix, lenient).
MODES = {
    "strict_bin": (".bin", False),
    "lenient_bin": (".bin", True),
    "strict_csv": (".csv", False),
    "lenient_csv": (".csv", True),
}


@pytest.fixture(scope="module")
def traces(small_output, small_trace_dir, tmp_path_factory):
    root = tmp_path_factory.mktemp("cut-points")
    clean_bin = make_growing_dir(small_trace_dir, root / "bin")
    for stem, record_type in LOGS.items():
        binfmt.write_bin_records(
            clean_bin / f"{stem}.bin",
            getattr(small_output, f"{stem}_records"),
            record_type,
            block_rows=BLOCK_ROWS,
        )
    with patch.object(binfmt, "DEFAULT_BLOCK_ROWS", BLOCK_ROWS):
        corrupt_trace(clean_bin, root / "corrupt-bin", FAULTS)
    corrupt_trace(small_trace_dir, root / "corrupt-csv", FAULTS)
    return {
        "strict_bin": clean_bin,
        "lenient_bin": root / "corrupt-bin",
        "strict_csv": small_trace_dir,
        "lenient_csv": root / "corrupt-csv",
    }


@pytest.fixture(scope="module")
def batch(traces):
    """Per mode, batch ``analyze_parallel`` on the whole trace, computed
    on first use."""
    runs: dict = {}

    def run(mode: str) -> tuple[dict, dict | None]:
        if mode not in runs:
            _suffix, lenient = MODES[mode]
            result = analyze_parallel(
                traces[mode], shards=SHARDS, lenient=lenient
            )
            quarantine = result.report.quarantine
            runs[mode] = (
                report_to_dict(result.report),
                quarantine.to_dict() if quarantine is not None else None,
            )
        return runs[mode]

    return run


def block_bounds(path: Path) -> list[int]:
    """Every byte offset where a block of a ``.bin`` log starts or ends;
    garbage between blocks is skipped as the readers resync."""
    data = path.read_bytes()
    header = binfmt._BLOCK_HEADER
    offset = data.find(binfmt.BLOCK_MAGIC)
    bounds = set()
    while 0 <= offset < len(data):
        magic, comp_len, *_rest = header.unpack_from(data, offset)
        if magic != binfmt.BLOCK_MAGIC:
            offset = data.find(binfmt.BLOCK_MAGIC, offset + 1)
            continue
        bounds.add(offset)
        offset += header.size + comp_len
        bounds.add(offset)
    return sorted(bounds)


def draw_cuts(data, full: Path, suffix: str, appends: int) -> dict[str, list[int]]:
    """Per log, the byte offsets at which each append ends (the last at
    the end of the file)."""
    cuts = {}
    for stem in LOGS:
        path = full / f"{stem}{suffix}"
        size = path.stat().st_size
        if suffix == ".bin":
            points = st.sampled_from([0, *block_bounds(path)])
        else:
            points = st.integers(0, size)
        inner = data.draw(
            st.lists(points, min_size=appends - 1, max_size=appends - 1),
            label=f"{stem} cuts",
        )
        cuts[stem] = sorted(inner) + [size]
    return cuts


def outcome(service: AnalysisService) -> tuple:
    """The served report (None while not ready) and quarantine."""
    try:
        report = report_to_dict(service.report()[1])
    except ServiceNotReady:
        report = None
    quarantine = service.collector
    return report, quarantine.report().to_dict() if quarantine else None


@pytest.mark.parametrize("mode", sorted(MODES))
@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_restart_at_a_generated_cut(traces, batch, tmp_path_factory, mode, data):
    suffix, lenient = MODES[mode]
    full = traces[mode]
    appends = data.draw(st.integers(2, 4), label="appends")
    cuts = draw_cuts(data, full, suffix, appends)
    restart = data.draw(st.integers(0, appends - 1), label="restart after")
    work = tmp_path_factory.mktemp("cuts")
    grow = make_growing_dir(full, work / "grow")
    config = ServeConfig(
        trace_dir=grow,
        shards=SHARDS,
        lenient=lenient,
        checkpoint_dir=work / "ckpt",
    )
    blobs = {stem: (full / f"{stem}{suffix}").read_bytes() for stem in LOGS}
    service = AnalysisService(config)
    for step in range(appends):
        for stem, blob in blobs.items():
            low = cuts[stem][step - 1] if step else 0
            with (grow / f"{stem}{suffix}").open("ab") as handle:
                handle.write(blob[low : cuts[stem][step]])
        drain(service)
        if step == restart:
            assert service.checkpoint(force=True)
            restored = AnalysisService(config)
            assert restored.restore()
            assert restored.rows_total == service.rows_total
            assert outcome(restored) == outcome(service)
            service = restored
    report, quarantine = outcome(service)
    assert (report, quarantine) == batch(mode)
