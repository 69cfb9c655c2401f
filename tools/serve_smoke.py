"""End-to-end smoke for ``repro serve`` (driven by ``make serve-smoke``).

Starts the real daemon over a freshly simulated small trace, with two
shards, then walks the full serving story against the live socket:

1. wait for ``/healthz`` to go green with the initial rows ingested;
2. fetch a figure panel, remember its ``ETag``, and revalidate — the
   conditional re-fetch must come back ``304``;
3. append rows to the growing log and poll until the panel's ``ETag``
   advances (new generation, new bytes);
4. stop the daemon with SIGTERM — it must exit 0 after writing a final
   checkpoint — and check the served panel text against a batch
   ``analyze`` of the very same (now final) trace;
5. start a second daemon on the same ``--checkpoint-dir``, wait until
   ``/status`` reports the generation it restored, and check its panel
   against the same batch text; it too must exit 0 on SIGTERM.

Usage: ``python tools/serve_smoke.py WORKDIR`` where ``WORKDIR/trace``
holds a simulated small trace (the Makefile target creates it).
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

PANEL = "fig2a"
TIMEOUT = 60.0


def fetch(url: str, headers: dict | None = None):
    request = urllib.request.Request(url, headers=headers or {})
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()


def wait_until(predicate, what: str, timeout: float = TIMEOUT):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(0.1)
    sys.exit(f"serve-smoke: timed out waiting for {what}")


def start_daemon(trace: Path, ckpt: Path) -> tuple[subprocess.Popen, str]:
    """The daemon over ``trace`` (two shards) and its base URL."""
    daemon = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--trace", str(trace), "--port", "0",
            "--checkpoint-dir", str(ckpt),
            "--checkpoint-interval", "1",
            "--poll-interval", "0.1",
            "--shards", "2",
        ],
        stdout=subprocess.PIPE,
        text=True,
    )
    banner = daemon.stdout.readline().strip()
    # "repro serve: listening on http://127.0.0.1:PORT"
    base = banner.rsplit(" ", 1)[-1]
    if not base.startswith("http://"):
        daemon.kill()
        sys.exit(f"serve-smoke: no listening banner: {banner!r}")
    return daemon, base


def stop(daemon: subprocess.Popen) -> int:
    daemon.send_signal(signal.SIGTERM)
    return daemon.wait(timeout=30)


def panel_text(base: str) -> str:
    status, _, body = fetch(f"{base}/panels/{PANEL}")
    assert status == 200, (status, body)
    return json.loads(body)["text"]


def main() -> None:
    workdir = Path(sys.argv[1])
    trace = workdir / "trace"
    ckpt = workdir / "checkpoints"

    daemon, base = start_daemon(trace, ckpt)
    try:

        def healthy():
            status, _, body = fetch(base + "/healthz")
            if status != 200:
                return None
            payload = json.loads(body)
            return payload if payload["rows_total"] > 0 else None

        health = wait_until(healthy, "the first ingest pass")
        rows_before = health["rows_total"]
        print(f"serve-smoke: daemon up at {base}, {rows_before:,} rows")

        status, headers, body = fetch(f"{base}/panels/{PANEL}")
        assert status == 200, (status, body)
        etag = headers["ETag"]
        status, _, _ = fetch(
            f"{base}/panels/{PANEL}", {"If-None-Match": etag}
        )
        assert status == 304, f"conditional re-fetch returned {status}"
        print(f"serve-smoke: panel {PANEL} cached at ETag {etag} (304 on match)")

        # Live append: replay the trace's own last data row, which stays
        # strictly valid and changes the census/activity tallies.
        proxy = trace / "proxy.csv"
        last_line = proxy.read_bytes().rstrip(b"\n").rsplit(b"\n", 1)[-1]
        with proxy.open("ab") as handle:
            handle.write(last_line + b"\n")

        def etag_moved():
            _, fresh_headers, _ = fetch(f"{base}/panels/{PANEL}")
            fresh = fresh_headers["ETag"]
            return fresh if fresh != etag else None

        new_etag = wait_until(etag_moved, "the panel ETag to advance")
        print(f"serve-smoke: appended one row, ETag {etag} -> {new_etag}")

        served_text = panel_text(base)
    finally:
        code = stop(daemon)
    assert code == 0, f"daemon exited {code}"
    checkpoints = sorted(ckpt.glob("checkpoint-*.json"))
    assert checkpoints, "no checkpoint written on shutdown"

    from repro.core.figures import FIGURE_RENDERERS
    from repro.core.parallel import analyze_parallel

    run = analyze_parallel(trace, shards=2)
    batch_text = FIGURE_RENDERERS[PANEL](run.report)
    assert served_text == batch_text, (
        "served panel diverged from batch analyze on the same trace"
    )
    print(
        "serve-smoke: clean SIGTERM exit, "
        f"{len(checkpoints)} checkpoint(s) on disk, "
        f"final panel identical to batch analyze"
    )

    daemon, base = start_daemon(trace, ckpt)
    try:

        def restored():
            status, _, body = fetch(base + "/status")
            if status != 200:
                return None
            payload = json.loads(body)
            return payload if payload["restored_generation"] is not None else None

        generation = wait_until(restored, "the restart to restore")[
            "restored_generation"
        ]
        restored_text = panel_text(base)
    finally:
        code = stop(daemon)
    assert code == 0, f"restarted daemon exited {code}"
    assert restored_text == batch_text, (
        "restarted daemon's panel diverged from batch analyze"
    )
    print(
        f"serve-smoke: restart restored generation {generation}, "
        "panel identical to batch analyze, clean SIGTERM exit"
    )


if __name__ == "__main__":
    main()
