"""End-to-end smoke for ``repro serve`` (driven by ``make serve-smoke``).

Starts the real daemon over a freshly simulated small trace, then walks
the full serving story against the live socket:

1. wait for ``/healthz`` to go green with the initial rows ingested;
2. fetch a figure panel, remember its ``ETag``, and revalidate — the
   conditional re-fetch must come back ``304``;
3. append rows to the growing log and poll until the panel's ``ETag``
   advances (new generation, new bytes);
4. stop the daemon with SIGTERM — it must exit 0 after writing a final
   checkpoint — and check the served panel text against a batch
   ``analyze`` of the very same (now final) trace.

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


def main() -> None:
    workdir = Path(sys.argv[1])
    trace = workdir / "trace"
    ckpt = workdir / "checkpoints"

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
    try:
        banner = daemon.stdout.readline().strip()
        # "repro serve: listening on http://127.0.0.1:PORT"
        base = banner.rsplit(" ", 1)[-1]
        assert base.startswith("http://"), banner

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

        _, _, body = fetch(f"{base}/panels/{PANEL}")
        served_text = json.loads(body)["text"]
    finally:
        daemon.send_signal(signal.SIGTERM)
        code = daemon.wait(timeout=30)
    assert code == 0, f"daemon exited {code}"
    checkpoints = sorted(ckpt.glob("checkpoint-*.json"))
    assert checkpoints, "no checkpoint written on shutdown"

    from repro.core.figures import FIGURE_RENDERERS
    from repro.core.parallel import analyze_parallel

    run = analyze_parallel(trace, shards=2, workers=1)
    batch_text = FIGURE_RENDERERS[PANEL](run.report)
    assert served_text == batch_text, (
        "served panel diverged from batch analyze on the same trace"
    )
    print(
        "serve-smoke: clean SIGTERM exit, "
        f"{len(checkpoints)} checkpoint(s) on disk, "
        f"final panel identical to batch analyze"
    )


if __name__ == "__main__":
    main()
