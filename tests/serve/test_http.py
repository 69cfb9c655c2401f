"""The ``repro.serve`` HTTP query API, exercised over a real socket.

A :class:`ThreadingHTTPServer` is bound to an ephemeral port and
queried with ``urllib`` — no mocking of the handler — so routing,
status codes, ``ETag``/``If-None-Match`` revalidation and the cache
counters are all observed end to end.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.core.export import report_to_dict
from repro.serve.http import build_server
from repro.serve.service import AnalysisService, ServeConfig

from tests.serve.conftest import drain, feed_prefix, make_growing_dir


@pytest.fixture(scope="module")
def served(small_trace_dir, tmp_path_factory):
    """A fully-fed service behind a live HTTP server."""
    grow = make_growing_dir(
        small_trace_dir, tmp_path_factory.mktemp("http") / "small"
    )
    for suffix in ("proxy.csv", "mme.csv"):
        feed_prefix(small_trace_dir, grow, suffix, 1.0)
    service = AnalysisService(ServeConfig(trace_dir=grow, shards=2))
    drain(service)
    server = build_server(service, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield service, f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join()


def fetch(url, headers=None):
    request = urllib.request.Request(url, headers=headers or {})
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()


class TestEndpoints:
    def test_healthz(self, served):
        service, base = served
        status, _, body = fetch(base + "/healthz")
        assert status == 200
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert payload["generation"] == service.generation
        assert payload["rows_total"] == service.rows_total

    def test_status_lists_streams(self, served):
        _, base = served
        status, _, body = fetch(base + "/status")
        assert status == 200
        payload = json.loads(body)
        assert set(payload["streams"]) == {"proxy", "mme"}
        assert payload["streams"]["proxy"]["rows_read"] > 0

    def test_report_matches_the_service_report(self, served):
        service, base = served
        status, headers, body = fetch(base + "/report")
        assert status == 200
        payload = json.loads(body)
        _, report = service.report()
        assert payload["report"] == json.loads(
            json.dumps(report_to_dict(report))
        )
        assert headers["ETag"] == f'"g{service.generation}"'

    def test_panel_listing_and_text(self, served):
        service, base = served
        status, _, body = fetch(base + "/panels")
        assert status == 200
        names = json.loads(body)["panels"]
        assert "fig2a" in names
        status, _, body = fetch(base + "/panels/fig2a")
        assert status == 200
        payload = json.loads(body)
        assert payload["panel"] == "fig2a"
        assert payload["text"].strip()

    def test_quarantine_disabled_in_strict_mode(self, served):
        _, base = served
        status, _, body = fetch(base + "/quarantine")
        assert status == 200
        payload = json.loads(body)
        assert payload["enabled"] is False
        assert payload["quarantine"] is None

    def test_obs_report_shape(self, served):
        _, base = served
        status, _, body = fetch(base + "/obs/report")
        assert status == 200
        payload = json.loads(body)
        assert payload["meta"]["command"] == "serve"

    def test_obs_profile_schema_valid(self, served):
        from repro.obs.profiler import validate_profile

        service, base = served
        status, headers, body = fetch(base + "/obs/profile")
        assert status == 200
        payload = json.loads(body)
        validate_profile(payload)
        assert payload["meta"]["command"] == "serve"
        # tests run with ambient profiling disabled: the doc is empty
        # but schema-valid and says so
        assert payload["meta"]["enabled"] is False
        assert payload["samples"] == 0
        assert headers["ETag"] == f'"g{service.generation}"'

    def test_obs_profile_etag_revalidation(self, served):
        service, base = served
        _, headers, _ = fetch(base + "/obs/profile")
        status, headers, body = fetch(
            base + "/obs/profile",
            headers={"If-None-Match": headers["ETag"]},
        )
        assert status == 304
        assert body == b""

    def test_metrics_prometheus_exposition(self, served):
        _, base = served
        status, headers, body = fetch(base + "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert "version=0.0.4" in headers["Content-Type"]
        body.decode("utf-8")  # must be text, possibly empty when disabled

    def test_metrics_exposes_live_counters(self, small_trace_dir, tmp_path):
        # Run a service under an *enabled* ambient obs instance: the
        # scrape must carry the serve counters with escaped labels.
        from repro.obs.metrics import escape_label_value

        grow = make_growing_dir(small_trace_dir, tmp_path / "grow")
        for suffix in ("proxy.csv", "mme.csv"):
            feed_prefix(small_trace_dir, grow, suffix, 1.0)
        with obs.observe():
            service = AnalysisService(
                ServeConfig(trace_dir=grow, shards=2)
            )
            drain(service)
            service.report_resource()
            server = build_server(service, "127.0.0.1", 0)
            thread = threading.Thread(
                target=server.serve_forever, daemon=True
            )
            thread.start()
            try:
                base = f"http://127.0.0.1:{server.server_address[1]}"
                status, _, body = fetch(base + "/metrics")
            finally:
                server.shutdown()
                server.server_close()
                thread.join()
        assert status == 200
        text = body.decode("utf-8")
        assert "# TYPE repro_serve_rows_ingested_total counter" in text
        assert 'resource="report"' in text
        assert escape_label_value('a"b\\c\n') == 'a\\"b\\\\c\\n'

    def test_unknown_panel_is_404(self, served):
        _, base = served
        status, _, body = fetch(base + "/panels/fig9z")
        assert status == 404
        assert "unknown panel" in json.loads(body)["error"]

    def test_unknown_route_is_404(self, served):
        _, base = served
        status, _, _ = fetch(base + "/nope")
        assert status == 404


class TestCaching:
    def test_etag_roundtrip_and_304(self, served):
        _, base = served
        status, headers, body = fetch(base + "/panels/fig2a")
        assert status == 200
        tag = headers["ETag"]
        status, headers, body = fetch(
            base + "/panels/fig2a", {"If-None-Match": tag}
        )
        assert status == 304
        assert headers["ETag"] == tag
        assert body == b""

    def test_unconditional_repeats_are_byte_identical(self, served):
        _, base = served
        _, _, first = fetch(base + "/report")
        _, _, second = fetch(base + "/report")
        assert first == second

    def test_cache_counters_tick(self, small_trace_dir, tmp_path):
        grow = make_growing_dir(small_trace_dir, tmp_path / "grow")
        for suffix in ("proxy.csv", "mme.csv"):
            feed_prefix(small_trace_dir, grow, suffix, 1.0)
        with obs.observe():
            service = AnalysisService(
                ServeConfig(trace_dir=grow, shards=2)
            )
            drain(service)
            service.panel_resource("fig2a")  # cold: miss
            service.panel_resource("fig2a")  # warm: hit
            service.panel_resource("fig2a")  # warm: hit
            registry = obs.metrics()
            assert (
                registry.sum_counter(
                    "repro_serve_cache_misses_total", resource="panel:fig2a"
                )
                == 1
            )
            assert (
                registry.sum_counter(
                    "repro_serve_cache_hits_total", resource="panel:fig2a"
                )
                == 2
            )


class TestNotReady:
    def test_503_with_retry_after_before_any_rows(
        self, small_trace_dir, tmp_path
    ):
        grow = make_growing_dir(small_trace_dir, tmp_path / "grow")
        service = AnalysisService(ServeConfig(trace_dir=grow, shards=2))
        server = build_server(service, "127.0.0.1", 0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            base = f"http://127.0.0.1:{server.server_address[1]}"
            status, headers, body = fetch(base + "/report")
            assert status == 503
            assert headers["Retry-After"] == "1"
            assert json.loads(body)["error"] == "not enough data yet"
            # Health stays green: the daemon is up, just starved.
            status, _, _ = fetch(base + "/healthz")
            assert status == 200
        finally:
            server.shutdown()
            server.server_close()
            thread.join()
