"""End-to-end tests of the observability surface on a live wire server.

The acceptance bar from the ISSUE: during a live open-loop wire workload,
``GET /metrics`` (HTTP sidecar) and the ``METRICS`` opcode return identical
parseable exposition text with histogram monotonicity, and the per-opcode
request counters reconcile exactly with the load generator's client-side
tally — zero drift over >= 10k requests.

Every wait in this file is bounded; the CI ``observability`` job additionally
wraps the whole file in a hard 120 s timeout.
"""

from __future__ import annotations

import threading
import urllib.error
import urllib.request

import pytest

from repro.loadgen import default_keys, mixed_operation, per_worker, preload, run_load
from repro.net import KVClient, KVServer, ServerConfig
from repro.obs import CONTENT_TYPE, parse_text
from repro.service import KVService, ServiceConfig

from tests.conftest import make_template_records

#: Bound on every blocking wait in this file.
WAIT = 30.0

#: Sample families allowed to differ between two back-to-back scrapes: the
#: in-flight gauge depends on which transport is mid-request, and model epoch
#: age is wall-clock-derived.
SCRAPE_RACE_EXEMPT = {"repro_inflight_requests", "repro_shard_model_epoch_age_seconds"}


@pytest.fixture
def server():
    """A served KVService (2 uncompressed shards) with an HTTP metrics sidecar."""
    service = KVService(ServiceConfig(shard_count=2, compressor="none"))
    threaded = KVServer(
        service, ServerConfig(port=0, max_inflight=32, metrics_port=0)
    )
    threaded.start()
    try:
        yield threaded
    finally:
        threaded.stop()
        service.close()


def _http_get(host: str, port: int, path: str) -> tuple[int, dict, bytes]:
    request = urllib.request.Request(f"http://{host}:{port}{path}")
    try:
        with urllib.request.urlopen(request, timeout=WAIT) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()


# ------------------------------------------------------------- scrape equality


class TestScrapeTransports:
    def test_http_and_opcode_scrapes_are_identical(self, server):
        """The sidecar and the METRICS opcode render the same registry: equal
        sample keysets, equal values outside the two clock/transport-dependent
        families."""
        host, port = server.address
        metrics_host, metrics_port = server.metrics_address
        with KVClient(host, port, pool_size=1) as client:
            # The wire connection must exist before the HTTP scrape, so both
            # scrapes see the same connection gauges; request counting happens
            # after dispatch, so the opcode scrape does not count itself.
            client.set("obs-k1", "v1")
            client.set("obs-k2", "v2")
            assert client.get("obs-k1") == "v1"
            assert client.mget(["obs-k1", "obs-k2"]) == ["v1", "v2"]

            status, headers, body = _http_get(metrics_host, metrics_port, "/metrics")
            assert status == 200
            assert headers["Content-Type"] == CONTENT_TYPE
            http_samples = parse_text(body.decode("utf-8"))

            opcode_samples = parse_text(client.metrics())

        assert set(http_samples) == set(opcode_samples)
        drift = {
            key: (http_samples[key], opcode_samples[key])
            for key in http_samples
            if key[0] not in SCRAPE_RACE_EXEMPT
            and http_samples[key] != opcode_samples[key]
        }
        assert drift == {}

    def test_scrape_covers_the_documented_families(self, server):
        """Every eagerly-registered family appears in the exposition text even
        before traffic (anti-ghost: no name exists only in the docs)."""
        host, port = server.address
        text = _scrape_over_wire(host, port)
        for family in server.registry.families():
            # Labelled families with no children yet still render HELP/TYPE,
            # so every registered name is visible from the very first scrape.
            assert f"# TYPE {family.name} {family.kind}" in text
            assert f"# HELP {family.name} " in text

    def test_healthz_404_and_405(self, server):
        metrics_host, metrics_port = server.metrics_address
        status, _, body = _http_get(metrics_host, metrics_port, "/healthz")
        assert (status, body) == (200, b"ok\n")
        status, _, _ = _http_get(metrics_host, metrics_port, "/nope")
        assert status == 404
        request = urllib.request.Request(
            f"http://{metrics_host}:{metrics_port}/metrics", data=b"x", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=WAIT)
        assert excinfo.value.code == 405


def _scrape_over_wire(host: str, port: int) -> str:
    with KVClient(host, port, pool_size=1) as client:
        return client.metrics()


# -------------------------------------------------------------- reconciliation


class TestCounterReconciliation:
    def test_open_loop_counters_reconcile_with_zero_drift(self, server):
        """>= 10k open-loop requests: ``repro_requests_total`` must equal the
        client-side tally exactly, per opcode, including the preload MSETs;
        histogram counts must match their counters; rendered buckets must be
        monotone with ``+Inf == _count``.  Service snapshots taken *during*
        the workload must pass ``validate(concurrent=True)``."""
        host, port = server.address
        values = make_template_records(256)
        service = server.service

        snapshot_failures: list[BaseException] = []
        stop_snapshots = threading.Event()

        def snapshot_loop() -> None:
            # Concurrent scrapes: the capture-order guarantee in
            # KVService.snapshot() must hold validate() mid-traffic.
            while not stop_snapshots.is_set():
                try:
                    service.snapshot().validate(concurrent=True)
                except BaseException as error:  # noqa: BLE001 — reported below
                    snapshot_failures.append(error)
                    return

        keys = default_keys(len(values))
        operation, calls = mixed_operation(keys, values, 10_000, get_fraction=0.7)
        scraper = threading.Thread(target=snapshot_loop, name="snapshot-loop")
        scraper.start()
        try:
            with per_worker(
                lambda: KVClient(host, port, pool_size=1, timeout=WAIT)
            ) as connect:
                # The frame count preload() returns is the one it sent, not a
                # re-derivation of its batch default.
                preload_frames = preload(connect(), keys, values)
                result = run_load(connect, operation, calls, workers=8, rate=4000.0)
        finally:
            stop_snapshots.set()
            scraper.join(timeout=WAIT)
        assert snapshot_failures == []
        assert result.errors == 0
        assert result.completed == result.offered == 10_000

        samples = parse_text(_scrape_over_wire(host, port))

        def counted(opcode: str) -> float:
            return samples[("repro_requests_total", (("opcode", opcode),))]

        # Zero drift: the server counted exactly what the clients tallied.
        assert counted("GET") == result.counts["GET"]
        assert counted("SET") == result.counts["SET"]
        assert counted("MSET") == preload_frames
        assert result.counts["GET"] + result.counts["SET"] == 10_000

        for opcode in ("GET", "SET", "MSET"):
            labels = (("opcode", opcode),)
            count = samples[("repro_request_latency_seconds_count", labels)]
            assert count == counted(opcode)
            buckets = sorted(
                (float(dict(key[1])["le"].replace("+Inf", "inf")), value)
                for key, value in samples.items()
                if key[0] == "repro_request_latency_seconds_bucket"
                and dict(key[1])["opcode"] == opcode
            )
            values_only = [value for _, value in buckets]
            assert values_only == sorted(values_only), f"{opcode} buckets not monotone"
            assert buckets[-1][0] == float("inf")
            assert buckets[-1][1] == count

        # The achieved rate is reported against the offered timetable.
        assert result.rate == 4000.0
        assert result.ops_per_second > 0
