"""Tests for the worker's ``/metrics`` sidecar.

The scrape contract is checked in-process against the ASGI app through the
service's test client; one scrape goes over a real socket to the stdlib
server the sidecar runs on.
"""

import http.client
import math

from repro.experiments.runner import SweepGrid
from repro.fabric import FabricWorker, submit_grid
from repro.fabric.worker import worker_metrics_render
from repro.service.testing import ASGITestClient
from repro.telemetry.httpd import MetricsServer, metrics_app
from repro.telemetry.prometheus import CONTENT_TYPE, point, render_exposition
from tests.telemetry.test_check_metrics import check_exposition, check_metrics


def test_serves_fresh_render_per_scrape():
    state = {"value": 1.0}

    def render() -> str:
        return render_exposition([point("live", "gauge", state["value"])])

    with ASGITestClient(metrics_app(render)) as client:
        scrape = client.get("/metrics")
        assert scrape.status == 200
        assert scrape.headers["content-type"] == CONTENT_TYPE
        assert b"repro_live 1" in scrape.body
        state["value"] = 2.0  # pull-based: the next scrape sees new state
        assert b"repro_live 2" in client.get("/metrics").body


def test_non_metrics_paths_404():
    with ASGITestClient(metrics_app(lambda: "")) as client:
        assert client.get("/other").status == 404
        assert client.get("/").status == 404


def test_render_failure_returns_500():
    def render() -> str:
        raise RuntimeError("boom")

    with ASGITestClient(metrics_app(render)) as client:
        scrape = client.get("/metrics")
        assert scrape.status == 500
        assert b"boom" in scrape.body


def test_sidecar_scrape_over_a_real_socket():
    render = lambda: render_exposition([point("live", "gauge", 3.0)])  # noqa: E731
    with MetricsServer(render, port=0) as server:
        assert server.port != 0  # port=0 resolved to the bound port
        scraper = http.client.HTTPConnection(server.host, server.port, timeout=5.0)
        scraper.request("GET", "/metrics")
        response = scraper.getresponse()
        assert response.status == 200
        assert response.headers["Content-Type"] == CONTENT_TYPE
        assert b"repro_live 3" in response.read()
        # The exposition linter scrapes a URL as well as a file.
        url = f"http://{server.host}:{server.port}/metrics"
        assert check_metrics.main([url]) == 0
        assert check_metrics.main([url.replace("/metrics", "/other")]) == 2
    # Stopping the sidecar also closes the connection the scraper kept alive.
    assert scraper.sock.recv(1) == b""
    scraper.close()


def test_worker_metrics_render_passes_the_exposition_linter(tmp_path):
    path = str(tmp_path / "store.db")
    submit_grid(path, "demo", SweepGrid({"n": [4, 8]}), repetitions=1).close()
    worker = FabricWorker(
        path,
        worker_id="w1",
        run_cell=lambda params, seed: {"metric": float(seed), "latency": math.nan},
    )
    render = worker_metrics_render(worker)
    assert check_exposition(render()) == []
    assert worker.run() == 2
    text = render()
    assert check_exposition(text) == []
    assert 'repro_fabric_worker_cells_completed_total{worker_id="w1"} 2' in text
