"""The HTTP/WebSocket facade, driven in-process through ASGITestClient."""

import pytest

from repro.service.app import create_app
from repro.service.registry import SessionRegistry
from repro.service.testing import ASGITestClient

DURATION = 5.0


@pytest.fixture()
def client():
    with ASGITestClient(create_app(auto_drive=False)) as test_client:
        yield test_client


def _create(client, **overrides):
    body = {
        "scenario": "urban-grid",
        "n": 4,
        "seed": 0,
        "duration": DURATION,
        "step_slice": 100,
    }
    body.update(overrides)
    response = client.post("/sessions", body)
    assert response.status == 201, response.body
    return response.json()


# ---------------------------------------------------------------- lifecycle


def test_healthz_and_empty_listing(client):
    assert client.get("/healthz").json() == {
        "status": "ok",
        "sessions": 0,
        "states": {
            "created": 0,
            "running": 0,
            "paused": 0,
            "finished": 0,
            "evicted": 0,
            "failed": 0,
        },
        "scheduler_passes": 0,
        "sessions_stepped": 0,
    }
    assert client.get("/sessions").json() == {"sessions": []}


def test_healthz_tracks_session_states_and_scheduler_totals(client):
    # Pin the extended /healthz schema: per-state counts move as sessions
    # do, and the scheduler odometers climb with driven passes.
    first = _create(client)
    second = _create(client, seed=1)
    client.post(f"/sessions/{first['id']}/start")
    payload = client.get("/healthz").json()
    assert payload["sessions"] == 2
    assert payload["states"]["running"] == 1
    assert payload["states"]["created"] == 1

    client.post(f"/sessions/{second['id']}/start")
    client.post(f"/sessions/{first['id']}/fast-forward")
    client.post(f"/sessions/{second['id']}/pause")
    payload = client.get("/healthz").json()
    assert payload["states"]["finished"] == 1
    assert payload["states"]["paused"] == 1
    assert payload["states"]["running"] == 0
    assert set(payload) == {
        "status", "sessions", "states", "scheduler_passes", "sessions_stepped",
    }


def test_create_start_step_and_report(client):
    created = _create(client)
    assert created["state"] == "created"
    sid = created["id"]
    assert client.get(f"/sessions/{sid}").json()["state"] == "created"

    started = client.post(f"/sessions/{sid}/start").json()
    assert started["state"] == "running"

    stepped = client.post(f"/sessions/{sid}/step", {"max_events": 40}).json()
    assert stepped["outcome"]["events_fired"] == 40
    assert stepped["outcome"]["hit_event_budget"] is True
    assert stepped["outcome"]["exhausted"] is False
    assert stepped["status"]["events_fired"] == 40

    finished = client.post(f"/sessions/{sid}/fast-forward").json()
    assert finished["status"]["state"] == "finished"
    assert finished["report"]["duration_s"] == DURATION

    report = client.get(f"/sessions/{sid}/report").json()["report"]
    assert report == finished["report"]


def test_create_with_start_flag_and_underscored_name(client):
    created = _create(client, scenario="urban_grid", start=True)
    assert created["state"] == "running"


def test_pause_resume_evict_restore_cycle(client):
    sid = _create(client, start=True)["id"]
    client.post(f"/sessions/{sid}/step")
    assert client.post(f"/sessions/{sid}/pause").json()["state"] == "paused"
    assert client.post(f"/sessions/{sid}/evict").json()["state"] == "evicted"
    assert client.post(f"/sessions/{sid}/restore").json()["state"] == "paused"
    assert client.post(f"/sessions/{sid}/resume").json()["state"] == "running"
    client.post(f"/sessions/{sid}/fast-forward")
    assert client.get(f"/sessions/{sid}").json()["state"] == "finished"


def test_snapshot_blob_and_server_side_write(client, tmp_path):
    sid = _create(client, start=True)["id"]
    client.post(f"/sessions/{sid}/step")
    blob = client.post(f"/sessions/{sid}/snapshot")
    assert blob.status == 200
    assert blob.headers["content-type"] == "application/octet-stream"
    assert len(blob.body) > 0

    target = tmp_path / "session.reprosnap"
    written = client.post(f"/sessions/{sid}/snapshot", {"path": str(target)})
    assert written.json() == {"written": str(target), "bytes": len(blob.body)}
    assert target.stat().st_size == len(blob.body)


def test_delete_forgets_session(client):
    sid = _create(client)["id"]
    assert client.delete(f"/sessions/{sid}").json() == {"deleted": sid}
    assert client.get(f"/sessions/{sid}").status == 404


# ------------------------------------------------------------ error mapping


def test_unknown_session_is_404(client):
    assert client.get("/sessions/s9999").status == 404
    assert client.post("/sessions/s9999/step").status == 404
    assert client.get("/nope").status == 404
    assert client.get("/sessions/s9999/step/extra").status == 404


def test_lifecycle_violation_is_409(client):
    sid = _create(client)["id"]
    response = client.post(f"/sessions/{sid}/pause")  # created, not running
    assert response.status == 409
    assert "created" in response.json()["error"]


def test_bad_parameters_are_400(client):
    assert client.post("/sessions", {}).status == 400
    assert client.post("/sessions", {"scenario": "nope"}).status == 400
    assert (
        client.post("/sessions", {"scenario": "urban-grid", "duration": -1}).status
        == 400
    )


def test_method_not_allowed_is_405(client):
    assert client.delete("/sessions").status == 405
    sid = _create(client)["id"]
    assert client.post(f"/sessions/{sid}").status == 405
    assert client.get(f"/sessions/{sid}/pause").status == 405


# ---------------------------------------------------------------- streaming


def test_websocket_stream_hello_ticks_and_report(client):
    sid = _create(client, start=True)["id"]
    with client.websocket(f"/sessions/{sid}/stream") as ws:
        assert ws.accepted
        hello = ws.receive_json()
        assert hello["type"] == "hello"
        assert hello["id"] == sid
        client.post(f"/sessions/{sid}/step", {"max_events": 30})
        tick = ws.receive_json()
        assert tick["type"] == "tick"
        assert tick["events_fired"] == 30
        client.post(f"/sessions/{sid}/fast-forward")
        event = tick
        while event["type"] != "report":
            event = ws.receive_json()
        assert event["report"]["duration_s"] == DURATION
        # After the report the app closes the stream.
        with pytest.raises(EOFError):
            ws.receive_json()
        assert ws.close_code == 1000


def test_websocket_replays_report_for_finished_session(client):
    sid = _create(client, start=True)["id"]
    client.post(f"/sessions/{sid}/fast-forward")
    with client.websocket(f"/sessions/{sid}/stream") as ws:
        assert ws.receive_json()["type"] == "hello"
        assert ws.receive_json()["type"] == "report"
        with pytest.raises(EOFError):
            ws.receive_json()


def test_websocket_unknown_session_closes_4404(client):
    ws = client.websocket("/sessions/s9999/stream")
    assert not ws.accepted
    assert ws.close_code == 4404
    assert client.websocket("/bad/path").close_code == 4404


# --------------------------------------------------------------- auto-drive


def test_auto_drive_advances_running_sessions_in_background():
    registry = SessionRegistry(step_slice=200)
    with ASGITestClient(create_app(registry)) as client:
        sid = _create(client)["id"]
        client.post(f"/sessions/{sid}/start")
        for _ in range(200):
            client.run_loop(0.01)
            if client.get(f"/sessions/{sid}").json()["state"] == "finished":
                break
        assert client.get(f"/sessions/{sid}").json()["state"] == "finished"
