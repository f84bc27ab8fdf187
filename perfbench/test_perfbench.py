"""Self-tests of the benchmark's own arithmetic and load generator.

Run with ``python -m pytest perfbench -q`` (they need no build and no
``repro`` import; the stub server is a stdlib HTTP server on localhost).
"""
import json
import math
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import common  # noqa: E402
import loadgen  # noqa: E402
import tracing  # noqa: E402


# ------------------------------------------------------------------ traces
def test_zipf_trace_is_deterministic_per_seed_and_distinct_across_seeds():
    devices = ["a", "b", "c", "d", "e"]
    t1 = common.zipf_trace(7, devices, 500, 50)
    assert t1 == common.zipf_trace(7, devices, 500, 50)
    assert t1 != common.zipf_trace(8, devices, 500, 50)
    for device, idx in t1:
        assert device in devices
        assert idx == sorted(set(idx)) and len(idx) == common.REQ_INDICES


def test_zipf_trace_is_skewed():
    trace = common.zipf_trace(3, ["a", "b", "c", "d", "e"], 2000, 400)
    counts = sorted((sum(1 for d, _ in trace if d == x) for x in "abcde"), reverse=True)
    assert counts[0] > 2 * counts[-1]


# ------------------------------------------------------------- percentiles
def test_tail_percentile_keeps_ten_samples_beyond():
    for n in range(1, 2048):
        pct = common.tail_percentile(n)
        if pct is None:
            assert n - math.ceil(0.5 * n) < common.MIN_BEYOND
            continue
        assert n - math.ceil(pct / 100 * n) >= common.MIN_BEYOND, n
        if pct < 99:  # and it is the highest such percentile
            assert n - math.ceil((pct + 1) / 100 * n) < common.MIN_BEYOND, n


def test_tail_percentile_known_values():
    assert common.tail_percentile(100) == 90.0
    assert common.tail_percentile(1000) == 99.0
    assert common.tail_percentile(42) == 76.0
    assert common.tail_percentile(19) is None


def test_latency_summary_counts_failures_as_missing_every_limit():
    lat = [1.0] * 30 + [float("inf")] * 15
    s = common.latency_summary(lat)
    assert s["n"] == 45 and s["p50_ms"] == 1.0 and s["tail_ms"] == float("inf")


def test_latency_summary_falls_back_to_the_maximum_on_few_samples():
    s = common.latency_summary([3.0, 1.0, 2.0])
    assert s["tail_pct"] == 100.0 and s["tail_ms"] == 3.0 and s["p50_ms"] == 2.0


# ------------------------------------------------------------- stub server
class _StubHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True  # the stub's service time is exactly service_s
    service_s = 0.0

    def log_message(self, *args):
        pass

    def _reply(self, payload):
        body = json.dumps(payload).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        self._reply({"status": "ok"})

    def do_POST(self):
        req = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        time.sleep(self.service_s)
        self._reply({"scores": [float(i) for i in req["indices"]]})


@pytest.fixture
def stub():
    def start(service_s):
        handler = type("H", (_StubHandler,), {"service_s": service_s})
        srv = ThreadingHTTPServer(("127.0.0.1", 0), handler)
        srv.daemon_threads = True
        threading.Thread(target=srv.serve_forever, daemon=True).start()
        servers.append(srv)
        return srv.server_address[1]

    servers = []
    yield start
    for srv in servers:
        srv.shutdown()
        srv.server_close()


def test_open_loop_times_requests_from_their_due_time(stub):
    port = stub(0.05)  # 50 ms per request, one connection: 20 req/s capacity
    clients = loadgen.open_clients("127.0.0.1", port, 1, warm=1)
    items = [("d", [i]) for i in range(8)]
    dues = common.constant_rate_schedule(40.0, 0.2)  # due every 25 ms
    phase = loadgen.run_phase(clients, "over", 40.0, items, dues, 0)
    reqs = sorted(phase.requests, key=lambda r: r.due)
    assert all(r.ok and r.scores == [float(r.indices[0])] for r in reqs)
    assert all(b.due - a.due == pytest.approx(0.025, abs=1e-9) for a, b in zip(reqs, reqs[1:]))
    for r in reqs:
        assert r.latency_ms == pytest.approx((r.recv - r.due) * 1e3)
        assert r.send >= r.due - 1e-6
    # Offered twice the capacity: each request waits for the one before it,
    # so lateness from the due time grows about 25 ms per request ...
    assert reqs[-1].lateness_ms > 100.0
    assert reqs[-1].latency_ms > reqs[0].latency_ms + 100.0
    # ... but that is the server's backlog, not the generator's.
    s = phase.summary()
    assert s["gen_lag_p50_ms"] < 20.0
    assert loadgen.backlog_grows(phase)
    for c in clients:
        c.close()


def test_open_loop_under_capacity_has_no_backlog(stub):
    port = stub(0.005)
    clients = loadgen.open_clients("127.0.0.1", port, 2, warm=1)
    items = [("d", [i]) for i in range(20)]
    phase = loadgen.run_phase(clients, "under", 40.0, items, common.constant_rate_schedule(40.0, 0.5), 0)
    s = phase.summary()
    assert s["sent"] == s["succeeded"] == 20 and s["failed"] == 0
    assert s["p50_ms"] < 40.0
    assert not loadgen.backlog_grows(phase) and loadgen.rung_passes(phase)
    assert not loadgen.ladder_done([phase, phase])
    for c in clients:
        c.close()


def test_max_rate_finds_the_stub_servers_capacity(stub):
    port = stub(0.02)  # one connection at 20 ms per request: 50 req/s capacity
    clients = loadgen.open_clients("127.0.0.1", port, 1, warm=1)
    rungs = []
    for k, rate in enumerate([20.0, 30.0, 40.0, 80.0, 120.0, 160.0]):
        dues = common.constant_rate_schedule(rate, 0.6)
        items = [("d", [i]) for i in range(len(dues))]
        rungs.append(loadgen.run_phase(clients, f"r{rate}", rate, items, dues, 1000 * k))
        if loadgen.ladder_done(rungs):
            break
    rate, why = loadgen.max_rate(rungs)
    assert loadgen.rung_passes(rungs[0])
    assert loadgen.ladder_done(rungs) and rungs[-1].rate >= 120.0
    assert 25.0 <= rate <= 75.0, why
    for c in clients:
        c.close()


# ----------------------------------------------------------------- tracing
def _span(name, t0, t1, sid, parent=None, rid=None, pid=1, attrs=None):
    return (name, t0, t1, sid, parent, rid, pid, 0, attrs or {})


def test_union_length_merges_overlaps_and_clips():
    assert tracing.union_length([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert tracing.union_length([(0, 2), (1, 3), (5, 6)], 1.5, 5.5) == pytest.approx(2.0)
    assert tracing.union_length([], 0, 1) == 0


def test_self_time_on_a_synthetic_nested_trace():
    # client (pid 9) -> handle (pid 1, rid 5) -> submit -> [dispatcher thread]
    # predict_batch -> {adapt, replay}; a second predict on another device
    # inside the submit's interval must not be linked to it.
    spans = [
        _span("client.request", 0.0, 10.0, 1, rid=5, pid=9),
        _span("server.handle_predict", 1.0, 9.0, 1, rid=5),
        _span("batcher.submit", 2.0, 8.5, 2, parent=1, rid=5, attrs={"device": "a"}),
        _span("session.predict_batch", 6.0, 8.0, 3, attrs={"device": "a", "rows": 8}),
        _span("session.predict_batch", 3.0, 4.0, 4, attrs={"device": "b", "rows": 8}),
        _span("session.adapt", 6.0, 6.5, 5, parent=3, attrs={"device": "a"}),
        _span("replay.compiled_predict", 6.5, 7.5, 6, parent=3, attrs={"rows": 8, "computed": 8}),
    ]
    selfs = tracing.self_times(spans)
    assert selfs[(9, 1)] == pytest.approx(2.0)  # envelope: 10 - 8
    assert selfs[(1, 1)] == pytest.approx(1.5)  # validate: 8 - 6.5
    assert selfs[(1, 2)] == pytest.approx(4.5)  # batch wait: 6.5 - 2 (device b excluded)
    assert selfs[(1, 3)] == pytest.approx(0.5)  # predict_batch minus adapt and replay
    assert selfs[(1, 6)] == pytest.approx(1.0)
    m = tracing.layer_metrics(spans, (0.0, 10.0), n_ops=1)
    assert m["server.envelope_ms"] == pytest.approx(2000.0)
    assert m["server.validate_ms"] == pytest.approx(1500.0)
    assert m["batcher.wait_ms"] == pytest.approx(4500.0)
    assert m["session.lock_wait_ms"] == pytest.approx(0.0)
    assert m["self.envelope_ms"] == pytest.approx(2000.0)
    assert m["self.replay_ms"] == pytest.approx(1000.0)


def test_recorder_nests_spans_and_propagates_request_ids():
    rec = tracing.Recorder()

    def inner():
        return rec.call("inner", lambda: 42, (), {}, {})

    assert rec.call("outer", inner, (), {}, {"rid": 7}) == 42
    inner_span, outer_span = rec.spans
    assert inner_span[0] == "inner" and outer_span[0] == "outer"
    assert inner_span[4] == outer_span[3]  # parent link
    assert inner_span[5] == outer_span[5] == 7  # request id inherited
    assert outer_span[1] <= inner_span[1] <= inner_span[2] <= outer_span[2]


def test_recorder_flag_switches_wrappers_off():
    class Flag:
        value = 0

    class Thing:
        def work(self, x):
            return x + 1

    rec = tracing.Recorder(Flag)
    tracing._wrap(rec, Thing, "work", "thing.work")
    assert Thing().work(1) == 2 and rec.spans == []
    Flag.value = 1
    assert Thing().work(2) == 3 and [s[0] for s in rec.spans] == ["thing.work"]


# -------------------------------------------------------------- BENCHMARK.json
def test_benchmark_json_matches_the_metrics_the_runs_print():
    import run

    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.E2E_METRICS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, *_ in tracing.LAYER_METRICS
    ]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    from workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
