"""Open-loop HTTP load generator.

One process, at most ``nproc`` threads, one keep-alive connection each.
A phase is a list of requests with due times.  A free thread takes the next
request, sleeps until it is due and sends it, so when every connection is
busy the request goes out late and that wait counts in its latency, which
is always measured from the due time.  ``gen_lag`` is the part of the
lateness that is the generator's own: time from the moment a *free* thread
should have sent to the moment it did.
"""
from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass, field

from common import TAIL_LIMIT_MS, latency_summary, percentile

# A phase is invalid when the generator, not the server, fell behind.
GEN_LAG_P50_LIMIT_MS = 2.0
GEN_LAG_TAIL_LIMIT_MS = 20.0
# Rate ladder: a rung's backlog grows when the send lateness of its second
# half exceeds that of its first half by more than this, or when it
# completed requests slower than this share of the offered rate.
BACKLOG_GROWTH_MS = 10.0
SATURATED = 0.95


class Client:
    """A keep-alive JSON client on one connection."""

    def __init__(self, host: str, port: int, timeout: float = 60.0):
        self.conn = http.client.HTTPConnection(host, port, timeout=timeout)

    def post(self, path: str, payload: dict) -> tuple[int, dict]:
        body = json.dumps(payload, separators=(",", ":"))
        self.conn.request("POST", path, body, {"Content-Type": "application/json"})
        resp = self.conn.getresponse()
        return resp.status, json.loads(resp.read())

    def get(self, path: str) -> dict:
        self.conn.request("GET", path)
        resp = self.conn.getresponse()
        return json.loads(resp.read())

    def close(self) -> None:
        self.conn.close()


@dataclass
class Sent:
    """One request of a phase."""

    rid: int
    device: str
    indices: list
    due: float
    send: float = 0.0
    recv: float = 0.0
    free_at: float = 0.0
    ok: bool = False
    scores: list | None = None
    error: str | None = None

    @property
    def latency_ms(self) -> float:
        return (self.recv - self.due) * 1e3 if self.ok else float("inf")

    @property
    def gen_lag_ms(self) -> float:
        return max(0.0, self.send - max(self.due, self.free_at)) * 1e3

    @property
    def lateness_ms(self) -> float:
        return max(0.0, self.send - self.due) * 1e3


@dataclass
class Phase:
    name: str
    rate: float
    requests: list = field(default_factory=list)
    start: float = 0.0
    end: float = 0.0

    @property
    def failed(self) -> int:
        return sum(1 for r in self.requests if not r.ok)

    def summary(self) -> dict:
        lat = [r.latency_ms for r in self.requests]
        lags = [r.gen_lag_ms for r in self.requests if r.send]
        out = latency_summary(lat)
        lag_pct = out["tail_pct"] or 50.0
        out.update(
            phase=self.name,
            rate=self.rate,
            sent=len(self.requests),
            succeeded=len(self.requests) - self.failed,
            failed=self.failed,
            gen_lag_p50_ms=percentile(lags, 50) if lags else 0.0,
            gen_lag_tail_ms=percentile(lags, lag_pct) if lags else 0.0,
            achieved_rps=(len(self.requests) - self.failed) / (self.end - self.start)
            if self.end > self.start else 0.0,
        )
        out["latencies_ms"] = [round(r.latency_ms, 3) for r in sorted(self.requests, key=lambda r: r.due)]
        out["valid"] = (
            out["gen_lag_p50_ms"] <= GEN_LAG_P50_LIMIT_MS
            and out["gen_lag_tail_ms"] <= GEN_LAG_TAIL_LIMIT_MS
        )
        return out


def open_clients(host: str, port: int, n: int, warm: int = 8) -> list[Client]:
    """``n`` keep-alive connections, each past its first ``warm`` round trips
    (``GET /healthz``), so every timed request sees the steady-state TCP
    acknowledgement behaviour rather than a fresh connection's quick ACKs."""
    clients = [Client(host, port) for _ in range(n)]
    for client in clients:
        for _ in range(warm):
            client.get("/healthz")
    return clients


def run_phase(clients, name, rate, items, dues, rid_start, recorder=None) -> Phase:
    """Send ``items[i]`` at ``start + dues[i]``, one thread per client."""
    phase = Phase(name, rate)
    phase.requests = [
        Sent(rid_start + i, dev, idx, due) for i, ((dev, idx), due) in enumerate(zip(items, dues))
    ]
    lock = threading.Lock()
    cursor = iter(phase.requests)
    start = time.perf_counter() + 0.02
    for r in phase.requests:
        r.due += start

    def worker(slot: int):
        client = clients[slot]
        while True:
            with lock:
                req = next(cursor, None)
            if req is None:
                return
            req.free_at = time.perf_counter()
            delay = req.due - req.free_at
            if delay > 0:
                time.sleep(delay)
            payload = {"device": req.device, "indices": req.indices, "rid": req.rid}
            req.send = time.perf_counter()
            try:
                status, body = client.post("/predict", payload)
                req.recv = time.perf_counter()
                req.ok = status == 200
                if req.ok:
                    req.scores = body["scores"]
                else:
                    req.error = f"{status}: {body.get('error')}"
            except (OSError, http.client.HTTPException, ValueError) as exc:
                req.recv = time.perf_counter()
                req.error = f"{type(exc).__name__}: {exc}"
                client.close()
                client = clients[slot] = Client(client.conn.host, client.conn.port)
            if recorder is not None:
                recorder.add("client.request", req.send, req.recv, rid=req.rid)

    threads = [threading.Thread(target=worker, args=(i,), daemon=True) for i in range(len(clients))]
    phase.start = start
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    phase.end = time.perf_counter()
    return phase


def saturated(phase: Phase) -> bool:
    """True when the rung completed requests slower than they were offered."""
    return phase.summary()["achieved_rps"] < SATURATED * phase.rate


def backlog_grows(phase: Phase) -> bool:
    """True when requests were due faster than the connections drained
    them: send lateness rose across the rung, or it was saturated."""
    late = [r.lateness_ms for r in sorted(phase.requests, key=lambda r: r.due)]
    if len(late) < 4:
        return False
    half = len(late) // 2
    rising = percentile(late[half:], 50) - percentile(late[:half], 50) > BACKLOG_GROWTH_MS
    return rising or saturated(phase)


def rung_passes(phase: Phase) -> bool:
    s = phase.summary()
    return s["tail_ms"] <= TAIL_LIMIT_MS and not backlog_grows(phase)


def max_rate(rungs: list[Phase]) -> tuple[float, str]:
    """Highest offered rate meeting the tail limit with no growing backlog.

    Rungs rise in rate; the estimate is continuous.  When the first failing
    rung was saturated, or failed on backlog alone, the server ran out of
    capacity: the estimate is the highest rate completed on that or any
    later (more saturated) rung, clipped to the two rungs' rates.
    Otherwise the tail crossed the limit first, and the estimate
    interpolates the tail to the limit between the last passing rung and
    the first failing one.
    """
    for i, rung in enumerate(rungs):
        if rung_passes(rung):
            continue
        s = rung.summary()
        lo_rate = rungs[i - 1].rate if i else 0.0
        lo_tail = rungs[i - 1].summary()["tail_ms"] if i else 0.0
        if saturated(rung) or s["tail_ms"] <= TAIL_LIMIT_MS or s["tail_ms"] <= lo_tail:
            completed = max(r.summary()["achieved_rps"] for r in rungs[i:])
            est = min(rung.rate, max(lo_rate, completed))
            return est, f"capacity reached from {rung.rate:.1f} req/s (completed up to {completed:.1f})"
        frac = (TAIL_LIMIT_MS - lo_tail) / (s["tail_ms"] - lo_tail)
        est = lo_rate + (rung.rate - lo_rate) * min(1.0, max(0.0, frac))
        return est, f"tail crossed {TAIL_LIMIT_MS:g} ms between {lo_rate:.1f} and {rung.rate:.1f} req/s"
    top = rungs[-1].rate if rungs else 0.0
    return top, "limit not reached on the ladder"


def ladder_done(rungs: list[Phase]) -> bool:
    """Stop after two failing rungs in a row: the second, more saturated one
    measures the capacity the first ran into."""
    return len(rungs) >= 2 and not rung_passes(rungs[-1]) and not rung_passes(rungs[-2])
