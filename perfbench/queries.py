"""The benchmark's query mix, its in-process answers and its HTTP client.

One seeded plan drives every workload's reads.  Queries alternate
between two classes:

* ``live`` — ``/topk`` and ``/query`` against the live (unrotated)
  epoch;
* ``history`` — ``/query`` against the newest frozen epoch and against
  a fixed-width ``lo-hi`` epoch range.

The queried partial key rotates over the paper's six keys and the
``SrcIP/8,/16,/24`` prefixes, so planner caches see hits and misses.

:func:`answer` resolves a query path in-process through the public
read API; it is the reference the ``serve`` answers are checked
against.  :class:`OpenLoopClient` sends the plan over keep-alive HTTP
connections on a fixed schedule and times every query from when it was
due, so a stall also counts against the queries queued behind it.  With
an infinite rate every query is due at once and each connection runs a
closed loop (the ``serve`` read probe).
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, quote, urlencode, urlparse

from repro.core import sql as sqlmod
from repro.flowkeys.key import FIVE_TUPLE, paper_partial_keys
from repro.service.http import parse_partial

_PLAN_SALT = 0x9E7
#: Width (in epochs) of every history range query.
RANGE_WIDTH = 2
TOP_K = 10
#: Heavy-hitter floor of every SQL query (1e-4 of a 1M-packet epoch).
HAVING_MIN = 100
#: Latency recorded for a failed or refused query: it misses every limit.
FAILED_LATENCY_S = 10.0


def key_texts() -> Tuple[str, ...]:
    """The rotated partial keys, in the HTTP ``key=`` syntax."""
    paper = [
        ",".join(f"{name}/{prefix}" for name, prefix in partial.parts)
        for partial in paper_partial_keys(6)
    ]
    return tuple(paper) + ("SrcIP/8", "SrcIP/16", "SrcIP/24")


@dataclass(frozen=True)
class Query:
    """One planned query: its class, endpoint, key and epoch selector."""

    cls: str  # "live" | "history"
    endpoint: str  # "topk" | "query"
    key: str
    selector: str  # "live" | "frozen" | "range"

    def path(self, newest: int) -> str:
        """The request path, given the newest frozen epoch id."""
        if self.selector == "live":
            epoch = "live"
        elif self.selector == "frozen":
            epoch = str(newest)
        else:
            epoch = f"{max(newest - RANGE_WIDTH + 1, 0)}-{newest}"
        if self.endpoint == "topk":
            return f"/topk?key={quote(self.key)}&k={TOP_K}&epoch={epoch}"
        fields = self.key.replace(",", ", ")
        statement = (
            f"SELECT {fields}, SUM(size) FROM flows GROUP BY {fields} "
            f"HAVING SUM(size) >= {HAVING_MIN} ORDER BY SUM(size) DESC LIMIT {TOP_K}"
        )
        return "/query?" + urlencode({"sql": statement, "epoch": epoch})


def plan(seed: int, count: int) -> List[Query]:
    """*count* queries, half live and half history, seeded.

    Each class walks the keys in seeded shuffled rounds, so every key
    is queried equally often and only the order depends on the seed.
    History queries go two to the newest frozen epoch (a memoized
    planner) for one to a range (a fresh merge-backed planner): the
    two cost an order of magnitude apart, and an even split would put
    the class median right on the boundary between them.
    """
    rng = random.Random(seed ^ _PLAN_SALT)
    rounds = {"live": [], "history": []}

    def next_key(cls: str) -> str:
        if not rounds[cls]:
            rounds[cls] = list(key_texts())
            rng.shuffle(rounds[cls])
        return rounds[cls].pop()

    out = []
    for i in range(count):
        if i % 2 == 0:
            endpoint = ("topk", "query")[(i // 2) % 2]
            out.append(Query("live", endpoint, next_key("live"), "live"))
        else:
            selector = ("frozen", "frozen", "range")[(i // 2) % 3]
            out.append(Query("history", "query", next_key("history"), selector))
    return out


def daemon_resolver(daemon) -> Callable:
    """Epoch selector text -> ``(version, planner)`` over a daemon."""

    def resolve(selector: str):
        if selector == "live":
            return daemon.live_planner()
        if "-" in selector:
            lo, hi = (int(part) for part in selector.split("-", 1))
            return (lo, hi), daemon.range_planner(lo, hi)
        epoch = int(selector)
        return epoch, daemon.epoch_planner(epoch)

    return resolve


def answer(resolve: Callable, path: str) -> Tuple[object, list]:
    """Answer one ``/topk`` or ``/query`` path in-process.

    Returns ``(version, rows)`` with rows as the JSON-ready
    ``[[key, value], ...]`` lists the HTTP API sends.
    """
    url = urlparse(path)
    params = {key: values[-1] for key, values in parse_qs(url.query).items()}
    version, planner = resolve(params.get("epoch", "live"))
    if url.path == "/topk":
        partial = parse_partial(FIVE_TUPLE, params["key"])
        rows = planner.table(partial).top_k(int(params.get("k", TOP_K)))
    elif url.path == "/query":
        rows = sqlmod.run_query(params["sql"], planner=planner)
    else:
        raise ValueError(f"unknown path {url.path!r}")
    return version, [[key, value] for key, value in rows]


@dataclass
class Outcome:
    """What one query did: class, due-to-done latency, success."""

    cls: str
    latency_s: float
    ok: bool
    round: int = 0


@dataclass
class ClientResult:
    outcomes: List[Outcome] = field(default_factory=list)
    #: (path, rows) of every frozen and range answer, for the checks.
    history_answers: List[Tuple[str, list]] = field(default_factory=list)
    #: Per connection, the live ``(epoch, packets)`` versions in order.
    live_versions: Dict[int, List[Tuple[int, int]]] = field(default_factory=dict)
    packets_behind: List[int] = field(default_factory=list)
    #: How late the generator sent each query (open loop only).
    late_s: List[float] = field(default_factory=list)
    #: The stretch the p50 latency metrics are taken from.
    best_round: int = 0


class OpenLoopClient:
    """Sends planned queries on a fixed schedule over keep-alive HTTP.

    ``connections`` threads each own one keep-alive connection; query
    *i* is due at ``start + i / rate`` and goes out on whichever
    connection is free first.  Every request has a client timeout; a
    failed or refused query counts as missing every latency limit (its
    latency is recorded as the timeout).  The schedule is cut into
    ``slices`` consecutive stretches (the ``round`` of each outcome);
    :func:`pick_best_slice` chooses the one the metrics read.
    """

    def __init__(self, port: int, queries: List[Query], rate: float,
                 newest: int, tracer, connections: int = 2,
                 timeout_s: float = FAILED_LATENCY_S,
                 refuse_index: Optional[int] = None, slices: int = 1) -> None:
        self.port = port
        self.queries = queries
        self.rate = rate
        self.newest = newest
        self.tracer = tracer
        self.connections = connections
        self.timeout_s = timeout_s
        self.refuse_index = refuse_index
        self.slices = slices
        self.result = ClientResult()
        self._next = 0
        self._lock = threading.Lock()
        self._threads: List[threading.Thread] = []
        self.start_time = 0.0

    def start(self) -> None:
        self.start_time = time.perf_counter()
        for conn_id in range(self.connections):
            self.result.live_versions[conn_id] = []
            thread = threading.Thread(
                target=self._run, args=(conn_id,), name=f"perfbench-client-{conn_id}"
            )
            thread.start()
            self._threads.append(thread)

    def running(self) -> bool:
        return any(thread.is_alive() for thread in self._threads)

    def join(self, timeout_s: float) -> bool:
        """Wait for every client thread; False if any is still running."""
        deadline = time.monotonic() + timeout_s
        for thread in self._threads:
            thread.join(max(deadline - time.monotonic(), 0.0))
        return not self.running()

    def _slice(self, index: int) -> int:
        return index * self.slices // len(self.queries)

    def _take(self) -> Optional[int]:
        with self._lock:
            index = self._next
            if index >= len(self.queries):
                return None
            self._next += 1
            return index

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=self.timeout_s)

    def _run(self, conn_id: int) -> None:
        conn = self._connect()
        try:
            with self.tracer.span("client.thread", "unattributed"):
                while True:
                    index = self._take()
                    if index is None:
                        break
                    conn = self._one(conn, conn_id, index)
        finally:
            conn.close()

    def _one(self, conn, conn_id: int, index: int):
        query = self.queries[index]
        due = self.start_time + index / self.rate
        wait = due - time.perf_counter()
        if wait > 0:
            with self.tracer.span("client.wait", "idle"):
                time.sleep(wait)
        sent = time.perf_counter()
        self.result.late_s.append(sent - due)
        path = query.path(self.newest)
        if index == self.refuse_index:
            path = path.replace("epoch=live", "epoch=999999")
        status, body = None, b""
        with self.tracer.span("http.roundtrip", "http"):
            try:
                conn.request("GET", path)
                response = conn.getresponse()
                body = response.read()
                status = response.status
            except (OSError, http.client.HTTPException) as exc:
                print(f"# query failed: {path}: {exc!r}", flush=True)
                conn.close()
                conn = self._connect()
        done = time.perf_counter()
        if status != 200:
            if status is not None:
                print(f"# query refused ({status}): {path}: {body[:200]!r}", flush=True)
            self.result.outcomes.append(
                Outcome(query.cls, self.timeout_s, False, self._slice(index))
            )
            return conn
        self.result.outcomes.append(
            Outcome(query.cls, done - due, True, self._slice(index))
        )
        payload = json.loads(body)
        descriptor = payload["epoch"]
        if descriptor["kind"] == "live":
            self.result.live_versions[conn_id].append(
                (descriptor["epoch"], descriptor["packets"])
            )
            self.result.packets_behind.append(descriptor["staleness"]["packets_behind"])
            # Newest frozen epoch as the client last saw it (monotone).
            with self._lock:
                self.newest = max(self.newest, descriptor["epoch"] - 1)
        else:
            self.result.history_answers.append((path, payload["rows"]))
        return conn


def pick_best_slice(result: ClientResult) -> None:
    """Point ``best_round`` at the stretch with the lowest median latency.

    Interference from a shared host only ever slows a stretch down, so
    the calmest stretch is the steadiest reading of the system itself.
    """
    by_slice: Dict[int, List[float]] = {}
    for outcome in result.outcomes:
        by_slice.setdefault(outcome.round, []).append(outcome.latency_s)
    result.best_round = min(by_slice, key=lambda r: sorted(by_slice[r])[len(by_slice[r]) // 2])
