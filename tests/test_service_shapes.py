"""The exact key sets of every store shape that leaves the process.

The ``cache`` block of ``{"op": "stats"}``, the ``{"op": "cache"}``
stats / ls / purge payloads and ``repro cache stats --format json`` are
read by clients, scripts and the benchmark, so a refactor of the store
behind them must keep them key for key.  Each shape is taken from the
real surface: a :class:`ReproServer` over an inline pool, and the CLI.
"""

from __future__ import annotations

import json

from repro.service.pool import WorkerPool
from repro.service.server import ReproServer, send_request

PROGRAM = """
program tiny
integer, parameter :: n = 8
double precision, array(n,n) :: a, b
a = 1.5d0
b = cshift(a, 1, 1) + a
print *, sum(b)
end program tiny
"""

EXE_COUNTERS = {"root", "entries", "bytes", "max_bytes", "hits", "misses",
                "memo_hits", "memo_entries", "evictions", "errors"}
STORE = {"root", "entries", "bytes", "max_bytes", "evictions", "kinds"}
KINDS = {"front", "pass", "backend", "exe"}
KIND_ROW = {"entries", "bytes", "hits", "misses", "errors"}
LS_ROW = {"key", "kind", "bytes", "age_seconds"}
STATS_OP = {"ok", "op", "metrics", "cache", "pool", "server"}


def _assert_store(store: dict) -> None:
    assert set(store) == STORE
    assert set(store["kinds"]) == KINDS
    for row in store["kinds"].values():
        assert set(row) == KIND_ROW


def test_server_shapes(tmp_path):
    pool = WorkerPool(1, cache=str(tmp_path / "cc"))
    assert pool.mode == "inline"
    server = ReproServer(port=0, pool=pool)
    server.start()
    try:
        ask = lambda request: send_request(server.address, request,  # noqa: E731
                                           timeout=60.0)
        compiled = ask({"op": "compile", "source": PROGRAM,
                        "incremental": True})
        assert compiled["ok"] and compiled["cache"] == "miss", compiled
        assert ask({"op": "compile", "source": PROGRAM})["cache"] == "hit"

        stats = ask({"op": "stats"})
        assert stats["ok"] and set(stats) == STATS_OP
        assert set(stats["cache"]) == EXE_COUNTERS
        assert stats["cache"]["entries"] == 1
        assert stats["cache"]["hits"] == 1 and stats["cache"]["misses"] == 1

        admin = ask({"op": "cache", "action": "stats"})
        assert admin["ok"] and set(admin) == {"ok", "op", "cache", "store"}
        assert set(admin["cache"]) == EXE_COUNTERS
        _assert_store(admin["store"])
        assert admin["store"]["kinds"]["exe"]["entries"] == 1
        assert admin["store"]["entries"] > 1

        listing = ask({"op": "cache", "action": "ls"})
        assert listing["ok"] and set(listing) == {"ok", "op", "entries"}
        assert {row["kind"] for row in listing["entries"]} == KINDS
        for row in listing["entries"]:
            assert set(row) == LS_ROW

        purged = ask({"op": "cache", "action": "purge", "kind": "exe"})
        assert purged == {"ok": True, "op": "cache", "purged": 1}
        assert ask({"op": "compile", "source": PROGRAM})["cache"] == "miss"

        bad = ask({"op": "cache", "action": "defragment"})
        assert not bad["ok"] and set(bad) == {"ok", "op", "error"}
        assert bad["error"]["type"] == "BadRequest"
    finally:
        server.stop()
        pool.close()


def test_cli_json_shapes(tmp_path, capsys):
    from repro.driver.cli import main

    root = str(tmp_path / "cc")

    def cli(action):
        assert main(["cache", action, "--cache-dir", root,
                     "--format", "json"]) == 0
        return json.loads(capsys.readouterr().out)

    payload = cli("stats")
    assert set(payload) == {"cache", "store"}
    assert set(payload["cache"]) == EXE_COUNTERS
    _assert_store(payload["store"])
    assert payload["store"]["entries"] == 0
    assert cli("ls") == {"entries": []}
    assert cli("purge") == {"purged": 0}
