"""The served stack under test, built from generated inputs.

``HTTP transport → ServingApp middleware → RequestCore → Workbench``,
in-process, over an 8-shard hash-partitioned store whose scatter-gather
executor is pinned to two worker processes.  :meth:`Stack.build` and
:meth:`Stack.start` are everything between generated inputs and a warm
server; together they are what the ``setup_s`` metric times.
"""

from __future__ import annotations

import os
import shutil
import time
from urllib.parse import quote

from repro.config import ShardConfig
from repro.query.parser import parse_query
from repro.shard import write_sharded_store
from repro.shard.store import ShardedEventStore
from repro.webapp import WorkbenchServer
from repro.workbench import Workbench

from client import Client, check

N_SHARDS = 8
N_WORKERS = 2
#: Warm-up queries: a whole-store scatter, and a cohort for the views.
#: No session or freshness probe uses ``category diagnosis``, so no
#: warm-up request renders, or caches a result for, a measured target.
WARM_QUERY = "category diagnosis"
VIEW_WARM_QUERY = "concept K86 and category diagnosis"


def _open_every_shard(path: str, revision: int, hold_s: float):
    """Executor-worker task: open (and checksum) every shard the way the
    worker's own query path does, then hold the worker briefly so the
    task submitted next to it lands on the other worker."""
    from repro.shard import executor  # noqa: PLC0415 (worker side)

    sharded = executor._WORKER_STORES.get(path)
    if sharded is None or sharded.revision != revision:
        sharded = ShardedEventStore(path, config=ShardConfig())
        executor._WORKER_STORES[path] = sharded
    for index in sharded.active_indices():
        sharded.shard(index)
    time.sleep(hold_s)
    return os.getpid()


class Stack:
    """One store on disk, its workbench, server and client."""

    def __init__(self, root: str, replication: int = 1) -> None:
        self.root = root
        self.replication = replication
        self.workbench: Workbench | None = None
        self.server: WorkbenchServer | None = None
        self.client: Client | None = None
        self.worker_pids: list[int] = []
        self.build_s = 0.0
        self.warm_s = 0.0

    def build(self, base) -> None:
        """Write ``base`` as the sharded store (sidecars included)."""
        if os.path.exists(self.root):
            shutil.rmtree(self.root)
        start = time.perf_counter()
        write_sharded_store(base, self.root, n_shards=N_SHARDS,
                            partition="hash",
                            config=ShardConfig(replication=self.replication))
        self.build_s = time.perf_counter() - start

    def start(self, warm_targets=()) -> list:
        """Open the store, start the server and warm it.

        ``warm_targets`` are ``(route, target)`` pairs rendered once
        after the generic warm-up (``revisit_warm``'s working set); their
        replies are returned in order.
        """
        start = time.perf_counter()
        self.workbench = Workbench.from_shards(
            self.root, shard_config=ShardConfig(n_workers=N_WORKERS))
        self.server = WorkbenchServer(self.workbench).start()
        host, port = self.server._httpd.server_address[:2]
        self.client = Client(host, port)
        self.warm_workers()
        replies = [self._get_ok(route, target)
                   for route, target in warm_targets]
        self.warm_s = time.perf_counter() - start
        return replies

    def warm_workers(self) -> None:
        """Finish every lazy first-touch cost.

        Both executor workers open and verify every shard, a scatter
        and a sketch refinement run through the pool, and a first
        request on every route loads the code it runs — the first
        ``/cohort`` also materializes the whole store in the server.
        """
        wb = self.workbench
        executor = wb.engine.executor
        executor.patients(wb.store, parse_query(WARM_QUERY))  # starts the pool
        seen: set[int] = set()
        for _ in range(10):
            futures = [executor._pool.submit(
                _open_every_shard, wb.store.path, wb.store.revision, 0.1)
                for _ in range(N_WORKERS)]
            seen.update(f.result() for f in futures)
            if len(seen) >= N_WORKERS:
                break
        else:
            raise RuntimeError(f"warm-up reached only {len(seen)} of "
                               f"{N_WORKERS} executor workers")
        self.worker_pids = sorted(seen)
        narrow = quote(VIEW_WARM_QUERY)
        patient = int(wb.select(VIEW_WARM_QUERY)[0])
        for route, target in (
            ("cohort", f"/cohort?q={narrow}"),
            ("timeline", f"/timeline.svg?q={narrow}&rows=60&align=K86"),
            ("density", f"/cohort/density?q={narrow}"),
            ("flow", f"/cohort/flow?q={narrow}"),
            ("overview", f"/overview.svg?q={narrow}"),
            ("patient", f"/patient/{patient}"),
        ):
            self._get_ok(route, target)

    def _get_ok(self, route: str, target: str):
        reply = self.client.get(route, target)
        problem = check(reply)
        if problem is not None:
            raise RuntimeError(f"warm-up {target}: {problem}")
        return reply

    def close(self) -> None:
        """Stop the client, the server and every executor worker, and
        wait until each has ended."""
        if self.client is not None:
            self.client.close()
        if self.server is not None:
            self.server.shutdown()
        if self.workbench is not None:
            executor = self.workbench.engine.executor
            if executor is not None and executor._pool is not None:
                executor._pool.shutdown(wait=True)
                executor.close()
        self.client = self.server = self.workbench = None

    # -- operator metrics ----------------------------------------------------

    def disk_bytes(self) -> int:
        return sum(self.files().values())

    def files(self) -> dict[str, int]:
        """path -> size of every file under the store root."""
        return {
            os.path.join(directory, name):
                os.path.getsize(os.path.join(directory, name))
            for directory, _, files in os.walk(self.root) for name in files
        }

    def pids(self) -> list[int]:
        return [os.getpid(), *self.worker_pids]

    def reset_peak_rss(self) -> None:
        """Restart the high-water mark of the server and its workers."""
        for pid in self.pids():
            with open(f"/proc/{pid}/clear_refs", "w") as handle:
                handle.write("5")

    def peak_rss_mb(self) -> float:
        total_kb = 0
        for pid in self.pids():
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        return total_kb / 1024.0


def filesystem_of(path: str) -> str:
    """The type of the filesystem holding ``path`` (from /proc/mounts)."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as mounts:
            for line in mounts:
                fields = line.split()
                point = fields[1]
                if (path == point or path.startswith(point.rstrip("/") + "/")) \
                        and len(point) > len(best):
                    best, kind = point, fields[2]
    except OSError:
        pass
    return kind
