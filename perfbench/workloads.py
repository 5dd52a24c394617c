"""The measured phase of each workload: one clinician in a closed loop.

* ``explore_cold`` — sessions whose targets never repeat;
* ``revisit_warm`` — the targets of one session, rendered at set-up and
  revisited in seeded order, two plain revisits per conditional one;
* ``ingest_mixed`` — ``explore_cold`` sessions on a replicated store, a
  batch landing through ``Workbench.append_batch`` before every
  :data:`~inputs.APPEND_EVERY`-th session and ``Workbench.compact``
  running inline before every append but the first.

A phase runs whole sessions until ``seconds`` of measured time have
passed, or exactly ``limit`` sessions when replaying an earlier phase.
Replies are checked when their session ends, so checking never lands
inside a timed request or session.  Workloads whose sessions append
nothing measure freshness afterwards, with :func:`probe_freshness`.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from urllib.parse import quote

from client import Reply, check, decoded_body
from inputs import PROBE_QUERY

#: Requests in one revisit block (the size of one session).
REVISIT_BLOCK = 24


@dataclass
class Phase:
    """What one measured phase saw."""

    replies: list[Reply] = field(default_factory=list)
    session_s: list[float] = field(default_factory=list)
    freshness_s: list[float] = field(default_factory=list)
    append_bytes_per_event: list[float] = field(default_factory=list)
    compact_bytes: list[int] = field(default_factory=list)
    #: request ids of the first ``/cohort`` after each append
    post_append: list[str] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    sessions: int = 0

    def judge(self, pending: list[tuple[Reply, int, int | None, str | None]]
              ) -> None:
        """Check replies, count failures, then drop their bodies."""
        for reply, status, expected, etag in pending:
            problem = check(reply, status, expected, etag)
            if problem is not None:
                self.failures.append(f"{reply.request_id} {reply.route}: "
                                     f"{problem}")
            elif reply.status == 200:
                reply.body_bytes = len(decoded_body(reply))
            reply.body = b""
            self.replies.append(reply)
        pending.clear()


def _land(stack, batch, phase: Phase) -> tuple[float, int]:
    """Append one batch; returns the perf_counter at the call and the
    store's size before it (for :func:`_landed`)."""
    before = stack.disk_bytes()
    phase.attempted += 1
    start = time.perf_counter()
    try:
        stack.workbench.append_batch(batch)
    except Exception as exc:  # a failed append is a failed operation
        phase.failures.append(f"append: {exc!r}")
    return start, before


def _landed(stack, batch, before: int, phase: Phase) -> None:
    """Record what the last append added on disk, once its fresh
    answer is in (walking the store must not delay that answer)."""
    phase.append_bytes_per_event.append(
        (stack.disk_bytes() - before) / max(1, batch.n_events))


def compact(stack, phase: Phase) -> None:
    """Compact inline, between sessions, outside any measured time."""
    before = stack.files()
    phase.attempted += 1
    try:
        stack.workbench.compact()
    except Exception as exc:
        phase.failures.append(f"compact: {exc!r}")
        return
    after = stack.files()
    phase.compact_bytes.append(
        sum(size for path, size in after.items() if path not in before))


def run_sessions(stack, sessions, batches, seconds: float,
                 limit: int | None = None) -> Phase:
    """Drive ``explore_cold`` or ``ingest_mixed``.

    A session with a ``batch`` is preceded by that batch's append (and,
    when an earlier batch landed, by an inline compaction outside the
    measured time); ``freshness`` runs from the append call to the last
    byte of the session's first ``/cohort``.
    """
    phase = Phase()
    measured = 0.0
    client = stack.client
    for k, session in enumerate(sessions):
        if limit is not None and k >= limit:
            break
        if limit is None and measured >= seconds:
            break
        appended = None
        if session.batch is not None:
            if session.batch:
                compact(stack, phase)
            batch = batches[session.batch]
            appended, size_before = _land(stack, batch, phase)
        begin = appended if appended is not None else time.perf_counter()
        pending = []
        first = None
        for step in session.steps:
            for route, target in step.targets():
                phase.attempted += 1
                reply = client.get(route, target)
                expected = step.expected if route == "cohort" else None
                pending.append((reply, 200, expected, None))
                if first is None:
                    first = reply
        end = pending[-1][0].done
        phase.session_s.append(end - first.sent)
        measured += end - begin
        if appended is not None:
            phase.freshness_s.append(first.done - appended)
            phase.post_append.append(first.request_id)
            _landed(stack, batch, size_before, phase)
        phase.sessions += 1
        phase.judge(pending)
    return phase


def revisit(stack, working, seed: int, seconds: float,
            limit: int | None = None) -> Phase:
    """Replay the working set: ``working`` is a list of
    ``(route, target, expected_count, etag)``.  Every third request is
    conditional (``If-None-Match``) and must answer 304."""
    phase = Phase()
    rng = random.Random(seed)
    order: list[int] = []
    client = stack.client
    measured = 0.0
    sent = 0
    while True:
        if limit is not None and phase.sessions >= limit:
            break
        if limit is None and measured >= seconds:
            break
        pending = []
        for _ in range(REVISIT_BLOCK):
            if not order:
                order = list(range(len(working)))
                rng.shuffle(order)
            route, target, expected, etag = working[order.pop()]
            conditional = sent % 3 == 2
            sent += 1
            phase.attempted += 1
            reply = client.get(route, target, etag if conditional else None)
            pending.append((reply, 304 if conditional else 200,
                            None if conditional else expected, etag))
        block = pending[-1][0].done - pending[0][0].sent
        phase.session_s.append(block)
        measured += block
        phase.sessions += 1
        phase.judge(pending)
    return phase


def probe_freshness(stack, probes, batches, phase: Phase) -> None:
    """Land one batch per probe and time it to a fresh ``/cohort`` of
    :data:`~inputs.PROBE_QUERY`; ``probes`` holds ``(batch, count)``.
    Each probe but the first compacts first, so every append lands on a
    store without pending deltas."""
    target = f"/cohort?q={quote(PROBE_QUERY)}"
    for number, (index, expected) in enumerate(probes):
        if number:
            compact(stack, phase)
        batch = batches[index]
        appended, size_before = _land(stack, batch, phase)
        phase.attempted += 1
        reply = stack.client.get("cohort", target)
        phase.freshness_s.append(reply.done - appended)
        _landed(stack, batch, size_before, phase)
        problem = check(reply, 200, expected)
        if problem is not None:
            phase.failures.append(f"probe {target}: {problem}")
