"""Exception taxonomy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class at an application boundary while
still being able to discriminate the failure domain (terminology,
ontology, temporal reasoning, source integration, querying, rendering).
"""

from __future__ import annotations

import copyreg


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library.

    Pickling rebuilds an error from its formatted ``args`` and attribute
    dict without calling ``__init__``, whose structured parameters
    (``ShardChecksumError(shard, column, expected, actual)``) differ
    from ``args``.  A typed error raised in a process-pool worker thus
    reaches the parent intact instead of breaking the pool.
    """

    def __reduce__(self):
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class TerminologyError(ReproError):
    """A code, code system or mapping problem.

    Raised for unknown code systems, malformed codes and invalid
    hierarchy operations.
    """


class UnknownCodeError(TerminologyError):
    """A code was looked up that does not exist in its code system."""

    def __init__(self, system: str, code: str) -> None:
        super().__init__(f"unknown code {code!r} in code system {system!r}")
        self.system = system
        self.code = code


class OntologyError(ReproError):
    """An ontology construction or reasoning problem."""


class InconsistentOntologyError(OntologyError):
    """The ontology (or an individual's assertions) is unsatisfiable."""


class TemporalError(ReproError):
    """An invalid temporal value or an inconsistent constraint network."""


class InconsistentConstraintsError(TemporalError):
    """A temporal constraint network has no consistent solution."""


class EventModelError(ReproError):
    """An invalid event, history or cohort construction."""


class SourceFormatError(ReproError):
    """A raw source record could not be parsed or integrated."""

    def __init__(self, source: str, detail: str) -> None:
        super().__init__(f"bad record from source {source!r}: {detail}")
        self.source = source
        self.detail = detail


class SourceUnavailableError(ReproError):
    """A source could not deliver records at all (registry down, I/O).

    ``transient`` distinguishes failures worth retrying (timeouts,
    intermittent connectivity) from permanent ones (the registry rejected
    the extraction, the feed is decommissioned).
    """

    def __init__(self, source: str, detail: str,
                 transient: bool = False) -> None:
        super().__init__(f"source {source!r} unavailable: {detail}")
        self.source = source
        self.detail = detail
        self.transient = transient


class RetryExhaustedError(SourceUnavailableError):
    """Every retry attempt (or the read deadline) was used up."""

    def __init__(self, source: str, attempts: int, detail: str) -> None:
        super().__init__(
            source, f"gave up after {attempts} attempt(s): {detail}"
        )
        self.attempts = attempts


class CircuitOpenError(SourceUnavailableError):
    """A circuit breaker is open; the source is not even being tried."""

    def __init__(self, source: str, detail: str) -> None:
        super().__init__(source, f"circuit open: {detail}")


class DeadlineExceededError(ReproError):
    """A per-request or per-operation deadline elapsed before completion."""


class ShardStoreError(ReproError):
    """A sharded on-disk store could not be written, opened or queried."""


class ShardFormatError(ShardStoreError):
    """A shard directory's layout or manifest is invalid or unsupported."""

    def __init__(self, path: str, detail: str) -> None:
        super().__init__(f"bad shard store at {path!r}: {detail}")
        self.path = path
        self.detail = detail


class ShardChecksumError(ShardStoreError):
    """A shard column file failed its manifest checksum (corruption)."""

    def __init__(self, shard: str, column: str, expected: str,
                 actual: str) -> None:
        super().__init__(
            f"checksum mismatch in shard {shard!r}, column {column!r}: "
            f"manifest says {expected}, file hashes to {actual}"
        )
        self.shard = shard
        self.column = column
        self.expected = expected
        self.actual = actual


class ShardQuarantinedError(ShardStoreError):
    """A shard is quarantined: present in the store but excluded from
    serving until ``shard repair`` restores it."""

    def __init__(self, shard: str, reason: str) -> None:
        super().__init__(f"shard {shard!r} is quarantined: {reason}")
        self.shard = shard
        self.reason = reason


class ShardRepairError(ShardStoreError):
    """A damaged shard could not be repaired (no usable repair source)."""

    def __init__(self, shard: str, detail: str) -> None:
        super().__init__(f"cannot repair shard {shard!r}: {detail}")
        self.shard = shard
        self.detail = detail


class SketchError(ShardStoreError):
    """A cohort-sketch sidecar is missing, stale, corrupt or unmergeable.

    Sketch sidecars are derived data — a pure function of their
    segment's columns — so every :class:`SketchError` names a condition
    that ``sketch build`` (or ``shard repair``) can fix by rebuilding.
    """

    def __init__(self, path: str, detail: str) -> None:
        super().__init__(f"sketch problem at {path!r}: {detail}")
        self.path = path
        self.detail = detail


class SimulatedCrashError(ShardStoreError):
    """An armed crash point fired (fault-injection harness only).

    Raised by :func:`repro.resilience.faults.crashpoint` when a test has
    armed that point, simulating a process kill in the middle of a
    durable-write sequence.  Production code never arms crash points, so
    this error can only surface under the crash-matrix test harness.
    """

    def __init__(self, label: str, step: int) -> None:
        super().__init__(
            f"simulated crash at point {step} ({label})"
        )
        self.label = label
        self.step = step


class QueryError(ReproError):
    """A malformed query expression or an evaluation failure."""


class QuerySyntaxError(QueryError):
    """The textual query language failed to parse.

    The message carries a caret line pointing at the offending column so
    CLI and webapp users see *where* the query broke, not just why.
    """

    def __init__(self, text: str, position: int, detail: str) -> None:
        caret = ""
        if text and 0 <= position <= len(text):
            caret = f"\n  {text}\n  {' ' * position}^"
        super().__init__(
            f"query syntax error at position {position}: {detail}{caret}"
        )
        self.text = text
        self.position = position
        self.detail = detail


class QueryAnalysisError(QueryError):
    """Static analysis refused a query (error-severity diagnostics).

    Raised by the engine's ``analyze=`` gate before any evaluation
    happens; ``diagnostics`` carries every
    :class:`repro.query.analyze.Diagnostic` found, not only the errors.
    """

    def __init__(self, diagnostics) -> None:
        errors = [d for d in diagnostics if d.severity == "error"]
        summary = "; ".join(f"{d.rule}: {d.message}" for d in errors[:3])
        more = f" (+{len(errors) - 3} more)" if len(errors) > 3 else ""
        super().__init__(f"query rejected by static analysis: {summary}{more}")
        self.diagnostics = tuple(diagnostics)


class RenderError(ReproError):
    """The visualization layer was asked to draw something impossible."""


class SimulationError(ReproError):
    """The synthetic-data generator was configured inconsistently."""
