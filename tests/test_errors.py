"""Typed errors survive pickling, so they cross process boundaries.

A shard error raised inside a scatter-gather pool worker reaches the
parent by pickle.  Most classes in :mod:`repro.errors` take structured
``__init__`` arguments (``ShardChecksumError(shard, column, expected,
actual)``) while ``args`` holds only the formatted message, so the
default exception pickling — which re-calls ``__init__(*args)`` —
cannot rebuild them.  Every class, found by introspection and built
with real arguments, must come back with the same type, message and
attributes.
"""

from __future__ import annotations

import inspect
import pickle

import pytest

import repro.errors as errors
from repro.query.analyze import Diagnostic

#: A real value for every ``__init__`` parameter name in repro.errors;
#: a new parameter name fails the build below until it is added here.
_ARGUMENTS = {
    "system": "ICPC-2",
    "code": "T90",
    "source": "gp_claim",
    "detail": "truncated record",
    "transient": True,
    "attempts": 3,
    "path": "/data/cohort.shards",
    "shard": "shard-0002",
    "column": "patient",
    "expected": "aa11",
    "actual": "bb22",
    "reason": "checksum mismatch",
    "label": "delta.commit",
    "step": 4,
    "text": "concept T90 and",
    "position": 15,
    "diagnostics": (
        Diagnostic("QA102", "error", "$.expr", "catastrophic backtracking",
                   hint="drop the nested repeat"),
        Diagnostic("QA209", "warning", "$", "duplicate clause"),
    ),
}


def _error_classes() -> list[type]:
    return sorted(
        (value for value in vars(errors).values()
         if isinstance(value, type) and issubclass(value, errors.ReproError)),
        key=lambda cls: cls.__name__,
    )


def _build(cls: type) -> errors.ReproError:
    if cls.__init__ is Exception.__init__:
        return cls("a plain message")
    names = list(inspect.signature(cls.__init__).parameters)[1:]
    return cls(**{name: _ARGUMENTS[name] for name in names})


def test_introspection_finds_every_class():
    names = {cls.__name__ for cls in _error_classes()}
    assert {"ReproError", "ShardChecksumError", "ShardFormatError",
            "QueryAnalysisError", "SimulatedCrashError"} <= names
    assert len(names) >= 25


@pytest.mark.parametrize("cls", _error_classes(), ids=lambda c: c.__name__)
@pytest.mark.parametrize("protocol", [0, pickle.DEFAULT_PROTOCOL,
                                      pickle.HIGHEST_PROTOCOL])
def test_error_round_trips_through_pickle(cls, protocol):
    error = _build(cls)
    clone = pickle.loads(pickle.dumps(error, protocol=protocol))
    assert type(clone) is cls
    assert str(clone) == str(error)
    assert clone.args == error.args
    assert vars(clone) == vars(error)
