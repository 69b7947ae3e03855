"""Pins the consolidated error taxonomy (`repro.errors`).

``ERROR_CODES`` is a wire-stable contract: serving clients and trace
consumers dispatch on these strings, so a code may be added but never
renamed or removed.  This test is the tripwire.
"""

import pytest

from repro import errors


EXPECTED_CODES = {
    "graph_format": "GraphFormatError",
    "protocol_error": "ProtocolError",
    "cluster_lifecycle": "ClusterLifecycleError",
    "worker_died": "WorkerDiedError",
    "unrecoverable_run": "UnrecoverableRunError",
    "serve_error": "ServeError",
    "queue_full": "QueueFullError",
    "timeout": "QueryTimeoutError",
    "bad_query": "BadQueryError",
}


def test_error_code_table_is_stable():
    assert {code: name for code, (_, name) in errors.ERROR_CODES.items()} == \
           EXPECTED_CODES


def test_every_class_carries_its_code():
    for code, (_, name) in errors.ERROR_CODES.items():
        cls = getattr(errors, name)
        assert cls.code == code, f"{name}.code drifted from the table"
        assert issubclass(cls, Exception)


def test_error_code_helper():
    assert errors.error_code(errors.GraphFormatError("x")) == "graph_format"
    assert errors.error_code(RuntimeError("x")) == "error"


def test_reexports_are_the_real_classes():
    from repro.runtime.cluster import ClusterLifecycleError
    from repro.runtime.faults import UnrecoverableRunError, WorkerDiedError
    from repro.serve.errors import QueueFullError

    assert errors.ClusterLifecycleError is ClusterLifecycleError
    assert errors.WorkerDiedError is WorkerDiedError
    assert errors.UnrecoverableRunError is UnrecoverableRunError
    assert errors.QueueFullError is QueueFullError


def test_serve_wire_codes_agree():
    """The serving tier's code→class wire table is a slice of ours."""
    from repro.serve.errors import error_for_code

    for code in ("queue_full", "timeout", "bad_query", "serve_error"):
        exc = error_for_code(code, "msg")
        _, name = errors.ERROR_CODES[code]
        assert type(exc).__name__ == name
        assert errors.error_code(exc) == code


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError):
        errors.NoSuchError


def test_dir_lists_the_surface():
    listed = dir(errors)
    for name in EXPECTED_CODES.values():
        assert name in listed
