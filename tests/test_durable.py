"""Behaviour of :func:`repro.durable.publish` apart from its fault crash site."""

import pytest

from repro.durable import STAGING_GLOB, publish


def test_publish_writes_the_chunks_in_order(tmp_path):
    target = tmp_path / "rows.jsonl"
    target.write_bytes(b"old\n")
    publish(target, (f"{n}\n".encode() for n in range(3)))
    assert target.read_bytes() == b"0\n1\n2\n"
    assert not list(tmp_path.glob(STAGING_GLOB))


def test_a_failing_chunk_source_leaves_the_target_and_no_staging_file(tmp_path):
    target = tmp_path / "rows.jsonl"
    target.write_bytes(b"old\n")

    def rows():
        yield b"new\n"
        raise RuntimeError("row encoding failed")

    with pytest.raises(RuntimeError):
        publish(target, rows())
    assert target.read_bytes() == b"old\n"
    assert not list(tmp_path.glob(STAGING_GLOB))
