"""The durable-JSONL contract, written once for every writer.

:class:`~repro.obs.ledger.RunLedger` and
:class:`~repro.experiment.supervise.SweepCheckpoint` both append
through :class:`~repro.obs.ledger.JsonlAppender` and read back through
:func:`~repro.obs.ledger.read_jsonl`.  Each writer's test class mixes
in :class:`JsonlWriterContract` and says how to append its n-th sample
record and how to read a file back as ``(records, torn)``.
"""

import os

import pytest


class JsonlWriterContract:
    #: The JsonlAppender subclass under test.
    writer: type

    def append_sample(self, writer, n):
        raise NotImplementedError

    def read(self, path):
        raise NotImplementedError

    def _write(self, path, count, first=0):
        with self.writer(str(path)) as writer:
            for n in range(first, first + count):
                self.append_sample(writer, n)
        return writer

    def test_round_trip(self, tmp_path):
        path = tmp_path / "log.jsonl"
        assert self._write(path, 3).appended == 3
        records, torn = self.read(path)
        assert (len(records), torn) == (3, 0)
        assert len(path.read_text().splitlines()) == 3

    def test_one_os_write_per_append(self, tmp_path, monkeypatch):
        # Two writers sharing a file interleave whole lines, never torn
        # ones, only if every record is one write of one complete line.
        writes = []
        real_write = os.write

        def spy_write(fd, data):
            writes.append(data)
            return real_write(fd, data)

        monkeypatch.setattr(os, "write", spy_write)
        self._write(tmp_path / "log.jsonl", 2)
        assert len(writes) == 2
        assert all(w.endswith(b"\n") and w.count(b"\n") == 1
                   for w in writes)

    def test_short_write_raises_and_is_not_counted(
            self, tmp_path, monkeypatch):
        real_write = os.write
        monkeypatch.setattr(
            os, "write", lambda fd, data: real_write(fd, data[:-1]))
        with self.writer(str(tmp_path / "log.jsonl")) as writer:
            with pytest.raises(OSError, match="short write"):
                self.append_sample(writer, 0)
            assert writer.appended == 0

    def test_reader_tolerates_torn_trailing_line(self, tmp_path):
        path = tmp_path / "log.jsonl"
        self._write(path, 2)
        # A SIGKILLed writer can leave a partial final line.
        with open(path, "a") as handle:
            handle.write('{"torn half of a lin')
        records, torn = self.read(path)
        assert (len(records), torn) == (2, 1)

    def test_missing_file_is_empty(self, tmp_path):
        assert self.read(tmp_path / "nope.jsonl") == ([], 0)

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "log.jsonl"
        self._write(path, 1)
        assert path.exists()

    def test_appends_accumulate_across_reopens(self, tmp_path):
        path = tmp_path / "log.jsonl"
        self._write(path, 1)
        self._write(path, 2, first=1)
        records, torn = self.read(path)
        assert (len(records), torn) == (3, 0)
