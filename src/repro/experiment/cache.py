"""Spec-digest result cache: memoize deterministic runs on disk.

An :class:`~repro.experiment.spec.ExperimentSpec` is JSON-canonical
and the :class:`~repro.experiment.runner.Runner` is seed-deterministic,
so a run's entire :class:`~repro.experiment.runner.RunResult` is a pure
function of the spec's content.  :class:`ResultCache` exploits that:
the cache key is the SHA-256 of the spec's canonical JSON plus a
code-version salt (:data:`CACHE_SALT`), and the value is the result's
``to_dict()`` payload.

Layout on disk (default ``~/.cache/repro-mobility/``, honouring
``XDG_CACHE_HOME``; override per call site or with the sweep CLI's
``--cache-dir``)::

    <root>/<key[:2]>/<key>.json   one result per entry, fanned out

Entries are written with :func:`~repro.obs.ledger.replace_file`
(write-then-rename), so a killed writer never leaves a torn entry.
Every entry embeds the salt; an entry whose salt does not match the
running code (or that is not a JSON object) is counted as an
*invalidation*, deleted, and treated as a miss — so bumping
:data:`CACHE_SALT` when run-visible behaviour changes retires the
entire cache lazily, with no migration step.

The cache must be **bypassed** whenever the bytes under measurement are
the point: benchmark timings, determinism checks comparing serial vs
parallel sweeps, and any run whose code is suspected of differing from
the salt.  Wire it explicitly (``SweepExecutor(cache=...)``); nothing
in the library caches behind your back.  Counters
(hits/misses/invalidations/stores/bytes) are exposed via
:meth:`ResultCache.stats` and can be surfaced as a
:mod:`repro.obs.metrics` family with :meth:`ResultCache.register_metrics`.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, Optional

from ..obs.ledger import replace_file
from .runner import RunResult
from .spec import ExperimentSpec

__all__ = ["CACHE_SALT", "ResultCache", "default_cache_dir", "spec_digest"]

# Code-version salt folded into every cache key.  Bump whenever a
# change alters what any spec *produces* (trace format, digest line,
# metrics shape, invariant semantics...) so stale entries self-retire.
CACHE_SALT = "repro-mobility-cache-v7"


def default_cache_dir() -> str:
    """``$XDG_CACHE_HOME/repro-mobility`` or ``~/.cache/repro-mobility``."""
    base = os.environ.get("XDG_CACHE_HOME")
    if not base:
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro-mobility")


def spec_digest(spec: ExperimentSpec, salt: Optional[str] = None) -> str:
    """SHA-256 of the spec's canonical JSON plus the code salt."""
    if salt is None:
        salt = CACHE_SALT
    canonical = json.dumps(
        spec.to_dict(), sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256()
    digest.update(canonical.encode())
    digest.update(b"\x00")
    digest.update(salt.encode())
    return digest.hexdigest()


class ResultCache:
    """On-disk memo of :class:`RunResult` keyed by spec content digest."""

    def __init__(self, root: Optional[str] = None) -> None:
        self.root = root or default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.stores = 0
        self.bytes_read = 0
        self.bytes_written = 0

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def key_for(self, spec: ExperimentSpec) -> str:
        return spec_digest(spec)

    def _entry_path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], f"{key}.json")

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------
    def lookup(self, spec: ExperimentSpec) -> Optional[RunResult]:
        """Return the cached result for ``spec``, or ``None`` on miss.

        A present-but-unusable entry (salt mismatch, corrupt JSON, JSON
        that is not an object) is deleted, counted as an invalidation,
        and reported as a miss.
        """
        key = self.key_for(spec)
        path = self._entry_path(key)
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except OSError:
            self.misses += 1
            return None
        try:
            payload = json.loads(raw)
            if not isinstance(payload, dict) \
                    or payload.get("salt") != CACHE_SALT:
                raise ValueError("not an entry of this cache version")
            result = RunResult.from_dict(payload["result"])
        except (ValueError, KeyError, TypeError):
            self.invalidations += 1
            self.misses += 1
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        self.hits += 1
        self.bytes_read += len(raw)
        return result

    def store(self, spec: ExperimentSpec, result: RunResult) -> None:
        """Persist ``result`` under ``spec``'s digest.

        Failed (quarantined) results are never cached: a failure is an
        environmental accident, not a pure function of the spec, and a
        resumed or retried sweep must re-run the cell.
        """
        if result.failure is not None:
            return
        key = self.key_for(spec)
        payload = {
            "salt": CACHE_SALT,
            "key": key,
            "result": result.to_dict(),
        }
        encoded = json.dumps(payload, sort_keys=True).encode()
        replace_file(self._entry_path(key), encoded)
        self.stores += 1
        self.bytes_written += len(encoded)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "stores": self.stores,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
        }

    def register_metrics(self, registry: Any) -> None:
        """Expose the counters as a ``result_cache`` metrics family.

        ``registry`` is a :class:`repro.obs.metrics.MetricsRegistry`;
        the family reads live, so one registration tracks the cache for
        its whole lifetime.
        """
        registry.family(
            "result_cache",
            lambda: {k: float(v) for k, v in self.stats().items()},
        )
