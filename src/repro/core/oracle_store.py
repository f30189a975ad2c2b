"""Persistent, content-addressed on-disk store for Oracle entries.

The in-memory :class:`~repro.core.oracle.OracleCache` dies with its process,
so the ``--jobs N`` seed fan-out and every fresh CLI invocation used to
re-run identical exhaustive Oracle sweeps.  The :class:`OracleStore` makes
Oracle construction a compute-once artifact: entries are pickled one file
("shard") per content digest under a store directory that any number of
processes — worker pools, later CLI runs, CI jobs restoring a cache — can
share.

Design points:

* **Content addressing.**  Shards are named by a SHA-256 digest of the same
  content keys the in-memory cache uses (snippet characteristics, the full
  configuration-space key including platform parameters and throttling
  restrictions, and the objective's identity including its cost function's
  bytecode).  Two processes computing the same entry write the same shard;
  differing platforms, spaces or objectives can never alias.
* **Crash/corruption tolerance.**  Writes go to a temp file in the store
  and are published with an atomic :func:`os.replace`; readers treat any
  shard that fails to load (truncated, corrupt, wrong version) as a miss,
  so a damaged store heals itself by recomputation.
* **Concurrent safety.**  Readers only ever see fully written shards
  (atomic rename); concurrent writers of the same digest write identical
  bytes, so last-writer-wins is harmless.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import time
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, Optional, Union

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (oracle -> store)
    from repro.core.oracle import OracleEntry

#: Bump when the pickled payload layout changes; old shards become misses.
STORE_FORMAT_VERSION = 1

#: Process-wide store-activity counters aggregated over every OracleStore
#: instance (merged into :func:`repro.core.oracle.cache_stats_snapshot`).
_GLOBAL_STORE_STATS: Dict[str, int] = {"store_retries": 0}


def store_stats_snapshot() -> Dict[str, int]:
    """Copy of the process-wide OracleStore activity counters."""
    return dict(_GLOBAL_STORE_STATS)


_CODE_FINGERPRINT: Optional[str] = None


def code_fingerprint() -> str:
    """Digest of the source of every module Oracle entries depend on.

    Entry *content* keys capture the inputs (snippet, space, objective) but
    not the simulator/Oracle semantics that turn inputs into entries; a
    code change there would otherwise let an old store silently serve
    entries computed by different physics.  Folding this fingerprint into
    every shard digest turns any edit of the relevant modules into clean
    store misses — conservative (some invalidations are unnecessary) but
    never stale.
    """
    global _CODE_FINGERPRINT
    if _CODE_FINGERPRINT is None:
        import repro.core.objectives
        import repro.core.oracle
        import repro.soc

        hasher = hashlib.sha256()
        soc_dir = Path(repro.soc.__file__).parent
        sources = sorted(soc_dir.glob("*.py"))
        sources.append(Path(repro.core.oracle.__file__))
        sources.append(Path(repro.core.objectives.__file__))
        for source in sources:
            hasher.update(source.name.encode("utf-8"))
            hasher.update(b"\x00")
            hasher.update(source.read_bytes())
            hasher.update(b"\x00")
        _CODE_FINGERPRINT = hasher.hexdigest()
    return _CODE_FINGERPRINT


class OracleStore:
    """Directory of content-addressed Oracle-entry shards.

    Transient IO errors (NFS hiccups, ``EINTR``/``EAGAIN``, a briefly
    unavailable mount in CI) retry up to ``max_retries`` times with
    bounded exponential backoff whose jitter is drawn from a *seeded*
    generator — backoff timing is reproducible for a given
    ``jitter_seed``, like every other stochastic component here.  Retries
    are counted in :attr:`retries` (and process-wide as
    ``store_retries``); exhausted retries degrade exactly as before —
    reads become misses, writes become memory-only (counted in
    :attr:`write_errors`) — the store never aborts the run.

    ``io_failure_hook`` is a test/chaos hook called before every physical
    read/write attempt as ``hook(op, path)`` (``op`` is ``"get"`` or
    ``"put"``); raising :class:`OSError` from it simulates a transient or
    persistent filesystem failure.
    """

    def __init__(self, root: Union[str, Path],
                 max_retries: int = 2,
                 backoff_s: float = 0.005,
                 jitter_seed: int = 0,
                 io_failure_hook: Optional[
                     Callable[[str, Path], None]] = None) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.write_errors = 0
        self.retries = 0
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if backoff_s < 0:
            raise ValueError(f"backoff_s must be >= 0, got {backoff_s}")
        self.max_retries = int(max_retries)
        self.backoff_s = float(backoff_s)
        self.io_failure_hook = io_failure_hook
        self._jitter_rng = np.random.default_rng(jitter_seed)

    def _backoff_delay(self, attempt: int) -> float:
        """Deterministic-jitter exponential backoff delay for ``attempt``.

        ``backoff_s * 2^(attempt-1)`` scaled by a jitter factor in
        ``[0.5, 1.5)`` from the store's seeded generator (decorrelates
        concurrent processes without sacrificing reproducibility per
        store instance).
        """
        jitter = 0.5 + float(self._jitter_rng.random())
        return self.backoff_s * (2.0 ** (attempt - 1)) * jitter

    def _count_retry(self, attempt: int) -> None:
        self.retries += 1
        _GLOBAL_STORE_STATS["store_retries"] += 1
        delay = self._backoff_delay(attempt)
        if delay > 0:
            time.sleep(delay)

    def _shard_path(self, digest: str) -> Path:
        # Two-level fan-out keeps directory listings small at scale.
        return self.root / digest[:2] / f"{digest}.pkl"

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.pkl"))

    def get(self, digest: str) -> Optional["OracleEntry"]:
        """Load the entry stored under ``digest``; ``None`` on miss.

        Any unreadable shard — missing, truncated, corrupted, or written by
        an incompatible version — is a miss: the caller recomputes and
        :meth:`put` overwrites the bad shard.
        """
        path = self._shard_path(digest)
        attempt = 0
        while True:
            try:
                if self.io_failure_hook is not None:
                    self.io_failure_hook("get", path)
                with path.open("rb") as handle:
                    version, entry = pickle.load(handle)
                break
            except FileNotFoundError:
                # A shard that does not exist is a clean miss, never a
                # transient failure — no retry.
                self.misses += 1
                return None
            except OSError:
                # Transient IO (EINTR, a flaky network mount, ...): retry
                # with backoff, then degrade to a miss.
                if attempt >= self.max_retries:
                    self.misses += 1
                    return None
                attempt += 1
                self._count_retry(attempt)
            except Exception:
                # Truncated/corrupt shard (e.g. a crashed writer on a
                # filesystem without atomic rename, or bit rot in a
                # restored CI cache) — recomputation heals it; no retry.
                self.misses += 1
                return None
        if version != STORE_FORMAT_VERSION:
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def put(self, digest: str, entry: "OracleEntry") -> bool:
        """Persist ``entry`` under ``digest`` (atomic publish).

        The store is a transparent optimisation tier: a filesystem failure
        (disk full, store directory removed or read-only) must never abort
        the run that already computed the entry, so write errors degrade to
        memory-only operation (counted in :attr:`write_errors`) instead of
        raising.  Returns whether the shard was published.
        """
        payload = pickle.dumps((STORE_FORMAT_VERSION, entry),
                               protocol=pickle.HIGHEST_PROTOCOL)
        path = self._shard_path(digest)
        attempt = 0
        while True:
            tmp_name = None
            try:
                if self.io_failure_hook is not None:
                    self.io_failure_hook("put", path)
                path.parent.mkdir(parents=True, exist_ok=True)
                fd, tmp_name = tempfile.mkstemp(
                    dir=path.parent, prefix=f".{digest[:8]}-", suffix=".tmp"
                )
                with os.fdopen(fd, "wb") as handle:
                    handle.write(payload)
                os.replace(tmp_name, path)
                return True
            except OSError:
                if tmp_name is not None:
                    try:
                        os.unlink(tmp_name)
                    except OSError:
                        pass
                if attempt >= self.max_retries:
                    self.write_errors += 1
                    return False
                attempt += 1
                self._count_retry(attempt)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, int]:
        """This store's activity counters."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "write_errors": self.write_errors,
            "retries": self.retries,
        }


def content_digest(*parts) -> str:
    """SHA-256 digest of the ``repr`` of content-key tuples.

    ``repr`` of the key tuples is deterministic: they contain only str/int
    and floats (whose ``repr`` is the shortest round-trip form) plus frozen
    dataclasses of the same.
    """
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(repr(part).encode("utf-8"))
        hasher.update(b"\x00")
    return hasher.hexdigest()


# --------------------------------------------------------------------- #
# Process-wide default store
# --------------------------------------------------------------------- #
_DEFAULT_STORE: Optional[OracleStore] = None


def set_default_oracle_store(
    store: Optional[Union[OracleStore, str, Path]]
) -> Optional[OracleStore]:
    """Install (or clear, with ``None``) the process-wide default store.

    Frameworks created afterwards layer their :class:`OracleCache` over it.
    The experiment runner calls this in the parent process and forwards the
    path to worker processes so a whole ``--jobs N`` fan-out shares one
    store.  Returns the installed store.
    """
    global _DEFAULT_STORE
    if store is None:
        _DEFAULT_STORE = None
    elif isinstance(store, OracleStore):
        _DEFAULT_STORE = store
    else:
        _DEFAULT_STORE = OracleStore(store)
    return _DEFAULT_STORE


def get_default_oracle_store() -> Optional[OracleStore]:
    """The process-wide default store, if one was installed."""
    return _DEFAULT_STORE


def default_space_digest() -> str:
    """Digest of the default platform's space plus the code fingerprint.

    This is the key CI uses to cache the on-disk store between workflow
    runs: whenever the platform parameters, the space enumeration or any
    module the entries' semantics depend on changes, the digest — and with
    it the cache key — changes.  Shard digests embed the same
    :func:`code_fingerprint`, so a stale restored store could only produce
    misses anyway; the key keeps the cache from accumulating dead shards.
    """
    from repro.soc.configuration import ConfigurationSpace
    from repro.soc.platform import odroid_xu3_like

    space = ConfigurationSpace(odroid_xu3_like())
    return content_digest(space.content_key(), code_fingerprint())
