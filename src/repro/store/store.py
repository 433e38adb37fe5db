"""Content-addressed, on-disk result store with an LRU byte budget.

A :class:`ResultStore` persists computed results across processes, keyed by
the stable fingerprints of :mod:`repro.store.fingerprint`. Payloads are
either JSON documents (sweep points, design reports) or npz bundles of
NumPy arrays (per-chunk kernel values for resumable sweeps); both live
under one root::

    root/<kind>/<ab>/<fingerprint>.json|.npz

where ``<ab>`` is the fingerprint's first two hex chars (keeps directories
small at scale). Guarantees:

- **atomic writes** — payloads are staged to a same-directory temp file,
  fsynced, then :func:`os.replace`d into place, so a reader (or a crash)
  never observes a partial entry;
- **checksummed reads + quarantine** — every write leaves a ``.sum``
  sidecar (blake2b of the committed bytes, outside the LRU budget); a
  read whose bytes fail the checksum or fail to decode is *never served*:
  the entry is moved to ``root/.quarantine/`` (evidence preserved,
  ``stats.quarantined`` counted) and reported as a miss so the caller
  recomputes. :meth:`verify` walks the store and quarantines bad entries
  eagerly (backfilling missing sidecars); :meth:`repair` additionally
  purges the quarantine directory;
- **last-writer-wins concurrency** — entries are content-addressed, so
  concurrent writers of one key are writing identical bytes and the race
  is benign; no cross-process locks are taken;
- **LRU byte budget** — reads bump an entry's recency (mtime on disk, and
  the in-memory index); when a write pushes the store past ``max_bytes``,
  oldest-read entries are deleted until it fits. Entries younger than
  ``evict_grace_seconds`` are never evicted — this closes the race where
  eviction unlinks a path that a concurrent ``put`` just committed — so
  the store may transiently exceed the budget while everything is fresh;
- **indexed eviction** — eviction order and sizes come from an in-memory
  size/recency index maintained by every read/write, so an over-budget
  write never walks the store directory. The index is rebuilt from a
  directory scan (counted by ``stats.index_rebuilds``) only at open and
  when it is caught stale — an entry vanished under us, or evicting
  everything it knows still leaves the budget exceeded (both only happen
  when another process shares the root); stale temp files from crashed
  writers are swept at rebuild time;
- **hit/miss stats** — :attr:`stats` counts hits, misses, puts, evictions,
  index rebuilds and the current byte estimate, and feeds the service's
  ``/v1/stats``.
"""

from __future__ import annotations

import copy
import hashlib
import io
import json
import os
import re
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.chaos.engine import chaos_hook
from repro.obs.metrics import REGISTRY, counter
from repro.obs.trace import trace_span

__all__ = ["ResultStore", "StoreStats"]

# Temp files older than this are presumed crashed writers and swept.
_STALE_TMP_SECONDS = 3600.0

# Quarantined entries live here (inside the root, outside the LRU index).
_QUARANTINE_DIR = ".quarantine"

# A valid fingerprint: non-empty lowercase hex (no separators, so no path
# can escape the store root through it).
_FINGERPRINT_RE = re.compile(r"[0-9a-f]+")


def _checksum(blob: bytes) -> str:
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


@dataclass
class StoreStats:
    """Store counters (the service surfaces these via ``/v1/stats``)."""

    hits: int = counter()
    misses: int = counter()
    puts: int = counter()
    evictions: int = counter()
    bytes: int = 0  # a gauge: the current byte estimate
    index_rebuilds: int = counter()
    quarantined: int = counter()


class ResultStore:
    """See module docstring.

    Parameters
    ----------
    root:
        Directory for the store (created if missing).
    max_bytes:
        LRU byte budget. Writes that push past it evict least-recently-read
        entries; a single payload larger than the budget is still stored
        (and evicted by the next write).
    evict_grace_seconds:
        Entries read or written more recently than this are never evicted,
        closing the eviction-vs-concurrent-``put`` race on one fingerprint
        path. ``0.0`` restores strict LRU (useful in tests).
    """

    def __init__(self, root: str | Path, max_bytes: int = 1 << 30,
                 evict_grace_seconds: float = 1.0):
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        if evict_grace_seconds < 0:
            raise ValueError(
                f"evict_grace_seconds must be >= 0, got {evict_grace_seconds}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes
        self.evict_grace_seconds = evict_grace_seconds
        self.stats = StoreStats()
        self._lock = threading.Lock()
        # path -> [recency, size]: the eviction index (see module docstring)
        self._index: dict[Path, list] = {}
        self._rebuild_index()
        REGISTRY.register_object(
            self, prefix="repro_store",
            labels={"instance": REGISTRY.next_instance("store")})

    def snapshot(self) -> StoreStats:
        """A copy of :attr:`stats`, taken under the store lock (what
        ``/v1/metrics`` and ``/v1/stats`` read)."""
        with self._lock:
            return copy.deepcopy(self.stats)

    @classmethod
    def coerce(cls, store) -> "ResultStore | None":
        """``None`` | store | path -> an open store (sessions' ``store=``)."""
        if store is None or isinstance(store, ResultStore):
            return store
        return cls(store)

    # -- paths -------------------------------------------------------------

    def _path(self, kind: str, fp: str, suffix: str) -> Path:
        if _FINGERPRINT_RE.fullmatch(fp) is None:
            raise ValueError(f"fingerprint must be lowercase hex, got {fp!r}")
        return self.root / kind / fp[:2] / f"{fp}{suffix}"

    @staticmethod
    def _sum_path(path: Path) -> Path:
        """The checksum sidecar for a payload path (``<entry>.sum``)."""
        return path.with_name(path.name + ".sum")

    def _scan(self):
        """All committed entries as ``(mtime, size, path)`` (temp files,
        checksum sidecars, and quarantined entries skipped)."""
        entries = []
        for path in self.root.rglob("*"):
            if not path.is_file():
                continue
            if path.suffix not in (".json", ".npz"):
                continue
            if _QUARANTINE_DIR in path.parts:
                continue
            try:
                st = path.stat()
            except OSError:  # concurrently evicted
                continue
            entries.append((st.st_mtime, st.st_size, path))
        return entries

    def _rebuild_index(self) -> None:
        """Rescan the root into the in-memory recency/size index.

        Runs at open and whenever the index is caught stale (another
        process changed the root under us). Stale temp files left by
        crashed writers are swept here — the one periodic walk the store
        still does.
        """
        now = time.time()
        for path in self.root.rglob("*.tmp"):
            try:
                if now - path.stat().st_mtime > _STALE_TMP_SECONDS:
                    path.unlink(missing_ok=True)
            except OSError:
                pass
        entries = self._scan()
        with self._lock:
            self._index = {path: [mtime, size] for mtime, size, path in entries}
            self.stats.bytes = sum(size for _, size, _ in entries)
            self.stats.index_rebuilds += 1

    # -- read side ---------------------------------------------------------

    def _quarantine(self, path: Path) -> None:
        """Move a bad entry (plus its sidecar) into ``root/.quarantine/``.

        Quarantined entries keep their bytes as evidence but are invisible
        to reads, ``contains``, and the LRU index; ``stats.quarantined``
        counts them and :meth:`repair` purges them.
        """
        qdir = self.root / _QUARANTINE_DIR
        qdir.mkdir(parents=True, exist_ok=True)
        kind = path.parent.parent.name
        try:
            os.replace(path, qdir / f"{kind}__{path.name}")
        except OSError:
            path.unlink(missing_ok=True)  # cross-device or racing unlink
        sidecar = self._sum_path(path)
        try:
            os.replace(sidecar, qdir / f"{kind}__{sidecar.name}")
        except OSError:
            sidecar.unlink(missing_ok=True)
        with self._lock:
            self.stats.quarantined += 1

    def _verify_checksum(self, path: Path, raw: bytes) -> None:
        """Raise ``ValueError`` when the sidecar disagrees with ``raw``.

        A missing sidecar (entry from an older store version, or a crash
        between payload and sidecar commit) falls back to decode-only
        validation; :meth:`verify` backfills those.
        """
        try:
            expected = self._sum_path(path).read_text().strip()
        except OSError:
            return
        if expected != _checksum(raw):
            raise ValueError(f"checksum mismatch for {path.name}")

    def _read(self, kind: str, fp: str, suffix: str, decode):
        with trace_span("store.get", kind=kind) as sp:
            payload = self._read_impl(kind, fp, suffix, decode)
            sp.set(hit=payload is not None)
            return payload

    def _read_impl(self, kind: str, fp: str, suffix: str, decode):
        path = self._path(kind, fp, suffix)
        try:
            raw = path.read_bytes()
            self._verify_checksum(path, raw)
            payload = decode(raw)
        except FileNotFoundError:
            payload = None
        except Exception:
            # torn/corrupt entry (unclean shutdown, bit rot, checksum
            # mismatch): never serve it — quarantine the bytes and report a
            # miss so the caller recomputes
            self._quarantine(path)
            payload = None
        with self._lock:
            if payload is None:
                self.stats.misses += 1
                dropped = self._index.pop(path, None)
                if dropped is not None:  # a torn entry we were tracking
                    self.stats.bytes -= dropped[1]
            else:
                self.stats.hits += 1
                entry = self._index.get(path)
                if entry is not None:
                    entry[0] = time.time()  # bump LRU recency in the index
                else:  # written by another process since the last rebuild
                    self._index[path] = [time.time(), len(raw)]
                    self.stats.bytes += len(raw)
        if payload is not None:
            try:
                os.utime(path)  # keep on-disk recency for future rebuilds
            except OSError:
                pass
        return payload

    def get_json(self, kind: str, fp: str):
        """The JSON payload stored under ``(kind, fp)``, or ``None``."""
        return self._read(kind, fp, ".json", lambda raw: json.loads(raw.decode()))

    def get_arrays(self, kind: str, fp: str) -> dict | None:
        """The npz array bundle stored under ``(kind, fp)``, or ``None``."""
        def decode(raw):
            with np.load(io.BytesIO(raw)) as bundle:
                return {name: bundle[name] for name in bundle.files}
        return self._read(kind, fp, ".npz", decode)

    def contains(self, kind: str, fp: str) -> bool:
        """Entry presence without touching recency or hit/miss counters."""
        return (self._path(kind, fp, ".json").exists()
                or self._path(kind, fp, ".npz").exists())

    # -- write side --------------------------------------------------------

    def _write(self, kind: str, fp: str, suffix: str, blob: bytes) -> None:
        with trace_span("store.put", kind=kind, nbytes=len(blob)):
            self._write_impl(kind, fp, suffix, blob)

    def _write_impl(self, kind: str, fp: str, suffix: str, blob: bytes) -> None:
        path = self._path(kind, fp, suffix)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{fp[:8]}-", suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(blob)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            Path(tmp).unlink(missing_ok=True)
            raise
        self._write_sidecar(path, blob)
        directive = chaos_hook("store.put", kind=kind, fingerprint=fp,
                               suffix=suffix)
        if directive is not None and directive.get("action") == "corrupt":
            self._corrupt_on_disk(path)
        with self._lock:
            self.stats.puts += 1
            replaced = self._index.get(path)
            if replaced is not None:  # same key rewritten: swap sizes
                self.stats.bytes -= replaced[1]
            self._index[path] = [time.time(), len(blob)]
            self.stats.bytes += len(blob)
            over = self.stats.bytes > self.max_bytes
        if over:
            self._evict()

    def _write_sidecar(self, path: Path, blob: bytes) -> None:
        """Commit the checksum sidecar (atomically, like the payload)."""
        sidecar = self._sum_path(path)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".sum-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(_checksum(blob) + "\n")
            os.replace(tmp, sidecar)
        except BaseException:
            Path(tmp).unlink(missing_ok=True)
            raise

    def _corrupt_on_disk(self, path: Path) -> None:
        """Chaos-only: flip bytes of a committed entry in place, simulating
        torn sectors / bit rot. The sidecar keeps the original checksum so
        the next read detects the damage and quarantines the entry."""
        try:
            raw = bytearray(path.read_bytes())
        except OSError:
            return
        if not raw:
            return
        mid = len(raw) // 2
        span = slice(mid, min(mid + 8, len(raw)))
        raw[span] = bytes(b ^ 0xFF for b in raw[span])
        path.write_bytes(bytes(raw))

    def put_json(self, kind: str, fp: str, payload) -> None:
        """Store a JSON-serializable payload under ``(kind, fp)`` atomically."""
        self._write(kind, fp, ".json",
                    (json.dumps(payload, separators=(",", ":")) + "\n").encode())

    def put_arrays(self, kind: str, fp: str, arrays: dict) -> None:
        """Store a ``{name: ndarray}`` bundle under ``(kind, fp)`` atomically."""
        buf = io.BytesIO()
        np.savez(buf, **arrays)
        self._write(kind, fp, ".npz", buf.getvalue())

    # -- eviction ----------------------------------------------------------

    def _evict(self) -> None:
        """Delete least-recently-read entries until the budget fits.

        Eviction order and sizes come from the in-memory index — no
        directory walk per over-budget write. When the pass proves the
        index stale (an entry vanished before we unlinked it, or evicting
        everything it knows still leaves the budget exceeded — both need a
        second process sharing the root), the directory is rescanned once
        and the eviction re-runs on fresh state.
        """
        stale, over = self._evict_pass()
        if stale or over:
            self._rebuild_index()
            self._evict_pass()

    def _evict_pass(self) -> tuple[bool, bool]:
        """One index-driven eviction sweep; returns ``(stale, still_over)``.

        Entries younger than ``evict_grace_seconds`` are skipped (never
        evicted), so a budget overshoot caused only by fresh entries does
        not count as *still over* — rebuilding the index could not help.
        """
        cutoff = time.time() - self.evict_grace_seconds
        with self._lock:
            entries = sorted(self._index.items(), key=lambda kv: kv[1][0])
            total = sum(entry[1] for _, entry in entries)
            victims = []
            skipped_fresh = False
            for path, entry in entries[:-1]:  # the newest entry always survives
                if total <= self.max_bytes:
                    break
                if entry[0] > cutoff:  # within the grace window: not evictable
                    skipped_fresh = True
                    continue
                victims.append(path)
                total -= entry[1]
                del self._index[path]
            self.stats.bytes = total
        stale, evicted = False, 0
        for path in victims:
            try:
                path.unlink()
                evicted += 1
            except FileNotFoundError:
                stale = True  # another process removed it first
            except OSError:
                stale = True
            self._sum_path(path).unlink(missing_ok=True)
        with self._lock:
            self.stats.evictions += evicted
            over = self.stats.bytes > self.max_bytes and not skipped_fresh
        return stale, over

    # -- maintenance -------------------------------------------------------

    def verify(self, repair: bool = False) -> dict:
        """Walk every committed entry, checksum + decode it, and quarantine
        anything bad (the entry is preserved under ``root/.quarantine/``).

        Entries without a checksum sidecar (written by an older store
        version) get one backfilled from their current — validated — bytes.
        With ``repair=True`` the quarantine directory is purged afterwards.
        Returns a report: ``checked`` / ``ok`` / ``quarantined`` (this pass)
        / ``backfilled`` / ``quarantine_entries`` (files still quarantined)
        / ``purged``.
        """
        checked = ok = quarantined = backfilled = 0
        for _, _, path in self._scan():
            checked += 1
            try:
                raw = path.read_bytes()
                self._verify_checksum(path, raw)
                if path.suffix == ".json":
                    json.loads(raw.decode())
                else:
                    with np.load(io.BytesIO(raw)) as bundle:
                        for name in bundle.files:
                            bundle[name]
            except FileNotFoundError:
                continue  # concurrently evicted
            except Exception:
                self._quarantine(path)
                with self._lock:
                    dropped = self._index.pop(path, None)
                    if dropped is not None:
                        self.stats.bytes -= dropped[1]
                quarantined += 1
                continue
            ok += 1
            if not self._sum_path(path).exists():
                self._write_sidecar(path, raw)
                backfilled += 1
        qdir = self.root / _QUARANTINE_DIR
        purged = 0
        if repair and qdir.is_dir():
            for entry in list(qdir.iterdir()):
                try:
                    entry.unlink()
                    purged += 1
                except OSError:
                    pass
        remaining = (sum(1 for p in qdir.iterdir()
                         if p.is_file() and p.suffix != ".sum")
                     if qdir.is_dir() else 0)
        return {
            "checked": checked,
            "ok": ok,
            "quarantined": quarantined,
            "backfilled": backfilled,
            "quarantine_entries": remaining,
            "purged": purged,
        }

    def repair(self) -> dict:
        """:meth:`verify` + purge the quarantine directory."""
        return self.verify(repair=True)
