"""Resilient content-addressed artifact store + bounded LRU caches.

Every expensive result in this repo — recorded traces, cache-analysis
fixpoints — is a pure function of ``(image content key, config)``, and
PRs 4–7 made them flow through content-addressed caches: an in-process
dict in front of an optional shared on-disk directory.  That substrate
is what the whole "trace once / analyse once, serve many" story rests
on, so it has to be *trustworthy*, not merely fast:

* a half-written or bit-flipped disk entry must be **detected and
  quarantined** (moved aside and counted), never silently unpickled
  into a wrong replay, and never silently swallowed either;
* a full disk, a read-only filesystem or a vanished directory must
  degrade the store to memory-only operation — one warning, counters
  keeping the story — instead of aborting a sweep;
* a crash between "open tmp file" and "atomic rename" must not leak
  the tmp file forever;
* the in-process layers must be bounded (the serving-daemon north star
  cannot tolerate caches that grow without limit).

:class:`ArtifactStore` is the one shared disk-cache implementation
behind :func:`repro.sim.trace.set_trace_cache_dir` and
:func:`repro.wcet.cacheanalysis.set_analysis_cache_dir`.  Entries are
pickles wrapped in a checksummed envelope::

    repro-store 1 <kind><checksum> <payload-length>\\n<payload>

where *kind* is ``s``: a 64-bit word-sum, computed at memory bandwidth
through numpy (the envelope must cost a few percent of the raw pickle
round trip, not half of it).  Any other kind is rejected.  Entries
are written atomically (``{path}.tmp{pid}`` + ``os.replace``) into
2-hex-character shard directories named by the sha256 of the entry key.
Loads verify the envelope before unpickling; failures move the file to
the store's ``corrupt/`` subdirectory and count in ``corrupt``.  The
store garbage-collects by mtime (oldest first) under a byte cap, reaps
stale ``.tmp*`` orphans, and can re-verify every entry in place
(``repro-cc cache verify``).

:class:`LRUCache` is the bounded in-process companion: a move-to-front
dict with an eviction counter, used for the trace table, the analysis
reuse table and the per-trace replay-kernel memo.

Deterministic fault injection for all of this lives in
:mod:`repro.testing.faults`; the write path consults it only when the
``REPRO_FAULT_STORE_WRITE`` environment variable is set, so the
production path never imports the testing package.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import warnings
from collections import OrderedDict

import numpy as _np

#: Envelope magic + format version.  Bump on layout changes: old
#: entries then quarantine-free miss (the magic no longer matches and
#: unversioned files are treated as corrupt, which is what they are).
_MAGIC = b"repro-store 1 "

#: ``<kind:1><checksum:016x> <length:016x>`` after the magic, padded
#: with spaces to 56 bytes so the payload starts 8-byte aligned (the
#: word-sum checksum then verifies straight out of the read blob at
#: full numpy speed, no copy).
_HEADER_LEN = 56
_PAD = b" " * (_HEADER_LEN - len(_MAGIC) - 1 - 16 - 1 - 16 - 1) + b"\n"

_MASK64 = (1 << 64) - 1

#: ``.tmp*`` orphans older than this many seconds are reaped.  The
#: grace period protects a concurrent worker's in-flight write: tmp
#: files live for milliseconds, never minutes.
TMP_MAX_AGE = 300.0

#: Consecutive write failures before the store stops touching the disk
#: for writes (reads keep being attempted: a full disk still serves).
_DEGRADE_AFTER = 3

#: Fresh per-store counter block (:meth:`ArtifactStore.counters`).
STORE_COUNTER_KEYS = (
    "hits", "misses", "corrupt", "writes", "write_errors",
    "write_skips", "evictions", "reaped",
)


def _fault_write_mode():
    """Injected write fault for this call, or None (the common case)."""
    if os.environ.get("REPRO_FAULT_STORE_WRITE"):
        from .testing.faults import store_write_fault
        return store_write_fault()
    return None


class LRUCache:
    """Bounded mapping with move-to-front reads and an eviction count.

    Drop-in for the plain dicts the in-process cache layers used to be
    (``get`` / ``[key] = value`` / ``clear`` / ``len``): inserting
    beyond *capacity* evicts the least recently used entry and bumps
    ``evictions`` (plus the optional *on_evict* callback, which the
    cache modules use to feed their ``--profile`` counter blocks).
    ``capacity`` None means unbounded.
    """

    def __init__(self, capacity=None, on_evict=None):
        self.capacity = capacity
        self.on_evict = on_evict
        self.evictions = 0
        self._data = OrderedDict()

    def get(self, key, default=None):
        try:
            self._data.move_to_end(key)
        except KeyError:
            return default
        return self._data[key]

    def __getitem__(self, key):
        self._data.move_to_end(key)
        return self._data[key]

    def __setitem__(self, key, value):
        data = self._data
        if key in data:
            data.move_to_end(key)
        data[key] = value
        capacity = self.capacity
        if capacity is not None:
            while len(data) > capacity:
                data.popitem(last=False)
                self.evictions += 1
                if self.on_evict is not None:
                    self.on_evict()

    def __contains__(self, key):
        return key in self._data

    def __len__(self):
        return len(self._data)

    def set_capacity(self, capacity):
        """Change the bound, evicting immediately if now over it."""
        self.capacity = capacity
        if capacity is not None:
            data = self._data
            while len(data) > capacity:
                data.popitem(last=False)
                self.evictions += 1
                if self.on_evict is not None:
                    self.on_evict()

    def clear(self):
        self._data.clear()


def _sum64(buffer, offset: int = 0) -> int:
    """64-bit native-endian word-sum of ``buffer[offset:]`` + tail.

    Any single corrupted region changes the sum; numpy runs it at
    memory bandwidth, which is what keeps the whole envelope inside
    the store-overhead budget (*offset* lets the verifier sum directly
    out of the read blob, no payload copy).
    """
    trim = (len(buffer) - offset) & ~7
    total = int(_np.frombuffer(buffer, _np.uint8, trim, offset)
                .view(_np.uint64).sum(dtype=_np.uint64))
    tail = bytes(buffer[offset + trim:])
    if tail:
        total = (total + int.from_bytes(tail, "little")) & _MASK64
    return total


def _header_for(payload) -> bytes:
    return (_MAGIC + b"s%016x %016x" % (_sum64(payload), len(payload))
            + _PAD)


def envelope(payload: bytes) -> bytes:
    """Wrap *payload* in the checksummed store envelope."""
    return _header_for(payload) + payload


def open_envelope(blob):
    """The payload inside *blob*, or None when the envelope is bad.

    Rejects short files, foreign magic, checksum kinds other than
    ``s``, truncated or overlong payloads and checksum mismatches —
    every way a torn write, a bit flip or a stray file can present.  Returns a zero-copy view into *blob*
    (``pickle.loads`` and equality against bytes both accept it).
    """
    if len(blob) < _HEADER_LEN or not blob.startswith(_MAGIC):
        return None
    header = blob[len(_MAGIC):_HEADER_LEN]
    try:
        checksum = int(header[1:17], 16)
        length = int(header[18:34], 16)
    except ValueError:
        return None
    if len(blob) - _HEADER_LEN != length:
        return None
    if header[:1] != b"s" or _sum64(blob, _HEADER_LEN) != checksum:
        return None
    return memoryview(blob)[_HEADER_LEN:]


class ArtifactStore:
    """One content-addressed, corruption-quarantining disk cache.

    *root* is created lazily on the first write.  *suffix* names the
    entry files (purely cosmetic — reads, GC and verification accept
    any non-tmp file in a shard directory, so one tool serves both the
    trace and the analysis layout).
    """

    def __init__(self, root, suffix: str = ".pkl", max_bytes=None):
        self.root = str(root)
        self.suffix = suffix
        #: Byte cap enforced opportunistically after writes (None = no
        #: cap; ``repro-cc cache gc`` enforces caps explicitly too).
        self.max_bytes = max_bytes
        self.degraded = False
        self._write_failures = 0
        self._warned = False
        self._reaped_on_start = False
        self._made_dirs = set()
        self._paths = LRUCache(capacity=1024)
        self.counters = dict.fromkeys(STORE_COUNTER_KEYS, 0)

    # -- paths ---------------------------------------------------------------

    @staticmethod
    def digest(key) -> str:
        return hashlib.sha256(repr(key).encode()).hexdigest()

    def path_for(self, key) -> str:
        # Memoised: a sweep loads and stores the same keys over and
        # over, and the digest + join otherwise run twice per entry.
        try:
            path = self._paths.get(key)
        except TypeError:  # unhashable key: compute directly
            path = None
        else:
            if path is not None:
                return path
        digest = self.digest(key)
        path = os.path.join(self.root, digest[:2], digest + self.suffix)
        try:
            self._paths[key] = path
        except TypeError:
            pass
        return path

    def corrupt_dir(self) -> str:
        return os.path.join(self.root, "corrupt")

    def _entries(self):
        """Every committed entry as ``(path, bytes, mtime)``."""
        entries = []
        try:
            shards = os.scandir(self.root)
        except OSError:
            return entries
        with shards:
            for shard in shards:
                if len(shard.name) != 2 or not shard.is_dir():
                    continue
                try:
                    files = os.scandir(shard.path)
                except OSError:
                    continue
                with files:
                    for entry in files:
                        if ".tmp" in entry.name or not entry.is_file():
                            continue
                        try:
                            stat = entry.stat()
                        except OSError:
                            continue
                        entries.append((entry.path, stat.st_size,
                                        stat.st_mtime))
        return entries

    # -- failure bookkeeping -------------------------------------------------

    def _quarantine(self, path):
        """Move a bad entry into ``corrupt/`` (unlink if even that
        fails) so it is counted once and never re-read as data.

        Safe against a live sibling process (a daemon next to a
        runner) racing us to the same conclusion: if the entry is
        already gone — quarantined or evicted by the sibling — there
        is nothing to move, and we only keep our own count of having
        observed the corruption.
        """
        self.counters["corrupt"] += 1
        target = os.path.join(self.corrupt_dir(), os.path.basename(path))
        try:
            os.makedirs(self.corrupt_dir(), exist_ok=True)
            os.replace(path, target)
        except FileNotFoundError:
            return  # a sibling already moved or removed it
        except OSError:
            try:
                os.unlink(path)
            except OSError:
                pass

    def _write_failed(self, error):
        self.counters["write_errors"] += 1
        self._write_failures += 1
        if self._write_failures >= _DEGRADE_AFTER:
            self.degraded = True
        if not self._warned:
            self._warned = True
            warnings.warn(
                f"artifact store {self.root}: write failed ({error}); "
                "continuing memory-only (results are unaffected, only "
                "reuse across processes is lost)",
                RuntimeWarning, stacklevel=3)

    # -- the byte-level entry API -------------------------------------------

    def read(self, path):
        """The verified payload at *path*, quarantining on corruption."""
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except FileNotFoundError:
            self.counters["misses"] += 1
            return None
        except OSError:
            self.counters["misses"] += 1
            return None
        payload = open_envelope(blob)
        if payload is None:
            self._quarantine(path)
            self.counters["misses"] += 1
            return None
        self.counters["hits"] += 1
        return payload

    def write(self, path, payload: bytes) -> bool:
        """Atomically commit an enveloped *payload* at *path*.

        Never raises: write errors (including injected ``ENOSPC`` /
        ``EROFS`` faults) count, warn once, clean up the tmp file and
        — after repeated failures — degrade the store to memory-only
        writes.  A ``torn`` fault commits a truncated envelope, which
        the next :meth:`read` detects and quarantines.
        """
        if self.degraded:
            self.counters["write_skips"] += 1
            return False
        if not self._reaped_on_start:
            self._reaped_on_start = True
            self.reap_tmp()
        header = _header_for(payload)
        fault = _fault_write_mode()
        tmp = f"{path}.tmp{os.getpid()}"
        parent = os.path.dirname(path)
        try:
            if fault in ("enospc", "erofs"):
                import errno
                code = errno.ENOSPC if fault == "enospc" else errno.EROFS
                raise OSError(code, os.strerror(code), tmp)
            if parent not in self._made_dirs:
                os.makedirs(parent, exist_ok=True)
                self._made_dirs.add(parent)
            if fault == "torn":
                blob = header + bytes(payload)
                with open(tmp, "wb") as handle:
                    handle.write(blob[:max(_HEADER_LEN, len(blob) // 2)])
            elif hasattr(os, "writev"):
                # One gathered syscall, no concatenation copy of a
                # multi-hundred-KB pickle.
                fd = os.open(tmp,
                             os.O_WRONLY | os.O_CREAT | os.O_TRUNC,
                             0o666)
                try:
                    written = os.writev(fd, (header, payload))
                finally:
                    os.close(fd)
                if written != len(header) + len(payload):
                    raise OSError(f"short write ({written} bytes) "
                                  f"to {tmp}")
            else:  # pragma: no cover - platforms without writev
                with open(tmp, "wb") as handle:
                    handle.write(header)
                    handle.write(payload)
            os.replace(tmp, path)
        except OSError as error:
            try:  # crash-orphan cleanup: never leave our tmp behind
                os.unlink(tmp)
            except OSError:
                pass
            self._made_dirs.discard(parent)  # maybe it vanished: retry
            self._write_failed(error)
            return False
        self.counters["writes"] += 1
        self._write_failures = 0
        if self.max_bytes is not None \
                and self.counters["writes"] % 64 == 0:
            self.gc(self.max_bytes)
        return True

    # -- the pickle-level key API -------------------------------------------

    def load(self, key):
        """Unpickle the entry for *key*, or None (miss / quarantined).

        A payload that passes the checksum but fails to unpickle (a
        stale class layout, a foreign file someone enveloped by hand)
        is quarantined too: corrupt-for-our-purposes is corrupt.
        """
        path = self.path_for(key)
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except OSError:
            self.counters["misses"] += 1
            return None
        payload = open_envelope(blob)
        if payload is None:
            self._quarantine(path)
            self.counters["misses"] += 1
            return None
        try:
            value = pickle.loads(payload)
        except Exception:
            self._quarantine(path)
            self.counters["misses"] += 1
            return None
        self.counters["hits"] += 1
        return value

    def store(self, key, value) -> bool:
        return self.write(self.path_for(key),
                          pickle.dumps(value, pickle.HIGHEST_PROTOCOL))

    # -- maintenance ---------------------------------------------------------

    def reap_tmp(self, max_age: float = TMP_MAX_AGE) -> int:
        """Delete crash-orphaned ``*.tmp*`` files older than *max_age*.

        Runs once automatically before the first write of each store
        instance; ``repro-cc cache gc`` and the tests call it directly
        (with ``max_age=0`` to reap unconditionally).  The age gate is
        what makes this safe next to a live sibling process writing
        the same store: a sibling's in-flight ``.tmp<pid>`` file lives
        for milliseconds, never minutes.  Our *own* process's tmp
        files are never reaped at any age — this instance may be
        mid-write on another thread.
        """
        import time
        reaped = 0
        cutoff = time.time() - max_age
        own = f".tmp{os.getpid()}"
        try:
            shards = os.scandir(self.root)
        except OSError:
            return 0
        with shards:
            dirs = [shard.path for shard in shards
                    if len(shard.name) == 2 and shard.is_dir()]
        dirs.append(self.root)
        for directory in dirs:
            try:
                files = os.scandir(directory)
            except OSError:
                continue
            with files:
                for entry in files:
                    if ".tmp" not in entry.name or not entry.is_file():
                        continue
                    if entry.name.endswith(own):
                        continue
                    try:
                        if entry.stat().st_mtime <= cutoff:
                            os.unlink(entry.path)
                            reaped += 1
                    except OSError:
                        continue
        self.counters["reaped"] += reaped
        return reaped

    def gc(self, max_bytes: int) -> int:
        """Evict oldest-mtime entries until the store fits *max_bytes*.

        Also reaps stale tmp orphans.  Returns the number of entries
        evicted.  Tolerates a live sibling process gc-ing or rewriting
        the same store concurrently: an entry that vanished between
        the scan and our unlink still counts against the byte total
        (its bytes are gone either way), just not as our eviction.
        """
        self.reap_tmp()
        entries = sorted(self._entries(), key=lambda e: (e[2], e[0]))
        total = sum(size for _, size, _ in entries)
        evicted = 0
        for path, size, _ in entries:
            if total <= max_bytes:
                break
            try:
                os.unlink(path)
            except FileNotFoundError:
                total -= size  # a sibling beat us to it
                continue
            except OSError:
                continue
            total -= size
            evicted += 1
        self.counters["evictions"] += evicted
        return evicted

    def verify(self) -> dict:
        """Re-checksum every entry; quarantine and count failures."""
        checked = bad = 0
        for path, _, _ in self._entries():
            checked += 1
            try:
                with open(path, "rb") as handle:
                    blob = handle.read()
            except OSError:
                continue
            if open_envelope(blob) is None:
                self._quarantine(path)
                bad += 1
        return {"checked": checked, "quarantined": bad}

    def clear(self) -> int:
        """Delete every entry (and tmp orphans); keep quarantined files."""
        removed = 0
        self.reap_tmp(max_age=0.0)
        for path, _, _ in self._entries():
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                continue
        return removed

    def stats(self) -> dict:
        """Disk-side inventory + this instance's counters."""
        entries = self._entries()
        shards = {os.path.basename(os.path.dirname(path))
                  for path, _, _ in entries}
        try:
            quarantined = len([
                name for name in os.listdir(self.corrupt_dir())])
        except OSError:
            quarantined = 0
        return {
            "root": self.root,
            "entries": len(entries),
            "bytes": sum(size for _, size, _ in entries),
            "shards": len(shards),
            "quarantined_files": quarantined,
            "degraded": self.degraded,
            "counters": dict(self.counters),
        }
