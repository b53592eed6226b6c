"""Content-addressed durable store for compiled serving artifacts.

The :class:`~repro.quality.artifacts.ArtifactCache` keys are already
content-complete — sha256 fingerprints of exactly the inputs each artifact is a
pure function of — so a durable second tier is a drop-in: hash the key to a
file name, serialize the artifact, and a *different process* asking for the
same content gets the bitwise-identical artifact without recompiling.

Two failure disciplines govern every byte on disk:

* **Atomicity** — artifacts are written to a temporary file in the target
  directory, fsync'd, then published with :func:`os.replace`.  Readers never
  observe a half-written object; concurrent writers of the same key race
  benignly (both write identical content, last rename wins).
* **Degrade, never crash** — :meth:`ArtifactStore.load` returns ``None`` on
  *any* defect: missing file, bad magic, unknown format version, truncated
  payload, checksum mismatch, unpicklable bytes.  A defective object is a cache
  miss that falls back to a clean recompile; corruption can cost time, never
  correctness.

Each object file is framed as one ASCII header line followed by the pickled
payload::

    atlas-store/<version> <sha256 of payload> <payload length>\\n<payload bytes>

The header makes version mismatches and truncation detectable before a single
payload byte is interpreted, and the checksum rejects torn or bit-rotted
payloads.  The same discipline backs :meth:`save_state`/:meth:`load_state`,
the JSON checkpoint channel the :class:`~repro.serving.daemon.AdvisorDaemon`
uses for its loop state.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import threading
from pathlib import Path
from typing import List, Optional, Tuple, Union

__all__ = ["ArtifactStore", "STORE_DIR_DEFAULT"]

#: Default on-disk location (repo-relative); covered by the repository .gitignore.
STORE_DIR_DEFAULT = ".atlas_store"

_MAGIC = "atlas-store"
#: Frame version: bumped whenever a stored class changes its pickled layout, so a
#: frame written by older code is a clean miss and is never unpickled into the new
#: class.  The version is per store, not per class: a bump also retires the journal
#: entries and daemon samples older code wrote, so the first process after an upgrade
#: searches each journaled request once more (and writes it back) and a cycle killed
#: before the upgrade is abandoned and re-polled.
#: 2 = packed ``CompiledTraceSet`` state (1 pickled every level array).
#: 3 = results store ``values`` + ``names`` only (2 kept perf/avail/cost as fields).
#: 4 = ``SearchResult`` names its crossover agent (``agent`` + ``agent_digest``).
#: 5 = ``SearchResult`` packs its archive, ``CompiledTraceSet`` packs its splice state
#: apart from its replay state and names its traces by content stream.
#: 6 = ``SearchResult`` lost a field and ``GAConfig``, whose repr is part of every
#: journal key, lost four: the island fork and the converged-front exit are gone.
#: 7 = ``CompiledTraceSet`` keeps its replay state only (no per-trace fragments or
#: content streams).
#: 8 = ``SearchResult`` archives ``all_evaluated`` only; ``CloudCostModel`` lost its
#: per-plan-row memo and ``ResourceEstimate`` its resource-matrix memo (both inside
#: stored compiled scenarios).
#: 9 = a ``RobustnessCertificate`` (same layout) is the stress families plus the
#: all-severe corners: a journal entry the coordinate descent certified would revive
#: another ``worst_spec`` and ``budget_spent`` for the same request.
#: 10 = a compiled scenario is ``repro.quality.scenarios.CompiledScenario`` (was the
#: evaluator module's ``_CompiledScenario``), and a certificate's corner cuts every
#: billable site and reprices storage: an older entry names a class that is gone or
#: revives another ``worst_spec`` and ``worst_values`` for the same request.
#: 11 = a ``Trace`` pickles without its former structure memo: compiled replay reads its shape.
#: 12 = a ``CompiledTraceSet`` holds its live spans and live edges only (an older frame
#: replays background subtrees and numbers every edge), and QPerf's Δ and impact
#: tables cover the live edges and mark no linkless pair.
#: 13 = QPerf's ``"impact"`` entry is a memo pre-fill, the projection codes of a box and
#: their means (was one impact table in box order), and a Δ table holds 0.0 where the
#: Δ is not positive.
_VERSION = 13


def _key_digest(key: Tuple) -> str:
    """Stable file-name digest of one cache key.

    Cache keys are tuples of primitives (fingerprint strings, names, numbers)
    whose ``repr`` is content-stable, so hashing the repr addresses the object
    by content — the same property the in-memory cache relies on.
    """
    return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()


class ArtifactStore:
    """Durable, content-addressed object store under one root directory.

    ``<root>/objects/<aa>/<digest>.art`` holds pickled artifacts (``aa`` is the
    digest's first byte, fanning the directory out); ``<root>/state/<name>.json``
    holds small JSON state documents (daemon checkpoints; a ``name`` with a ``/``
    files the document under a directory, one per daemon).  Instances are
    thread- and process-safe by construction: writes are atomic renames and
    reads validate the full frame before deserializing.
    """

    def __init__(self, root: Union[str, Path] = STORE_DIR_DEFAULT) -> None:
        self.root = Path(root)
        self._objects = self.root / "objects"
        self._state = self.root / "state"
        self._objects.mkdir(parents=True, exist_ok=True)
        self._state.mkdir(parents=True, exist_ok=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ArtifactStore({str(self.root)!r})"

    # -- object tier -----------------------------------------------------------------
    def path_for(self, key: Tuple) -> Path:
        digest = _key_digest(key)
        return self._objects / digest[:2] / f"{digest}.art"

    def __contains__(self, key: Tuple) -> bool:
        """Whether ``key`` holds a frame :meth:`load` would unpickle (nothing is).

        A file is not enough: a frame an older version wrote, or a damaged one, loads
        as ``None`` for good unless whoever asks "is it there?" goes on to write it.
        """
        return self._verified_payload(key) is not None

    def __len__(self) -> int:
        return sum(1 for _ in self._objects.glob("*/*.art"))

    def save(self, key: Tuple, value: object) -> bool:
        """Durably publish ``value`` under ``key``; False when it cannot be stored.

        Unpicklable values (live evaluator graphs hold weakrefs) and filesystem
        errors both degrade to "not stored": the in-memory tier still serves the
        object for this process's lifetime.
        """
        try:
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            return False
        header = (
            f"{_MAGIC}/{_VERSION} {hashlib.sha256(payload).hexdigest()} "
            f"{len(payload)}\n"
        ).encode("ascii")
        return self._publish(self.path_for(key), header + payload)

    def load(self, key: Tuple) -> Optional[object]:
        """The stored artifact, or ``None`` on any defect (missing/corrupt/stale)."""
        payload = self._verified_payload(key)
        if payload is None:
            return None
        try:
            return pickle.loads(payload)
        except Exception:
            return None

    def _verified_payload(self, key: Tuple) -> Optional[memoryview]:
        """The payload of ``key``'s frame once magic, version, length and checksum hold.

        A view into the bytes read, not a slice of them: a frame is hashed and
        unpickled where it was read.
        """
        try:
            blob = self.path_for(key).read_bytes()
        except OSError:
            return None
        try:
            newline = blob.index(b"\n")
            magic_version, digest, length = blob[:newline].decode("ascii").split(" ")
            magic, _, version = magic_version.partition("/")
            payload = memoryview(blob)[newline + 1 :]
            if (
                magic != _MAGIC
                or int(version) != _VERSION
                or len(payload) != int(length)
                or hashlib.sha256(payload).hexdigest() != digest
            ):
                return None
            return payload
        except ValueError:  # no newline, not ASCII, not three fields, not integers
            return None

    def discard(self, key: Tuple) -> None:
        """Drop one stored object (absence is not an error)."""
        try:
            self.path_for(key).unlink()
        except OSError:
            pass

    # -- JSON state tier (daemon checkpoints) ------------------------------------------
    def state_path(self, name: str) -> Path:
        return self._state / f"{name}.json"

    def state_names(self, directory: str) -> List[str]:
        """Names of the state documents filed under ``directory`` (none when absent)."""
        return sorted(
            f"{directory}/{path.stem}" for path in (self._state / directory).glob("*.json")
        )

    def save_state(self, name: str, state: dict) -> bool:
        """Atomically publish one JSON state document (daemon loop checkpoints)."""
        try:
            body = json.dumps(state, sort_keys=True).encode("utf-8")
        except (TypeError, ValueError):
            return False
        return self._publish(self.state_path(name), body)

    def load_state(self, name: str) -> Optional[dict]:
        """The checkpointed state document, or ``None`` when absent or unreadable."""
        try:
            loaded = json.loads(self.state_path(name).read_bytes())
        except (OSError, ValueError):  # missing / unreadable, not UTF-8, not JSON
            return None
        return loaded if isinstance(loaded, dict) else None

    # -- internals ---------------------------------------------------------------------
    @staticmethod
    def _publish(path: Path, blob: bytes) -> bool:
        """Write-then-rename publication: readers see the old object or the new one.

        The temporary file is named after its writer (process and thread), so two
        writers of one path never share it, and it is opened truncating, so one a
        dead writer left under a recycled id is overwritten, never in the way.
        """
        tmp = f"{path}.{os.getpid()}-{threading.get_ident()}.tmp"
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        try:
            try:
                fd = os.open(tmp, flags, 0o600)
            except FileNotFoundError:  # first publication into this directory
                path.parent.mkdir(parents=True, exist_ok=True)
                fd = os.open(tmp, flags, 0o600)
            try:
                try:
                    view = memoryview(blob)
                    while view:
                        view = view[os.write(fd, view) :]
                    os.fsync(fd)
                finally:
                    os.close(fd)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            return False
        return True
