"""The wire encoding of every content fingerprint in the package, and the pickling
hook pair of every class that memoises.

A fingerprint is the SHA-256 of a sequence of text parts, each UTF-8 encoded and
closed by one ``\\x1f`` byte.  SHA-256 is a stream hash, so feeding the parts one
``update`` at a time, or their concatenation (:func:`part_stream`) in one, gives the
same hex — which is what lets an immutable content object keep the bytes it
contributes and a per-request hasher only *compose* them.  The values are wire
format: they name objects in the durable store and key the request journal, so the
encoding here never changes without a store version bump.

A memo (a digest, a lowering, a census) is process-local: :class:`Memoized` keeps
every one out of the pickles that become stored frames and out of copies.
"""

from __future__ import annotations

import hashlib
import sys
from typing import ClassVar, Dict, Iterable, Mapping, Optional

__all__ = ["Memoized", "part_stream", "sha_parts"]

_SEPARATOR = "\x1f"


def part_stream(parts: Iterable[str]) -> bytes:
    """The exact bytes :func:`sha_parts` hashes for ``parts``."""
    return "".join(part + _SEPARATOR for part in parts).encode("utf-8")


def sha_parts(parts: Iterable[str]) -> str:
    """Hex SHA-256 of ``parts`` in the fingerprint wire encoding."""
    return hashlib.sha256(part_stream(parts)).hexdigest()


class Memoized:
    """Base of every class that memoises: its memos never reach a pickle or a copy.

    ``_MEMOS`` names the class's memo attributes, each with its unfilled value:
    ``None``, or the type whose empty instance it is.  A pickle, deep copy or shallow
    copy carries every other attribute, so a warm object pickles to the bytes a cold
    one does, and the copy or loaded object holds each memo unfilled.  A stored
    frame's layout is the attributes left: ``tests/test_store_layout.py`` records it.
    """

    _MEMOS: ClassVar[Mapping[str, Optional[type]]] = {}

    def __getstate__(self) -> Dict[str, object]:
        memos = self._MEMOS
        return {name: value for name, value in self.__dict__.items() if name not in memos}

    def __setstate__(self, state: Dict[str, object]) -> None:
        # Key by key with interned names, as pickle itself would: ``__dict__.update``
        # would leave each loaded object with a private key table.
        attributes = self.__dict__
        for name, value in state.items():
            attributes[sys.intern(name)] = value
        for name, unfilled in self._MEMOS.items():
            attributes[name] = None if unfilled is None else unfilled()
