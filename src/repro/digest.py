"""The wire encoding of every content fingerprint in the package.

A fingerprint is the SHA-256 of a sequence of text parts, each UTF-8 encoded and
closed by one ``\\x1f`` byte.  SHA-256 is a stream hash, so feeding the parts one
``update`` at a time, or their concatenation (:func:`part_stream`) in one, gives the
same hex — which is what lets an immutable content object keep the bytes it
contributes and a per-request hasher only *compose* them.  The values are wire
format: they name objects in the durable store and key the request journal, so the
encoding here never changes without a store version bump.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

__all__ = ["part_stream", "sha_parts"]

_SEPARATOR = "\x1f"


def part_stream(parts: Iterable[str]) -> bytes:
    """The exact bytes :func:`sha_parts` hashes for ``parts``."""
    return "".join(part + _SEPARATOR for part in parts).encode("utf-8")


def sha_parts(parts: Iterable[str]) -> str:
    """Hex SHA-256 of ``parts`` in the fingerprint wire encoding."""
    return hashlib.sha256(part_stream(parts)).hexdigest()
