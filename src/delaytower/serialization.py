"""Canonical binary encoding shared by proofs, tower files, and messages.

Every multi-byte quantity is big-endian. Unbounded integers are written as a
4-byte length followed by the minimal magnitude bytes, so identical values
always produce identical bytes. ``write_atomic`` is the one way files of
those bytes (tower files, key files) reach the disk. ``fields_from_doc`` is
the one way a JSON object becomes the arguments of a config dataclass,
``load_json`` the one way a document's text becomes JSON, and ``as_written``
reads a JSON string only in the one spelling its writer uses.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import tempfile
from collections import Counter
from fractions import Fraction


class DecodeError(ValueError):
    """Raised when a byte stream cannot be decoded canonically."""


def natural(value) -> int:
    """``value`` if it is an int of 0 or more; a negative, bool, float or str raises ValueError."""
    if type(value) is not int or value < 0:
        raise ValueError(f"expected a non-negative integer, got {value!r}")
    return value


def encode_uint(value: int, width: int) -> bytes:
    """Fixed-width unsigned big-endian integer of a ``natural`` ``value``."""
    return natural(value).to_bytes(width, "big")


def magnitude(value: int) -> bytes:
    """Minimal big-endian bytes of an int ``value`` >= 0; zero is empty."""
    return value.to_bytes((value.bit_length() + 7) // 8, "big")


def encode_bigint(value: int) -> bytes:
    """Length-prefixed ``magnitude`` of a ``natural`` ``value``."""
    return encode_bytes(magnitude(natural(value)))


def encode_bytes(data: bytes) -> bytes:
    """Length-prefixed byte string."""
    return len(data).to_bytes(4, "big") + bytes(data)


def write_atomic(path: str | os.PathLike, data: bytes) -> None:
    """Write ``data`` to ``path`` through a mode-0600 temp file plus rename.

    Readers see the old file or the whole new one, never a partial write, and
    nobody but the owner can read it. The temp file is synced before the rename and
    its directory after it, so a power loss once this returns keeps the new file.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".delaytower-")
    try:
        with os.fdopen(fd, "wb") as fh:
            os.fchmod(fd, 0o600)
            fh.write(data)
            fh.flush()
            os.fsync(fd)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class Reader:
    """Cursor over a byte buffer; raises DecodeError on any short read."""

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    def take(self, n: int) -> bytes:
        if n < 0 or self._pos + n > len(self._data):
            raise DecodeError("truncated input")
        chunk = self._data[self._pos:self._pos + n]
        self._pos += n
        return chunk

    def uint(self, width: int) -> int:
        return int.from_bytes(self.take(width), "big")

    def bigint(self) -> int:
        data = self.bytes_()
        if data.startswith(b"\x00"):
            raise DecodeError("non-minimal integer encoding")
        return int.from_bytes(data, "big")

    def bytes_(self) -> bytes:
        return self.take(self.uint(4))

    def expect_end(self) -> None:
        if self._pos != len(self._data):
            raise DecodeError("trailing bytes after end of structure")


def _unique_keys(pairs: list) -> dict:
    """One JSON object as a dict; a key it repeats raises ValueError."""
    if len(doc := dict(pairs)) != len(pairs):
        raise ValueError(f"repeated key {Counter(k for k, _ in pairs).most_common(1)[0][0]!r}")
    return doc


def load_json(text: str):
    """``json.loads(text)``, refusing a key repeated in one object; that and text nested
    too deeply to parse raise ValueError, as bad JSON does."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except RecursionError as exc:
        raise ValueError("JSON nested too deeply to parse") from exc


def json_int(name: str, value) -> int:
    """``value`` if it is a JSON integer; floats, strings and bools raise TypeError."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return value


def as_written(text: str, parse=bytes.fromhex, write=bytes.hex):
    """``parse(text)``, if ``write`` gives ``text`` back: the one spelling its writer uses."""
    if write(value := parse(text)) != text:
        raise ValueError(f"{text!r} is not spelled as it is written: {write(value)!r}")
    return value


def parse_rational(value) -> Fraction:
    """A rational from a Fraction, an integer, the exact value of a finite float, or
    ``str(Fraction)``'s text. Booleans are refused, as ``json_int`` refuses them, and so
    is a zero denominator.
    """
    if isinstance(value, Fraction) or type(value) is int or \
            isinstance(value, float) and math.isfinite(value):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return as_written(value, Fraction, str)
        except ZeroDivisionError as exc:
            raise ValueError(f"cannot parse rational from {value!r}: zero denominator") from exc
    raise ValueError(f"cannot parse rational from {value!r}")


# Keys with no field of their own, each checked by its reader: a scenario's top-level
# copy of epoch_config's rounds_per_epoch, and the prime-length label in security.
LEGACY_KEYS = {"scenario": ("rounds_per_epoch",), "security": ("prime_length_bits",)}


def known_keys(doc, *known: str) -> dict:
    """``doc``, if a JSON object with no key outside ``known``; else TypeError or ValueError."""
    if not isinstance(doc, dict):
        raise TypeError(f"expected a JSON object, got {doc!r}")
    if unknown := set(doc).difference(known):
        raise ValueError(f"unknown key {min(unknown)!r}")
    return doc


def fields_from_doc(cls, doc, legacy=()) -> dict:
    """Constructor arguments for the dataclass ``cls`` from the JSON object ``doc``.

    Every value goes to the constructor unchanged, which checks it as it checks any
    caller's. Missing keys are left to the defaults; a key that is neither a field nor
    in ``legacy`` raises ValueError.
    """
    names = [f.name for f in dataclasses.fields(cls)]
    return {name: value for name, value in known_keys(doc, *names, *legacy).items()
            if name in names}


def nested_block(brackets: str, entries: list[str], indent: int = 2) -> str:
    """A JSON container whose key sits ``indent`` spaces deep, as indent-2
    ``json.dumps`` lays it out; ``entries`` come indented two spaces deeper."""
    if not entries:
        return brackets
    return brackets[0] + "\n" + ",\n".join(entries) + "\n" + " " * indent + brackets[1]
