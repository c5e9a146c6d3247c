"""The deterministic hash of SQL values that places rows on slots.

A leaf module: both the engine (placement, exchanges) and the columnar
layer (cached per-column placement hashes) import it.
"""

from __future__ import annotations

import hashlib
import struct

from .types import LabeledScalar, Matrix, Vector


def stable_hash(values) -> int:
    """A deterministic, platform-independent hash of a tuple of SQL
    values. Python's builtin ``hash`` is salted per process for strings,
    which would make benchmark placement non-reproducible."""
    hasher = hashlib.blake2b(digest_size=8)
    for value in values:
        if value is None:
            hasher.update(b"\x00N")
        elif isinstance(value, bool):
            hasher.update(b"\x01" + (b"1" if value else b"0"))
        elif isinstance(value, int):
            if -(2**63) <= value < 2**63:
                hasher.update(b"\x02" + struct.pack("<q", value))
            else:  # arbitrary-precision integers
                hasher.update(b"\x08" + str(value).encode("ascii"))
        elif isinstance(value, float):
            # integral floats hash like ints so 1 and 1.0 co-locate
            if value.is_integer() and -(2**63) <= value < 2**63:
                hasher.update(b"\x02" + struct.pack("<q", int(value)))
            else:
                hasher.update(b"\x03" + struct.pack("<d", value))
        elif isinstance(value, str):
            hasher.update(b"\x04" + value.encode("utf-8"))
        elif isinstance(value, LabeledScalar):
            hasher.update(b"\x03" + struct.pack("<d", value.value))
        elif isinstance(value, Vector):
            # + 0.0 turns -0.0 into 0.0, so equal tensors co-locate
            hasher.update(b"\x05" + (value.data + 0.0).tobytes())
        elif isinstance(value, Matrix):
            hasher.update(b"\x06" + struct.pack("<q", value.rows))
            hasher.update((value.data + 0.0).tobytes())
        else:
            hasher.update(b"\x07" + repr(value).encode("utf-8"))
    return int.from_bytes(hasher.digest(), "little")
