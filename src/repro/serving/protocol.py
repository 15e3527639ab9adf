"""The wire protocol: newline-delimited JSON over TCP.

One request per line, one response line per request, in order.  The
format is deliberately boring — any language with sockets and JSON can
speak it — and is documented normatively in ``docs/serving.md``.

Request::

    {"id": 7, "op": "distance", "pairs": [[0, 5], [3, 3]]}

``op`` is one of ``distance`` / ``route`` (both take ``pairs``),
``stats`` / ``ping`` / ``shutdown`` (no payload).  ``id`` is echoed
verbatim in the response so clients can pipeline.

Response::

    {"id": 7, "ok": true, "op": "distance", "estimates": [4, 0]}

``ok: false`` responses carry ``error`` instead of a payload; the
connection stays usable (a malformed line never kills the session).
A request line longer than :data:`MAX_LINE_BYTES` is discarded unread
and answered with ``{"id": null, "ok": false, ...}``.
"""

from __future__ import annotations

import json
from typing import Sequence, Tuple

from ..errors import ReproError

__all__ = [
    "ProtocolError",
    "OPS",
    "MAX_LINE_BYTES",
    "decode_line",
    "encode_message",
    "parse_pairs",
]

#: The operations a request may name.
OPS = ("distance", "route", "stats", "ping", "shutdown")
#: Longest request line the daemon reads (asyncio's default stream limit).
MAX_LINE_BYTES = 2**16


class ProtocolError(ReproError):
    """Raised for malformed request/response lines (reported, not fatal)."""


def encode_message(message: dict) -> bytes:
    """One compact JSON line, ready for the socket."""
    return (json.dumps(message, separators=(",", ":")) + "\n").encode("utf8")


def decode_line(line: bytes | str) -> dict:
    """Parse one wire line into a dict or raise :class:`ProtocolError`."""
    if isinstance(line, bytes):
        line = line.decode("utf8", errors="replace")
    try:
        message = json.loads(line)
    except ValueError as exc:
        raise ProtocolError(f"line is not valid JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(
            f"expected a JSON object per line, got {type(message).__name__}"
        )
    return message


def parse_pairs(message: dict) -> Sequence[Tuple[int, int]]:
    """Validate and normalise the ``pairs`` payload of a query request.

    Vertex-range checking is the oracle's job (it knows ``n``); this
    only enforces the wire shape: a list of two-int pairs.
    """
    pairs = message.get("pairs")
    if not isinstance(pairs, list):
        raise ProtocolError("request needs a 'pairs' list of [s, t] pairs")
    parsed = []
    for entry in pairs:
        if (
            not isinstance(entry, (list, tuple))
            or len(entry) != 2
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in entry)
        ):
            raise ProtocolError(f"bad pair {entry!r} (expected [s, t] ints)")
        parsed.append((entry[0], entry[1]))
    return parsed
