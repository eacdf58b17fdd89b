"""Framing shared by the JSON-headed binary containers (CFDSET01, CFMLP001).

Both start with an 8-byte magic, a uint32 header length and a UTF-8 JSON
object holding at least format_version; `pack_json_header` writes that
framing and `read_json_header` parses it. `json_kind_ok` is the one rule for
which parsed JSON values count as an int, a float or another type; config
dictionaries are checked with it too.
"""

import json
import struct

from .errors import DataFormatError


def json_kind_ok(value, kind) -> bool:
    """Whether a value parsed from JSON has the given kind.

    bool is never a number, and a float accepts an int; any other kind, or
    a tuple of kinds, is an isinstance check.
    """
    if kind is int:
        return isinstance(value, int) and not isinstance(value, bool)
    if kind is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    return isinstance(value, kind)


def pack_json_header(magic: bytes, version: int, fields: dict) -> bytes:
    """The bytes read_json_header parses: magic, length, sorted-key JSON."""
    head = json.dumps({"format_version": version, **fields}, sort_keys=True,
                      separators=(",", ":")).encode()
    return magic + struct.pack("<I", len(head)) + head


def read_json_header(blob: bytes, magic: bytes, version: int, what: str):
    """Parse `magic | uint32 length | JSON object` into (header, data offset).

    Anything but a complete UTF-8 JSON object with the expected
    format_version raises DataFormatError.
    """
    if blob[:8] != magic:
        raise DataFormatError(f"not a {what} container")
    if len(blob) < 12:
        raise DataFormatError(f"truncated {what} header")
    (head_len,) = struct.unpack_from("<I", blob, 8)
    if len(blob) < 12 + head_len:
        raise DataFormatError(f"truncated {what} header")
    try:
        header = json.loads(blob[12:12 + head_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataFormatError(f"bad {what} header") from exc
    if not isinstance(header, dict):
        raise DataFormatError(f"bad {what} header: not a JSON object")
    if header.get("format_version") != version:
        raise DataFormatError(f"unsupported {what} format version")
    return header, 12 + head_len


def check_fields(header: dict, kinds: dict, what: str):
    """Require every key of `kinds` in the header with a value of that kind
    (see json_kind_ok)."""
    for key, kind in kinds.items():
        if key not in header:
            raise DataFormatError(f"{what} header lacks {key!r}")
        if not json_kind_ok(header[key], kind):
            raise DataFormatError(f"{what} header field {key!r} has the "
                                  f"wrong type")
