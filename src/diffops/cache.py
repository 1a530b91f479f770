"""Persistent result cache keyed by (n, m, format version).

Entries are JSON files written atomically (temp file + rename) and
protected by a content checksum: a corrupt or truncated entry is treated
as a miss, never served, and so is a valid entry filed under another key.
Concurrent writers of the same key converge to one valid entry because
the final rename is atomic.

The cache root comes from the DIFFOPS_CACHE_DIR environment variable and
falls back to a per-user cache directory.  The format version is embedded
in the directory layout so schema evolution invalidates cleanly.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
from pathlib import Path

from .basis import AlmostCommutingResult
from .formats import (
    FORMAT_VERSION,
    canonical_json_bytes,
    result_from_json,
    result_to_json,
)

CACHE_ENV_VAR = "DIFFOPS_CACHE_DIR"

_ENTRY_RE = re.compile(r"^\((\d+)_(\d+)\)\.json$")


def default_cache_root() -> Path:
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "diffops"


def _checksum(payload: dict) -> str:
    return hashlib.sha256(canonical_json_bytes(payload)).hexdigest()


class ResultCache:
    def __init__(self, root: Path | str | None = None):
        self.root = Path(root) if root is not None else default_cache_root()

    @property
    def version_dir(self) -> Path:
        return self.root / f"v{FORMAT_VERSION}"

    def entry_path(self, n: int, m: int) -> Path:
        return self.version_dir / f"({n}_{m}).json"

    def get(self, n: int, m: int) -> AlmostCommutingResult | None:
        path = self.entry_path(n, m)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError):
            # RecursionError: the decoder's nesting limit, e.g. "[" * 100000
            return None
        try:
            payload = entry["payload"]
            if entry["format_version"] != FORMAT_VERSION:
                return None
            if entry["key"] != [n, m]:
                return None
            if entry["checksum"] != _checksum(payload):
                return None
            # the checksum covers the payload only, not the key beside it
            if (payload["n"], payload["m"]) != (n, m):
                return None
            return result_from_json(payload)
        except (KeyError, TypeError, ValueError):
            return None

    def put(self, n: int, m: int, result: AlmostCommutingResult) -> Path:
        payload = result_to_json(result)
        entry = {
            "format_version": FORMAT_VERSION,
            "key": [n, m],
            "checksum": _checksum(payload),
            "payload": payload,
        }
        path = self.entry_path(n, m)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            prefix=path.name + ".", suffix=".tmp", dir=path.parent
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                # dump streams through the stdlib's pure-Python encoder;
                # one dumps call runs the C encoder and gives the same text
                handle.write(json.dumps(entry, sort_keys=True))
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path

    def entries(self) -> list:
        if not self.version_dir.is_dir():
            return []
        keys = []
        for name in os.listdir(self.version_dir):
            match = _ENTRY_RE.match(name)
            if match:
                keys.append((int(match.group(1)), int(match.group(2))))
        return sorted(keys)

    def clear(self) -> int:
        removed = 0
        if not self.version_dir.is_dir():
            return removed
        for name in os.listdir(self.version_dir):
            if _ENTRY_RE.match(name):
                try:
                    os.unlink(self.version_dir / name)
                    removed += 1
                except OSError:
                    pass
        return removed
