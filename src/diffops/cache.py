"""Persistent result cache keyed by (n, m, format version).

Entries are JSON files written atomically (temp file + rename).  An entry
for ``(n, m)`` is exactly the bytes

    {"checksum": "<hex>", "format_version": 1, "key": [n, m], "payload": <text>}

where ``<text>`` is ``formats.json_text(result, ONE_LINE)``: the
``json.dumps(payload, sort_keys=True)`` text of the reference payload
``formats.result_to_json(result)``, which ``put`` never builds.  So the
whole entry is the ``json.dumps(entry, sort_keys=True)`` text of those
four fields.  The checksum is ``sha256(canonical_json_bytes(payload))``.
No string of a payload holds ``", "`` or ``": "`` (coefficients are
digits, ``-`` and ``/``; letters are u, y, c; keys are fixed names), so
``<text>`` with those two separators made compact is exactly
``canonical_json_bytes(payload)``.
``get`` therefore checks the header bytes for this ``(n, m)`` and version,
compacts the payload bytes, hashes them and parses only those same bytes:
what is served is what was hashed, and no hit encodes the payload again.
It lets each copy go as soon as the next exists (the file, the compact
bytes, the text once ``json.loads`` has built the tree), and
``result_from_json`` drops each polynomial's term list from the tree as
it reads it.  The cyclic garbage collector is paused meanwhile: the tree
and the result hold no cycles.  The polynomials of a hit keep the
parse's canonical rows for their first render: each term's factor ids,
with the numerators read in ``_nums`` order (see ``formats``).
``put`` hashes and then writes the payload a run of the writer's
fragments at a time, so the payload is never one string and its compact
form never a full copy: each separator lies inside one fragment, so
each run compacts alone.

An entry in any other layout (other whitespace or separators, other key
order, another key or version in the header, trailing bytes) is a miss,
and so is a corrupt or truncated entry or one the payload parser refuses:
a miss is never served.  Concurrent writers of the same key converge to
one valid entry because the final rename is atomic.

The cache root comes from the DIFFOPS_CACHE_DIR environment variable and
falls back to a per-user cache directory.  Entries live in its
subdirectory ``v{FORMAT_VERSION}-a{ALGORITHM_VERSION}`` (``v1-a1`` for
format 1 and ``basis.ALGORITHM_VERSION`` 1), so a new payload format or a
new version of the algorithm starts an empty directory: an entry that
another version wrote is never listed or served, and the entry bytes
need no algorithm field.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import re
import tempfile
from pathlib import Path

from .basis import ALGORITHM_VERSION, AlmostCommutingResult
from .formats import FORMAT_VERSION, ONE_LINE, json_fragments, result_from_json
from .formats import result_to_json  # noqa: F401  (traced by name until ROADMAP item 1b)

CACHE_ENV_VAR = "DIFFOPS_CACHE_DIR"

_ENTRY_RE = re.compile(r"^\((\d+)_(\d+)\)\.json$")

# the entry up to its payload text; the checksum is the first field
_HEAD = b'{"checksum": "%s", "format_version": %d, "key": [%d, %d], "payload": '
_SUM_AT = _HEAD.index(b"%s")
# fragments per chunk that put joins: about one term each, so ~300 KB
_CHUNK = 4096


def default_cache_root() -> Path:
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "diffops"


def _compact(text: bytes) -> bytes:
    """``canonical_json_bytes(payload)`` from the
    ``json.dumps(payload, sort_keys=True)`` text of a payload whose strings
    hold neither ``", "`` nor ``": "``, or the part of it that a run of
    ``json_fragments`` makes."""
    return text.replace(b", ", b",").replace(b": ", b":")


def _chunks(fragments: list):
    """The ASCII bytes of ``fragments``, joined a run of _CHUNK at a time."""
    for i in range(0, len(fragments), _CHUNK):
        yield "".join(fragments[i : i + _CHUNK]).encode("ascii")


class ResultCache:
    def __init__(self, root: Path | str | None = None):
        self.root = Path(root) if root is not None else default_cache_root()

    @property
    def version_dir(self) -> Path:
        return self.root / f"v{FORMAT_VERSION}-a{ALGORITHM_VERSION}"

    def entry_path(self, n: int, m: int) -> Path:
        return self.version_dir / f"({n}_{m}).json"

    def get(self, n: int, m: int) -> AlmostCommutingResult | None:
        path = self.entry_path(n, m)
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except OSError:
            return None
        checksum = raw[_SUM_AT : _SUM_AT + 64]
        head = _HEAD % (checksum, FORMAT_VERSION, n, m)
        if not raw.startswith(head) or not raw.endswith(b"}"):
            return None
        text = raw[len(head) : -1]
        del raw  # the file buffer goes before the compact copy is made
        text = _compact(text)
        if checksum != hashlib.sha256(text).hexdigest().encode("ascii"):
            return None
        # The tree and the result hold no reference cycles, yet the tens of
        # thousands of containers they are made of would start cyclic
        # collections that traverse the whole heap, so none runs here.
        collecting = gc.isenabled()
        gc.disable()
        try:
            text = text.decode("utf-8")  # rebound: the bytes go before the parse
            payload = json.loads(text)
            del text  # and the text before the walk
            # the checksum covers the payload only, not the key beside it
            if (payload["n"], payload["m"]) != (n, m):
                return None
            return result_from_json(payload)
        except (RecursionError, KeyError, TypeError, ValueError):
            # RecursionError: the decoder's nesting limit, e.g. "[" * 100000;
            # ValueError covers UnicodeDecodeError and json.JSONDecodeError
            return None
        finally:
            if collecting:
                gc.enable()

    def put(self, n: int, m: int, result: AlmostCommutingResult) -> Path:
        if (result.n, result.m) != (n, m):
            # an entry that cache list shows and get(n, m) never serves
            raise ValueError(f"result ({result.n}, {result.m}) put under key ({n}, {m})")
        # hashed and then written a chunk at a time: the payload is never
        # one string, nor held as bytes beside its compact copy
        fragments = json_fragments(result, ONE_LINE)
        digest = hashlib.sha256()
        for chunk in _chunks(fragments):
            digest.update(_compact(chunk))
        path = self.entry_path(n, m)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            prefix=path.name + ".", suffix=".tmp", dir=path.parent
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(_HEAD % (digest.hexdigest().encode("ascii"), FORMAT_VERSION, n, m))
                for chunk in _chunks(fragments):
                    handle.write(chunk)
                handle.write(b"}")
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path

    def entries(self) -> list:
        """The keys whose entry files exist, sorted.  A name counts only
        when ``entry_path`` writes exactly it, so ``(03_4).json`` or one
        with non-ASCII digits is not an entry."""
        if not self.version_dir.is_dir():
            return []
        keys = []
        for name in os.listdir(self.version_dir):
            match = _ENTRY_RE.match(name)
            if match:
                key = (int(match.group(1)), int(match.group(2)))
                if self.entry_path(*key).name == name:
                    keys.append(key)
        return sorted(keys)

    def clear(self) -> int:
        """Remove the files of ``entries()``; the count removed."""
        removed = 0
        for key in self.entries():
            try:
                os.unlink(self.entry_path(*key))
                removed += 1
            except OSError:
                pass
        return removed
