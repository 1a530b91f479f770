"""The diffops benchmark workloads and their correctness gate.

Each workload is a fixed list of jobs on fixed ``(n, m)`` inputs; the seed
only shuffles the job order (and the key and format order of cli-cache).
Every job's output is checked against ``expected.json`` as soon as the job
ends, in every pass.
That file was written once from the seed commit, where the truncated
pseudo-differential oracle confirms ``P_m == (Q^m)_+`` for every pinned key,
and the benchmark never rewrites it.

Jobs look up diffops' public names through the module objects at call
time, so the traced run sees the wrappers that ``tracing`` installs there
and the untraced run sees the originals.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
EXPECTED = json.loads((Path(__file__).resolve().parent / "expected.json").read_text())
CACHE_ENV_VAR = "DIFFOPS_CACHE_DIR"
_MODULES = (
    "basis",
    "cache",
    "cli",
    "formats",
    "operators",
    "polynomials",
    "pseudo",
    "_ratio",
)


def import_diffops() -> SimpleNamespace:
    """Import diffops afresh from this checkout's ``src/``.

    Earlier imports are dropped first, so each call pays the full import
    cost that a new process pays.  Raises ImportError when ``src/diffops``
    is missing or another copy of the package would be imported.
    """
    for name in [n for n in sys.modules if n == "diffops" or n.startswith("diffops.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("diffops")
    if Path(package.__file__).resolve().parent != SRC / "diffops":
        raise ImportError(f"diffops imported from {package.__file__}, not from {SRC}")
    return SimpleNamespace(
        **{name.lstrip("_"): importlib.import_module(f"diffops.{name}") for name in _MODULES}
    )


@dataclass
class Job:
    """One timed call; ``check`` lists what is wrong with its output."""

    id: str
    run: Callable[[], object]
    check: Callable[[object], list]


def result_digest(api, result) -> str:
    """SHA-256 of the result's canonical JSON."""
    payload = api.formats.result_to_json(result)
    return hashlib.sha256(api.formats.canonical_json_bytes(payload)).hexdigest()


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_result(api, result, n: int, m: int) -> list:
    key = f"{n},{m}"
    want = EXPECTED["results"][key]
    got = {
        "P_terms": result.P.monomials_total(),
        "H_terms": [len(h) for h in result.H],
        "sha256": result_digest(api, result),
    }
    return [
        f"({key}) {field}: got {got[field]}, expected {want[field]}"
        for field in got
        if got[field] != want[field]
    ]


def _cache_dir_is_empty() -> list:
    if any(Path(os.environ[CACHE_ENV_VAR]).iterdir()):
        return [f"a compute workload wrote into {os.environ[CACHE_ENV_VAR]}"]
    return []


class BasisWorkload:
    """Cold ``almost_commuting(n, m)`` for each m, with ``cache=None``."""

    def __init__(self, name: str, n: int, ms: tuple):
        self.name = name
        self.n = n
        self.ms = ms
        self.largest = f"({n},{max(ms)})"

    def setup(self, api, work: Path) -> None:
        api.basis.almost_commuting(self.n, min(self.ms))

    def jobs(self, api, state, rng, out: Path) -> list:
        n = self.n
        ms = list(self.ms)
        rng.shuffle(ms)
        return [
            Job(
                f"({n},{m})",
                lambda m=m: api.basis.almost_commuting(n, m),
                lambda result, m=m: check_result(api, result, n, m),
            )
            for m in ms
        ]

    def check_pass(self, api, state, out: Path) -> list:
        return _cache_dir_is_empty()


class OracleWorkload:
    """The ``verify`` pipeline: Q = L^(1/n) to depth max_m - 1, the
    incremental products Q^m with their positive parts, and the equality
    P_m == (Q^m)_+ against the triangular result, for m = 1..max_m."""

    def __init__(self, name: str, n: int, max_m: int):
        self.name = name
        self.n = n
        self.max_m = max_m
        self.largest = "root"

    def setup(self, api, work: Path) -> None:
        root = api.pseudo.nth_root(api.basis.generic_L(self.n), 5)
        root.mul_keep_low(root, -4).positive_part()
        api.basis.almost_commuting(self.n, 5)

    def jobs(self, api, state, rng, out: Path) -> list:
        n, max_m = self.n, self.max_m
        found: dict = {}

        def root():
            found["root"] = found["q"] = api.pseudo.nth_root(
                api.basis.generic_L(n), max_m - 1
            )
            return found["root"]

        def power(m):
            if m > 1:
                found["q"] = found["q"].mul_keep_low(found["root"], -(max_m - m))
            found[m] = found["q"].positive_part()
            return found[m]

        def reference(m):
            result = api.basis.almost_commuting(n, m)
            return result, result.P == found[m]

        def check_reference(output, m):
            result, equal = output
            problems = check_result(api, result, n, m)
            if not equal:
                problems.append(f"({n},{m}) P_m != (Q^m)_+")
            return problems

        jobs = [
            Job(
                "root",
                root,
                lambda q: [] if q.depth == max_m - 1 else [f"root depth {q.depth}"],
            )
        ]
        jobs += [
            Job(
                f"Q^{m}",
                lambda m=m: power(m),
                lambda p, m=m: [] if p.order == m else [f"(Q^{m})_+ has order {p.order}"],
            )
            for m in range(1, max_m + 1)
        ]
        # The products must run in order; the references are independent.
        refs = list(range(1, max_m + 1))
        rng.shuffle(refs)
        jobs += [
            Job(
                f"({n},{m})",
                lambda m=m: reference(m),
                lambda output, m=m: check_reference(output, m),
            )
            for m in refs
        ]
        return jobs

    def check_pass(self, api, state, out: Path) -> list:
        return _cache_dir_is_empty()


class CliCacheWorkload:
    """``diffops.cli.main`` reading pre-warmed cache entries and rendering
    them (the read path), plus one ``ResultCache.put`` into a fresh
    directory per pass (the write path).  No job does algebra."""

    FORMATS = ("json", "latex", "text")
    BASIS = (7, 13)
    HIERARCHY = (5, 9)

    def __init__(self, name: str):
        self.name = name
        self.largest = "basis-(7,13)-json"

    def setup(self, api, work: Path) -> SimpleNamespace:
        cache = api.cache.ResultCache()
        result = api.basis.almost_commuting(*self.BASIS, cache=cache)
        n, top = self.HIERARCHY
        for m in range(1, top + 1):
            api.basis.almost_commuting(n, m, cache=cache)
        api.cli.main(
            ["basis", "--n", "3", "--m", "4", "--out", str(work / "warmup"), "--quiet"]
        )
        shutil.rmtree(work / "warmup")
        return SimpleNamespace(
            result=result, entries=cache.entries(), first_listing=None
        )

    def _cli_job(self, api, out: Path, verb: str, key: tuple, fmt: str) -> Job:
        n, m = key
        argv = [verb, "--n", str(n), "--m", str(m), "--format", fmt, "--out", str(out), "--quiet"]
        if verb == "hierarchy":
            argv.append("--with-constants")
            names = [f"({n}_{m})[GD_{i}]" for i in range(2, n + 1)]
        else:
            names = [f"({n}_{m})[P]"] + [f"({n}_{m})[H_{i}]" for i in range(n - 1)]
        ext = {"json": "json", "latex": "tex", "text": "txt"}[fmt]

        def check(code):
            if code != 0:
                return [f"{' '.join(argv[:7])} exited with {code}"]
            problems = []
            for name in names:
                path = out / f"{name}.{ext}"
                want = EXPECTED["cli_files"][path.name]
                if not path.is_file() or file_digest(path) != want:
                    problems.append(f"{path.name} differs from the pinned file")
            return problems

        return Job(f"{verb}-({n},{m})-{fmt}", lambda: api.cli.main(argv), check)

    def jobs(self, api, state, rng, out: Path) -> list:
        specs = [("basis", self.BASIS, fmt) for fmt in self.FORMATS]
        specs += [("hierarchy", self.HIERARCHY, fmt) for fmt in self.FORMATS]
        rng.shuffle(specs)
        jobs = [self._cli_job(api, out / "files", *spec) for spec in specs]
        put_dir = out / "put"

        def put():
            return api.cache.ResultCache(put_dir).put(*self.BASIS, state.result)

        def check_put(path):
            problems = []
            if file_digest(path) != EXPECTED["cache_entry"]:
                problems.append(f"{path.name} differs from the pinned cache entry")
            if api.cache.ResultCache(put_dir).get(*self.BASIS) != state.result:
                problems.append("the cache round trip changed the (7,13) result")
            return problems

        jobs.insert(rng.randrange(len(jobs) + 1), Job("put-(7,13)", put, check_put))
        return jobs

    def check_pass(self, api, state, out: Path) -> list:
        problems = []
        listing = {
            p.name: file_digest(p) for p in sorted((out / "files").iterdir())
        }
        if state.first_listing is None:
            state.first_listing = listing
        elif listing != state.first_listing:
            problems.append("the CLI files differ from the first pass's files")
        if api.cache.ResultCache().entries() != state.entries:
            problems.append("the pre-warmed cache changed during the pass")
        return problems


WORKLOADS = {
    w.name: w
    for w in (
        BasisWorkload("basis-n7", 7, (9, 10, 11, 12, 13)),
        BasisWorkload("basis-n3", 3, (17, 19, 20)),
        OracleWorkload("oracle-n3", 3, 14),
        CliCacheWorkload("cli-cache"),
    )
}
