"""Spans around diffops' layers, recorded from outside the package.

``Tracer.install`` replaces each public name at the place where its caller
looks it up (a module global or a class attribute) with a wrapper that
records a span: name, start, end, parent span and job id, plus counts taken
from the call's arguments and result.  ``Tracer.uninstall`` puts the
originals back, so untraced passes run none of this code.  Spans stay in
memory until ``write`` saves them at the end of the run.

A span's self time is its duration minus the time its child spans cover.
The program is single-threaded, so the children of one span never overlap
and that cover is the sum of their durations.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "counts")

    def __init__(self, name: str, parent: int | None, job: str | None):
        self.name = name
        self.parent = parent
        self.job = job
        self.counts: dict = {}
        self.start = self.end = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _terms(args, kwargs, out) -> dict:
    return {"terms_in": len(args[0]), "terms_out": len(out)}


def _pdo_terms(args, kwargs, out) -> dict:
    return {"terms_out": sum(len(out.coefficient_at(p)) for p in range(out.low, out.top + 1))}


def _cache_get(args, kwargs, out) -> dict:
    path = args[0].entry_path(args[1], args[2])
    return {"hits": out is not None, "bytes_read": path.stat().st_size if path.exists() else 0}


def _cache_put(args, kwargs, out) -> dict:
    return {"bytes_written": out.stat().st_size}


def _bytes_out(args, kwargs, out) -> dict:
    return {"bytes_out": len(out.encode("utf-8"))}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.job: str | None = None
        self._open: list = []
        self._patched: list = []

    # -- recording ---------------------------------------------------------

    def call(self, name: str, fn, args=(), kwargs=None, counts=None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        kwargs = kwargs or {}
        span = Span(name, self._open[-1] if self._open else None, self.job)
        self._open.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            self._open.pop()
        if counts is not None:
            span.counts.update(counts(args, kwargs, out))
        return out

    def wrap(self, name: str, fn, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counts)

        return traced

    def _counting_steps(self, solve):
        """solve_triangular with an ``on_step`` hook that counts the steps
        and the largest integrand into the enclosing span."""

        @functools.wraps(solve)
        def solve_counting(system, on_step=None):
            counts = self.spans[self._open[-1]].counts
            counts.update(steps=0, integrand_terms_max=0)

            def step(index, rest, q):
                counts["steps"] += 1
                counts["integrand_terms_max"] = max(counts["integrand_terms_max"], len(rest))
                if on_step is not None:
                    on_step(index, rest, q)

            return solve(system, step)

        return solve_counting

    # -- wrapping the package ------------------------------------------------

    def install(self, api) -> None:
        basis, cache, cli = api.basis, api.cache, api.cli
        targets = [
            (basis, "almost_commuting", "basis.almost_commuting", None),
            (cli, "almost_commuting", "basis.almost_commuting", None),
            (basis, "bracket_system", "basis.bracket_system", None),
            (basis, "commutator", "operators.commutator", None),
            (basis, "antiderivative", "integration.antiderivative", _terms),
            (api.polynomials.DiffPolynomial, "evaluate", "polynomials.DiffPolynomial.evaluate", _terms),
            (api.operators.DiffOperator, "evaluate", "operators.DiffOperator.evaluate", None),
            (api.pseudo, "nth_root", "pseudo.nth_root", None),
            (api.pseudo.TruncatedPDO, "mul_keep_low", "pseudo.TruncatedPDO.mul_keep_low", _pdo_terms),
            (api.pseudo.TruncatedPDO, "positive_part", "pseudo.TruncatedPDO.positive_part", None),
            (cache.ResultCache, "get", "cache.ResultCache.get", _cache_get),
            (cache.ResultCache, "put", "cache.ResultCache.put", _cache_put),
            (cache, "result_from_json", "formats.result_from_json", None),
            (cache, "result_to_json", "formats.result_to_json", None),
            (cli, "render_operator", "formats.render", _bytes_out),
            (cli, "render_poly", "formats.render", _bytes_out),
            (cli, "_render_flow", "formats.render", _bytes_out),
            (cli, "gd_equations", "hierarchy.gd_equations", None),
            (cli, "main", "cli.main", None),
        ]
        for owner, attr, name, counts in targets:
            self._patch(owner, attr, self.wrap(name, getattr(owner, attr), counts))
        solve = self._counting_steps(basis.solve_triangular)
        self._patch(basis, "solve_triangular", self.wrap("basis.solve_triangular", solve))

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------------

    def write(self, path: Path, meta: dict) -> None:
        t0 = self.spans[0].start if self.spans else 0.0
        spans = [
            {
                "name": s.name,
                "start": s.start - t0,
                "end": s.end - t0,
                "parent": s.parent,
                "job": s.job,
                "counts": s.counts,
            }
            for s in self.spans
        ]
        path.write_text(json.dumps({**meta, "spans": spans}), encoding="utf-8")


def self_seconds(spans: list, first: int = 0) -> dict:
    """Self time of each span of ``spans[first:]``, keyed by index."""
    covered: dict = defaultdict(float)
    for i in range(first, len(spans)):
        if spans[i].parent is not None:
            covered[spans[i].parent] += spans[i].seconds
    return {i: spans[i].seconds - covered[i] for i in range(first, len(spans))}


def _outermost(spans, first: int, prefixes: tuple) -> float:
    """Seconds in spans named with one of ``prefixes`` whose parent is not."""
    total = 0.0
    for i in range(first, len(spans)):
        span = spans[i]
        parent = spans[span.parent] if span.parent is not None else None
        if span.name.startswith(prefixes) and not (
            parent is not None and parent.name.startswith(prefixes)
        ):
            total += span.seconds
    return total


def unit(metric: str) -> str:
    """The unit of a per-layer metric, read from its name."""
    if metric.endswith("_s"):
        return "s"
    if metric.startswith("share.") or metric.endswith("_frac"):
        return "fraction"
    if "bytes" in metric:
        return "bytes"
    return "count"


def layer_metrics(spans: list, first: int, pass_seconds: float) -> dict:
    """Per-layer metrics of one traced pass, whose spans are ``spans[first:]``."""
    own = self_seconds(spans, first)
    calls: dict = defaultdict(int)
    self_s: dict = defaultdict(float)
    counts: dict = defaultdict(lambda: defaultdict(int))
    h_extract = p_subst = solve_s = 0.0
    h_terms = 0
    for i in range(first, len(spans)):
        span = spans[i]
        calls[span.name] += 1
        self_s[span.name] += own[i]
        for key, value in span.counts.items():
            bucket = counts[span.name]
            bucket[key] = max(bucket[key], value) if key.endswith("_max") else bucket[key] + value
        parent = spans[span.parent].name if span.parent is not None else None
        if parent == "basis.almost_commuting":
            if span.name == "polynomials.DiffPolynomial.evaluate":
                h_extract += span.seconds
                h_terms += span.counts["terms_out"]
            elif span.name == "operators.DiffOperator.evaluate":
                p_subst += span.seconds
        if span.name == "basis.solve_triangular":
            solve_s += span.seconds

    evaluate = "polynomials.DiffPolynomial.evaluate"
    anti = "integration.antiderivative"
    mul = "pseudo.TruncatedPDO.mul_keep_low"
    get = "cache.ResultCache.get"
    put = "cache.ResultCache.put"
    return {
        "basis.h_extract_s": h_extract,
        "basis.h_terms_out": h_terms,
        "basis.solve_triangular.self_s": self_s["basis.solve_triangular"],
        "basis.solve.steps": counts["basis.solve_triangular"]["steps"],
        "basis.solve.integrand_terms_max": counts["basis.solve_triangular"]["integrand_terms_max"],
        f"{anti}.calls": calls[anti],
        f"{anti}.self_s": self_s[anti],
        f"{anti}.terms_in": counts[anti]["terms_in"],
        f"{anti}.terms_out": counts[anti]["terms_out"],
        "basis.bracket_system.self_s": self_s["basis.bracket_system"],
        "operators.commutator.self_s": self_s["operators.commutator"],
        "basis.p_subst_s": p_subst,
        "pseudo.nth_root.self_s": self_s["pseudo.nth_root"],
        f"{mul}.calls": calls[mul],
        f"{mul}.self_s": self_s[mul],
        f"{mul}.terms_out": counts[mul]["terms_out"],
        "pseudo.TruncatedPDO.positive_part.self_s": self_s["pseudo.TruncatedPDO.positive_part"],
        f"{get}.calls": calls[get],
        f"{get}.hits": counts[get]["hits"],
        f"{get}.misses": calls[get] - counts[get]["hits"],
        f"{get}.self_s": self_s[get],
        f"{get}.bytes_read": counts[get]["bytes_read"],
        f"{put}.self_s": self_s[put],
        f"{put}.bytes_written": counts[put]["bytes_written"],
        "formats.result_from_json.self_s": self_s["formats.result_from_json"],
        "formats.result_to_json.self_s": self_s["formats.result_to_json"],
        "formats.render.self_s": self_s["formats.render"],
        "formats.render.bytes_out": counts["formats.render"]["bytes_out"],
        "cli.main.self_s": self_s["cli.main"],
        "hierarchy.gd_equations.self_s": self_s["hierarchy.gd_equations"],
        f"{evaluate}.calls": calls[evaluate],
        f"{evaluate}.terms_in": counts[evaluate]["terms_in"],
        f"{evaluate}.terms_out": counts[evaluate]["terms_out"],
        # Shares of the traced pass: the stress design of each workload.
        "share.h_extract": h_extract / pass_seconds,
        "share.solve": solve_s / pass_seconds,
        "share.pseudo": _outermost(spans, first, ("pseudo.",)) / pass_seconds,
        "share.cache_formats": _outermost(spans, first, ("cache.", "formats.")) / pass_seconds,
    }
