"""Result cache: round trips, checksum rejection, atomic writes."""

import hashlib
import io
import json
import os
from pathlib import Path

import pytest

from diffops.basis import almost_commuting
from diffops.cache import CACHE_ENV_VAR, ResultCache, _checksum, default_cache_root
from diffops.formats import FORMAT_VERSION, result_to_json
from diffops.hierarchy import gd_equations

PINNED_ENTRY = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "expected.json").read_text()
)["cache_entry"]


def test_put_get_round_trip(tmp_path):
    cache = ResultCache(tmp_path)
    result = almost_commuting(3, 4)
    cache.put(3, 4, result)
    loaded = cache.get(3, 4)
    assert loaded is not None
    assert loaded.P == result.P
    assert loaded.H == result.H


def test_miss_on_absent_entry(tmp_path):
    assert ResultCache(tmp_path).get(5, 5) is None


def test_corrupt_entry_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(3, 2, almost_commuting(3, 2))
    path = cache.entry_path(3, 2)
    path.write_text(path.read_text()[: 40], encoding="utf-8")  # truncate
    assert cache.get(3, 2) is None


def test_checksum_tamper_rejected(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(3, 2, almost_commuting(3, 2))
    path = cache.entry_path(3, 2)
    entry = json.loads(path.read_text(encoding="utf-8"))
    entry["payload"]["m"] = 9
    path.write_text(json.dumps(entry), encoding="utf-8")
    assert cache.get(3, 2) is None


def test_non_utf8_entry_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(3, 4, almost_commuting(3, 4))
    path = cache.entry_path(3, 4)
    raw = bytearray(path.read_bytes())
    raw[10:12] = b"\xff\xfe"
    path.write_bytes(bytes(raw))
    assert cache.get(3, 4) is None


def test_deeply_nested_entry_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(3, 4, almost_commuting(3, 4))
    cache.entry_path(3, 4).write_text("[" * 100000, encoding="utf-8")
    assert cache.get(3, 4) is None


def test_put_writes_one_sorted_json_text(tmp_path):
    result = almost_commuting(3, 4)
    path = ResultCache(tmp_path).put(3, 4, result)
    payload = result_to_json(result)
    entry = {
        "format_version": FORMAT_VERSION,
        "key": [3, 4],
        "checksum": _checksum(payload),
        "payload": payload,
    }
    streamed = io.StringIO()
    json.dump(entry, streamed, sort_keys=True)
    assert path.read_text(encoding="utf-8") == json.dumps(entry, sort_keys=True)
    assert streamed.getvalue() == json.dumps(entry, sort_keys=True)


def test_large_entry_matches_pinned_digest(tmp_path):
    path = ResultCache(tmp_path).put(7, 13, almost_commuting(7, 13))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_ENTRY


def _tamper(cache, n, m, edit) -> None:
    """Apply ``edit`` to the entry's payload and recompute its checksum, so
    only the payload parser can refuse it."""
    path = cache.entry_path(n, m)
    entry = json.loads(path.read_text(encoding="utf-8"))
    edit(entry["payload"])
    entry["checksum"] = _checksum(entry["payload"])
    path.write_text(json.dumps(entry), encoding="utf-8")


@pytest.mark.parametrize("coeff", ["1/0", "1.5", "abc", "2/4"])
def test_non_canonical_coefficient_is_a_miss(tmp_path, coeff):
    cache = ResultCache(tmp_path)
    cache.put(3, 4, almost_commuting(3, 4))

    def edit(payload):
        payload["P"]["coefficients"][0][0]["coeff"] = coeff

    _tamper(cache, 3, 4, edit)
    assert cache.get(3, 4) is None


def _first_terms(payload) -> list:
    # the d^0 coefficient of P_7 for n = 3: six terms, the first two
    # 14/9 u_2 u_3'' and 14/27 u_2^2 u_3
    return payload["P"]["coefficients"][0]


def _set_coeffs(*texts):
    def edit(payload):
        for term, text in zip(_first_terms(payload), texts):
            term["coeff"] = text

    return edit


def _set_factor(factor):
    def edit(payload):
        _first_terms(payload)[1]["monomial"][0] = factor

    return edit


def _repeat_first_monomial(payload):
    terms = _first_terms(payload)
    terms[1]["monomial"] = terms[0]["monomial"]


@pytest.mark.parametrize(
    "edit",
    [
        _set_coeffs("14/9", "28/54", "28/54"),
        _set_coeffs("14/9", "28/18"),
        # each replaces the first factor of the second term; the first
        # term's first factor is ["u", 2, 0, 1]
        _set_factor(["v", 2, 0, 1]),
        _set_factor(["u", 2, 0]),
        _set_factor(["u", 2, 0, 1, 1]),
        _set_factor(["u", [2, 0], 0, 1]),
        _set_factor(["c", 4, 0, 1]),
        # the second term is 14/27 u_2^2 u_3
        _set_factor(["u", 2, 0, 0]),
        _set_factor(["u", 2, -1, 2]),
        _set_factor(["c", [4, 1], 1, 1]),
        _set_factor(["u", 3, 0, 1]),
        _set_factor(["u", 3, 0, 2]),
        _repeat_first_monomial,
        _set_factor(["u", 2, 0, True]),  # a dict key equal to the first term's
        _set_factor(["u", 2, 0, 1.5]),
        _set_factor(["u", 2, 0.0, 2]),
        _set_factor(["u", 1, 0, 2]),
        _set_factor(["c", ["a", "b"], 0, 2]),
    ],
    ids=[
        "non-canonical-twice",
        "non-canonical-after-canonical",
        "unknown-letter",
        "short-factor",
        "long-factor",
        "list-index-on-u",
        "int-index-on-c",
        "zero-exponent",
        "negative-order",
        "derived-constant",
        "repeated-factor",
        "repeated-variable",
        "repeated-monomial",
        "bool-exponent",
        "fractional-exponent",
        "float-order",
        "index-below-2",
        "non-int-constant-index",
    ],
)
def test_decode_memos_accept_nothing_the_parser_rejects(tmp_path, edit):
    cache = ResultCache(tmp_path)
    cache.put(3, 7, almost_commuting(3, 7))
    _tamper(cache, 3, 7, edit)
    assert cache.get(3, 7) is None


def _drop_last_h(payload):
    payload["H"].pop()


def _set_p_order(payload):
    payload["P"]["order"] = 9


def _append_empty_p(payload):
    payload["P"]["coefficients"].append([])


def _append_empty_p_with_order(payload):
    _append_empty_p(payload)
    payload["P"]["order"] += 1


def _set_format_version(payload):
    payload["format_version"] = 7


@pytest.mark.parametrize(
    "edit",
    [
        _drop_last_h,
        _set_p_order,
        _append_empty_p,
        _append_empty_p_with_order,
        _set_format_version,
        _set_factor(["y", 2, 0, 2]),
        _set_factor(["c", [4, 1], 0, 2]),
    ],
    ids=[
        "h-count",
        "p-order",
        "trailing-empty-coefficient",
        "trailing-empty-coefficient-with-order",
        "payload-format-version",
        "y-factor",
        "constant-factor",
    ],
)
def test_inconsistent_result_is_a_miss(tmp_path, edit):
    cache = ResultCache(tmp_path)
    cache.put(3, 7, almost_commuting(3, 7))
    _tamper(cache, 3, 7, edit)
    assert cache.get(3, 7) is None


def test_factors_out_of_order_read_back_canonically(tmp_path):
    cache = ResultCache(tmp_path)
    result = almost_commuting(3, 7)
    cache.put(3, 7, result)

    def edit(payload):
        for poly in payload["P"]["coefficients"] + payload["H"]:
            for term in poly:
                term["monomial"].reverse()
            poly.reverse()

    _tamper(cache, 3, 7, edit)
    loaded = cache.get(3, 7)
    assert loaded is not None
    assert loaded.P == result.P and loaded.H == result.H


def test_key_mismatch_rejected(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(3, 2, almost_commuting(3, 2))
    os.rename(cache.entry_path(3, 2), cache.entry_path(3, 5))
    assert cache.get(3, 5) is None


def test_entry_of_another_key_is_a_miss(tmp_path):
    # a valid (3, 4) entry relabelled as (3, 5): key and file name agree,
    # and the checksum still matches because it covers the payload only
    cache = ResultCache(tmp_path)
    cache.put(3, 4, almost_commuting(3, 4))
    entry = json.loads(cache.entry_path(3, 4).read_text(encoding="utf-8"))
    entry["key"] = [3, 5]
    cache.entry_path(3, 5).write_text(json.dumps(entry, sort_keys=True), encoding="utf-8")
    assert cache.get(3, 5) is None
    assert cache.get(3, 4) is not None


def test_no_temp_files_left_behind(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(3, 2, almost_commuting(3, 2))
    cache.put(3, 2, almost_commuting(3, 2))
    leftovers = [name for name in os.listdir(cache.version_dir) if name.endswith(".tmp")]
    assert leftovers == []


def test_entries_and_clear(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(3, 2, almost_commuting(3, 2))
    cache.put(2, 3, almost_commuting(2, 3))
    assert cache.entries() == [(2, 3), (3, 2)]
    assert cache.clear() == 2
    assert cache.entries() == []


def test_version_directory_layout(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(3, 2, almost_commuting(3, 2))
    assert cache.entry_path(3, 2).parent.name == f"v{FORMAT_VERSION}"


def test_env_var_controls_root(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "elsewhere"))
    assert default_cache_root() == tmp_path / "elsewhere"
    monkeypatch.delenv(CACHE_ENV_VAR)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert default_cache_root() == tmp_path / "xdg" / "diffops"


def test_interrupted_write_leaves_no_readable_corruption(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path)
    good = almost_commuting(3, 2)
    cache.put(3, 2, good)

    def exploding_replace(src, dst):
        raise RuntimeError("simulated crash before rename")

    monkeypatch.setattr(os, "replace", exploding_replace)
    try:
        cache.put(3, 2, almost_commuting(3, 4))
    except RuntimeError:
        pass
    monkeypatch.undo()
    leftovers = [n for n in os.listdir(cache.version_dir) if n.endswith(".tmp")]
    assert leftovers == []
    survivor = cache.get(3, 2)
    assert survivor is not None and survivor.P == good.P


def test_concurrent_writers_converge(tmp_path):
    import threading

    cache = ResultCache(tmp_path)
    result = almost_commuting(3, 4)
    errors = []

    def writer():
        try:
            for _ in range(10):
                cache.put(3, 4, result)
                got = cache.get(3, 4)
                assert got is None or got.P == result.P
        except Exception as exc:  # surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=writer) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    final = cache.get(3, 4)
    assert final is not None and final.P == result.P


def test_basis_reuses_cache(tmp_path, monkeypatch):
    import diffops.basis as basis_module

    cache = ResultCache(tmp_path)
    first = basis_module.almost_commuting(3, 4, cache=cache)

    def boom(*args, **kwargs):
        raise AssertionError("cache hit must not recompute")

    monkeypatch.setattr(basis_module, "solve_triangular", boom)
    second = basis_module.almost_commuting(3, 4, cache=cache)
    assert second.P == first.P and second.H == first.H


def test_warm_basis_reads_each_entry_once(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path)
    gd_equations(5, 9, cache=cache)
    reads = []
    get = ResultCache.get

    def counting_get(self, n, m):
        reads.append((n, m))
        return get(self, n, m)

    monkeypatch.setattr(ResultCache, "get", counting_get)
    gd_equations(5, 9, cache=cache)
    assert reads == [(5, m) for m in range(1, 10)]
