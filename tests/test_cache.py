"""Result cache: round trips, checksum rejection, atomic writes."""

import dataclasses
import gc
import hashlib
import io
import json
import os
from fractions import Fraction
from pathlib import Path

import pytest

from diffops import cache as cache_module
from diffops import formats
from diffops.basis import ALGORITHM_VERSION, almost_commuting
from diffops.cache import CACHE_ENV_VAR, ResultCache, default_cache_root
from diffops.formats import (
    FORMAT_VERSION,
    canonical_json_bytes,
    factor_latex,
    render_operator,
    render_poly,
    result_to_json,
)
from diffops.hierarchy import gd_equations
from diffops.polynomials import DiffPolynomial, factor_text

PINNED_ENTRY = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "expected.json").read_text()
)["cache_entry"]


def _checksum(payload: dict) -> str:
    """The entry checksum as defined: SHA-256 of the canonical payload bytes."""
    return hashlib.sha256(canonical_json_bytes(payload)).hexdigest()


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


def test_non_utf8_payload_under_a_matching_checksum_is_a_miss(tmp_path):
    # the header is intact and the checksum covers the altered bytes, so
    # the payload itself is refused, and no UnicodeDecodeError escapes get
    cache = ResultCache(tmp_path)
    cache.put(3, 4, almost_commuting(3, 4))
    path = cache.entry_path(3, 4)
    raw = path.read_bytes()
    at = raw.index(b'"payload": ') + len(b'"payload": ')
    body = raw[at:-1].replace(b'"coeff": "', b'"coeff": "\xff', 1)
    digest = hashlib.sha256(body.replace(b", ", b",").replace(b": ", b":")).hexdigest()
    old = json.loads(raw)["checksum"]
    path.write_bytes(raw[:at].replace(old.encode(), digest.encode()) + body + b"}")
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


@pytest.mark.parametrize("n, m", [(3, 7), (5, 9), (7, 13)])
def test_written_checksum_is_sha256_of_canonical_payload(tmp_path, n, m):
    result = almost_commuting(n, m)
    path = ResultCache(tmp_path).put(n, m, result)
    entry = json.loads(path.read_text(encoding="utf-8"))
    assert entry["checksum"] == _checksum(result_to_json(result))


def _tamper(cache, n, m, edit) -> None:
    """Apply ``edit`` to the entry's payload and recompute its checksum, so
    only the payload parser can refuse it."""
    path = cache.entry_path(n, m)
    entry = json.loads(path.read_text(encoding="utf-8"))
    edit(entry["payload"])
    entry["checksum"] = _checksum(entry["payload"])
    path.write_text(json.dumps(entry), encoding="utf-8")


def test_noop_tamper_is_a_hit(tmp_path):
    # control for every test built on _tamper: its rewrite keeps the layout
    # get accepts, so a miss there comes from the payload parser
    cache = ResultCache(tmp_path)
    result = almost_commuting(3, 7)
    cache.put(3, 7, result)
    before = cache.entry_path(3, 7).read_bytes()
    _tamper(cache, 3, 7, lambda payload: None)
    assert cache.entry_path(3, 7).read_bytes() == before
    loaded = cache.get(3, 7)
    assert loaded is not None
    assert loaded.P == result.P and loaded.H == result.H


def _sorted_entry(n, m, payload) -> dict:
    return {
        "checksum": _checksum(payload),
        "format_version": FORMAT_VERSION,
        "key": [n, m],
        "payload": payload,
    }


def test_put_builds_no_dict_tree(tmp_path, monkeypatch):
    result = almost_commuting(3, 8)
    entry = json.dumps(_sorted_entry(3, 8, result_to_json(result)), sort_keys=True)

    def refuse(*args):
        raise AssertionError("put encoded through the reference dict tree")

    monkeypatch.setattr(formats, "poly_to_json", refuse)
    monkeypatch.setattr(formats, "operator_to_json", refuse)
    cache = ResultCache(tmp_path)
    path = cache.put(3, 8, result)
    assert path.read_text(encoding="utf-8") == entry
    loaded = cache.get(3, 8)
    assert loaded is not None
    assert loaded.P == result.P and loaded.H == result.H


def _reversed_keys(obj):
    if isinstance(obj, dict):
        return {key: _reversed_keys(obj[key]) for key in reversed(list(obj))}
    if isinstance(obj, list):
        return [_reversed_keys(item) for item in obj]
    return obj


@pytest.mark.parametrize(
    "render",
    [
        lambda entry: json.dumps(entry, sort_keys=True, indent=2),
        lambda entry: json.dumps(entry, sort_keys=True, separators=(",", ":")),
        lambda entry: json.dumps(_reversed_keys(entry)),
        lambda entry: json.dumps(dict(entry, payload=_reversed_keys(entry["payload"]))),
        lambda entry: json.dumps(entry, sort_keys=True) + "\n",
    ],
    ids=["indent", "compact", "unsorted-keys", "unsorted-payload-keys", "trailing-newline"],
)
def test_checksum_valid_entry_in_another_layout_is_a_miss(tmp_path, render):
    cache = ResultCache(tmp_path)
    result = almost_commuting(3, 4)
    cache.put(3, 4, result)
    entry = _sorted_entry(3, 4, result_to_json(result))
    assert json.loads(cache.entry_path(3, 4).read_text(encoding="utf-8")) == entry
    cache.entry_path(3, 4).write_text(render(entry), encoding="utf-8")
    assert cache.get(3, 4) is None


@pytest.mark.parametrize(
    "field, value",
    [("key", [3, 5]), ("key", [4, 3]), ("format_version", FORMAT_VERSION + 1)],
    ids=["other-m", "other-n", "other-version"],
)
def test_header_of_another_key_or_version_is_a_miss(tmp_path, field, value):
    cache = ResultCache(tmp_path)
    result = almost_commuting(3, 4)
    cache.put(3, 4, result)
    entry = dict(_sorted_entry(3, 4, result_to_json(result)), **{field: value})
    cache.entry_path(3, 4).write_text(json.dumps(entry, sort_keys=True), encoding="utf-8")
    assert cache.get(3, 4) is None


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


def _append_monic_top(payload):
    # P of order m + 1, monic and with as many coefficients as its order says
    payload["P"]["coefficients"].append([{"coeff": "1", "monomial": []}])
    payload["P"]["order"] += 1


def _scale_top_p(payload):
    payload["P"]["coefficients"][-1][0]["coeff"] = "2"


def _float_m_and_p_order(payload):
    # 7.0 == 7, so only a type check tells these from the ints they replace
    payload["m"] = payload["P"]["order"] = 7.0


@pytest.mark.parametrize(
    "edit",
    [
        _drop_last_h,
        _set_p_order,
        _append_empty_p,
        _append_empty_p_with_order,
        _set_format_version,
        _append_monic_top,
        _scale_top_p,
        _set_factor(["y", 2, 0, 2]),
        _set_factor(["c", [4, 1], 0, 2]),
        lambda payload: payload.update(format_version=True),
        lambda payload: payload.update(n=3.0),
        lambda payload: payload.update(m=7.0),
        lambda payload: payload["P"].update(order=7.0),
        _float_m_and_p_order,
    ],
    ids=[
        "h-count",
        "p-order",
        "trailing-empty-coefficient",
        "trailing-empty-coefficient-with-order",
        "payload-format-version",
        "p-order-not-m",
        "non-monic-p",
        "y-factor",
        "constant-factor",
        "format-version-true",
        "n-float",
        "m-float",
        "p-order-float",
        "m-and-p-order-float",
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


FORMATS = ("json", "latex", "text")


def _polys(result) -> list:
    return [*result.P.coefficients(), *result.H]


def _rendered(result, fmt) -> list:
    """The contents of the files ``diffops basis`` writes for ``result``."""
    return [render_operator(result.P, fmt)] + [render_poly(h, fmt) for h in result.H]


def _swap_factors_of_fifth_term(payload):
    # the d^0 coefficient of P_7 for n = 3 ends 14/9 u_3 u_3' + 28/27 u_3'''';
    # swapped, the fifth term still sorts between its neighbours
    _first_terms(payload)[4]["monomial"].reverse()


@pytest.mark.parametrize("fmt", FORMATS)
def test_out_of_order_entry_keeps_no_rows_and_renders_canonically(tmp_path, fmt):
    cache = ResultCache(tmp_path)
    result = almost_commuting(3, 7)
    cache.put(3, 7, result)

    def edit(payload):
        payload["H"][0].reverse()
        _swap_factors_of_fifth_term(payload)

    _tamper(cache, 3, 7, edit)
    loaded = cache.get(3, 7)
    assert loaded is not None
    assert loaded.P.coefficient_at(0)._rows is None and loaded.H[0]._rows is None
    # control: the polynomials left in canonical order keep theirs
    assert loaded.P.coefficient_at(1)._rows is not None and loaded.H[1]._rows is not None
    assert _rendered(loaded, fmt) == _rendered(result, fmt)


PARITY_CASES = [(n, m) for n in range(2, 6) for m in range(1, 10)] + [(7, 13)]


@pytest.mark.parametrize("n, m", PARITY_CASES)
def test_parsed_rows_render_as_the_sort_does_and_are_released(tmp_path, n, m):
    cache = ResultCache(tmp_path)
    result = almost_commuting(n, m)
    cache.put(n, m, result)
    assert all(p._rows is None for p in _polys(result))
    for factor_str in (factor_text, factor_latex, formats._factor_to_json):
        parsed = cache.get(n, m)
        # every polynomial of two or more terms comes with its rows
        assert all((p._rows is not None) == (len(p) > 1) for p in _polys(parsed))
        # rows are (table, factor_rows), whose numerators are read in _nums
        # order: the canonical order in which the computed twin sorts
        for p, twin in zip(_polys(parsed), _polys(result)):
            if p._rows is not None:
                assert len(p._rows) == 2
                assert list(p.items()) == [
                    (tuple(factors), Fraction(num, den))
                    for factors, num, den in twin.sorted_terms(lambda *factor: factor)
                ]
        for p in _polys(parsed):
            unparsed = DiffPolynomial.from_nums(dict(p._nums), p._den)
            assert p.sorted_terms(factor_str) == unparsed.sorted_terms(factor_str)
    for fmt in FORMATS:
        parsed = cache.get(n, m)
        first = _rendered(parsed, fmt)
        assert all(p._rows is None for p in _polys(parsed))
        assert _rendered(parsed, fmt) == first == _rendered(result, fmt)


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
def test_get_pauses_the_collector_and_restores_it(tmp_path, monkeypatch, enabled):
    cache = ResultCache(tmp_path)
    cache.put(3, 7, almost_commuting(3, 7))
    cache.put(3, 8, almost_commuting(3, 8))
    _tamper(cache, 3, 8, _set_coeffs("2/4"))
    during = []

    def recording(payload):
        during.append(gc.isenabled())
        return formats.result_from_json(payload)

    monkeypatch.setattr(cache_module, "result_from_json", recording)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert cache.get(3, 7) is not None
        assert cache.get(3, 8) is None  # refused by the parser
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert during == [False, False]


def test_entry_moved_to_another_m_is_a_miss(tmp_path):
    # payload m, key and file name all say 5, but P is P_4
    cache = ResultCache(tmp_path)
    cache.put(3, 4, almost_commuting(3, 4))
    _tamper(cache, 3, 4, lambda payload: payload.update(m=5))
    entry = json.loads(cache.entry_path(3, 4).read_text(encoding="utf-8"))
    entry["key"] = [3, 5]
    cache.entry_path(3, 5).write_text(json.dumps(entry), encoding="utf-8")
    assert cache.get(3, 5) is None


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


def test_entries_skip_names_that_entry_path_never_writes(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(3, 4, almost_commuting(3, 4))
    # a second spelling of (3, 4), and (3, 5) in Arabic-Indic digits
    strays = [cache.version_dir / "(03_4).json", cache.version_dir / "(\u0663_5).json"]
    for stray in strays:
        stray.write_bytes(cache.entry_path(3, 4).read_bytes())
    assert cache.get(3, 5) is None
    assert cache.entries() == [(3, 4)]
    assert cache.clear() == 1
    assert cache.entries() == []
    assert all(stray.exists() for stray in strays)


def test_version_directory_layout(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(3, 2, almost_commuting(3, 2))
    assert cache.entry_path(3, 2).parent.name == f"v{FORMAT_VERSION}-a{ALGORITHM_VERSION}"


# ALGORITHM_VERSION -> SHA-256 of the canonical result JSON over
# ALGORITHM_GRID, in that order.  A change that alters any result bumps the
# version and adds its digest as a new key; the old keys stay.
ALGORITHM_DIGESTS = {
    1: "98864adc62405ab689692536986481411f65d1713f614ef0d382ae5d9db37368",
}
ALGORITHM_GRID = [(n, m) for n in range(2, 6) for m in range(1, 10)] + [(7, 13)]


def test_algorithm_version_pins_its_results():
    # fails when the results change under the same version, and when the
    # version changes while the results do not
    assert ALGORITHM_VERSION == max(ALGORITHM_DIGESTS)
    assert len(set(ALGORITHM_DIGESTS.values())) == len(ALGORITHM_DIGESTS)
    digest = hashlib.sha256()
    for n, m in ALGORITHM_GRID:
        digest.update(canonical_json_bytes(result_to_json(almost_commuting(n, m))))
    assert digest.hexdigest() == ALGORITHM_DIGESTS[ALGORITHM_VERSION]


@pytest.mark.parametrize("directory", ["v1", "v1-a0"])
def test_entry_of_another_algorithm_version_is_a_miss(tmp_path, directory):
    # a valid entry filed under the format alone, or under an earlier
    # algorithm, is neither listed nor served
    cache = ResultCache(tmp_path)
    cache.put(3, 4, almost_commuting(3, 4))
    other = tmp_path / directory
    other.mkdir()
    cache.entry_path(3, 4).rename(other / cache.entry_path(3, 4).name)
    assert cache.entries() == []
    assert cache.get(3, 4) is None


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
        # the same key with other bytes: every H doubled
        cache.put(3, 2, dataclasses.replace(good, H=tuple(2 * h for h in good.H)))
    except RuntimeError:
        pass
    monkeypatch.undo()
    leftovers = [n for n in os.listdir(cache.version_dir) if n.endswith(".tmp")]
    assert leftovers == []
    survivor = cache.get(3, 2)
    assert survivor is not None and survivor.P == good.P and survivor.H == good.H


def test_put_refuses_a_result_of_another_key(tmp_path):
    # get(3, 5) would never serve the entry, but cache list would show it
    cache = ResultCache(tmp_path)
    with pytest.raises(ValueError, match=r"result \(3, 4\) put under key \(3, 5\)"):
        cache.put(3, 5, almost_commuting(3, 4))
    assert not cache.entry_path(3, 5).exists()
    assert cache.entries() == []


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
