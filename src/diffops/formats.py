"""Serialization and pretty-printing.

Canonical JSON term encoding:

    term       = {"coeff": "p/q", "monomial": [[letter, index, order, exp], ...]}
    polynomial = [term, ...]                       (canonical monomial order)
    operator   = {"order": k, "coefficients": [polynomial_0, ..., polynomial_k]}

Coefficients are rational text in lowest terms, ``-3/4`` or ``5``, parsed
straight into integers; any other text raises ValueError.  The letter is
"u", "y" or "c"; the index is an integer for u/y and an [m, j] pair for
constants.  Round-tripping a canonical file is the identity.  The LaTeX
printer uses u_2', u_2'', u_2''', u_2^{(4)} derivative marks.

One writer, ``json_text``, produces every JSON byte diffops writes: the
``json`` files (layout ``INDENTED``, ``json.dumps(..., indent=2)``) and the
cache payload (layout ``ONE_LINE``, ``json.dumps(..., sort_keys=True)``).
It walks each polynomial's ``DiffPolynomial.sorted_terms`` once, renders
each distinct factor once and appends every term as one fragment to a
single list (``json_fragments``), so no encoding is built as objects.
The dict tree of ``poly_to_json``, ``operator_to_json`` and
``result_to_json`` is the reference it is checked against, byte for byte,
through the stdlib encoder; nothing in the package writes through it.

The parse reads the terms in the order they are written, and checks that
order as it goes.  A polynomial whose terms are in canonical order, as
every cache entry that ``put`` wrote has them, keeps each term's factor
ids as rows, its numerators in that order in ``_nums``.  The first
``sorted_terms`` call renders them without decoding or sorting a
monomial, so a warm cache hit sorts nothing before its render.
"""

from __future__ import annotations

import json
import re
from math import gcd, inf, lcm

from .basis import AlmostCommutingResult
from .operators import DiffOperator, render_terms
from .polynomials import (
    C_FAMILY,
    DiffPolynomial,
    FAMILY_LETTERS,
    U_FAMILY,
    VarId,
    _factor_key,
    ratio_text,
    render_sum,
)

FORMAT_VERSION = 1

_LETTER_TO_FAMILY = {letter: fam for fam, letter in enumerate(FAMILY_LETTERS)}
_C_LETTER = FAMILY_LETTERS[C_FAMILY]
_COEFF_RE = re.compile(r"(-?[1-9][0-9]*)(?:/([1-9][0-9]*))?")


# -- JSON ----------------------------------------------------------------


def _factor_to_json(vid: VarId, exp: int) -> list:
    """The ``[letter, index, order, exp]`` encoding of one monomial factor."""
    family, index, order = vid
    if family == C_FAMILY:
        index = [index[0], index[1]]
    return [FAMILY_LETTERS[family], index, order, exp]


def poly_to_json(p: DiffPolynomial) -> list:
    """The term list ``[{"coeff": "num/den", "monomial": [factor, ...]}, ...]``
    in canonical order: the reference encoding that ``json_text`` writes.

    Each distinct factor is encoded once per call, so terms that share a
    factor share its list: copy a term before editing it in place.
    """
    return [
        {"coeff": ratio_text(num, den), "monomial": monomial}
        for monomial, num, den in p.sorted_terms(_factor_to_json)
    ]


def parse_coeff(text: str) -> tuple:
    """(num, den) of a canonical coefficient text such as ``-3/4`` or ``5``.

    Canonical means what ``poly_to_json`` writes: a nonzero integer without
    leading zeros, over a denominator > 1 coprime to it when there is one.
    Raises ValueError for anything else (``1/0``, ``1.5``, ``2/4``, ...).
    """
    match = _COEFF_RE.fullmatch(text) if isinstance(text, str) else None
    if match is None:
        raise ValueError(f"non-canonical coefficient: {text!r}")
    num = int(match[1])
    den = int(match[2]) if match[2] else 1
    if match[2] and (den == 1 or gcd(num, den) != 1):
        raise ValueError(f"non-canonical coefficient: {text!r}")
    return num, den


def poly_from_json(data: list) -> DiffPolynomial:
    """The polynomial of a ``poly_to_json`` term list.

    Each distinct factor and each distinct coefficient text is decoded and
    checked once per call; malformed input raises TypeError, KeyError or
    ValueError.  Factors may come in any order, but none of these is
    canonical and each is refused: an order, exponent or index that is not
    a plain int (``true`` and ``2.0`` are not), an exponent < 1, a negative
    order, a u/y index < 2, a c index that is not a pair, a derivative of
    a constant, and a repeated variable in a monomial or monomial in the
    polynomial.  An exponent above ``polynomials.MAX_EXPONENT`` raises
    ValueError as well.
    """
    return _poly_from_json(data, {}, {}, [])


def _poly_from_json(data: list, factors: dict, ratios: dict, table: list) -> DiffPolynomial:
    """``poly_from_json`` with memos and a factor table that the caller may
    share across polynomials.  ``ratios`` maps a coefficient text to its
    ``(num, den)``, and ``factors`` a raw factor to ``(vid, exp, key,
    weight, id)``: the key of the one-factor monomial (a monomial's key is
    the sum of its factors'), its weight, and its place in ``table``, the
    list of ``(vid, exp)`` in the order first met.

    The walk checks the canonical order as it reads: each term's
    variables strictly ascend, which also rules out a repeated one, and
    each term sorts after the one before it, by weight descending and then
    by its factors.  A polynomial of two or more terms that passes keeps
    ``(table, factor_rows)`` as ``_rows``, each term's factor ids, which
    ``DiffPolynomial.sorted_terms`` renders with the numerators in ``_nums``
    order, the order read.  One term out of order, and it keeps none.
    """
    terms = {}
    factor_rows = []  # None once a term is out of order
    last_weight, last_codes = inf, None
    for term in data:
        mono = weight = 0
        ids = []
        codes = []  # the memo entries, which compare as their (vid, exp) do
        last_vid = ()  # below every VarId
        ascending = True
        for letter, index, order, exp in term["monomial"]:
            if letter == _C_LETTER:  # checked here: the key holds only the pair's type
                index = tuple(index)
                if len(index) != 2 or type(index[0]) is not int or type(index[1]) is not int:
                    raise ValueError(f"non-canonical constant index: {index!r}")
            # as dict keys true == 1 and 2.0 == 2, so the key holds the types
            key = (letter, index, order, exp, type(index), type(order), type(exp))
            factor = factors.get(key)
            if factor is None:
                if type(order) is not int or type(exp) is not int or exp < 1 or order < 0 or (
                    order if letter == _C_LETTER else type(index) is not int or index < 2
                ):
                    raise ValueError(f"non-canonical factor: {key[:4]!r}")
                vid = VarId(_LETTER_TO_FAMILY[letter], index, order)
                try:
                    factor_key = _factor_key(vid, exp)
                except OverflowError as exc:
                    raise ValueError(str(exc)) from exc
                factor = factors[key] = (vid, exp, factor_key, vid.weight() * exp, len(table))
                table.append((vid, exp))
            vid, _, factor_key, factor_weight, factor_id = factor
            if vid <= last_vid:
                ascending = False
            last_vid = vid
            codes.append(factor)
            ids.append(factor_id)
            mono += factor_key
            weight += factor_weight
        if not ascending and len({code[0] for code in codes}) != len(codes):
            raise ValueError(f"repeated variable in monomial: {term['monomial']!r}")
        text = term["coeff"]
        coeff = ratios.get(text)
        if coeff is None:
            coeff = ratios[text] = parse_coeff(text)
        terms[mono] = coeff
        if factor_rows is not None:
            if ascending and (
                weight < last_weight or weight == last_weight and codes > last_codes
            ):
                factor_rows.append(tuple(ids))
                last_weight, last_codes = weight, codes
            else:
                factor_rows = None
    if len(terms) != len(data):
        raise ValueError("repeated monomial")
    den = lcm(*(d for _, d in terms.values()))
    p = DiffPolynomial.from_nums({m: n * (den // d) for m, (n, d) in terms.items()}, den)
    # one term needs no sort, and a render may skip it (the top 1 of a monic
    # operator), which would leave its rows held
    if factor_rows is not None and len(factor_rows) > 1:
        p._rows = (table, factor_rows)
    return p


def operator_to_json(op: DiffOperator) -> dict:
    """The reference encoding of an operator (see ``poly_to_json``)."""
    if not op:
        return {"order": None, "coefficients": []}
    return {
        "order": op.order,
        "coefficients": [poly_to_json(c) for c in op.coefficients()],
    }


def operator_from_json(data: dict) -> DiffOperator:
    """The operator of an ``operator_to_json`` payload; ValueError, too, for
    an order that is not the plain int coefficient count - 1 (None for no
    coefficients) and for a zero top coefficient."""
    order, coeffs = data["order"], data["coefficients"]
    expected = len(coeffs) - 1 if coeffs else None
    if type(order) is not type(expected) or order != expected or coeffs[-1:] == [[]]:
        raise ValueError("non-canonical operator")
    return DiffOperator.from_coeffs(poly_from_json(entry) for entry in coeffs)


def result_to_json(result: AlmostCommutingResult) -> dict:
    """The reference encoding of a result, the cache payload; results are
    digested through it (see ``poly_to_json``)."""
    return {
        "format_version": FORMAT_VERSION,
        "n": result.n,
        "m": result.m,
        "P": operator_to_json(result.P),
        "H": [poly_to_json(h) for h in result.H],
    }


# the top coefficient of a monic P, as ``poly_to_json`` writes it
_MONIC_TOP = [{"coeff": "1", "monomial": []}]


def result_from_json(data: dict) -> AlmostCommutingResult:
    """The result of a ``result_to_json`` payload.  Besides what
    ``poly_from_json`` refuses, ValueError for a format version, n, m or
    ``P`` order that is not a plain int (``true`` and ``3.0`` are not),
    another format version, a ``P`` order other than m or than its
    coefficient count - 1, a top ``P`` coefficient other than 1, an ``H``
    count other than n - 1 and a factor other than u (checked once per
    distinct factor: all polynomials share the memos).

    ``data`` is consumed: each polynomial's term list is dropped from it
    (its slot set to None) once read, so the walk never holds the whole
    tree beside the result that it builds."""
    version, n, m, P, H = data["format_version"], data["n"], data["m"], data["P"], data["H"]
    coeffs = P["coefficients"]
    if any(type(x) is not int for x in (version, n, m, P["order"])):
        raise ValueError("non-integer field in result payload")
    if version != FORMAT_VERSION or len(H) != n - 1:
        raise ValueError("inconsistent result payload")
    if P["order"] != m or P["order"] != len(coeffs) - 1 or coeffs[-1:] != [_MONIC_TOP]:
        raise ValueError("non-canonical P")
    factors: dict = {}
    ratios: dict = {}
    table: list = []
    polys = []
    for group in (coeffs, H):
        for i, terms in enumerate(group):
            group[i] = None
            polys.append(_poly_from_json(terms, factors, ratios, table))
    if any(vid[0] != U_FAMILY for vid, _ in table):
        raise ValueError("a result holds polynomials in u only")
    return AlmostCommutingResult(
        n=n,
        m=m,
        P=DiffOperator.from_coeffs(polys[: len(coeffs)]),
        H=tuple(polys[len(coeffs) :]),
    )


def canonical_json_bytes(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


# -- the JSON writer -----------------------------------------------------------

# A layout is (line break, indent step, item separator, sort keys).
ONE_LINE = ("", "", ", ", True)  # json.dumps(obj, sort_keys=True): the cache payload
INDENTED = ("\n", "  ", ",", False)  # json.dumps(obj, indent=2): the json files


def json_text(value, layout: tuple) -> str:
    """The ``json.dumps`` text of ``value``'s reference encoding in
    ``layout``, byte for byte.

    ``value`` is a DiffPolynomial, a DiffOperator or an
    AlmostCommutingResult (encoded as ``poly_to_json``, ``operator_to_json``
    and ``result_to_json`` encode them), a JSON scalar, or a dict, list or
    tuple of these.
    """
    return "".join(json_fragments(value, layout))


def json_fragments(value, layout: tuple) -> list:
    """The fragments that ``json_text(value, layout)`` joins: one per term
    of a polynomial and one per bracket, key or scalar around them.  Each
    separator (the item separator and ``": "``) lies inside one fragment,
    so a run of fragments can be compacted on its own."""
    out: list = []
    _write(out, value, layout, layout[0])
    return out


def _text(value, layout: tuple, pad: str) -> str:
    out: list = []
    _write(out, value, layout, pad)
    return "".join(out)


def _write(out: list, value, layout: tuple, pad: str) -> None:
    """Append the text of ``value`` to ``out``; ``pad`` is the line break
    and indentation of the line it starts on."""
    _, step, sep, sort_keys = layout
    if isinstance(value, DiffPolynomial):
        return _write_poly(out, value, layout, pad)
    if isinstance(value, DiffOperator):
        value = {"order": value.order if value else None, "coefficients": value.coefficients()}
    elif isinstance(value, AlmostCommutingResult):
        value = dict(format_version=FORMAT_VERSION, n=value.n, m=value.m, P=value.P, H=value.H)
    if isinstance(value, dict):
        keys = sorted(value) if sort_keys else value
        items, brackets = [(json.dumps(key) + ": ", value[key]) for key in keys], "{}"
    elif isinstance(value, (list, tuple)):
        items, brackets = [("", item) for item in value], "[]"
    else:
        return out.append(json.dumps(value))
    inner = pad + step
    lead = brackets[0] + inner
    for key_text, item in items:
        out.append(lead + key_text)
        _write(out, item, layout, inner)
        lead = sep + inner
    out.append(pad + brackets[1] if items else brackets)


def _write_poly(out: list, p: DiffPolynomial, layout: tuple, pad: str) -> None:
    """One fragment per term, with fixed glue.  Each distinct factor is
    written once per call; a coefficient's text is digits, ``-`` and ``/``
    only, so it needs no escaping."""
    _, step, sep, _ = layout
    pad1, pad2, pad3 = pad + step, pad + 2 * step, pad + 3 * step
    between = sep + pad3
    lead = "[" + pad1
    for factors, num, den in p.sorted_terms(
        lambda vid, exp: _text(_factor_to_json(vid, exp), layout, pad3)
    ):
        monomial = f"{pad3}{between.join(factors)}{pad2}" if factors else ""
        out.append(
            f'{lead}{{{pad2}"coeff": "{ratio_text(num, den)}"{sep}'
            f'{pad2}"monomial": [{monomial}]{pad1}}}'
        )
        lead = sep + pad1
    out.append(pad + "]" if p else "[]")


# -- LaTeX ------------------------------------------------------------------


def _coeff_latex(num: int, den: int) -> str:
    return str(num) if den == 1 else f"\\frac{{{num}}}{{{den}}}"


def _var_latex(vid) -> str:
    family, index, order = vid
    if family == C_FAMILY:
        return f"c_{{{index[0]},{index[1]}}}"
    name = f"{FAMILY_LETTERS[family]}_{{{index}}}" if index >= 10 else f"{FAMILY_LETTERS[family]}_{index}"
    if order == 0:
        return name
    if order <= 3:
        return name + "'" * order
    return f"{name}^{{({order})}}"


def factor_latex(vid, exp: int) -> str:
    base = _var_latex(vid)
    if exp == 1:
        return base
    if vid[2] == 0:
        return f"{base}^{exp}"
    return f"\\left({base}\\right)^{exp}"


def poly_latex(p: DiffPolynomial) -> str:
    return render_sum(p, _coeff_latex, factor_latex, " ", "")


def _d_latex(power: int) -> str:
    return "\\partial" if power == 1 else f"\\partial^{{{power}}}"


def operator_latex(op: DiffOperator) -> str:
    return render_terms(op._coeffs, poly_latex, _d_latex, "", ("\\left(", "\\right)"))


# -- dispatch ------------------------------------------------------------------


def render_poly(p: DiffPolynomial, fmt: str) -> str:
    if fmt == "json":
        return json_text(p, INDENTED)
    if fmt == "latex":
        return poly_latex(p)
    if fmt == "text":
        return str(p)
    raise ValueError(f"unknown format: {fmt}")


def render_operator(op: DiffOperator, fmt: str) -> str:
    if fmt == "json":
        return json_text(op, INDENTED)
    if fmt == "latex":
        return operator_latex(op)
    if fmt == "text":
        return str(op)
    raise ValueError(f"unknown format: {fmt}")
