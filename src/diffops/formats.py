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

The ``json`` render of a polynomial, an operator or a flow equation is
byte-identical to ``json.dumps(..., indent=2)`` of its encoding, but
``poly_json_text`` writes it from the sorted terms with fixed glue and
renders each distinct factor once.  The stdlib runs its C encoder only for
a one-shot ``dumps`` without ``indent``; with ``indent`` (or through
``dump``) every list and dict of the payload goes through its pure-Python
encoder, several times slower on a large result.
"""

from __future__ import annotations

import json
import re
from math import gcd, lcm

from .basis import AlmostCommutingResult
from .operators import DiffOperator, render_terms
from .polynomials import (
    C_FAMILY,
    DiffPolynomial,
    FAMILY_LETTERS,
    U_FAMILY,
    VarId,
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
    in canonical order.

    Each distinct factor is encoded once per call, so terms that share a
    factor share its list: copy a term before editing it in place.
    """
    factors = {}
    terms = []
    for mono, num, den in p.sorted_num_den():
        monomial = []
        for factor in mono:
            encoded = factors.get(factor)
            if encoded is None:
                encoded = factors[factor] = _factor_to_json(*factor)
            monomial.append(encoded)
        terms.append({"coeff": ratio_text(num, den), "monomial": monomial})
    return terms


def _list_text(items: list, depth: int) -> str:
    """An indent=2 JSON array of already-rendered items, nested ``depth``
    levels deep in its document."""
    if not items:
        return "[]"
    pad = "\n" + "  " * depth
    inner = pad + "  "
    return "[" + inner + ("," + inner).join(items) + pad + "]"


def json_object_text(fields: dict) -> str:
    """An indent=2 JSON object at the top of its document, from its keys
    and their values already rendered one level deep."""
    body = ",".join(f"\n  {json.dumps(key)}: {value}" for key, value in fields.items())
    return "{" + body + "\n}"


def poly_json_text(p: DiffPolynomial, depth: int = 0) -> str:
    """``json.dumps(poly_to_json(p), indent=2)`` byte for byte, nested
    ``depth`` levels deep in its document.

    Each distinct factor is rendered once per call and re-padded to the
    depth of its monomial.  A coefficient's text is digits, ``-`` and ``/``
    only, so it needs no escaping.
    """
    pad = "  " * depth
    factor_pad = f"\n{pad}      "
    blocks = {}
    terms = []
    for mono, num, den in p.sorted_num_den():
        factors = []
        for factor in mono:
            block = blocks.get(factor)
            if block is None:
                text = json.dumps(_factor_to_json(*factor), indent=2)
                block = blocks[factor] = text.replace("\n", factor_pad)
            factors.append(block)
        terms.append(
            f'{{\n{pad}    "coeff": "{ratio_text(num, den)}",'
            f'\n{pad}    "monomial": {_list_text(factors, depth + 2)}\n{pad}  }}'
        )
    return _list_text(terms, depth)


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
    polynomial.
    """
    return _poly_from_json(data, {})


def _poly_from_json(data: list, factors: dict) -> DiffPolynomial:
    """``poly_from_json`` with a factor memo (raw factor -> ``(VarId, exp)``)
    that the caller may share across polynomials."""
    coeffs = {}
    terms = {}
    for term in data:
        mono = []
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
                factor = factors[key] = (VarId(_LETTER_TO_FAMILY[letter], index, order), exp)
            mono.append(factor)
        mono = tuple(sorted(mono))
        if len(dict(mono)) != len(mono):
            raise ValueError(f"repeated variable in monomial: {term['monomial']!r}")
        text = term["coeff"]
        coeff = coeffs.get(text)
        if coeff is None:
            coeff = coeffs[text] = parse_coeff(text)
        terms[mono] = coeff
    if len(terms) != len(data):
        raise ValueError("repeated monomial")
    den = lcm(*(d for _, d in terms.values()))
    return DiffPolynomial.from_nums({m: n * (den // d) for m, (n, d) in terms.items()}, den)


def operator_to_json(op: DiffOperator) -> dict:
    if op.is_zero():
        return {"order": None, "coefficients": []}
    return {
        "order": op.order,
        "coefficients": [poly_to_json(c) for c in op.coefficients()],
    }


def operator_from_json(data: dict) -> DiffOperator:
    return DiffOperator.from_coeffs(
        poly_from_json(entry) for entry in data["coefficients"]
    )


def result_to_json(result: AlmostCommutingResult) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "n": result.n,
        "m": result.m,
        "P": operator_to_json(result.P),
        "H": [poly_to_json(h) for h in result.H],
    }


def result_from_json(data: dict) -> AlmostCommutingResult:
    """The result of a ``result_to_json`` payload.  Besides what
    ``poly_from_json`` refuses, ValueError for another format version, a
    ``P`` order other than its coefficient count - 1, a zero top ``P``
    coefficient, an ``H`` count other than n - 1 and a factor other than u
    (checked once per distinct factor: all polynomials share one memo)."""
    n, P, H = data["n"], data["P"], data["H"]
    coeffs = P["coefficients"]
    if data["format_version"] != FORMAT_VERSION or len(H) != n - 1:
        raise ValueError("inconsistent result payload")
    if P["order"] != len(coeffs) - 1 or not coeffs or not coeffs[-1]:
        raise ValueError("non-canonical P")
    factors: dict = {}
    polys = [_poly_from_json(p, factors) for p in coeffs + H]
    if any(vid[0] != U_FAMILY for vid, _ in factors.values()):
        raise ValueError("a result holds polynomials in u only")
    return AlmostCommutingResult(
        n=n,
        m=data["m"],
        P=DiffOperator.from_coeffs(polys[: len(coeffs)]),
        H=tuple(polys[len(coeffs) :]),
    )


def canonical_json_bytes(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


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


def mono_latex(mono) -> str:
    if not mono:
        return "1"
    parts = []
    for vid, exp in mono:
        base = _var_latex(vid)
        if exp == 1:
            parts.append(base)
        elif vid[2] == 0:
            parts.append(f"{base}^{exp}")
        else:
            parts.append(f"\\left({base}\\right)^{exp}")
    return " ".join(parts)


def poly_latex(p: DiffPolynomial) -> str:
    return render_sum(p, _coeff_latex, mono_latex, "")


def _d_latex(power: int) -> str:
    return "\\partial" if power == 1 else f"\\partial^{{{power}}}"


def operator_latex(op: DiffOperator) -> str:
    return render_terms(op._coeffs, poly_latex, _d_latex, "", ("\\left(", "\\right)"))


# -- dispatch ------------------------------------------------------------------


def render_poly(p: DiffPolynomial, fmt: str) -> str:
    if fmt == "json":
        return poly_json_text(p)
    if fmt == "latex":
        return poly_latex(p)
    if fmt == "text":
        return str(p)
    raise ValueError(f"unknown format: {fmt}")


def render_operator(op: DiffOperator, fmt: str) -> str:
    if fmt == "json":
        coeffs = [poly_json_text(c, 2) for c in op.coefficients()]
        return json_object_text(
            {
                "order": json.dumps(op.order if coeffs else None),
                "coefficients": _list_text(coeffs, 1),
            }
        )
    if fmt == "latex":
        return operator_latex(op)
    if fmt == "text":
        return str(op)
    raise ValueError(f"unknown format: {fmt}")
