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
    VarId,
    ratio_text,
    render_sum,
)

FORMAT_VERSION = 1

_LETTER_TO_FAMILY = {letter: fam for fam, letter in enumerate(FAMILY_LETTERS)}
_COEFF_RE = re.compile(r"(-?[1-9][0-9]*)(?:/([1-9][0-9]*))?")


# -- JSON ----------------------------------------------------------------


def poly_to_json(p: DiffPolynomial) -> list:
    out = []
    for mono, num, den in p.sorted_num_den():
        encoded = []
        for vid, exp in mono:
            family, index, order = vid
            if family == C_FAMILY:
                index = [index[0], index[1]]
            encoded.append([FAMILY_LETTERS[family], index, order, exp])
        out.append({"coeff": ratio_text(num, den), "monomial": encoded})
    return out


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
    terms = {}
    for term in data:
        mono = []
        for letter, index, order, exp in term["monomial"]:
            family = _LETTER_TO_FAMILY[letter]
            if family == C_FAMILY:
                index = (index[0], index[1])
            mono.append((VarId(family, index, order), exp))
        terms[tuple(sorted(mono))] = parse_coeff(term["coeff"])
    den = lcm(*(d for _, d in terms.values()))
    return DiffPolynomial.from_nums({m: n * (den // d) for m, (n, d) in terms.items()}, den)


def operator_to_json(op: DiffOperator) -> dict:
    if op.is_zero():
        return {"order": None, "coefficients": []}
    return {
        "order": op.order,
        "coefficients": [
            poly_to_json(op.coefficient_at(i)) for i in range(op.order + 1)
        ],
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
    return AlmostCommutingResult(
        n=data["n"],
        m=data["m"],
        P=operator_from_json(data["P"]),
        H=tuple(poly_from_json(h) for h in data["H"]),
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
    terms = dict(enumerate(op.coefficients()))
    return render_terms(terms, poly_latex, _d_latex, "", ("\\left(", "\\right)"))


# -- dispatch ------------------------------------------------------------------


def render_poly(p: DiffPolynomial, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(poly_to_json(p), indent=2)
    if fmt == "latex":
        return poly_latex(p)
    if fmt == "text":
        return str(p)
    raise ValueError(f"unknown format: {fmt}")


def render_operator(op: DiffOperator, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(operator_to_json(op), indent=2)
    if fmt == "latex":
        return operator_latex(op)
    if fmt == "text":
        return str(op)
    raise ValueError(f"unknown format: {fmt}")
