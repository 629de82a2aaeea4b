"""Text format for polynomials: parse and print, round-trip safe.

Grammar, by example::

    u^3*v - 33*u^8*v^4
    27*x1^5 + 25*s5*x2^3 + 4*x3^2
    3/2*i*s10*u^2 - v

Terms are joined by + and -.  A term is a '*'-separated product of factors:
an integer or fraction, the coefficient symbols i, s2, s5, s10, and variables
with optional caret exponents.  Coefficients with several basis components
are printed as separate terms (one per basis symbol), so everything printed
stays inside this grammar.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import compress
from math import gcd
from typing import Dict, Sequence, Tuple

from .ring import BASIS_SYMBOLS, ExactScalar
from .poly import BivariatePoly, MultiPoly, grlex_key

_SYMBOL_VALUES = {
    "i": ExactScalar.basis_element(1),
    "s2": ExactScalar.basis_element(2),
    "s5": ExactScalar.basis_element(3),
    "s10": ExactScalar.basis_element(6),
}

# ASCII digits only: int() would read any script's digits
_RATIONAL_RE = re.compile(r"^(\d+)(?:/(\d+))?$", re.ASCII)
_VAR_RE = re.compile(r"^([A-Za-z]\w*?)(?:\^(\d+))?$", re.ASCII)


def _split_terms(text: str):
    """Split on top-level + and -, yielding (sign, term_text) pairs."""
    text = text.strip()
    if not text:
        raise ValueError("empty polynomial text")
    terms = []
    sign = None  # the operator before the current term, None before any
    token = []
    for ch in text:
        if ch in "+-":
            chunk = "".join(token).strip()
            if chunk:
                terms.append((sign or 1, chunk))
            elif sign is not None:  # two operators with no term between
                raise ValueError(f"dangling operator in {text!r}")
            sign = 1 if ch == "+" else -1
            token = []
        else:
            token.append(ch)
    chunk = "".join(token).strip()
    if not chunk:
        raise ValueError(f"dangling operator in {text!r}")
    terms.append((sign or 1, chunk))
    return terms


def parse_terms(text: str, variables: Sequence[str]) -> Dict[tuple, ExactScalar]:
    """Parse into exponent-vector -> coefficient over the given variables."""
    var_index = {name: k for k, name in enumerate(variables)}
    acc: Dict[tuple, ExactScalar] = {}
    for sign, term in _split_terms(text):
        coeff = ExactScalar.rational(sign)
        exponents = [0] * len(variables)
        for factor in term.split("*"):
            factor = factor.strip()
            if not factor:
                raise ValueError(f"empty factor in {term!r}")
            m = _RATIONAL_RE.match(factor)
            if m:
                num, den = m.groups()
                den = int(den or 1)
                if not den:
                    raise ValueError(f"zero denominator in {term!r}")
                coeff = coeff * Fraction(int(num), den)
                continue
            if factor in _SYMBOL_VALUES:
                coeff = coeff * _SYMBOL_VALUES[factor]
                continue
            m = _VAR_RE.match(factor)
            if m and m.group(1) in var_index:
                exponents[var_index[m.group(1)]] += int(m.group(2) or 1)
                continue
            raise ValueError(f"cannot parse factor {factor!r} in {term!r}")
        key = tuple(exponents)
        previous = acc.get(key)
        acc[key] = coeff if previous is None else previous + coeff
    return acc


def parse_bivariate(text: str) -> BivariatePoly:
    return BivariatePoly(parse_terms(text, ("u", "v")))


def _multi_variables(count: int) -> Tuple[str, ...]:
    return tuple(f"x{k + 1}" for k in range(count))


def parse_multi(text: str, weights: Sequence[int]) -> MultiPoly:
    return MultiPoly(len(weights), weights, parse_terms(text, _multi_variables(len(weights))))


class _NumberedVariables:
    """The names x1, x2, ... of a MultiPoly's variables, each made only
    when a printed monomial reads it."""

    def __getitem__(self, k: int) -> str:
        return f"x{k + 1}"


def _monomial_text(exponent: Sequence[int], variables: Sequence[str]) -> str:
    pieces = []
    for k in compress(range(len(exponent)), exponent):  # the nonzero exponents
        e = exponent[k]
        pieces.append(variables[k] if e == 1 else f"{variables[k]}^{e}")
    return "*".join(pieces)


def format_terms(terms: Dict[tuple, ExactScalar], variables: Sequence[str]) -> str:
    """Render terms in descending graded-lex order, one printed term per
    nonzero basis component of each coefficient."""
    printed = []
    for exponent in sorted(terms, key=grlex_key, reverse=True):
        coeff = terms[exponent]
        den = coeff.den
        monomial = _monomial_text(exponent, variables)
        for numerator, symbol in zip(coeff.num, BASIS_SYMBOLS):
            if numerator == 0:
                continue
            sign = "-" if numerator < 0 else "+"
            # the magnitude |numerator| / den in lowest terms
            top = abs(numerator)
            g = gcd(top, den)
            top, bottom = top // g, den // g
            pieces = []
            if bottom != 1:
                pieces.append(f"{top}/{bottom}")
            elif top != 1 or (not symbol and not monomial):
                pieces.append(str(top))
            if symbol:
                pieces.append(symbol)
            if monomial:
                pieces.append(monomial)
            printed.append((sign, "*".join(pieces)))
    if not printed:
        return "0"
    first_sign, first_body = printed[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in printed[1:]:
        out += f" {sign} {body}"
    return out


def format_bivariate(p: BivariatePoly) -> str:
    return format_terms(p.terms, ("u", "v"))


def format_multi(p: MultiPoly) -> str:
    return format_terms(p.terms, _NumberedVariables())
