"""Slow reference readers of the signed-term polynomial text.

These are ``polynomials.parse_polynomial`` and ``genpoly.parse_genpoly``
as they were before ``SparsePoly`` had one reader: the integer reader
splits the text before every sign and matches each chunk, and the
generalized reader splits at the signs outside braces with a brace-depth
scanner and matches each chunk on its own.
"""

import re

from wordeq import GenPoly, InputFormatError, IntPolynomial
from wordeq.genpoly import LinForm, parse_linform, zero_form

_TERM_RE = re.compile(r"^(\d+)?\s*(X(?:\^(\d+))?)?$")
_GP_TERM = re.compile(r"^(\d+)?(?:X\^\{([^}]*)\})?$")


def parse_polynomial(text: str) -> IntPolynomial:
    """Parse the rendering produced by IntPolynomial.to_text."""
    text = text.replace("−", "-").strip()
    if not text:
        raise InputFormatError("empty polynomial text")
    if text == "0":
        return IntPolynomial()
    # split into signed terms at top level
    chunks = re.split(r"(?=[+-])", text.replace(" ", ""))
    terms = []
    for chunk in chunks:
        if not chunk:
            continue
        sign = 1
        body = chunk
        if body[0] == "+":
            body = body[1:]
        elif body[0] == "-":
            sign = -1
            body = body[1:]
        m = _TERM_RE.match(body)
        if not m or (m.group(1) is None and m.group(2) is None):
            raise InputFormatError(f"cannot parse polynomial term {chunk!r}")
        coeff = int(m.group(1)) if m.group(1) else 1
        if m.group(2) is None:
            deg = 0
        elif m.group(3) is None:
            deg = 1
        else:
            deg = int(m.group(3))
        terms.append((deg, sign * coeff))
    return IntPolynomial(terms)


def _split_signed_terms(text: str):
    """Signed top-level chunks; plus and minus inside braces do not split."""
    out = []
    i, size = 0, len(text)
    while i < size:
        while i < size and text[i].isspace():
            i += 1
        sign = 1
        if i < size and text[i] in "+-":
            sign = 1 if text[i] == "+" else -1
            i += 1
            while i < size and text[i].isspace():
                i += 1
        start, depth = i, 0
        while i < size:
            ch = text[i]
            if ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                if depth < 0:
                    raise InputFormatError("unbalanced braces")
            elif ch in "+-" and depth == 0:
                break
            i += 1
        if depth != 0:
            raise InputFormatError("unbalanced braces")
        term = text[start:i].strip()
        if not term:
            raise InputFormatError("dangling sign in generalized polynomial")
        out.append((sign, term))
    return out


def parse_genpoly(text: str, n: int) -> GenPoly:
    """Parse the rendering produced by GenPoly.to_text."""
    text = text.replace("−", "-").strip()
    if not text:
        raise InputFormatError("empty generalized polynomial text")
    if text == "0":
        return GenPoly(n)
    terms: list[tuple[LinForm, int]] = []
    for sign, chunk in _split_signed_terms(text):
        m = _GP_TERM.match(chunk.replace(" ", ""))
        if not m or (m.group(1) is None and m.group(2) is None):
            raise InputFormatError(f"cannot parse term {chunk!r}")
        coeff = int(m.group(1)) if m.group(1) else 1
        form = parse_linform(m.group(2), n) if m.group(2) is not None else zero_form(n)
        terms.append((form, sign * coeff))
    return GenPoly(n, terms)
