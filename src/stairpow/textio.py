"""Text formats for bivariate monomial ideals.

Two input forms are accepted:

* term lists -- monomials like ``x^3*y^2`` (also ``x``, ``y``, ``x^3``,
  ``x^3 y^2``, ``1``) separated by ``+``, ``;`` or newlines;
* compact pair lists -- ``[(3, 2), (0, 5)]``.

Serialization always emits the canonical sorted pair list.  Parse errors
carry the character position of the offending input where there is one.
"""

from __future__ import annotations

import ast
import re

from .ideals import Monomial, MonomialIdeal, minimalize


class ParseError(ValueError):
    """Invalid ideal text; ``position`` is the 0-based character offset or None."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message if position is None else f"{message} (at position {position})")
        self.position = position


_TERM = re.compile(
    r"""^\s*
        (?: (?P<one>1)
          | (?P<x>x(?:\^(?P<xa>\d+))?)
            (?:\s*\*\s*|\s+)?
            (?P<y>y(?:\^(?P<yb>\d+))?)?
          | (?P<ylone>y(?:\^(?P<yb2>\d+))?)
        )
        \s*$""",
    re.VERBOSE,
)


def _parse_term(text: str, offset: int) -> Monomial:
    m = _TERM.match(text)
    if not m:
        bad = offset + (len(text) - len(text.lstrip()))
        raise ParseError(f"cannot parse monomial {text.strip()!r}", bad)
    if m.group("one"):
        return (0, 0)
    a = b = 0
    if m.group("x"):
        a = int(m.group("xa")) if m.group("xa") else 1
    if m.group("y"):
        b = int(m.group("yb")) if m.group("yb") else 1
    if m.group("ylone"):
        b = int(m.group("yb2")) if m.group("yb2") else 1
    return (a, b)


def _parse_pair_list(text: str) -> MonomialIdeal:
    try:
        value = ast.literal_eval(text.strip())
    except (SyntaxError, ValueError) as exc:
        pos = getattr(exc, "offset", None)  # a ValueError has none
        if pos is not None:  # from the error's line and column to an offset into the text as given
            lines = re.findall(r"[^\r\n]*(?:\r\n|\r|\n)", text.lstrip())[: exc.lineno - 1]
            pos = len(text) - len(text.lstrip()) + sum(map(len, lines)) + max(pos - 1, 0)
        raise ParseError("malformed pair list", pos) from None
    if not isinstance(value, (list, tuple)) or not value:
        raise ParseError("pair list must be a non-empty sequence")
    pairs = []
    for item in value:
        if (
            not isinstance(item, (list, tuple))
            or len(item) != 2
            or not all(type(c) is int and c >= 0 for c in item)  # no bool
        ):
            raise ParseError(f"invalid exponent pair {item!r}")
        pairs.append((item[0], item[1]))
    return minimalize(pairs)


def parse_ideal(text: str) -> MonomialIdeal:
    """Parse either accepted text form into a canonical ideal."""
    stripped = text.strip()
    if not stripped:
        raise ParseError("empty ideal text")
    if stripped.startswith(("[", "(")):
        return _parse_pair_list(text)
    terms: list[Monomial] = []
    offset = 0
    for chunk in re.split(r"(?=[+;\n])", text):
        piece = chunk.lstrip("+;\n")
        offset_piece = offset + (len(chunk) - len(piece))
        if piece.strip():
            terms.append(_parse_term(piece, offset_piece))
        offset += len(chunk)
    if not terms:
        raise ParseError("no monomials found")
    return minimalize(terms)


def serialize(ideal: MonomialIdeal) -> str:
    """The canonical pair-list form, inverse of :func:`parse_ideal`."""
    return str(ideal)


def format_term(m: Monomial) -> str:
    a, b = m
    if a == 0 and b == 0:
        return "1"
    parts = []
    if a:
        parts.append("x" if a == 1 else f"x^{a}")
    if b:
        parts.append("y" if b == 1 else f"y^{b}")
    return "*".join(parts)


def serialize_terms(ideal: MonomialIdeal) -> str:
    return " + ".join(format_term(g) for g in ideal.gens)
