"""Plain-text ideal files.

Grammar (UTF-8, LF):

    ring N p [name_1 ... name_N]     header; default names x1..xN
    ! key value                      optional metadata lines
    <polynomial>                     one homogeneous generator per line

A polynomial is a +/- separated list of terms; a term is an optional integer
coefficient and '*'-separated variable powers, e.g. ``3*x^2*y - z^3``.
Blank lines and ``#`` comments are skipped.  Parsing validates homogeneity
per generator and reduces coefficients mod p; printing is canonical, so
parse -> print -> parse is the identity.
"""

from __future__ import annotations

import re

from .groebner import Ideal
from .polyring import GREVLEX, Poly, PolyRing, format_poly


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int = 0):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|(\^)|(\*)|(\+)|(-))")


def _parse_poly(text: str, ring: PolyRing, var_index: dict[str, int], lineno: int) -> Poly:
    pos = 0
    n = len(text)
    terms: dict[tuple[int, ...], int] = {}
    sign: int | None = None  # sign consumed for the next term
    expect_term = True

    def error(msg: str, at: int):
        raise ParseError(msg, lineno, at + 1)

    def next_token(at: int):
        if text[at:].strip() == "":
            return None, at
        m = _TOKEN.match(text, at)
        if not m:
            error(f"unexpected character {text[at:].lstrip()[0]!r}", at)
        return m, m.end()

    while True:
        m, pos = next_token(pos)
        if m is None:
            break
        kind = m.lastindex
        tokpos = m.start(kind)
        if kind in (5, 6):  # '+' or '-'
            if sign is not None:
                error("two consecutive signs", tokpos)
            sign = 1 if kind == 5 else -1
            expect_term = True
            continue
        if not expect_term:
            error("missing '+' or '-' between terms", tokpos)
        # a term: integer coefficient and/or '*'-joined variable powers
        coeff = 1
        exps = [0] * ring.nvars
        while True:
            if kind == 1:
                coeff *= int(m.group(1))
            elif kind == 2:
                name = m.group(2)
                if name not in var_index:
                    error(f"unknown variable {name!r}", tokpos)
                power = 1
                mm = _TOKEN.match(text, pos)
                if mm and mm.lastindex == 3:  # '^'
                    pos = mm.end()
                    me = _TOKEN.match(text, pos)
                    if not me or me.lastindex != 1:
                        error("exponent expected after '^'", pos)
                    power = int(me.group(1))
                    pos = me.end()
                exps[var_index[name]] += power
            else:
                error("term expected", tokpos)
            nxt = _TOKEN.match(text, pos)
            if not nxt or nxt.lastindex != 4:  # not '*': the term ends
                break
            pos = nxt.end()
            m, pos2 = next_token(pos)
            if m is None or m.lastindex in (3, 4, 5, 6):
                error("factor expected after '*'", pos)
            pos = pos2
            kind = m.lastindex
            tokpos = m.start(kind)
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + (sign if sign is not None else 1) * coeff
        sign = None
        expect_term = False
    if sign is not None:
        raise ParseError("dangling sign at end of polynomial", lineno, len(text))
    return Poly(ring, terms)


def parse_ideal(text: str) -> tuple[Ideal, dict]:
    """Parse an ideal file; returns (Ideal, metadata dict)."""
    lines = text.splitlines()
    header = None
    header_line = 0
    for i, raw in enumerate(lines):
        stripped = raw.strip()
        if stripped and not stripped.startswith("#"):
            header = stripped
            header_line = i
            break
    if header is None:
        raise ParseError("empty file: missing 'ring N p' header", 1)
    parts = header.split()
    if parts[0] != "ring" or len(parts) < 3:
        raise ParseError("header must be 'ring N p [names...]'", header_line + 1)
    try:
        nvars, prime = int(parts[1]), int(parts[2])
    except ValueError:
        raise ParseError("N and p must be integers", header_line + 1)
    names = tuple(parts[3:])
    if names and len(names) != nvars:
        raise ParseError(f"expected {nvars} variable names, got {len(names)}", header_line + 1)
    for nm in names:
        if not _NAME.fullmatch(nm):
            raise ParseError(f"bad variable name {nm!r}", header_line + 1)
    try:
        ring = PolyRing(nvars, prime, names)
    except ValueError as exc:  # the variable count or the characteristic
        raise ParseError(str(exc), header_line + 1)
    var_index = {nm: i for i, nm in enumerate(ring.names)}

    meta: dict = {}
    gens: list[Poly] = []
    for i, raw in enumerate(lines[header_line + 1:], start=header_line + 2):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("!"):
            fields = stripped[1:].split()
            if len(fields) >= 2:
                key, value = fields[0], " ".join(fields[1:])
                if value.lower() in ("true", "false"):
                    meta[key] = value.lower() == "true"
                else:
                    try:
                        meta[key] = int(value)
                    except ValueError:
                        meta[key] = value
            continue
        f = _parse_poly(stripped, ring, var_index, i)
        if f.is_zero:
            raise ParseError("zero generator", i)
        if not f.is_homogeneous():
            raise ParseError("inhomogeneous generator", i)
        gens.append(f)
    return Ideal(ring, gens), meta


def format_ideal(I: Ideal, meta: dict | None = None) -> str:
    """Canonical text form; parse(format_ideal(I)) == I."""
    ring = I.ring
    lines = [f"ring {ring.nvars} {ring.char} " + " ".join(ring.names)]
    for key in sorted(meta or {}):
        value = (meta or {})[key]
        if isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"! {key} {value}")
    for g in I.gens:
        lines.append(format_poly(g, GREVLEX))
    return "\n".join(lines) + "\n"
