"""Master-file (RFC 1035 section 5) zone parsing — the practical subset.

Supports the constructs experiment zones actually use:

* ``$ORIGIN`` and ``$TTL`` directives;
* relative and absolute owner names, ``@`` for the origin, blank owner
  meaning "previous owner";
* optional per-record TTL and class (``IN`` only);
* A, AAAA, NS, CNAME, PTR, MX, TXT and SOA records (SOA may span lines
  with parentheses);
* comments (``;``) and quoted TXT strings.

>>> zone = parse_zone('''
... $ORIGIN example.com.
... $TTL 300
... @   IN SOA ns1 hostmaster 1 3600 600 86400 60
...     IN NS  ns1
... ns1 IN A   203.0.113.53
... www 60 IN A 203.0.113.80
... ''')
>>> zone.origin.to_text()
'example.com.'
"""

from __future__ import annotations

import re
import shlex
from typing import List, Optional, Tuple

from .constants import RecordType
from .errors import ZoneError
from .name import Name
from .rdata import A, AAAA, CNAME, MX, NS, PTR, SOA, TXT, Rdata
from .zone import Zone

_DIRECTIVE = re.compile(r"^\$(ORIGIN|TTL)\s+(\S+)", re.IGNORECASE)


def _strip_comment(line: str) -> str:
    """Remove a ``;`` comment, respecting double-quoted strings."""
    out = []
    in_quote = False
    for ch in line:
        if ch == '"':
            in_quote = not in_quote
        if ch == ";" and not in_quote:
            break
        out.append(ch)
    return "".join(out)


def _join_parentheses(lines: List[str]) -> List[str]:
    """Merge multi-line records grouped with ( ... ) into single lines.

    Leading whitespace of each record's *first* physical line is preserved:
    it signals "reuse the previous owner name" in master-file syntax.
    """
    merged: List[str] = []
    buffer = ""
    depth = 0
    for line in lines:
        cleaned = _strip_comment(line)
        depth += cleaned.count("(") - cleaned.count(")")
        if depth < 0:
            raise ZoneError("unbalanced ')' in zone file")
        if buffer:
            buffer += " " + cleaned.strip()
        else:
            buffer = cleaned.rstrip()
        if depth == 0:
            if buffer.strip():
                merged.append(buffer.replace("(", " ").replace(")", " ")
                              .rstrip())
            buffer = ""
    if depth != 0:
        raise ZoneError("unbalanced '(' in zone file")
    return merged


def _parse_ttl(token: str) -> Optional[int]:
    """Parse a TTL, allowing 1m/1h/1d/1w suffixes; None if not a TTL."""
    match = re.fullmatch(r"(\d+)([smhdw]?)", token.lower())
    if not match:
        return None
    value = int(match.group(1))
    scale = {"": 1, "s": 1, "m": 60, "h": 3600, "d": 86400,
             "w": 604800}[match.group(2)]
    return value * scale


class _ZoneFileParser:
    def __init__(self, text: str, origin: Optional[str], default_ttl: int):
        self.origin = Name.from_text(origin) if origin else None
        self.default_ttl = default_ttl
        self.last_owner: Optional[Name] = None
        raw_lines = text.splitlines()
        self.lines = _join_parentheses(raw_lines)

    def _absolute(self, token: str) -> Name:
        if self.origin is None:
            raise ZoneError("no $ORIGIN and no origin argument")
        if token == "@":
            return self.origin
        name = Name.from_text(token)
        if token.endswith("."):
            return name
        return name.concatenate(self.origin)

    def _parse_rdata(self, rdtype: RecordType, tokens: List[str]) -> Rdata:
        if rdtype == RecordType.A:
            return A(tokens[0])
        if rdtype == RecordType.AAAA:
            return AAAA(tokens[0])
        if rdtype == RecordType.NS:
            return NS(self._absolute(tokens[0]))
        if rdtype == RecordType.CNAME:
            return CNAME(self._absolute(tokens[0]))
        if rdtype == RecordType.PTR:
            return PTR(self._absolute(tokens[0]))
        if rdtype == RecordType.MX:
            return MX(int(tokens[0]), self._absolute(tokens[1]))
        if rdtype == RecordType.TXT:
            return TXT(tuple(t.encode("utf-8") for t in tokens))
        if rdtype == RecordType.SOA:
            if len(tokens) != 7:
                raise ZoneError(f"SOA needs 7 fields, got {len(tokens)}")
            numbers = [_parse_ttl(t) for t in tokens[2:]]
            if any(n is None for n in numbers):
                raise ZoneError(f"bad SOA numeric field in {tokens[2:]}")
            return SOA(self._absolute(tokens[0]), self._absolute(tokens[1]),
                       *numbers)  # type: ignore[arg-type]
        raise ZoneError(f"unsupported record type {rdtype}")

    def parse(self) -> Zone:
        records: List[Tuple[Name, RecordType, Rdata, int]] = []
        for line in self.lines:
            directive = _DIRECTIVE.match(line)
            if directive:
                keyword, value = directive.group(1).upper(), directive.group(2)
                if keyword == "ORIGIN":
                    self.origin = Name.from_text(value)
                else:
                    ttl = _parse_ttl(value)
                    if ttl is None:
                        raise ZoneError(f"bad $TTL {value}")
                    self.default_ttl = ttl
                continue

            starts_with_space = line[:1].isspace() if line else False
            try:
                tokens = shlex.split(line)
            except ValueError as exc:
                raise ZoneError(f"unparseable line {line!r}") from exc
            if not tokens:
                continue

            if starts_with_space:
                owner = self.last_owner
                if owner is None:
                    raise ZoneError("record with blank owner before any "
                                    "owner was set")
            else:
                owner = self._absolute(tokens.pop(0))
            self.last_owner = owner

            ttl = self.default_ttl
            # TTL and class may appear in either order before the type.
            for _ in range(2):
                if not tokens:
                    break
                candidate = tokens[0]
                maybe_ttl = _parse_ttl(candidate)
                if maybe_ttl is not None:
                    ttl = maybe_ttl
                    tokens.pop(0)
                elif candidate.upper() == "IN":
                    tokens.pop(0)
                else:
                    break
            if not tokens:
                raise ZoneError(f"record for {owner} has no type")
            try:
                rdtype = RecordType.from_text(tokens.pop(0))
            except ValueError as exc:
                raise ZoneError(str(exc)) from exc
            rdata = self._parse_rdata(rdtype, tokens)
            records.append((owner, rdtype, rdata, ttl))

        if self.origin is None:
            raise ZoneError("zone file defines no origin")
        zone = Zone(self.origin, default_ttl=self.default_ttl)
        for owner, rdtype, rdata, ttl in records:
            zone.add(owner, rdtype, rdata, ttl)
        return zone


def parse_zone(text: str,  # repro-lint: disable=RS008 (master-file zone parsing, a substrate feature EXPERIMENTS.md lists)
               origin: Optional[str] = None,
               default_ttl: int = 300) -> Zone:
    """Parse master-file ``text`` into a :class:`~repro.dnslib.zone.Zone`.

    ``origin`` seeds the origin when the file lacks a leading ``$ORIGIN``.
    """
    return _ZoneFileParser(text, origin, default_ttl).parse()

