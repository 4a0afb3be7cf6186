"""Recursive-descent parser for the query language (Definition 5).

Concrete syntax (whitespace-insensitive except as a concatenation
separator)::

    query       := '<' label-regex '>' link-regex '<' label-regex '>' INT
    label-regex := regular expression over label atoms
    link-regex  := regular expression over link atoms

Regex combinators, in increasing precedence: union ``|``, concatenation
(juxtaposition), postfix ``*`` / ``+`` / ``?``, parentheses.

Label atoms: ``ip`` / ``mpls`` / ``smpls`` class abbreviations, literal
labels (``s40``, ``$449550``), bracketed lists ``[s10, s11]`` (optionally
negated: ``[^s10]``), and the wildcard ``.``.

Link atoms: ``[v#u]`` with ``.`` wildcards on either side, optional
interface qualifiers (``[v0.ae1#v1.ae2]``), negation (``[^v2#v3]``), and
the bare wildcard ``.``.

The parser is context-aware (label vs. link position), which is what
lets ``.`` inside brackets belong to interface names while a bare ``.``
is a wildcard.
"""

from __future__ import annotations

import string
from typing import Any, Iterable, List, Optional, Tuple

from repro.errors import QuerySyntaxError
from repro.query.ast import Epsilon, Leaf, Option, Plus, Query, Regex, Repeat, Star, concat, union
from repro.query.atoms import AnyLabel, AnyLink, LabelAtom, LinkAtom, LinkEndpoint

_NAME_CHARS = frozenset(string.ascii_letters + string.digits + "$_-/:")
_LABEL_CLASSES = frozenset({"ip", "mpls", "smpls"})


class _Scanner:
    """Character-level scanner with position tracking for diagnostics."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def error(self, message: str) -> QuerySyntaxError:
        return QuerySyntaxError(
            f"{message} (at offset {self.pos} in {self.text!r})", self.pos
        )

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        """Next character after whitespace, or '' at end of input."""
        self.skip_ws()
        if self.pos >= len(self.text):
            return ""
        return self.text[self.pos]

    def peek_raw(self) -> str:
        """Next character without skipping whitespace."""
        if self.pos >= len(self.text):
            return ""
        return self.text[self.pos]

    def take(self) -> str:
        char = self.peek()
        if char:
            self.pos += 1
        return char

    def expect(self, char: str) -> None:
        if self.peek() != char:
            found = self.peek() or "end of input"
            raise self.error(f"expected {char!r}, found {found!r}")
        self.pos += 1

    def read_name(self, extra: str = "") -> str:
        """Read a maximal run of name characters (plus ``extra`` chars)."""
        self.skip_ws()
        allowed = _NAME_CHARS | set(extra)
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in allowed:
            self.pos += 1
        if self.pos == start:
            found = self.peek_raw() or "end of input"
            raise self.error(f"expected a name, found {found!r}")
        return self.text[start : self.pos]

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)


class QueryParser:
    """Parses query strings into :class:`repro.query.ast.Query` values."""

    def parse(self, text: str) -> Query:
        """Parse a full query ``<a> b <c> k``."""
        scanner = _Scanner(text)
        scanner.expect("<")
        initial = self._regex(scanner, label_context=True, stop=">")
        scanner.expect(">")
        path = self._regex(scanner, label_context=False, stop="<")
        scanner.expect("<")
        final = self._regex(scanner, label_context=True, stop=">")
        scanner.expect(">")
        max_failures = self._integer(scanner)
        if not scanner.at_end():
            raise scanner.error("trailing input after the failure bound")
        return Query(initial, path, final, max_failures)

    def parse_label_regex(self, text: str) -> Regex:
        """Parse a bare label regular expression (used by the CLI)."""
        scanner = _Scanner(text)
        regex = self._regex(scanner, label_context=True, stop="")
        if not scanner.at_end():
            raise scanner.error("trailing input after the expression")
        return regex

    def parse_link_regex(self, text: str) -> Regex:
        """Parse a bare link regular expression (used by the CLI)."""
        scanner = _Scanner(text)
        regex = self._regex(scanner, label_context=False, stop="")
        if not scanner.at_end():
            raise scanner.error("trailing input after the expression")
        return regex

    # ------------------------------------------------------------------
    # regex structure
    # ------------------------------------------------------------------
    def _regex(self, scanner: _Scanner, label_context: bool, stop: str) -> Regex:
        options: List[Regex] = [self._concat(scanner, label_context, stop)]
        while scanner.peek() == "|":
            scanner.take()
            options.append(self._concat(scanner, label_context, stop))
        return union(*options)

    def _concat(self, scanner: _Scanner, label_context: bool, stop: str) -> Regex:
        parts: List[Regex] = []
        while True:
            char = scanner.peek()
            if char == "" or char == "|" or char == ")" or (stop and char == stop):
                break
            parts.append(self._postfix(scanner, label_context, stop))
        return concat(*parts) if parts else Epsilon()

    def _postfix(self, scanner: _Scanner, label_context: bool, stop: str) -> Regex:
        regex = self._atom(scanner, label_context, stop)
        while True:
            # Postfix operators bind without intervening whitespace skipping
            # concerns; '<a>*' style is not valid at query top level anyway.
            char = scanner.peek()
            if char == "*":
                scanner.take()
                regex = Star(regex)
            elif char == "+":
                scanner.take()
                regex = Plus(regex)
            elif char == "?":
                scanner.take()
                regex = Option(regex)
            elif char == "{":
                regex = self._repetition(scanner, regex)
            else:
                return regex

    def _atom(self, scanner: _Scanner, label_context: bool, stop: str) -> Regex:
        char = scanner.peek()
        if char == "(":
            scanner.take()
            inner = self._regex(scanner, label_context, stop=")")
            scanner.expect(")")
            return inner
        if char == ".":
            scanner.take()
            return Leaf(AnyLabel()) if label_context else Leaf(AnyLink())
        if char == "[":
            if label_context:
                return Leaf(self._label_bracket(scanner))
            return Leaf(self._link_bracket(scanner))
        if label_context and (char in _NAME_CHARS):
            name = scanner.read_name()
            if name in _LABEL_CLASSES:
                return Leaf(LabelAtom(classes=frozenset({name})))
            return Leaf(LabelAtom(literals=(name,)))
        found = char or "end of input"
        raise scanner.error(f"unexpected {found!r} in regular expression")

    def _repetition(self, scanner: _Scanner, inner: Regex) -> Regex:
        """Parse a ``{m}``, ``{m,}`` or ``{m,n}`` postfix bound."""
        scanner.expect("{")
        minimum = self._bound(scanner)
        maximum: Optional[int] = minimum
        if scanner.peek() == ",":
            scanner.take()
            maximum = None if scanner.peek() == "}" else self._bound(scanner)
        scanner.expect("}")
        if maximum is not None and maximum < minimum:
            raise scanner.error(
                f"repetition bound {{{minimum},{maximum}}} is empty"
            )
        return Repeat(inner, minimum, maximum)

    def _bound(self, scanner: _Scanner) -> int:
        scanner.skip_ws()
        start = scanner.pos
        while scanner.pos < len(scanner.text) and scanner.text[scanner.pos].isdigit():
            scanner.pos += 1
        if scanner.pos == start:
            raise scanner.error("expected a repetition bound")
        return int(scanner.text[start : scanner.pos])

    # ------------------------------------------------------------------
    # atoms
    # ------------------------------------------------------------------
    def _label_bracket(self, scanner: _Scanner) -> LabelAtom:
        scanner.expect("[")
        negated = False
        if scanner.peek() == "^":
            scanner.take()
            negated = True
        classes = set()
        literals: List[str] = []
        while True:
            # Label literals inside brackets may contain dots (IP addresses).
            name = scanner.read_name(extra=".")
            if name in _LABEL_CLASSES:
                classes.add(name)
            else:
                literals.append(name)
            char = scanner.peek()
            if char == ",":
                scanner.take()
                continue
            if char == "]":
                scanner.take()
                break
            if char in _NAME_CHARS or char == ".":
                continue  # whitespace-separated list
            raise scanner.error(f"expected ',' or ']' in label list, found {char!r}")
        return LabelAtom(
            classes=frozenset(classes), literals=tuple(literals), negated=negated
        )

    def _link_bracket(self, scanner: _Scanner) -> LinkAtom:
        scanner.expect("[")
        negated = False
        if scanner.peek() == "^":
            scanner.take()
            negated = True
        source = self._endpoint(scanner, terminator="#")
        scanner.expect("#")
        target = self._endpoint(scanner, terminator="]")
        scanner.expect("]")
        return LinkAtom(source, target, negated)

    def _endpoint(self, scanner: _Scanner, terminator: str) -> LinkEndpoint:
        char = scanner.peek()
        if char == ".":
            # Either the router wildcard '.' or '.' followed by nothing else
            # before the terminator. An interface on a wildcard router is
            # not supported (matches the paper's syntax).
            scanner.take()
            return LinkEndpoint(router=None)
        router = scanner.read_name()
        interface: Optional[str] = None
        if scanner.peek() == ".":
            scanner.take()
            # Interface names may themselves contain dots (ae1.11), so read
            # greedily up to the terminator.
            interface = self._interface_name(scanner, terminator)
        return LinkEndpoint(router=router, interface=interface)

    def _interface_name(self, scanner: _Scanner, terminator: str) -> str:
        scanner.skip_ws()
        start = scanner.pos
        while (
            scanner.pos < len(scanner.text)
            and scanner.text[scanner.pos] not in (terminator, "#", "]")
            and not scanner.text[scanner.pos].isspace()
        ):
            scanner.pos += 1
        if scanner.pos == start:
            raise scanner.error("expected an interface name after '.'")
        return scanner.text[start : scanner.pos]

    def _integer(self, scanner: _Scanner) -> int:
        scanner.skip_ws()
        start = scanner.pos
        while scanner.pos < len(scanner.text) and scanner.text[scanner.pos].isdigit():
            scanner.pos += 1
        if scanner.pos == start:
            found = scanner.peek_raw() or "end of input"
            raise scanner.error(f"expected the failure bound k, found {found!r}")
        return int(scanner.text[start : scanner.pos])


_DEFAULT_PARSER = QueryParser()


def parse_query(text: str) -> Query:
    """Parse a query string with the default parser."""
    return _DEFAULT_PARSER.parse(text)


def named_queries(entries: Iterable[Any]) -> List[Tuple[str, str]]:
    """``(name, text)`` pairs of query entries: texts, ``(name, text)``
    pairs or ``{"name", "text"}`` objects. An entry without a name is
    named ``q0000``, ``q0001``, … by its position."""
    named: List[Tuple[str, str]] = []
    for index, entry in enumerate(entries):
        default = f"q{index:04d}"
        if isinstance(entry, str):
            named.append((default, entry))
        elif isinstance(entry, dict):
            named.append((str(entry.get("name", default)), entry["text"]))
        else:
            named.append((entry[0], entry[1]))
    return named
