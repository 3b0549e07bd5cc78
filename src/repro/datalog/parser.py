"""Parsers for datalog rules and tgd schema mappings.

Two surface syntaxes are supported, matching the paper's notation:

* **Datalog rules** (Section 4.1.1) — ``B(i, n) :- G(i, c, n)``.  Heads may
  contain Skolem terms, written as function applications: ``U(n, f(n)) :-
  B(i, n)``.  Negated body atoms are written ``not R(x)``.

* **Tgds** (Section 2) — ``G(i, c, n) -> B(i, n)`` with optional existential
  quantification on the RHS: ``B(i, n) -> exists c . U(n, c)``.  Conjunction
  is a comma on either side; LHS atoms may be negated (tgds with safe
  negation, Section 3.1).

Lexical conventions: identifiers starting with a lowercase letter or ``_``
are variables; numbers and single/double-quoted strings are constants;
relation names may be any identifier.  Comments run from ``%`` or ``#`` to
end of line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

from .ast import (
    Atom,
    Constant,
    DatalogError,
    Program,
    Rule,
    SkolemFunction,
    SkolemTerm,
    Term,
    Variable,
)


class ParseError(DatalogError):
    """Raised on malformed rule or tgd text."""


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>[%\#][^\n]*)
  | (?P<implies>->|:-)
  | (?P<lpar>\() | (?P<rpar>\))
  | (?P<comma>,) | (?P<period>\.)
  | (?P<string>'(?:[^'\\]|\\.)*'|"(?:[^"\\]|\\.)*")
  | (?P<number>-?\d+(?:\.\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r} at {pos}")
        kind = match.lastgroup
        assert kind is not None
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, match.group(), pos))
        pos = match.end()
    return tokens


class _TokenStream:
    def __init__(self, tokens: list[_Token], source: str) -> None:
        self._tokens = tokens
        self._source = source
        self._index = 0

    def peek(self) -> _Token | None:
        if self._index < len(self._tokens):
            return self._tokens[self._index]
        return None

    def next(self) -> _Token:
        token = self.peek()
        if token is None:
            raise ParseError(f"unexpected end of input in {self._source!r}")
        self._index += 1
        return token

    def expect(self, kind: str) -> _Token:
        token = self.next()
        if token.kind != kind:
            raise ParseError(
                f"expected {kind} but found {token.text!r} at {token.pos} "
                f"in {self._source!r}"
            )
        return token

    def at_end(self) -> bool:
        return self._index >= len(self._tokens)

    def try_keyword(self, *words: str) -> bool:
        token = self.peek()
        if token is not None and token.kind == "ident" and token.text in words:
            self._index += 1
            return True
        return False


def _is_variable_name(name: str) -> bool:
    return name[0].islower() or name[0] == "_"


def _parse_term(stream: _TokenStream, allow_skolem: bool) -> Term:
    token = stream.next()
    if token.kind == "string":
        return Constant(_unquote(token.text))
    if token.kind == "number":
        text = token.text
        return Constant(float(text) if "." in text else int(text))
    if token.kind == "ident":
        following = stream.peek()
        if following is not None and following.kind == "lpar":
            if not allow_skolem:
                raise ParseError(
                    f"function term {token.text!r} at {token.pos} is only "
                    "allowed in rule heads"
                )
            stream.expect("lpar")
            args: list[Term] = []
            if stream.peek() is not None and stream.peek().kind != "rpar":  # type: ignore[union-attr]
                args.append(_parse_term(stream, allow_skolem))
                while stream.peek() is not None and stream.peek().kind == "comma":  # type: ignore[union-attr]
                    stream.expect("comma")
                    args.append(_parse_term(stream, allow_skolem))
            stream.expect("rpar")
            return SkolemTerm(SkolemFunction(token.text), tuple(args))
        if _is_variable_name(token.text):
            return Variable(token.text)
        return Constant(token.text)
    raise ParseError(f"unexpected token {token.text!r} at {token.pos}")


def _unquote(text: str) -> str:
    body = text[1:-1]
    return body.replace("\\'", "'").replace('\\"', '"').replace("\\\\", "\\")


def _parse_atom(stream: _TokenStream, allow_skolem: bool) -> Atom:
    negated = stream.try_keyword("not", "NOT")
    name_token = stream.expect("ident")
    stream.expect("lpar")
    terms: list[Term] = []
    if stream.peek() is not None and stream.peek().kind != "rpar":  # type: ignore[union-attr]
        terms.append(_parse_term(stream, allow_skolem))
        while stream.peek() is not None and stream.peek().kind == "comma":  # type: ignore[union-attr]
            stream.expect("comma")
            terms.append(_parse_term(stream, allow_skolem))
    stream.expect("rpar")
    return Atom(name_token.text, tuple(terms), negated=negated)


def _parse_atom_list(stream: _TokenStream, allow_skolem: bool) -> list[Atom]:
    atoms = [_parse_atom(stream, allow_skolem)]
    while True:
        token = stream.peek()
        if token is not None and token.kind == "comma":
            stream.expect("comma")
            atoms.append(_parse_atom(stream, allow_skolem))
        elif stream.try_keyword("and", "AND"):
            atoms.append(_parse_atom(stream, allow_skolem))
        else:
            return atoms


def parse_rule(
    text: str, label: str | None = None, bound: Iterable[Variable] = ()
) -> Rule:
    """Parse one datalog rule, e.g. ``"B(i, n) :- G(i, c, n)"``.

    The rule must be safe with the ``bound`` variables (a query's
    parameters) counted as bound."""
    stream = _TokenStream(_tokenize(text), text)
    head = _parse_atom(stream, allow_skolem=True)
    if head.negated:
        raise ParseError(f"rule head may not be negated: {text!r}")
    body: list[Atom] = []
    if not stream.at_end() and stream.peek().kind == "implies":  # type: ignore[union-attr]
        token = stream.next()
        if token.text != ":-":
            raise ParseError(f"expected ':-' in rule, found {token.text!r}")
        body = _parse_atom_list(stream, allow_skolem=False)
    if not stream.at_end() and stream.peek().kind == "period":  # type: ignore[union-attr]
        stream.expect("period")
    if not stream.at_end():
        extra = stream.next()
        raise ParseError(f"trailing input {extra.text!r} in rule {text!r}")
    rule = Rule(head, tuple(body), label=label)
    rule.check_safety(bound)
    return rule


def parse_program(
    text: str, name: str | None = None, bound: Iterable[Variable] = ()
) -> Program:
    """Parse a newline- or period-separated sequence of rules.

    Rules may span lines; each rule is terminated by a period or by a line
    whose continuation does not parse as part of it.  For simplicity the
    grammar here requires one rule per line unless periods are used.
    Each rule must be safe with the ``bound`` variables counted as bound.
    """
    bound = tuple(bound)
    rules: list[Rule] = []
    buffer: list[str] = []
    for raw_line in text.splitlines():
        line = raw_line.split("%", 1)[0].split("#", 1)[0].strip()
        if not line:
            continue
        buffer.append(line)
        joined = " ".join(buffer)
        # Accumulate while the rule is visibly unfinished: unbalanced
        # parentheses, or a trailing conjunction/implication.
        if joined.count("(") != joined.count(")"):
            continue
        if joined.rstrip().endswith((",", ":-")):
            continue
        rules.append(parse_rule(joined, bound=bound))
        buffer = []
    if buffer:
        rules.append(parse_rule(" ".join(buffer), bound=bound))
    return Program(tuple(rules), name=name)


@dataclass(frozen=True)
class ParsedTgd:
    """The raw pieces of a parsed tgd, before schema validation."""

    lhs: tuple[Atom, ...]
    rhs: tuple[Atom, ...]
    existential_vars: frozenset[Variable]


def parse_tgd(text: str) -> ParsedTgd:
    """Parse a tgd like ``"B(i, c), U(n, c) -> B(i, n)"`` or
    ``"B(i, n) -> exists c . U(n, c)"``.
    """
    stream = _TokenStream(_tokenize(text), text)
    lhs = _parse_atom_list(stream, allow_skolem=False)
    token = stream.next()
    if token.kind != "implies" or token.text != "->":
        raise ParseError(f"expected '->' in tgd, found {token.text!r}")
    existentials: set[Variable] = set()
    if stream.try_keyword("exists", "EXISTS"):
        while True:
            var_token = stream.expect("ident")
            if not _is_variable_name(var_token.text):
                raise ParseError(
                    f"existential {var_token.text!r} must be a variable name"
                )
            existentials.add(Variable(var_token.text))
            if stream.peek() is not None and stream.peek().kind == "comma":  # type: ignore[union-attr]
                stream.expect("comma")
                continue
            break
        token = stream.next()
        if token.kind != "period":
            raise ParseError(
                f"expected '.' after existential variables, found {token.text!r}"
            )
    rhs = _parse_atom_list(stream, allow_skolem=False)
    if not stream.at_end() and stream.peek().kind == "period":  # type: ignore[union-attr]
        stream.expect("period")
    if not stream.at_end():
        extra = stream.next()
        raise ParseError(f"trailing input {extra.text!r} in tgd {text!r}")
    for atom in rhs:
        if atom.negated:
            raise ParseError(f"negated RHS atom in tgd: {text!r}")
    lhs_vars: set[Variable] = set()
    for atom in lhs:
        lhs_vars |= atom.variable_set()
    # Any RHS variable not on the LHS is implicitly existential.
    for atom in rhs:
        for var in atom.variable_set():
            if var not in lhs_vars:
                existentials.add(var)
    for var in existentials:
        if var in lhs_vars:
            raise ParseError(
                f"existential variable {var!r} also occurs on the LHS: {text!r}"
            )
    return ParsedTgd(tuple(lhs), tuple(rhs), frozenset(existentials))
