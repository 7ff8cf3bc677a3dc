"""Textual surface syntax for programs, with a canonical renderer.

Grammar (whitespace-insensitive, `%` comments to end of line):

    statement := rule "."
    rule      := head? (":-" body)?
    head      := atom ("|" atom)*
    body      := litconj | aggregate | dnfexpr
    litconj   := literal ("," literal)* | empty
    literal   := "not" atom | atom
    aggregate := "count" "{" atom ("," atom)* "}" cmp integer
    cmp       := "=" | "!=" | "<=" | ">=" | "<" | ">"
    dnfexpr   := "dnf" "{" conj ("|" conj)* "}"
    conj      := ("~"? atom) ("&" "~"? atom)*

An empty head is a constraint; an empty body is always true, so facts are
written `a.`. `not` is a keyword; `count` and `dnf` act as keywords only
when followed by `{`. `~` negates only inside `dnf{...}`, mirroring the
distinction between negation as failure in rule bodies and classical
negation of DNF literals.

Rendering is canonical: heads and literal groups are sorted, disjuncts
are sorted, aggregates keep their comparator, and a satisfiable truth
table renders as its minterm DNF. `parse_program(render(p)) == p` for
every program (canonical program equality); a program with reserved
`__aux` atoms, such as a rewriting from `compile`, parses back only with
`allow_reserved=True`.
"""

from __future__ import annotations

import re

from .core import (
    Atom,
    Body,
    Conjunct,
    CountAggregate,
    Dnf,
    GaspError,
    LiteralConjunction,
    Program,
    RESERVED_PREFIX,
    Record,
    Rule,
    TOP,
    TruthTable,
    UnsatisfiableBody,
    _PLAIN_NAME,
)


class SourceProgram(Record):
    """Program text together with where it came from (for error messages)."""

    __slots__ = ("text", "origin")
    text: str
    origin: str

    def __init__(self, text: str, origin: str = "<string>"):
        super().__init__(text, origin)


class ParseError(GaspError):
    def __init__(self, message, origin="<string>", line=0, column=0, expected=()):
        self.message = message
        self.origin = origin
        self.line = line
        self.column = column
        self.expected = frozenset(expected)
        detail = f"{origin}:{line}:{column}: {message}"
        if self.expected:
            detail += " (expected " + ", ".join(sorted(self.expected)) + ")"
        super().__init__(detail)


class ReservedAtom(ParseError):
    """A `__aux` atom appeared in input that must not contain reserved names."""


_TOKEN = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>%[^\n]*)
      | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<int>\d+)
      | (?P<op>:-|!=|<=|>=|[.|,{}&~<>=])
    """,
    re.VERBOSE | re.ASCII,  # `\d` and `\s`: ASCII digits and whitespace only
)

_EOF = "end of input"


class _Token(Record):
    __slots__ = ("kind", "text", "offset")
    kind: str  # "name", "int", "op", "eof"
    text: str
    offset: int


def _line_column(text: str, offset: int) -> tuple[int, int]:
    """The line and column, both counted from 1, of `offset` in `text`."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _tokenize(src: SourceProgram) -> list[_Token]:
    tokens = []
    pos = 0
    text = src.text
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(
                f"unexpected character {text[pos]!r}", src.origin, *_line_column(text, pos)
            )
        if m.lastgroup not in ("ws", "comment"):
            tokens.append(_Token(m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(_Token("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, src: SourceProgram, allow_reserved: bool):
        self.src = src
        self.allow_reserved = allow_reserved
        self.tokens = _tokenize(src)
        self.pos = 0

    @property
    def here(self) -> _Token:
        return self.tokens[self.pos]

    def _fail(self, message, expected=(), token=None):
        where = _line_column(self.src.text, (token or self.here).offset)
        raise ParseError(message, self.src.origin, *where, expected)

    def _unexpected(self, *expected: str):
        """Fail at the current token, which is none of `expected`."""
        tok = self.here
        shown = tok.text if tok.kind != "eof" else _EOF
        self._fail(f"unexpected {shown!r}", expected=expected)

    def _built(self, start: _Token, constructor, *args):
        """`constructor(*args)`, with its ValueError reported at `start`."""
        try:
            return constructor(*args)
        except ValueError as exc:
            self._fail(str(exc), token=start)

    def _accept(self, text: str) -> bool:
        """Step over the current token if its text is `text`, an operator or
        `not`, whose text alone fixes the token's kind."""
        if self.here.text != text:
            return False
        self.pos += 1
        return True

    def _take_op(self, text: str):
        if not self._accept(text):
            self._unexpected(repr(text))

    def _at_op(self, *texts: str) -> bool:
        tok = self.here
        return tok.kind == "op" and tok.text in texts

    def _list(self, item, separator: str) -> list:
        """`item (separator item)*`: the items read."""
        items = [item()]
        while self._accept(separator):
            items.append(item())
        return items

    def atom(self) -> Atom:
        tok = self.here
        if tok.kind != "name":
            self._unexpected("atom")
        if tok.text == "not":
            self._fail("'not' is a keyword, not an atom", expected=("atom",))
        if tok.text.startswith(RESERVED_PREFIX):
            if not self.allow_reserved:
                raise ReservedAtom(
                    f"atom {tok.text!r} uses the reserved `{RESERVED_PREFIX}` prefix",
                    self.src.origin, *_line_column(self.src.text, tok.offset),
                )
        elif not _PLAIN_NAME.match(tok.text):
            self._fail(
                f"invalid atom {tok.text!r}: atoms start with a lowercase letter",
                expected=("atom",),
            )
        self.pos += 1
        return Atom(tok.text)

    def _integer(self) -> int:
        tok = self.here
        if tok.kind != "int":
            self._unexpected("integer")
        self.pos += 1
        return int(tok.text)

    def program(self) -> Program:
        rules = []
        while self.here.kind != "eof":
            rules.append(self.statement())
        return Program(rules)

    def statement(self) -> Rule:
        start = self.here
        if not (self.here.kind == "name" or self._at_op(":-", ".")):
            self._unexpected("atom", "':-'", "'.'")
        head: frozenset[Atom] = frozenset()
        if self.here.kind == "name":
            head = frozenset(self._list(self.atom, "|"))
        body: Body = TOP
        if self._accept(":-"):
            body = self.body()
        self._take_op(".")
        return self._built(start, Rule, head, body)

    def body(self) -> Body:
        tok = self.here
        nxt = self.tokens[self.pos + 1] if self.pos + 1 < len(self.tokens) else tok
        if tok.kind == "name" and nxt.kind == "op" and nxt.text == "{":
            if tok.text == "count":
                return self.aggregate()
            if tok.text == "dnf":
                return self.dnfexpr()
        if self._at_op("."):  # empty body: always true
            return TOP
        return LiteralConjunction(self._conjunct(",", "not"))

    def aggregate(self) -> CountAggregate:
        start = self.here
        self.pos += 1  # "count"
        self._take_op("{")
        members = self._list(self.atom, ",")
        self._take_op("}")
        tok = self.here
        if not self._at_op("=", "!=", "<=", ">=", "<", ">"):
            self._unexpected("comparator")
        self.pos += 1
        bound = self._integer()
        return self._built(start, CountAggregate, frozenset(members), tok.text, bound)

    def dnfexpr(self) -> Dnf:
        self.pos += 1  # "dnf"
        self._take_op("{")
        disjuncts = self._list(lambda: self._conjunct("&", "~"), "|")
        self._take_op("}")
        return Dnf(tuple(disjuncts))

    def _conjunct(self, separator: str, negation: str) -> Conjunct:
        """`literal (separator literal)*`, where a literal is an atom with
        or without `negation` in front: a literal body or a dnf disjunct."""
        start = self.here
        literals = self._list(lambda: (self._accept(negation), self.atom()), separator)
        positives = frozenset(a for negated, a in literals if not negated)
        negatives = frozenset(a for negated, a in literals if negated)
        return self._built(start, Conjunct, positives, negatives)


def parse_program(source: SourceProgram | str, allow_reserved: bool = False) -> Program:
    """Parse program text into a canonical Program.

    With `allow_reserved` the `__aux` atoms produced by compilation are
    accepted, which is what lets compiled output be piped back in; by
    default they raise ReservedAtom so that fresh-name bookkeeping stays
    sound for programs that are going to be compiled.
    """
    if isinstance(source, str):
        source = SourceProgram(source)
    return _Parser(source, allow_reserved).program()


def _render_conjunct(c: Conjunct, separator: str, negation: str) -> str:
    parts = [a.name for a in sorted(c.positives)]
    parts += [negation + a.name for a in sorted(c.negatives)]
    return separator.join(parts)


def render_body(body: Body) -> str:
    if isinstance(body, LiteralConjunction):
        return _render_conjunct(body.conjunct, ", ", "not ")
    if isinstance(body, CountAggregate):
        members = ", ".join(a.name for a in sorted(body.atoms))
        return f"count{{{members}}} {body.comparator} {body.bound}"
    if isinstance(body, Dnf):
        if any(not d.positives and not d.negatives for d in body.disjuncts):
            return ""  # an empty disjunct makes the body a tautology
        ordered = sorted(set(body.disjuncts), key=Conjunct.sort_key)
        return "dnf{" + " | ".join(_render_conjunct(d, " & ", "~") for d in ordered) + "}"
    if isinstance(body, TruthTable):
        if not body.satisfying:
            raise UnsatisfiableBody("body is false on every subset of its domain")
        return render_body(Dnf(Conjunct(s, body.domain - s) for s in body.satisfying))
    raise TypeError(f"not a body: {body!r}")


def render_rule(rule: Rule) -> str:
    head = " | ".join(a.name for a in sorted(rule.head))
    body = render_body(rule.body)
    if not body:
        return f"{head}." if head else ":-."
    if not head:
        return f":- {body}."
    return f"{head} :- {body}."


def render(program: Program) -> str:
    """Canonical text of a program, one statement per line."""
    if not program.rules:
        return ""
    return "\n".join(render_rule(r) for r in program.rules) + "\n"
