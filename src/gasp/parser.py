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
every program (canonical program equality).
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
    Record,
    Rule,
    TOP,
    TruthTable,
    set_field,
    to_dnf,
)


class SourceProgram(Record):
    """Program text together with where it came from (for error messages)."""

    __slots__ = ("text", "origin")
    text: str
    origin: str

    def __init__(self, text: str, origin: str = "<string>"):
        set_field(self, "text", text)
        set_field(self, "origin", origin)


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
    re.VERBOSE,
)

_EOF = "end of input"


class _Token(Record):
    __slots__ = ("kind", "text", "line", "column")
    kind: str  # "name", "int", "op", "eof"
    text: str
    line: int
    column: int

    def __init__(self, kind: str, text: str, line: int, column: int):
        set_field(self, "kind", kind)
        set_field(self, "text", text)
        set_field(self, "line", line)
        set_field(self, "column", column)


def _tokenize(src: SourceProgram) -> list[_Token]:
    tokens = []
    pos = 0
    line = 1
    line_start = 0
    text = src.text
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(
                f"unexpected character {text[pos]!r}",
                src.origin, line, pos - line_start + 1,
            )
        kind = m.lastgroup
        value = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, value, line, pos - line_start + 1))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            line_start = pos + value.rindex("\n") + 1
        pos = m.end()
    tokens.append(_Token("eof", "", line, len(text) - line_start + 1))
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
        tok = token or self.here
        raise ParseError(message, self.src.origin, tok.line, tok.column, expected)

    def _take_op(self, text: str):
        tok = self.here
        if tok.kind == "op" and tok.text == text:
            self.pos += 1
            return tok
        shown = tok.text if tok.kind != "eof" else _EOF
        self._fail(f"unexpected {shown!r}", expected=(repr(text),))

    def _at_op(self, *texts: str) -> bool:
        tok = self.here
        return tok.kind == "op" and tok.text in texts

    def atom(self) -> Atom:
        tok = self.here
        if tok.kind != "name":
            shown = tok.text if tok.kind != "eof" else _EOF
            self._fail(f"unexpected {shown!r}", expected=("atom",))
        if tok.text == "not":
            self._fail("'not' is a keyword, not an atom", expected=("atom",))
        if tok.text.startswith("__aux"):
            if not self.allow_reserved:
                raise ReservedAtom(
                    f"atom {tok.text!r} uses the reserved `__aux` prefix",
                    self.src.origin, tok.line, tok.column,
                )
        elif not re.fullmatch(r"[a-z][A-Za-z0-9_]*", tok.text):
            self._fail(
                f"invalid atom {tok.text!r}: atoms start with a lowercase letter",
                expected=("atom",),
            )
        self.pos += 1
        return Atom(tok.text)

    def _integer(self) -> int:
        tok = self.here
        if tok.kind != "int":
            shown = tok.text if tok.kind != "eof" else _EOF
            self._fail(f"unexpected {shown!r}", expected=("integer",))
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
            shown = self.here.text if self.here.kind != "eof" else _EOF
            self._fail(f"unexpected {shown!r}", expected=("atom", "':-'", "'.'"))
        head: frozenset[Atom] = frozenset()
        if self.here.kind == "name":
            head = self.head()
        body: Body = TOP
        if self._at_op(":-"):
            self.pos += 1
            body = self.body()
        if not self._at_op("."):
            shown = self.here.text if self.here.kind != "eof" else _EOF
            self._fail(f"unexpected {shown!r}", expected=("'.'",))
        self.pos += 1
        try:
            return Rule(head, body)
        except ValueError as exc:
            self._fail(str(exc), token=start)

    def head(self) -> frozenset[Atom]:
        names = [self.atom()]
        while self._at_op("|"):
            self.pos += 1
            names.append(self.atom())
        return frozenset(names)

    def body(self) -> Body:
        tok = self.here
        nxt = self.tokens[self.pos + 1] if self.pos + 1 < len(self.tokens) else tok
        if tok.kind == "name" and nxt.kind == "op" and nxt.text == "{":
            if tok.text == "count":
                return self.aggregate()
            if tok.text == "dnf":
                return self.dnfexpr()
        return self.litconj()

    def litconj(self) -> LiteralConjunction:
        if self._at_op("."):  # empty body: always true
            return TOP
        start = self.here
        positives = set()
        negatives = set()
        while True:
            if self.here.kind == "name" and self.here.text == "not":
                self.pos += 1
                negatives.add(self.atom())
            else:
                positives.add(self.atom())
            if self._at_op(","):
                self.pos += 1
                continue
            break
        try:
            return LiteralConjunction(Conjunct(frozenset(positives), frozenset(negatives)))
        except ValueError as exc:
            self._fail(str(exc), token=start)

    def aggregate(self) -> CountAggregate:
        start = self.here
        self.pos += 1  # "count"
        self._take_op("{")
        members = [self.atom()]
        while self._at_op(","):
            self.pos += 1
            members.append(self.atom())
        self._take_op("}")
        tok = self.here
        if not (tok.kind == "op" and tok.text in ("=", "!=", "<=", ">=", "<", ">")):
            shown = tok.text if tok.kind != "eof" else _EOF
            self._fail(f"unexpected {shown!r}", expected=("comparator",))
        self.pos += 1
        bound = self._integer()
        try:
            return CountAggregate(frozenset(members), tok.text, bound)
        except ValueError as exc:
            self._fail(str(exc), token=start)

    def dnfexpr(self) -> Dnf:
        self.pos += 1  # "dnf"
        self._take_op("{")
        disjuncts = [self.conj()]
        while self._at_op("|"):
            self.pos += 1
            disjuncts.append(self.conj())
        self._take_op("}")
        return Dnf(tuple(disjuncts))

    def conj(self) -> Conjunct:
        start = self.here
        positives = set()
        negatives = set()
        while True:
            if self._at_op("~"):
                self.pos += 1
                negatives.add(self.atom())
            else:
                positives.add(self.atom())
            if self._at_op("&"):
                self.pos += 1
                continue
            break
        try:
            return Conjunct(frozenset(positives), frozenset(negatives))
        except ValueError as exc:
            self._fail(str(exc), token=start)


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


def _render_conjunct_dnf(c: Conjunct) -> str:
    parts = [a.name for a in sorted(c.positives)]
    parts += ["~" + a.name for a in sorted(c.negatives)]
    return " & ".join(parts)


def render_body(body: Body) -> str:
    if isinstance(body, LiteralConjunction):
        c = body.conjunct
        parts = [a.name for a in sorted(c.positives)]
        parts += ["not " + a.name for a in sorted(c.negatives)]
        return ", ".join(parts)
    if isinstance(body, CountAggregate):
        members = ", ".join(a.name for a in sorted(body.atoms))
        return f"count{{{members}}} {body.comparator} {body.bound}"
    if isinstance(body, Dnf):
        if any(not d.positives and not d.negatives for d in body.disjuncts):
            return ""  # an empty disjunct makes the body a tautology
        ordered = sorted(set(body.disjuncts), key=Conjunct.sort_key)
        return "dnf{" + " | ".join(_render_conjunct_dnf(d) for d in ordered) + "}"
    if isinstance(body, TruthTable):
        return render_body(to_dnf(body))  # raises UnsatisfiableBody when empty
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
