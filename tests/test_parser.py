import hashlib
import random

import pytest

from gasp.compile import rew_flp, rew_sflp
from gasp.core import (
    Atom,
    Conjunct,
    CountAggregate,
    Dnf,
    LiteralConjunction,
    TruthTable,
    UnsatisfiableBody,
)
from gasp.parser import (
    ParseError,
    ReservedAtom,
    SourceProgram,
    parse_program,
    render,
    render_body,
    render_rule,
)
from gasp.core import Program, Rule

from conftest import CORPUS_NAMES, corpus_text, fs


class TestParse:
    def test_p1_shape(self, corpus):
        p1 = corpus["p1"]
        assert len(p1.rules) == 2
        heads = [r.head for r in p1.rules]
        assert heads == [fs("a"), fs("b")]
        for r in p1.rules:
            assert isinstance(r.body, CountAggregate)
            assert r.body.comparator == "!="
            assert r.body.bound == 1
        assert p1.rules[0].body == p1.rules[1].body

    def test_constraint_with_negative_literal(self):
        p = parse_program(":- not a.")
        (rule,) = p.rules
        assert rule.head == frozenset()
        assert isinstance(rule.body, LiteralConjunction)
        assert rule.body.conjunct.positives == frozenset()
        assert rule.body.conjunct.negatives == fs("a")

    def test_empty_text(self):
        assert parse_program("") == Program([])

    def test_fact_and_disjunctive_fact(self):
        p = parse_program("a | b.")
        (rule,) = p.rules
        assert rule.head == fs("a", "b")
        assert rule.body.eval(frozenset()) is True

    def test_comments_and_whitespace(self):
        text = "% leading comment\n  a :-   b , not c . % trailing\n"
        p = parse_program(text)
        assert p == parse_program("a:-b,not c.")

    def test_dnf_body(self):
        p = parse_program("a :- dnf{~a & ~b | a & b}.")
        (rule,) = p.rules
        assert isinstance(rule.body, Dnf)
        assert len(rule.body.disjuncts) == 2

    def test_keywords_in_atom_position(self):
        # count/dnf act as keywords only right before a brace
        p = parse_program("a :- count, dnf.")
        (rule,) = p.rules
        assert rule.body.conjunct.positives == fs("count", "dnf")

    def test_stdin_origin_in_errors(self):
        with pytest.raises(ParseError) as err:
            parse_program(SourceProgram("a :-", "<stdin>"))
        assert "<stdin>" in str(err.value)


class TestParseErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "a :- count{a b} != 1.",  # missing comma
            "a :-",  # missing dot
            "a | | b.",  # empty head slot
            "1a.",  # bad atom
            "A.",  # uppercase start
            "a :- not.",  # keyword as atom
            "a :- count{} != 1.",  # empty aggregate
            "a :- dnf{}.",  # empty dnf
            "a :- b, not b.",  # positive and negative occurrence
            "a :- dnf{a & ~a}.",  # clash inside a disjunct
            "a ; b.",  # stray character
            "a :- count{a} > \u0663.",  # Arabic-Indic three is no integer
            "a :-\u00a0b.",  # no-break space is no whitespace
        ],
    )
    def test_rejected(self, text):
        with pytest.raises(ParseError):
            parse_program(text)

    def test_location_and_expectation(self):
        with pytest.raises(ParseError) as err:
            parse_program("a :- b\nc :- d.")
        e = err.value
        assert (e.line, e.column) == (2, 1)
        assert "'.'" in e.expected

    def test_reserved_atom_rejected_by_default(self):
        with pytest.raises(ReservedAtom):
            parse_program("__aux_t_1 :- a.")

    def test_reserved_atom_allowed_on_request(self):
        p = parse_program("__aux_t_1 :- a.", allow_reserved=True)
        assert p.rules[0].head == frozenset({Atom("__aux_t_1")})

    def test_reserved_atom_error_is_parse_error(self):
        with pytest.raises(ParseError):
            parse_program("a :- __aux_f_1_0.")


class TestRender:
    def test_canonical_ordering(self):
        assert render(parse_program("b|a :- not c, b.")) == "a | b :- b, not c.\n"

    def test_empty_program(self):
        assert render(Program([])) == ""

    def test_fact_form(self):
        assert render(parse_program("a|b.")) == "a | b.\n"

    def test_aggregate_form(self):
        assert render(parse_program("a:-count{b,a}!=1.")) == "a :- count{a, b} != 1.\n"

    def test_dnf_sorted(self):
        got = render(parse_program("a :- dnf{b & a | ~a & ~b}."))
        assert got == "a :- dnf{~a & ~b | a & b}.\n"

    def test_dnf_with_an_empty_disjunct_renders_as_a_fact(self):
        body = Dnf((Conjunct(fs("a"), frozenset()), Conjunct(frozenset(), frozenset())))
        assert render_body(body) == ""
        assert render_rule(Rule(fs("c"), body)) == "c."

    def test_render_body_rejects_a_non_body(self):
        with pytest.raises(TypeError, match="not a body"):
            render_body(Atom("a"))

    def test_truth_table_without_a_row_has_no_text(self):
        # a table without a row, over atoms or over none, is false on every
        # subset of its domain: it has no minterm to render as a DNF
        for domain in (fs("a", "b"), fs()):
            with pytest.raises(UnsatisfiableBody, match="false on every subset"):
                render_body(TruthTable(domain, ()))

    def test_truth_table_renders_as_minterms(self):
        body = TruthTable(fs("a", "b"), frozenset({frozenset(), fs("a", "b")}))
        rule = Rule(fs("c"), body)
        assert render_rule(rule) == "c :- dnf{~a & ~b | a & b}."

    def test_corpus_round_trip(self, corpus):
        for name in CORPUS_NAMES:
            rendered = render(corpus[name])
            assert parse_program(rendered) == corpus[name]

    def test_count_and_dnf_round_trip_as_atoms(self):
        # in every atom position: head, literal body, after `not`, count
        # member and dnf literal
        program = Program([
            Rule(fs("count", "dnf"), LiteralConjunction(Conjunct(fs("count"), fs("dnf")))),
            Rule(fs("dnf"), CountAggregate(fs("count", "dnf"), ">=", 1)),
            Rule(fs(), Dnf((Conjunct(fs("count"), fs("dnf")), Conjunct(fs("dnf"), fs())))),
        ])
        text = render(program)
        assert text == (
            "count | dnf :- count, not dnf.\n"
            "dnf :- count{count, dnf} >= 1.\n"
            ":- dnf{count & ~dnf | dnf}.\n"
        )
        assert parse_program(text) == program

    @pytest.mark.parametrize("rewrite", [rew_flp, rew_sflp])
    def test_rewritings_round_trip_with_reserved_atoms(self, corpus, rewrite):
        for name in ("p1", "p2", "p3", "p5"):  # p4 has a disjunctive head
            rewritten, _ = rewrite(corpus[name])
            text = render(rewritten)
            assert parse_program(text, allow_reserved=True) == rewritten
            with pytest.raises(ReservedAtom):
                parse_program(text)

    def test_render_parse_render_fixpoint(self, corpus):
        for name in CORPUS_NAMES:
            once = render(corpus[name])
            assert render(parse_program(once)) == once


# One text per grammar shape: disjunctive heads, literal bodies with
# `not`, count aggregates under every comparator, dnf bodies with `~`, `&`
# and `|`, facts, constraints, empty bodies, comments and reserved atoms.
GRAMMAR_TEXTS = (
    "a | b | c :- d, not e.\n:- not a, b.\n",
    "a :- count{a, b, c} >= 2.\nb :- count{c} < 1.\nc :- count{a, b} != 0.\n"
    "d :- count{b} <= 3.\ne :- count{a} > 1.\nf :- count{a, c} = 2.\n",
    "c :- dnf{a & ~b | ~c | b & d}.\n% comment\n:- dnf{~a}.\n",
    "a.\n:-.\nb :- .\ncount :- dnf, not count.\n",
    "__aux_t_1 :- a, not __aux_f_1_0.\n__aux_f_1_1 | a :- not __aux_t_1.\n",
)

_MUTATION_PIECES = (
    "|", "{", "}", "&", "~", ".", ",", ":-", "%", " ", "\n", "x", "0", "7", "A", "$",
    "not ", "not", "count{", "dnf{", "__aux_t_1", "__auxA", "!=", "<=", ">", "=",
    ", not a, a", " & ~b & b", "count{}",
)

# sha256 of the parser's answer on seeded mutations of the corpus and of
# GRAMMAR_TEXTS, each parsed without and with `allow_reserved`: the
# canonical rendering, or the error's class, text, line, column and sorted
# expected set. A change that means to alter a diagnostic updates this
# value and says so in CHANGES.md.
DIAGNOSTICS_DIGEST = "32f1c54bfb7de36ef3df60d5a744bf7924d669ead892e7d3efc1b8c0ed329d41"


def _mutated_texts(seed, count):
    rng = random.Random(seed)
    texts = [corpus_text(name) for name in CORPUS_NAMES] + list(GRAMMAR_TEXTS)
    for _ in range(count):
        text = rng.choice(texts)
        for _ in range(rng.randint(1, 3)):
            pos = rng.randrange(len(text) + 1)
            op = rng.random()
            if op < 0.3:
                text = text[:pos] + text[pos + 1:]
            elif op < 0.7:
                text = text[:pos] + rng.choice(_MUTATION_PIECES) + text[pos:]
            elif op < 0.85:
                text = text[:pos] + text[pos + rng.randint(2, 6):]
            elif text:
                chars = list(text)
                other = rng.randrange(len(text))
                pos = min(pos, len(text) - 1)
                chars[pos], chars[other] = chars[other], chars[pos]
                text = "".join(chars)
        yield text


class TestFuzz:
    def test_diagnostics_are_pinned(self):
        digest = hashlib.sha256()
        for text in _mutated_texts(2025, 3000):
            for allow_reserved in (False, True):
                try:
                    answer = render(parse_program(text, allow_reserved))
                except ParseError as err:
                    answer = (type(err).__name__, str(err), err.line, err.column,
                              sorted(err.expected))
                digest.update(repr(answer).encode())
        assert digest.hexdigest() == DIAGNOSTICS_DIGEST

    def test_mutated_corpus_never_misparses_silently(self):
        rng = random.Random(2024)
        texts = [corpus_text(name) for name in CORPUS_NAMES]
        junk = "|{}&~.,:-%xyz01 \n"
        for _ in range(400):
            text = rng.choice(texts)
            pos = rng.randrange(len(text))
            op = rng.random()
            if op < 0.4:
                mutated = text[:pos] + text[pos + 1:]
            elif op < 0.8:
                mutated = text[:pos] + rng.choice(junk) + text[pos:]
            else:
                other = rng.randrange(len(text))
                chars = list(text)
                chars[pos], chars[other] = chars[other], chars[pos]
                mutated = "".join(chars)
            try:
                program = parse_program(mutated)
            except ParseError:
                continue
            # still grammatical: the result must round-trip
            assert parse_program(render(program)) == program
