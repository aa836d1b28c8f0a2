"""Tropical-semiring automata core: weights, matching, text I/O, trimming."""

import math
import random
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wfstdec.fst import (
    ONE,
    ZERO,
    Arc,
    Fst,
    FstError,
    ParseError,
    SymbolTable,
    connect,
    find_arc,
    read_text_fst,
    weight_times,
    write_text_fst,
)

weights = st.one_of(
    st.just(ZERO),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)


class TestSemiring:
    @given(weights)
    def test_identities(self, a):
        assert weight_times(a, ONE) == a
        assert weight_times(ONE, a) == a

    @given(weights)
    def test_zero_annihilates(self, a):
        assert weight_times(a, ZERO) == ZERO
        assert weight_times(ZERO, a) == ZERO

    @given(weights, weights, weights)
    def test_times_distributes_over_plus(self, a, b, c):
        # The tropical plus is min.
        assert weight_times(a, min(b, c)) == min(weight_times(a, b),
                                                 weight_times(a, c))


def _random_fst(rng: random.Random, num_states=6, num_arcs=15) -> Fst:
    fst = Fst()
    fst.add_states(num_states)
    # Every state gets at least one outgoing arc so the text format (which
    # has no explicit state declarations) can represent it.
    for i in range(num_arcs):
        src = i % num_states if i < num_states else rng.randrange(num_states)
        fst.add_arc(src, Arc(rng.randrange(4), rng.randrange(4),
                             round(rng.uniform(0, 5), 3), rng.randrange(num_states)))
    fst.set_initial(0)
    fst.set_final(num_states - 1, round(rng.uniform(0, 2), 3))
    return fst


class TestFindArc:
    def test_matches_linear_scan_min_weight(self):
        rng = random.Random(5)
        for _ in range(50):
            fst = _random_fst(rng)
            fst.arc_sort_input()
            for s in fst.states():
                for label in range(5):
                    got = find_arc(fst, s, label)
                    want = [a for a in fst.arcs(s) if a.ilabel == label]
                    if not want:
                        assert got is None
                    else:
                        assert got is not None
                        assert got.weight == min(a.weight for a in want)

    def test_requires_sorted(self):
        fst = Fst()
        fst.add_state()
        fst.add_arc(0, Arc(1, 1, 0.0, 0))
        with pytest.raises(FstError, match="input-sorted"):
            find_arc(fst, 0, 1)

    def test_mutation_invalidates_sort(self):
        fst = Fst()
        fst.add_state()
        fst.add_arc(0, Arc(2, 2, 0.0, 0))
        fst.arc_sort_input()
        assert find_arc(fst, 0, 2) is not None
        fst.add_arc(0, Arc(1, 1, 0.0, 0))
        with pytest.raises(FstError):
            find_arc(fst, 0, 1)
        fst.add_arc(0, Arc(2, 2, -1.0, 0))
        fst.arc_sort_input()
        assert find_arc(fst, 0, 1) == Arc(1, 1, 0.0, 0)
        assert find_arc(fst, 0, 2) == Arc(2, 2, -1.0, 0)

    def test_invalid_state(self):
        fst = Fst()
        fst.add_state()
        fst.arc_sort_input()
        with pytest.raises(FstError, match="invalid state"):
            find_arc(fst, 3, 1)

    # Few labels and weights, so that (ilabel, weight) keys repeat and
    # the stable order of tied arcs is exercised, with ZERO among them.
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                              st.sampled_from([ZERO, -1.0, 0.0, 0.5]),
                              st.integers(0, 2)),
                    max_size=12))
    def test_sort_order_is_ilabel_then_weight_and_stable(self, rows):
        fst = Fst()
        fst.add_states(3)
        for row in rows:
            fst.add_arc(0, Arc(*row))
        want = sorted(fst.arcs(0), key=lambda a: (a.ilabel, a.weight))
        fst.arc_sort_input()
        assert [tuple(a) for a in fst.arcs(0)] == [tuple(a) for a in want]


class TestStructure:
    def test_nan_rejected(self):
        fst = Fst()
        fst.add_state()
        with pytest.raises(FstError, match="NaN"):
            fst.add_arc(0, Arc(1, 1, math.nan, 0))
        with pytest.raises(FstError, match="NaN"):
            fst.set_final(0, math.nan)

    def test_add_arc_rejects_bad_input(self):
        fst = Fst()
        fst.add_states(2)
        with pytest.raises(FstError, match=r"^invalid state id 2$"):
            fst.add_arc(2, Arc(1, 1, 0.0, 0))
        with pytest.raises(FstError, match=r"^invalid state id -1$"):
            fst.add_arc(-1, Arc(1, 1, 0.0, 0))
        with pytest.raises(FstError, match=r"^invalid state id 5$"):
            fst.add_arc(0, Arc(1, 1, 0.0, 5))
        with pytest.raises(FstError, match=r"^invalid state id -1$"):
            fst.add_arc(0, Arc(1, 1, 0.0, -1))
        with pytest.raises(FstError, match=r"^NaN arc weight$"):
            fst.add_arc(0, Arc(1, 1, math.nan, 1))
        assert fst.num_arcs == 0

    @pytest.mark.parametrize("arc", [Arc(-1, 1, 0.0, 1), Arc(1, -2, 0.0, 1)],
                             ids=["ilabel", "olabel"])
    def test_add_arc_refuses_a_negative_label(self, arc):
        fst = Fst()
        fst.add_states(2)
        with pytest.raises(FstError, match=r"^negative label in arc "
                           f"{arc.ilabel}:{arc.olabel}$"):
            fst.add_arc(0, arc)
        assert fst.num_arcs == 0 and fst.version == 1  # add_states' bump only

    def test_add_arc_drops_what_depends_on_the_arcs(self):
        fst = Fst()
        fst.add_states(2)
        assert fst.version == 1 and not fst.input_sorted
        fst.add_arc(0, Arc(1, 1, 0.0, 1))
        assert fst.version == 2
        fst.arc_sort_input()
        assert fst.version == 3 and fst.input_sorted
        assert find_arc(fst, 0, 1) == Arc(1, 1, 0.0, 1)
        fst.add_arc(0, Arc(2, 2, 0.0, 1))
        assert fst.version == 4 and not fst.input_sorted
        with pytest.raises(FstError, match="input-sorted"):
            find_arc(fst, 0, 2)
        fst.add_arc(1, Arc(2, 2, 0.0, 0))
        with pytest.raises(FstError, match="input-sorted"):
            find_arc(fst, 1, 2)
        fst.arc_sort_input()
        assert fst.version == 6 and fst.input_sorted
        assert find_arc(fst, 0, 1) == Arc(1, 1, 0.0, 1)
        assert find_arc(fst, 0, 2) == Arc(2, 2, 0.0, 1)
        assert find_arc(fst, 1, 2) == Arc(2, 2, 0.0, 0)
        fst.arc_sort_input()  # a re-sort is a new version too
        assert fst.version == 7 and fst.num_arcs == 3

    def test_add_states(self):
        fst = Fst()
        fst.add_state()
        fst.add_states(3)
        fst.add_states(0)
        assert fst.num_states == 4
        assert fst.version == 3  # each call is a new version
        fst.add_arc(3, Arc(1, 1, 0.0, 0))
        fst.arc_sort_input()
        assert find_arc(fst, 3, 1) == Arc(1, 1, 0.0, 0)
        assert find_arc(fst, 2, 1) is None
        # A new state has no arcs, so sorted arcs stay sorted.
        assert fst.add_state() == 4 and fst.version == 6 and fst.input_sorted
        fst.add_states(2)
        assert fst.version == 7 and fst.input_sorted
        assert find_arc(fst, 6, 1) is None

    def test_final_default_is_zero(self):
        fst = Fst()
        fst.add_state()
        assert fst.final(0) == ZERO
        fst.set_final(0, 1.5)
        assert fst.final(0) == 1.5


class TestTextFormat:
    def test_single_arc_acceptor(self):
        fst = read_text_fst("0\t1\t1\t1\t0.5\n1\t0.0\n")
        assert fst.initial == 0
        assert fst.final(1) == 0.0
        [arc] = fst.arcs(0)
        assert arc == Arc(1, 1, 0.5, 1)

    def test_round_trip(self):
        rng = random.Random(11)
        for _ in range(20):
            fst = _random_fst(rng)
            text = write_text_fst(fst)
            again = write_text_fst(read_text_fst(text))
            assert text == again

    def test_initial_state_without_arcs_survives_a_round_trip(self):
        # Initial state 0 is final and has no arcs; state 1's arc is the
        # first arc line, so only a final line first can name state 0.
        fst = Fst()
        fst.add_states(3)
        fst.add_arc(1, Arc(1, 1, 1.0, 2))
        fst.set_initial(0)
        fst.set_final(0, 0.5)
        fst.set_final(2, 0.0)
        text = write_text_fst(fst)
        assert text == "0\t0.5\n1\t2\t1\t1\t1\n2\t0\n"
        again = read_text_fst(text)
        assert again.initial == 0
        assert again.finals == fst.finals
        assert [again.arcs(s) for s in again.states()] == [[], fst.arcs(1), []]

    def test_initial_state_without_arcs_or_final_weight_is_refused(self):
        fst = Fst()
        fst.add_states(2)
        fst.add_arc(1, Arc(1, 1, 1.0, 1))
        fst.set_final(1)
        fst.set_initial(0)
        with pytest.raises(FstError, match="^initial state 0 has no arcs and is not final$"):
            write_text_fst(fst)

    def test_arc_into_a_state_without_arcs_or_final_weight_is_refused(self):
        # Its text would name state 2 only as the arc's target, which the
        # reader refuses as dangling.
        fst = Fst()
        fst.add_states(3)
        fst.add_arc(0, Arc(1, 1, 0.5, 1))
        fst.add_arc(0, Arc(1, 1, 0.5, 2))
        fst.set_final(1)
        fst.set_initial(0)
        with pytest.raises(FstError, match="^state 2 has an arc into it but "
                                           "no arcs and is not final$"):
            write_text_fst(fst)
        with pytest.raises(ParseError, match="^line 2: dangling nextstate 2$"):
            read_text_fst("0\t1\t1\t1\t0.5\n0\t2\t1\t1\t0.5\n1\t0\n")

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_written_text_reads_back_to_itself(self, data):
        # Any float weight, infinities and -0.0 among them, prints with 12
        # significant digits to a text that reads back to a float printing
        # the same; states without arcs or final weights may be drawn, and
        # only graphs the writer accepts are compared.
        n = data.draw(st.integers(1, 6))
        weight = st.floats(allow_nan=False)
        fst = Fst()
        fst.add_states(n)
        state = st.integers(0, n - 1)
        for src, arc in data.draw(st.lists(st.tuples(state, st.builds(
                Arc, st.integers(0, 3), st.integers(0, 3), weight, state)),
                max_size=3 * n)):
            fst.add_arc(src, arc)
        for q, w in data.draw(st.dictionaries(state, weight)).items():
            fst.set_final(q, w)
        fst.set_initial(data.draw(state))
        try:
            text = write_text_fst(fst)
        except FstError:
            assume(False)
        assert write_text_fst(read_text_fst(text)) == text

    @pytest.mark.parametrize("text,initial,num_states", [
        ("1 2 1 1 0.5\n0 1 1 1 0.5\n2 0\n", 1, 3),
        ("1 0.5\n0 1 1 1 0.5\n", 1, 2),
        ("# finals only\n2 0.5\n0 0\n", 2, 3),
    ], ids=["arc", "final", "finals-only"])
    def test_first_line_names_the_initial_state(self, text, initial,
                                                num_states):
        fst = read_text_fst(text)
        assert (fst.initial, fst.num_states) == (initial, num_states)

    @pytest.mark.parametrize("text", ["", "# header\n\n"],
                             ids=["empty", "comments-only"])
    def test_empty_body(self, text):
        with pytest.raises(ParseError, match="^line 0: empty fst body$"):
            read_text_fst(text)

    def test_malformed_line_reports_lineno(self):
        with pytest.raises(ParseError, match="line 2"):
            read_text_fst("0\t1\t1\t1\t0.5\nbogus line here extra junk fields x\n1\t0")

    def test_dangling_nextstate(self):
        with pytest.raises(ParseError, match="dangling"):
            read_text_fst("0\t5\t1\t1\t0.5\n0\t0.0\n")

    @pytest.mark.parametrize("arc", ["0 1 -1 1 0.5", "0 1 1 -1 0.5"])
    def test_negative_label_names_the_line(self, arc):
        with pytest.raises(ParseError, match=f"^line 2: negative label in '{arc}'$"):
            read_text_fst(f"# header\n{arc}\n1 0\n")

    @pytest.mark.parametrize("text,ln,line", [
        ("-1 0 1 1 0.5\n0 0.0\n", 1, "-1 0 1 1 0.5"),
        ("0 1 1 1 0.5\n-1 0.0\n1 0.0\n", 2, "-1 0.0"),
        ("0 -1 1 1 0.5\n-1 0.0\n", 1, "0 -1 1 1 0.5"),
    ], ids=["source", "final", "target"])
    def test_negative_state_names_the_line(self, text, ln, line):
        with pytest.raises(ParseError,
                           match=f"^line {ln}: negative state id in '{line}'$"):
            read_text_fst(text)

    @pytest.mark.parametrize("text,ln,what", [
        ("0 1 1 1 nan\n1 0.0\n", 1, "NaN weight"),
        ("0 1 1 1 0.5\n1 nan\n", 2, "NaN final weight"),
    ], ids=["arc", "final"])
    def test_nan_weight_names_the_line(self, text, ln, what):
        with pytest.raises(ParseError, match=f"^line {ln}: {what}$"):
            read_text_fst(text)

    def test_unknown_symbol_id(self):
        syms = SymbolTable()
        syms.add("a")
        with pytest.raises(ParseError, match="unknown input symbol"):
            read_text_fst("0\t1\t9\t1\t0.5\n1\t0.0\n", isyms=syms, osyms=syms)

    def test_comments_and_weightless_arcs(self):
        fst = read_text_fst("# header\n0 1 1 1\n1 0\n")
        assert fst.arcs(0)[0].weight == 0.0


# Short texts over letters, digits, and the whitespace and line breaks that
# a symbol table line cannot carry.
_SYMBOL_TEXT = st.text(alphabet="ab0#<> \t\n\r\x0b\x1c\x85\u2028", max_size=3)


class TestSymbolTable:
    def test_epsilon_reserved(self):
        syms = SymbolTable()
        assert syms.id_of("<eps>") == 0
        assert syms.add("x") == 1
        assert syms.add("x") == 1
        assert syms.sym_of(1) == "x"

    def test_round_trip(self):
        syms = SymbolTable()
        for s in ["b", "a", "#0"]:
            syms.add(s)
        again = SymbolTable.read_text(syms.write_text())
        assert dict(again.symbols()) == dict(syms.symbols())

    def test_unknown_symbol(self):
        with pytest.raises(FstError, match="unknown symbol"):
            SymbolTable().id_of("nope")

    @pytest.mark.parametrize("sym", ["", " ", " a", "a b", "a\tb", "a\n",
                                     "a\x1c", "\u2028"])
    def test_symbols_a_table_line_cannot_carry(self, sym):
        syms = SymbolTable()
        syms.add("a")
        with pytest.raises(FstError, match=f"^symbol {re.escape(repr(sym))} "):
            syms.add(sym)
        assert dict(syms.symbols()) == {"<eps>": 0, "a": 1}

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(_SYMBOL_TEXT, st.text(max_size=3),
                              st.sampled_from(["<eps>", "#0", "0", "1"])),
                    max_size=8))
    def test_what_add_accepts_reads_back(self, symbols):
        syms = SymbolTable()
        for sym in symbols:
            try:
                syms.add(sym)
            except FstError:
                pass
        again = SymbolTable.read_text(syms.write_text())
        assert list(again.symbols()) == list(syms.symbols())

    @pytest.mark.parametrize("text", [
        "<eps>\t0\na\tx\n", "<eps>\t0\na\t-1\n", "<eps>\t0\na\n"],
        ids=["non-numeric-id", "negative-id", "one-field"])
    def test_bad_line_rejected(self, text):
        with pytest.raises(ParseError, match="line 2: bad symbol line"):
            SymbolTable.read_text(text)

    def test_non_contiguous_rejected(self):
        with pytest.raises(ParseError, match="non-contiguous"):
            SymbolTable.read_text("<eps>\t0\na\t5\n")


class TestConnect:
    def test_removes_dead_states(self):
        fst = Fst()
        fst.add_states(4)
        fst.set_initial(0)
        fst.add_arc(0, Arc(1, 1, 0.5, 1))
        fst.add_arc(0, Arc(2, 2, 0.1, 2))  # state 2 never reaches a final
        fst.add_arc(1, Arc(3, 3, 0.25, 1))
        fst.set_final(1, 1.0)
        out = connect(fst)
        assert out.num_states == 2
        assert out.num_arcs == 2
        # The successful path's weights survive.
        [a] = [a for a in out.arcs(out.initial)]
        assert a.weight == 0.5
        assert out.final(a.nextstate) == 1.0
        assert write_text_fst(out) == "0\t1\t1\t1\t0.5\n1\t1\t3\t3\t0.25\n1\t1\n"
        assert not out.input_sorted
        fst.arc_sort_input()
        assert connect(fst).input_sorted

    @pytest.mark.parametrize("sort", [False, True])
    def test_nothing_to_trim_gives_an_independent_copy(self, sort):
        rng = random.Random(3)
        fst = _random_fst(rng)
        for s in fst.states():  # every state on a successful path
            fst.add_arc(s, Arc(1, 1, 0.5, (s + 1) % fst.num_states))
        fst.set_final(2, 0.75)
        if sort:
            fst.arc_sort_input()
        text = write_text_fst(fst)
        out = connect(fst)
        assert out is not fst
        assert write_text_fst(out) == text
        assert out.finals == fst.finals
        assert out.input_sorted == sort
        out.add_arc(0, Arc(3, 3, 0.0, 1))
        out.set_final(0, 0.0)
        assert write_text_fst(fst) == text
        assert fst.input_sorted == sort

    def test_empty_when_no_successful_path(self):
        fst = Fst()
        fst.add_states(2)
        fst.set_initial(0)
        fst.add_arc(0, Arc(1, 1, 0.0, 1))
        out = connect(fst)
        assert out.num_states == 0
