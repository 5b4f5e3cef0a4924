"""Bundled golden tables: loading, verification, malformed input."""

import csv
from importlib import resources

import pytest

from repwords import SolutionRecord, canonical_word
from repwords.corpus import (
    MalformedCorpusError,
    PatternRow,
    TableCorpus,
    _proof_degree,
    builtin_corpora,
    format_report,
    load_corpus,
    parse_pattern,
    verify_corpus,
    write_records,
)

EXPECTED_SIZES = {
    "triple_231": 25,
    "triple_232": 30,
    "triple_322": 31,
    "triple_331": 7,
    "triple_323": 30,
    "triple_241": 21,
    "triple_422": 14,
    "sporadic": 8,
    "fibonacci_squares": 22,
    "bijective_families": 12,
    "c22_example": 1,
}


def test_builtin_listing():
    assert set(builtin_corpora()) == set(EXPECTED_SIZES)


@pytest.mark.parametrize("name,size", sorted(EXPECTED_SIZES.items()))
def test_bundled_sizes(name, size):
    corpus = load_corpus(name)
    assert len(corpus.rows) == size
    text = resources.files("repwords.tables").joinpath(name + ".csv").read_text()
    # every table carries a description line
    assert any(
        line.lstrip().startswith("#") and line.lstrip().lstrip("#").strip()
        for line in text.splitlines()
    )


def test_load_by_name_with_suffix():
    assert load_corpus("sporadic.csv").name == "sporadic"


def test_all_bundled_pass():
    for name in builtin_corpora():
        report = verify_corpus(load_corpus(name))
        assert report.ok, format_report(report)


def test_sporadic_content():
    corpus = load_corpus("sporadic")
    rows = [(r.q, r.n, r.l, r.b, r.y) for r in corpus.rows]
    assert (2, 5, 1, 3, 11) in rows
    assert (6, 2, 2, 239, 26) in rows
    assert (3, 2, 4, 12400, 57459558593) in rows


def test_c22_example_row():
    corpus = load_corpus("c22_example")
    (row,) = corpus.rows
    assert row.b == 110 and row.l == 12
    assert row.y == 369226867849529411764706
    assert verify_corpus(corpus).ok


def test_load_from_path(tmp_path):
    p = tmp_path / "mini.csv"
    p.write_text("# tiny sample\nq,n,l,b,y,c,w\n2,3,1,18,49,7,(7)\n")
    corpus = load_corpus(p)
    assert corpus.kind == "solutions" and len(corpus.rows) == 1
    assert verify_corpus(corpus).ok


def test_perturbed_row_fails(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("q,n,l,b,y,c,w\n2,3,1,18,49,8,(8)\n2,3,1,18,49,7,(7)\n")
    report = verify_corpus(load_corpus(p))
    assert not report.ok
    failures = [r for r in report.results if r.failure is not None]
    assert len(failures) == 1
    assert failures[0] is report.results[0]


def test_empty_corpus_trivially_passes(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("# nothing here\n")
    assert verify_corpus(load_corpus(p)).ok


def test_malformed_inputs(tmp_path):
    p = tmp_path / "broken.csv"
    p.write_text("q,n,l,b,y,c,w\n2,3,1,18,xx,7,(7)\n")
    with pytest.raises(MalformedCorpusError, match="broken:2"):
        load_corpus(p)
    p.write_text("q,n,l,b,y,c,w\n2,3,1,18,49,7\n")
    with pytest.raises(MalformedCorpusError, match="7 columns"):
        load_corpus(p)
    p.write_text("q,n,l,b,y,c,w\n2,3,1,18,49,7,(7)\n2,3,1,18,49,7,7\n")
    with pytest.raises(MalformedCorpusError, match=r"^broken:3: bad word cell '7'$"):
        load_corpus(p)
    # the six integer cells are judged first
    p.write_text("q,n,l,b,y,c,w\n2,3,1,18,4x,7,[7]\n")
    with pytest.raises(MalformedCorpusError, match="^broken:2: (?!bad word cell)"):
        load_corpus(p)
    p.write_text("who,knows\n1,2\n")
    with pytest.raises(MalformedCorpusError, match="header"):
        load_corpus(p)
    with pytest.raises(MalformedCorpusError, match="no such corpus"):
        load_corpus("definitely_not_bundled")


@pytest.mark.parametrize("bad", ["1_000", "+12", "\u0661\u0662", "-5"])
def test_integer_cells_are_ascii_digits_at_any_length(tmp_path, bad):
    # int() takes each of these up to 4,300 digits and refuses it past them
    p = tmp_path / "bad.csv"
    for text in (bad, bad[:-1] + bad[-1] * 4001):
        p.write_text(f"q,n,l,b,y,c,w\n2,3,1,18,{text},7,(7)\n", encoding="utf-8")
        with pytest.raises(MalformedCorpusError, match="bad:2"):
            load_corpus(p)


@pytest.mark.parametrize(
    "header,row",
    [
        # Arabic-Indic one and zero in a Zeckendorf word: int() reads 100100
        ("y,w", "11,\u0661\u06600100"),
        # Arabic-Indic three, two and four in a bijective pattern cell
        ("b,row,y_pattern,w_pattern", '7,1,"(\u0663:\u0662n)\u0664","(15:n+1)2"'),
    ],
)
def test_word_and_pattern_cells_are_ascii_digits(tmp_path, header, row):
    p = tmp_path / "bad.csv"
    p.write_text(f"{header}\n{row}\n", encoding="utf-8")
    with pytest.raises(MalformedCorpusError, match="bad:2"):
        load_corpus(p)


def test_pattern_tokens_are_ascii_digits():
    assert parse_pattern("(3:2n)4") == [((3,), 2, 0), ((4,), 0, 1)]
    with pytest.raises(ValueError, match="bad pattern"):
        parse_pattern("(\u0663:\u0662n)\u0664")


def test_word_digits_must_fit_base(tmp_path):
    p = tmp_path / "badword.csv"
    p.write_text("q,n,l,b,y,c,w\n2,3,1,18,49,19,(19)\n")
    with pytest.raises(MalformedCorpusError):
        load_corpus(p)
    # a bijective pattern digit must lie in 1..b, in a block or a tail
    for y_pattern, digit in (("(3:2n+2)8", 8), ("(0:n)3", 0)):
        p.write_text(f'b,row,y_pattern,w_pattern\n7,1,"{y_pattern}","(15:n+1)2"\n')
        want = rf"^badword:2: digit {digit} outside 1\.\.7$"
        with pytest.raises(MalformedCorpusError, match=want):
            load_corpus(p)


def test_report_formatting(tmp_path):
    p = tmp_path / "mix.csv"
    p.write_text("q,n,l,b,y,c,w\n2,3,1,18,49,7,(7)\n2,3,1,22,40,3,(3)\n")
    text = format_report(verify_corpus(load_corpus(p)))
    assert "ok   q=2 n=3 l=1 b=18 y=49" in text
    assert "FAIL q=2 n=3 l=1 b=22 y=40" in text
    assert "1/2 rows pass" in text


@pytest.mark.parametrize(
    "header,row,expect",
    [
        ("y,w", "4,100,1", "expected 2 columns"),
        ("b,row,y_pattern,w_pattern", '7,1,"(3:2n+2)4"', "expected 4 columns"),
    ],
)
def test_layouts_check_their_column_count(tmp_path, header, row, expect):
    p = tmp_path / "cols.csv"
    p.write_text(f"{header}\n{row}\n")
    with pytest.raises(MalformedCorpusError, match=f"^cols:2: {expect}$"):
        load_corpus(p)


def test_zeckendorf_corpus_checks_square(tmp_path):
    p = tmp_path / "z.csv"
    p.write_text("y,w\n4,100\n5,100\n1,1\n3,\n")  # the last word is empty
    report = verify_corpus(load_corpus(p))
    failures = [r.failure for r in report.results]
    assert failures == [None, "square-digits", "y-range", "square-digits"]


def test_zeckendorf_rows_that_spell_no_square(tmp_path):
    # 49,10100100 is a bundled row.  120**2 is the plain digit sum of
    # 1001001001 twice, but that doubled word has adjacent 1s, so it is no
    # Zeckendorf word and the row fails on w's last digit alone
    p = tmp_path / "z.csv"
    p.write_text("y,w\n49,10100100\n120,1001001001\n50,10100100\n49,\n")
    report = verify_corpus(load_corpus(p))
    assert [r.failure for r in report.results] == [None] + ["square-digits"] * 3


def test_pattern_corpus_roundtrip(tmp_path):
    p = tmp_path / "pat.csv"
    p.write_text('b,row,y_pattern,w_pattern\n7,1,"(3:2n+2)4","(15:n+1)2"\n')
    report = verify_corpus(load_corpus(p))
    assert report.ok


def test_pattern_corpus_reports_failing_rows(tmp_path):
    p = tmp_path / "pat.csv"
    p.write_text(
        "b,row,y_pattern,w_pattern\n"
        '7,1,"(3:2n+2)4","(15:n+1)2"\n'
        '7,2,"(3:2n+2)5","(15:n+1)2"\n'  # y perturbed: its square is no w w
        '7,3,"(3:n)","(15:n+1)2"\n'  # y is the empty word at n = 0
        '7,4,"(3:2n+2)4","(15:n)"\n'  # w is the empty word at n = 0
        '7,5,"(3:2n+2)4","(15:n+1)2"\n'  # the rows after a failing one are still checked
    )
    report = verify_corpus(load_corpus(p))
    assert [r.failure for r in report.results] == [
        None,
        "square-digits at n=0",
        "n=0: x must be >= 1",
        "n=0: cannot repeat the empty word",
        None,
    ]


def test_pattern_proof_degrees_are_pinned():
    # E = 2 max(deg y, deg w) for each bundled row, in table order; every
    # row is checked at n = 0..E
    rows = load_corpus("bijective_families").rows
    degrees = [_proof_degree(parse_pattern(r.y_pattern), parse_pattern(r.w_pattern)) for r in rows]
    assert degrees == [12, 40, 20, 20, 12, 28, 28, 4, 4, 40, 40, 40]
    assert _proof_degree(parse_pattern("(3:0n+2)4"), parse_pattern("12")) == 0


def test_changed_block_digit_fails_at_pattern_n_max_0(tmp_path):
    # the block (221112:n) is absent at n = 0, so a change to it shows from
    # n = 1 on, inside the row's E = 12
    p = tmp_path / "pat.csv"
    p.write_text('b,row,y_pattern,w_pattern\n2,1,"(12:3n+3)212","(221111:n)221121112"\n')
    report = verify_corpus(load_corpus(p))
    assert [r.failure for r in report.results] == ["square-digits at n=1"]


def test_hand_built_row_with_digit_outside_base_fails():
    # load_corpus refuses such a row; verify_corpus names it at the first n that uses the digit
    rows = (
        PatternRow(7, 1, "(3:2n+2)8", "(15:n+1)2"),
        PatternRow(7, 2, "(3:2n+2)4", "(15:n+1)2(0:n)"),
    )
    report = verify_corpus(TableCorpus("hand", "bijective-patterns", rows))
    assert [r.failure for r in report.results] == [
        "n=0: bijective digit out of range",
        "n=1: bijective digit out of range",
    ]


def test_written_rows_load_back_at_any_size(tmp_path, capsys):
    # a (2,2,1) record with b = y*y - 1: its b cell has 132,001 digits, past
    # both int()'s 4300-digit limit and csv's 131,072-character field limit
    y = 10**66000 + 1
    b = y * y - 1
    rec = SolutionRecord(2, 2, 1, b, y, 1, canonical_word(b, (1,)))
    limit = csv.field_size_limit()
    write_records([rec], "csv")
    p = tmp_path / "huge.csv"
    p.write_text(capsys.readouterr().out)
    corpus = load_corpus(p)
    assert corpus.rows == (rec,)
    assert verify_corpus(corpus).ok
    assert csv.field_size_limit() == limit


def test_tablecorpus_is_plain_data():
    c = TableCorpus("x", "solutions", ())
    assert c.rows == () and (c.name, c.kind) == ("x", "solutions")
