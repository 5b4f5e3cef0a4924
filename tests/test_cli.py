"""End-to-end checks of the command line: output text and exit codes."""

import csv
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import repwords
from repwords import SolutionRecord, Triple, canonical_word, check_solution, gen_232, is_admissible
from repwords import cli, search
from repwords.cli import main
from repwords.families import FamilyError
from repwords.search import InvariantError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- classify ---------------------------------------------------------------


def test_classify_admissible(capsys):
    code, out, _ = run(capsys, "classify", "2", "3", "1")
    assert code == 0
    assert out == "admissible F=-31/50\n"


def test_classify_inadmissible(capsys):
    code, out, _ = run(capsys, "classify", "2", "5", "1")
    assert code == 0
    assert out == "inadmissible F=3/10\n"


# -- search -----------------------------------------------------------------


def test_search_csv(capsys):
    code, out, err = run(
        capsys,
        *"search --q 2 --n 3 --l 1 --b-lo 2 --b-hi 30".split(),
    )
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "q,n,l,b,y,c,w",
        "2,3,1,18,49,7,(7)",
        "2,3,1,22,39,3,(3)",
        "2,3,1,22,78,12,(12)",
        "2,3,1,30,133,19,(19)",
    ]


def test_search_jsonl(capsys):
    code, out, _ = run(
        capsys,
        *"search --q 2 --n 3 --l 1 --b-lo 2 --b-hi 20 --format jsonl".split(),
    )
    assert code == 0
    (line,) = out.splitlines()
    obj = json.loads(line)
    assert obj == {
        "q": "2",
        "n": "3",
        "l": "1",
        "b": "18",
        "y": "49",
        "c": "7",
        "w": ["7"],
    }


def test_search_checkpoint_resume(capsys, tmp_path):
    cp = str(tmp_path / "run.jsonl")
    args = "search --q 2 --n 3 --l 1 --b-lo 2 --b-hi 30 --checkpoint".split()
    code1, out1, _ = run(capsys, *args, cp)
    code2, out2, _ = run(capsys, *args, cp)
    assert code1 == code2 == 0
    assert out1 == out2
    assert '"triple"' in (tmp_path / "run.jsonl").read_text()


def test_search_foreign_checkpoint(capsys, tmp_path):
    p = tmp_path / "other.jsonl"
    p.write_text('{"triple": ["3", "2", "1"]}\n')
    code, _, err = run(
        capsys, *"search --q 2 --n 3 --l 1 --b-lo 2 --b-hi 9 --checkpoint".split(), str(p)
    )
    assert code == 3
    assert "checkpoint" in err


def test_search_refuses_undecodable_checkpoint_bytes(capsys, tmp_path):
    # a byte that is no UTF-8 makes a malformed line like any other: exit 3,
    # with the file and line number
    p = tmp_path / "cp.jsonl"
    p.write_bytes(
        b'{"triple": ["2", "3", "1"]}\n{"range": ["2", "5"]}\n'
        b'{"range": ["6", "\xff"]}\n{"range": ["7", "9"]}\n'
    )
    code, out, err = run(
        capsys, *"search --q 2 --n 3 --l 1 --b-lo 2 --b-hi 9 --checkpoint".split(), str(p)
    )
    assert (code, out) == (3, "")
    assert err.startswith(f"checkpoint error: {p}:3: 'utf-8' codec can't decode byte 0xff")


def test_search_unresolved_warning(capsys):
    code, out, err = run(
        capsys,
        *"search --q 2 --n 2 --l 59 --b-lo 5 --b-hi 5 --factor-budget 1".split(),
    )
    assert code == 0
    assert out.splitlines() == ["q,n,l,b,y,c,w"]
    assert "base 5 unresolved" in err


def test_search_rejects_negative_budget(capsys, tmp_path):
    path = tmp_path / "cp.jsonl"
    code, out, err = run(
        capsys,
        *"search --q 2 --n 2 --l 59 --b-lo 5 --b-hi 5 --factor-budget -5".split(),
        "--checkpoint",
        str(path),
    )
    assert (code, out) == (2, "")
    assert err == "error: factoring budget must be >= 0, got -5\n"
    assert not path.exists()


# -- generate ---------------------------------------------------------------


def test_generate_sporadic_family(capsys):
    code, out, _ = run(capsys, *"generate --triple 2,3,1 --count 2".split())
    assert code == 0
    assert out.splitlines() == [
        "q,n,l,b,y,c,w",
        "2,3,1,22,39,3,(3)",
        "2,3,1,313,543,3,(3)",
    ]


def test_generate_single_word_family(capsys):
    code, out, _ = run(capsys, *"generate --triple 7,2,1 --count 2".split())
    assert code == 0
    assert out.splitlines() == [
        "q,n,l,b,y,c,w",
        "7,2,1,127,2,1,(1)",
        "7,2,1,2186,3,1,(1)",
    ]


def test_generate_22(capsys):
    code, out, _ = run(capsys, *"generate --triple 2,2,1 --count 3".split())
    assert code == 0
    assert out.splitlines() == [
        "q,n,l,b,y,c,w",
        "2,2,1,24,10,4,(4)",
        "2,2,1,48,14,4,(4)",
        "2,2,1,120,22,4,(4)",
    ]


def test_generate_jsonl(capsys):
    code, out, _ = run(
        capsys, *"generate --triple 2,3,1 --count 1 --format jsonl".split()
    )
    assert code == 0
    assert json.loads(out)["b"] == "22"


def parse_decimal(text):
    # int() refuses more than 4300 digits, so read 1000 at a time
    v = 0
    for i in range(0, len(text), 1000):
        chunk = text[i : i + 1000]
        v = v * 10 ** len(chunk) + int(chunk)
    return v


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_generate_prints_members_of_any_size(capsys, fmt):
    # member 46 of (2,3,2) is the first whose y has more than 4300 digits
    code, out, err = run(
        capsys, *f"generate --triple 2,3,2 --count 46 --format {fmt}".split()
    )
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == 46 + (fmt == "csv")
    if fmt == "jsonl":
        obj = json.loads(lines[-1])
        cells, digits = [obj[k] for k in "qnlbyc"], obj["w"]
    else:
        *cells, word = next(csv.reader([lines[-1]]))
        digits = word.strip("()").split(",")
    q, n, l, b, y, c = map(parse_decimal, cells)
    rec = SolutionRecord(
        q, n, l, b, y, c, canonical_word(b, tuple(map(parse_decimal, digits)))
    )
    assert len(cells[4]) > 4300
    assert check_solution(rec) is None
    assert rec == gen_232(46)[-1]


# the canonical generate requests of the tables benchmark workload, in order
GENERATE_DIGEST_REQUESTS = [
    ("2,3,1", 400), ("2,3,2", 46), ("3,2,2", 400), ("3,2,3", 80), ("3,3,1", 60),
    ("2,4,1", 400), ("4,2,2", 40), ("5,2,1", 300), ("2,2,1", 40), ("2,2,3", 40),
]
GENERATE_DIGEST = "d9bef2d7c946fe2dcbab862373c256a42793952761719e9fdba583a6eaf0a8d9"


# the same requests as JSONL
GENERATE_JSONL_DIGEST = "c4f1bf84e96096d20b27bfcc0fa34cb15dc6c1e578389dac611cb2b364864555"


def generate_digest(capsys, *extra):
    h = hashlib.sha256()
    for triple, count in GENERATE_DIGEST_REQUESTS:
        code, out, err = run(capsys, "generate", "--triple", triple, "--count", str(count), *extra)
        assert (code, err) == (0, ""), triple
        h.update(out.encode())
    return h.hexdigest()


def test_generate_output_is_pinned(capsys):
    # every family's CSV rows, byte for byte: a refactor of the family
    # layer must not move a single member
    assert generate_digest(capsys) == GENERATE_DIGEST


def test_generate_jsonl_is_pinned(capsys):
    assert generate_digest(capsys, "--format", "jsonl") == GENERATE_JSONL_DIGEST


# the bijective and fibonacci generate requests of the tables benchmark workload
OTHER_SYSTEMS_DIGEST = "4b67773ba9147dd8adc41f0462de17b6e94e39f6101d2e1b424afc02ffe8072c"


def test_generate_other_systems_output_is_pinned(capsys):
    h = hashlib.sha256()
    for triple, count, system in (("2,2,6", "300", "bijective"), ("2,2,1", "120", "fibonacci")):
        argv = ("generate", "--triple", triple, "--count", count, "--system", system)
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), system
        h.update(out.encode())
    assert h.hexdigest() == OTHER_SYSTEMS_DIGEST


# the same two requests as JSONL
OTHER_SYSTEMS_JSONL_DIGEST = "590a443583b3c27da0105c68bccdf60eb40504e17a5c77840cdc16e4637c06e6"


def test_generate_other_systems_jsonl_is_pinned(capsys):
    h = hashlib.sha256()
    for triple, count, system in (("2,2,6", "300", "bijective"), ("2,2,1", "120", "fibonacci")):
        argv = ("generate", "--triple", triple, "--count", count, "--system", system)
        code, out, err = run(capsys, *argv, "--format", "jsonl")
        assert (code, err) == (0, ""), system
        h.update(out.encode())
    assert h.hexdigest() == OTHER_SYSTEMS_JSONL_DIGEST


@pytest.mark.parametrize(
    "argv,expect",
    [
        ("search --q 2 --n 3 --l 1 --b-lo 2 --b-hi 20", "2,3,1,18,49,7,(7)\r\n"),
        ("search --q 2 --n 2 --l 3 --b-lo 2 --b-hi 5", '2,2,3,5,84,56,"(2,1,1)"\r\n'),
        ("generate --triple 2,2,6 --count 3 --system bijective", '2,6,65,"(1,1,1,1,2,1)"\r\n'),
        ("generate --triple 2,2,1 --count 3 --system fibonacci", "1,5236,100001010010010000\r\n"),
        ("generate --triple 2,3,2 --count 46", '"\r\n'),
    ],
    ids=["search-one-digit", "search-digits", "bijective", "fibonacci", "member-46"],
)
def test_csv_bytes_are_csv_writers(capsys, argv, expect):
    # csv.writer is only the oracle here: every row keeps the header's
    # width (an unquoted comma would split a cell) and rewrites to the
    # very bytes printed (a needless quote would not survive)
    code, out, err = run(capsys, *argv.split())
    assert (code, err) == (0, "") and expect in out
    rows = list(csv.reader(io.StringIO(out, newline="")))
    assert {len(r) for r in rows} == {len(rows[0])}
    oracle = io.StringIO()
    csv.writer(oracle).writerows(rows)
    assert oracle.getvalue() == out


def test_generate_no_family(capsys):
    code, _, err = run(capsys, *"generate --triple 2,5,1 --count 1".split())
    assert code == 2
    assert "no infinite family" in err


@pytest.mark.parametrize("q", range(2, 7))
def test_generate_exists_exactly_for_admissible_triples(capsys, q):
    # the generate verb and the classifier hold the same family rule
    for n in range(2, 6):
        for l in range(1, 5):
            code, _, _ = run(capsys, "generate", "--triple", f"{q},{n},{l}", "--count", "1")
            assert code == (0 if is_admissible(Triple(q, n, l)) else 2), (q, n, l)


@pytest.mark.parametrize("q", range(2, 7))
def test_generate_rows_carry_the_requested_triple(capsys, q):
    # a generator filed under the wrong triple would still exit 0
    for n in range(2, 6):
        for l in range(1, 5):
            argv = ["generate", "--triple", f"{q},{n},{l}", "--count", "2", "--format", "jsonl"]
            code, out, _ = run(capsys, *argv)
            rows = [json.loads(line) for line in out.splitlines()]
            assert len(rows) == (2 if code == 0 else 0), (q, n, l)
            assert all((r["q"], r["n"], r["l"]) == (str(q), str(n), str(l)) for r in rows)


def test_generate_count_must_be_positive(capsys):
    code, _, err = run(capsys, *"generate --triple 2,3,1 --count 0".split())
    assert code == 2
    assert "--count" in err


def test_generate_bijective(capsys):
    code, out, _ = run(
        capsys, *"generate --triple 2,2,3 --system bijective --count 2".split()
    )
    assert code == 0
    assert out.splitlines() == [
        "b,l,y,w",
        '2,3,9,"(1,2,1)"',
        '3,3,28,"(2,3,1)"',
    ]


def test_generate_bijective_jsonl(capsys):
    code, out, _ = run(
        capsys,
        *"generate --triple 2,2,3 --system bijective --count 2 --format jsonl".split(),
    )
    assert code == 0
    assert out.splitlines() == [
        '{"b": "2", "l": "3", "y": "9", "w": ["1", "2", "1"]}',
        '{"b": "3", "l": "3", "y": "28", "w": ["2", "3", "1"]}',
    ]


def test_generate_bijective_needs_22(capsys):
    for triple in ("2,3,2", "2,2,1"):
        code, _, err = run(
            capsys, "generate", "--triple", triple, "--system", "bijective", "--count", "1"
        )
        assert code == 2
        assert "bijective" in err


def test_generate_fibonacci(capsys):
    code, out, _ = run(
        capsys, *"generate --triple 2,2,1 --system fibonacci --count 1".split()
    )
    assert code == 0
    assert out.splitlines() == [
        "param,y,w",
        "1,5236,100001010010010000",
    ]


def test_generate_fibonacci_jsonl(capsys):
    code, out, _ = run(
        capsys,
        *"generate --triple 2,2,1 --system fibonacci --count 1 --format jsonl".split(),
    )
    assert code == 0
    assert json.loads(out) == {
        "param": "1",
        "y": "5236",
        "w": "100001010010010000",
    }


def test_generate_fibonacci_needs_22(capsys):
    code, _, err = run(
        capsys, *"generate --triple 3,2,1 --system fibonacci --count 1".split()
    )
    assert code == 2
    assert "fibonacci" in err


# -- verify -----------------------------------------------------------------


def test_verify_one_corpus(capsys):
    code, out, _ = run(capsys, "verify", "--corpus", "triple_231")
    assert code == 0
    assert out.splitlines()[-1] == "corpus triple_231: 25/25 rows pass"


def test_verify_all_builtin(capsys):
    code, out, _ = run(capsys, "verify", "--pattern-n-max", "3")
    assert code == 0
    assert "corpus sporadic: 8/8 rows pass" in out
    assert "corpus fibonacci_squares: 22/22 rows pass" in out


# verify stdout over every bundled table, patterns checked to n = 60
VERIFY_DIGEST = "25f8cf497b9f5b9c0917abe8e91dd1cd1ffc3c29b4b95710f67fe672fb2737a5"


def test_verify_output_is_pinned(capsys):
    code, out, err = run(capsys, "verify", "--pattern-n-max", "60")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_DIGEST


def test_verify_failing_corpus(capsys, tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("q,n,l,b,y,c,w\n2,3,1,18,49,8,(8)\n")
    code, out, _ = run(capsys, "verify", "--corpus", str(p))
    assert code == 1
    assert "FAIL" in out


def test_verify_rejects_negative_pattern_n_max(capsys):
    code, out, err = run(
        capsys, "verify", "--corpus", "bijective_families", "--pattern-n-max", "-1"
    )
    assert code == 2
    assert out == ""
    assert err == "error: pattern_n_max must be >= 0, got -1\n"


def test_verify_malformed_corpus(capsys, tmp_path):
    p = tmp_path / "broken.csv"
    p.write_text("q,n,l,b,y,c,w\n2,3,1\n")
    code, _, err = run(capsys, "verify", "--corpus", str(p))
    assert code == 2
    assert "broken:2" in err


def test_verify_non_ascii_word_digits_is_a_malformed_corpus(capsys, tmp_path):
    # read digit by digit, the Arabic-Indic one and zero made this row
    # the word 100100, which fails its check with exit 1
    p = tmp_path / "arabic.csv"
    p.write_text("y,w\n11,\u0661\u06600100\n", encoding="utf-8")
    code, out, err = run(capsys, "verify", "--corpus", str(p))
    assert (code, out) == (2, "")
    assert "arabic:2: bad word cell" in err


def test_verify_reads_back_generate_of_any_size(capsys, tmp_path):
    # the y of member 46 of (2,3,2) has 4331 digits, past int()'s 4300
    code, out, _ = run(capsys, *"generate --triple 2,3,2 --count 46".split())
    assert code == 0
    p = tmp_path / "members.csv"
    p.write_text(out)
    *_, b, y, _, _ = next(csv.reader([out.splitlines()[-1]]))
    assert len(y) == 4331
    code, out, err = run(capsys, "verify", "--corpus", str(p))
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[-1] == "corpus members: 46/46 rows pass"
    assert lines[-2] == f"ok   q=2 n=3 l=2 b={b} y={y}"


def test_verify_unknown_name(capsys):
    code, _, err = run(capsys, "verify", "--corpus", "nope")
    assert code == 2
    assert "no such corpus" in err


# -- factor -----------------------------------------------------------------


def test_factor_output(capsys):
    code, out, _ = run(capsys, *"factor --b 10 --n 3 --l 1".split())
    assert code == 0 and out == "3 * 37\n"
    code, out, _ = run(capsys, *"factor --b 2 --n 6 --l 1".split())
    assert code == 0 and out == "3^2 * 7\n"
    code, out, _ = run(capsys, *"factor --b 10 --n 1 --l 1".split())  # the quotient is 1
    assert code == 0 and out == "1\n"


def test_factor_rejects_negative_budget(capsys):
    code, out, err = run(capsys, *"factor --b 5 --n 2 --l 59 --budget -1".split())
    assert (code, out) == (2, "")
    assert err == "error: factoring budget must be >= 0, got -1\n"


# -- repr -------------------------------------------------------------------


def test_repr_systems(capsys):
    # 5,000 digits, past the 4,300 that int() reads
    big = "".join(random.Random(5_000).choices("123456789", k=5_000))
    for argv, expected in [
        (f"repr --x {big} --base 10", f"({','.join(big)})@10"),
        ("repr --x 100 --base 3", "(1,0,2,0,1)@3"),
        ("repr --x 100 --base 3 --system bijective", "(3,1,3,1)@3"),
        ("repr --x 100 --system zeckendorf", "1000010100"),
        ("repr --x 100 --system fibonacci", "1000010100"),
        ("repr --x 0 --system fibonacci", ""),
        ("repr --x 1 --system fibonacci", "1"),
        ("repr --x 98210 --system fibonacci", "100100100100100100101000"),
    ]:
        code, out, _ = run(capsys, *argv.split())
        assert code == 0
        assert out == expected + "\n"


# -- argparse plumbing ------------------------------------------------------


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--triple", "2,3", "--count", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2


# -- the exit-code contract -------------------------------------------------

# every error branch of every verb, with the exit code and stderr byte for
# byte; <tmp> is the test's directory, which holds the files written below
ERROR_CONTRACT = {
    "search-bad-triple": (
        "search --q 1 --n 3 --l 1 --b-lo 2 --b-hi 9", 2,
        "error: q must be >= 2, got 1\n",
    ),
    "search-bad-range": (
        "search --q 2 --n 3 --l 1 --b-lo 30 --b-hi 2", 2,
        "error: need 2 <= b_lo <= b_hi\n",
    ),
    "search-no-workers": (
        "search --q 2 --n 3 --l 1 --b-lo 2 --b-hi 9 --workers 0", 2,
        "error: workers must be >= 1\n",
    ),
    "search-negative-budget": (
        "search --q 2 --n 2 --l 59 --b-lo 5 --b-hi 5 --factor-budget -5", 2,
        "error: factoring budget must be >= 0, got -5\n",
    ),
    "search-foreign-checkpoint": (
        "search --q 2 --n 3 --l 1 --b-lo 2 --b-hi 9 --checkpoint <tmp>/other.jsonl", 3,
        "checkpoint error: <tmp>/other.jsonl: checkpoint is for triple"
        " Triple(q=3, n=2, l=1), expected Triple(q=2, n=3, l=1)\n",
    ),
    "search-checkpoint-is-a-directory": (
        "search --q 2 --n 3 --l 1 --b-lo 2 --b-hi 9 --checkpoint <tmp>", 1,
        "error: [Errno 21] Is a directory: '<tmp>'\n",
    ),
    "generate-no-family": (
        "generate --triple 2,5,1 --count 1", 2,
        "error: no infinite family exists for triple 2,5,1\n",
    ),
    "generate-no-count": (
        "generate --triple 2,3,1 --count 0", 2,
        "error: --count must be >= 1\n",
    ),
    "generate-bijective-needs-22": (
        "generate --triple 2,3,2 --system bijective --count 1", 2,
        "error: bijective generation needs --triple 2,2,L with L >= 2\n",
    ),
    "generate-bijective-needs-l2": (
        "generate --triple 2,2,1 --system bijective --count 1", 2,
        "error: bijective generation needs --triple 2,2,L with L >= 2\n",
    ),
    "generate-fibonacci-needs-22": (
        "generate --triple 3,2,1 --system fibonacci --count 1", 2,
        "error: fibonacci generation needs --triple 2,2,L\n",
    ),
    "generate-bad-triple": (
        "generate --triple 1,3,1 --count 1", 2,
        "usage: repwords generate [-h] --triple Q,N,L --count K\n"
        "                         [--system {canonical,bijective,fibonacci}]\n"
        "                         [--format {csv,jsonl}]\n"
        "repwords generate: error: argument --triple: q must be >= 2, got 1\n",
    ),
    "classify-bad-triple": ("classify 1 3 1", 2, "error: q must be >= 2, got 1\n"),
    "verify-unknown-corpus": (
        "verify --corpus nope", 2,
        "error: no such corpus 'nope'; bundled: bijective_families, c22_example,"
        " fibonacci_squares, sporadic, triple_231, triple_232, triple_241,"
        " triple_322, triple_323, triple_331, triple_422\n",
    ),
    "verify-negative-pattern-n-max": (
        "verify --corpus bijective_families --pattern-n-max -1", 2,
        "error: pattern_n_max must be >= 0, got -1\n",
    ),
    "verify-malformed-corpus": (
        "verify --corpus <tmp>/broken.csv", 2, "error: broken:2: expected 7 columns\n"
    ),
    "verify-failing-row": ("verify --corpus <tmp>/bad.csv", 1, ""),
    "factor-budget-exhausted": (
        "factor --b 5 --n 2 --l 59 --budget 1", 1, "error: factoring budget exceeded\n"
    ),
    "factor-negative-budget": (
        "factor --b 5 --n 2 --l 59 --budget -1", 2,
        "error: factoring budget must be >= 0, got -1\n",
    ),
    "factor-bad-base": ("factor --b 1 --n 3 --l 1", 2, "error: base must be >= 2, got 1\n"),
    "repr-negative-x": ("repr --x -1 --base 10", 2, "error: --x must be >= 0\n"),
    "repr-no-base": ("repr --x 5", 2, "error: --base must be >= 2\n"),
    "repr-base-1": ("repr --x 5 --base 1", 2, "error: --base must be >= 2\n"),
    "repr-zeckendorf-base": (
        "repr --x 5 --base 3 --system zeckendorf", 2,
        "error: the Fibonacci system has no base parameter\n",
    ),
    "repr-bijective-zero": (
        "repr --x 0 --base 2 --system bijective", 2, "error: x must be >= 1\n"
    ),
}


@pytest.mark.parametrize("case", ERROR_CONTRACT)
def test_error_contract(capsys, tmp_path, monkeypatch, case):
    argv, code, err = ERROR_CONTRACT[case]
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage to the terminal
    (tmp_path / "other.jsonl").write_text('{"triple": ["3", "2", "1"]}\n')
    (tmp_path / "broken.csv").write_text("q,n,l,b,y,c,w\n2,3,1\n")
    (tmp_path / "bad.csv").write_text("q,n,l,b,y,c,w\n2,3,1,18,49,8,(8)\n")
    try:
        got = main(argv.replace("<tmp>", str(tmp_path)).split())
    except SystemExit as exc:  # argparse refuses before any verb runs
        got = exc.code
    captured = capsys.readouterr()
    assert (got, captured.err) == (code, err.replace("<tmp>", str(tmp_path)))
    assert captured.out == "" or case == "verify-failing-row"


def test_checkpoint_in_a_missing_directory_is_an_operation_failure(capsys, tmp_path):
    # the temporary file of the first write is refused; its name is random
    path = tmp_path / "missing" / "cp.jsonl"
    argv = "search --q 2 --n 3 --l 1 --b-lo 2 --b-hi 9 --checkpoint".split() + [str(path)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: [Errno 2] No such file or directory: '{path.parent}/")
    assert err.endswith(".tmp'\n") and err.count("\n") == 1


def test_a_reader_that_closes_early_ends_the_run_quietly_with_141():
    # the search prints about 1 MB, far past a pipe's buffer, so it is still
    # writing when its reader leaves after the first line, as `| head -n 1` does
    env = {**os.environ, "PYTHONPATH": str(Path(repwords.__file__).parents[1])}
    argv = "search --q 2 --n 2 --l 3 --b-lo 2 --b-hi 3000".split()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repwords.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    try:
        assert proc.stdout.readline() == b"q,n,l,b,y,c,w\r\n"
        proc.stdout.close()
        assert proc.stderr.read() == b""
        assert proc.wait(timeout=120) == 141  # the status of a writer SIGPIPE ends
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()


def test_a_broken_pipe_without_a_descriptor_still_exits_141(capsys, monkeypatch):
    # capsys's stdout has no file descriptor to point at devnull
    def closed(*args):
        raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(cli, "write_records", closed)
    assert run(capsys, *"search --q 2 --n 3 --l 1 --b-lo 2 --b-hi 30".split()) == (141, "", "")


def test_bugs_leave_main_as_themselves(monkeypatch):
    # FamilyError is an InvariantError: a generator broke its own invariant,
    # as InvariantError means a solver did, and main maps neither to an exit
    # code
    def broken(*args, **kwargs):
        raise FamilyError("orbit left its class")

    monkeypatch.setattr(cli, "family", lambda t: broken)
    with pytest.raises(FamilyError, match="orbit left its class"):
        main(["generate", "--triple", "2,3,1", "--count", "1"])

    def wrong(*args, **kwargs):
        raise InvariantError("no 2-th power at base 18")

    monkeypatch.setattr(cli, "search_range", wrong)
    with pytest.raises(InvariantError, match="no 2-th power"):
        main("search --q 2 --n 3 --l 1 --b-lo 2 --b-hi 30".split())


# the requests of perfbench's tables workload
TABLES_REQUESTS = ["verify --pattern-n-max 60"] + [
    f"generate --triple {t} --count {k} --system {system}"
    for t, k, system in [
        ("2,3,1", 400, "canonical"), ("2,3,2", 46, "canonical"), ("3,2,2", 400, "canonical"),
        ("3,2,3", 80, "canonical"), ("3,3,1", 60, "canonical"), ("2,4,1", 400, "canonical"),
        ("4,2,2", 40, "canonical"), ("5,2,1", 300, "canonical"), ("2,2,1", 40, "canonical"),
        ("2,2,3", 40, "canonical"), ("2,2,6", 300, "bijective"), ("2,2,1", 120, "fibonacci"),
    ]
]


def test_tables_requests_take_no_residue_test(capsys, monkeypatch):
    # no bundled row or family record they check has y**q past
    # _RESIDUE_BITS, so none of them draws the residue prime
    draws = []
    monkeypatch.setattr(search, "_residue_prime", lambda: draws.append(1) or 2**61 - 1)
    for argv in TABLES_REQUESTS:
        assert main(argv.split()) == 0, argv
    capsys.readouterr()
    assert len(TABLES_REQUESTS) == 13 and draws == []


def test_main_called_again_in_one_process(capsys, monkeypatch):
    # main() reuses one parser per process: no call may see another's options
    monkeypatch.setenv("COLUMNS", "80")
    argvs = [
        "search --q 2 --n 3 --l 1 --b-lo 2 --b-hi 60 --format jsonl",
        "search --q 2 --n 3 --l 1 --b-lo 2 --b-hi 60",
        "generate --triple 2,3,1 --count 2 --format jsonl",
        "search --q 2 --n 3 --l 1 --b-lo 2",
        "generate --triple 2,3,1 --count 2",
        "factor --b 10 --n 1 --l 1",
        "repr --x 100 --base 3 --system bijective",
        "repr --x 100",
        "classify 2 3 1",
    ]

    def call(argv):
        try:
            code = main(argv.split())
        except SystemExit as exc:  # argparse refuses before any verb runs
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    alone = []
    for argv in argvs:
        cli.build_parser.cache_clear()
        alone.append(call(argv))
    assert [code for code, _, _ in alone] == [0, 0, 0, 2, 0, 0, 0, 2, 0]
    assert alone[0][1] != alone[1][1] and alone[3][1] == ""
    assert [call(argv) for argv in argvs] == alone
