"""Bundled golden tables of known solutions, and their verification.

Each corpus is a CSV file of UTF-8 text, decoded line by line whatever
the locale: comment lines start with '#', the header row names the
columns, and every integer is kept as a decimal string so the files stay
diffable at any magnitude.  Any bad line, one that is not UTF-8 too, is
refused as a MalformedCorpusError naming its name:lineno.  Three layouts
exist:

  q,n,l,b,y,c,w            full solution records
  y,w                      Zeckendorf squares, w a bit word
  b,row,y_pattern,w_pattern   parametric bijective families

A pattern cell is a bijective digit word linear in a parameter n >= 0:
a digit stands for itself and (block:kn+m) for the digit block repeated
k*n + m times, so '(3:2n+2)4' is 3 written 2n+2 times, then 4.
verify_corpus recomputes every row from scratch and reports the first
violated invariant per row, never stopping at the first bad row; a
pattern row is checked by value at n = 0..E, which proves it for every
n >= 0 (see _check_pattern_row), and a Zeckendorf row y,w by comparing
y*y with value(w w) (see _check_zeckendorf_row).
write_rows prints rows in the same cell formats, so the CSV of `repwords
search` or canonical `repwords generate` loads back as a corpus at any
size; the bijective and fibonacci `generate` headers are not corpus
layouts.
"""

from __future__ import annotations

import csv
import json
import re
import sys
from importlib import resources
from pathlib import Path

from .arith import Frozen
from .search import check_solution, solution_from_cells
from .words import (
    System,
    Word,
    bijective_word,
    format_decimal,
    parse_decimal,
    parse_decimals,
    render_word,
    repeat_word,
    word_value,
    zeckendorf_word,
)


class MalformedCorpusError(ValueError):
    """A corpus file that cannot even be parsed into rows."""


class PatternRow(Frozen):
    """One parametric family: digit patterns for y and w, linear in n."""

    __slots__ = ("base", "row", "y_pattern", "w_pattern")


class TableCorpus(Frozen):
    __slots__ = ("name", "kind", "rows")  # kind: solutions, zeckendorf-squares, bijective-patterns


class RowResult(Frozen):
    __slots__ = ("label", "failure")  # failure: None when the row holds


class CorpusReport(Frozen):
    __slots__ = ("corpus", "results")  # results: a tuple of RowResult

    @property
    def ok(self) -> bool:
        return all(r.failure is None for r in self.results)


_RECORD_HEADER = ("q", "n", "l", "b", "y", "c", "w")
_HEADERS = {
    _RECORD_HEADER: "solutions",
    ("y", "w"): "zeckendorf-squares",
    ("b", "row", "y_pattern", "w_pattern"): "bijective-patterns",
}

_WORD_CELL = re.compile(r"\(([0-9]+(?:,[0-9]+)*)\)")
_PATTERN_TOKEN = re.compile(r"\(([0-9]+):([0-9]*)n(?:\+([0-9]+))?\)|([0-9])")

def _word_cell(w: Word, fmt: str) -> str | list[str]:
    if w.system is System.ZECKENDORF:
        return render_word(w)
    digits = list(map(format_decimal, w.digits))
    return digits if fmt == "jsonl" else "(" + ",".join(digits) + ")"


def parse_pattern(text: str) -> list[tuple[tuple[int, ...], int, int]]:
    """Parse e.g. '(12:3n+3)212' into (block, coef, const) runs, where
    the block repeats coef*n + const times."""
    out, pos = [], 0
    for m in _PATTERN_TOKEN.finditer(text):
        if m.start() != pos:
            raise ValueError(f"bad pattern {text!r} at offset {pos}")
        pos = m.end()
        block, coef, const, digit = m.groups()
        if digit is not None:
            out.append(((int(digit),), 0, 1))
        else:
            out.append((tuple(map(int, block)), int(coef or 1), int(const or 0)))
    if pos != len(text):
        raise ValueError(f"bad pattern {text!r} at offset {pos}")
    return out


def write_rows(header: tuple[str, ...], rows, fmt: str) -> None:
    """One CSV (with header) or JSONL line per row of ints and Words."""
    lines = (
        [format_decimal(v) if isinstance(v, int) else _word_cell(v, fmt) for v in row]
        for row in rows
    )
    if fmt == "jsonl":
        for cells in lines:
            print(json.dumps(dict(zip(header, cells))))
        return
    write = sys.stdout.write
    write(",".join(header) + "\r\n")
    for cells in lines:
        # csv's minimal quoting: no cell holds a quote, CR or LF, so only a comma quotes
        write(",".join([f'"{c}"' if "," in c else c for c in cells]) + "\r\n")


def write_records(records, fmt: str) -> None:
    """Solution records as write_rows rows under the q,n,l,b,y,c,w header."""
    rows = [(r.q, r.n, r.l, r.b, r.y, r.c, r.w) for r in records]
    write_rows(_RECORD_HEADER, rows, fmt)


def _tables_dir():
    return resources.files("repwords.tables")


def builtin_corpora() -> tuple[str, ...]:
    """Names of the corpora shipped inside the package."""
    return tuple(sorted(e.name[:-4] for e in _tables_dir().iterdir() if e.name.endswith(".csv")))


def _parse_row(kind: str, cells: list[str]):
    """One data row of a corpus layout; ValueError at the first check it fails."""
    if kind == "solutions":
        m = _WORD_CELL.fullmatch(cells[6].strip())
        if not m:
            # the six cells are parsed, and may fail, before the word cell is judged
            parse_decimals(cells[:6])
            raise ValueError(f"bad word cell {cells[6]!r}")
        return solution_from_cells(cells[:6], m.group(1).split(","))
    if kind == "zeckendorf-squares":
        y = parse_decimal(cells[0])
        bits = cells[1].strip()
        if not bits.isascii():
            raise ValueError(f"bad word cell {cells[1]!r}")
        return y, zeckendorf_word(tuple(int(ch) for ch in bits))
    base, number = map(parse_decimal, cells[:2])
    row = PatternRow(base, number, cells[2].strip(), cells[3].strip())
    for block, _, _ in parse_pattern(row.y_pattern) + parse_pattern(row.w_pattern):
        bad = [d for d in block if not 1 <= d <= row.base]
        if bad:
            raise ValueError(f"digit {bad[0]} outside 1..{format_decimal(row.base)}")
    return row


def load_corpus(name_or_path: str | Path) -> TableCorpus:
    """Load a corpus by bundled name or by file path.

    A path wins when the file exists; otherwise the name (with or
    without .csv) is looked up among the bundled tables.
    """
    path = Path(name_or_path)
    if path.is_file():
        name, data = path.stem, path.read_bytes()
    else:
        base = str(name_or_path).removesuffix(".csv")
        entry = _tables_dir().joinpath(base + ".csv")
        if not entry.is_file():
            raise MalformedCorpusError(
                f"no such corpus {name_or_path!r}; bundled: {', '.join(builtin_corpora())}"
            )
        name, data = base, entry.read_bytes()

    old_limit = csv.field_size_limit(len(data) + 1)  # no cell outgrows its file
    try:
        numbered = []
        for lineno, raw in enumerate(data.splitlines(), start=1):
            line = raw.decode()  # line by line, so an error names its line
            if line.strip() and not line.lstrip().startswith("#"):
                numbered.append((lineno, line))
        parsed = zip((n for n, _ in numbered), csv.reader(l for _, l in numbered))
        lineno, header = next(parsed, (0, None))
        if header is None:
            return TableCorpus(name, "solutions", ())
        kind = _HEADERS.get(tuple(h.strip() for h in header))
        if kind is None:
            raise ValueError(f"unrecognized header {header}")
        rows = []
        for lineno, cells in parsed:
            if len(cells) != len(header):
                raise ValueError(f"expected {len(header)} columns")
            rows.append(_parse_row(kind, cells))
    except ValueError as exc:
        raise MalformedCorpusError(f"{name}:{lineno}: {exc}") from exc
    finally:
        csv.field_size_limit(old_limit)
    return TableCorpus(name, kind, tuple(rows))


def _check_zeckendorf_row(y: int, w: Word) -> str | None:
    # w is a Zeckendorf word, so it starts with 1, and w w is one exactly
    # when w ends in 0.  Zeckendorf words are unique, so y*y then spells
    # w w exactly when it equals value(w w); if w ends in 1, nothing does.
    if y < 2:
        return "y-range"
    if not w.digits or w.digits[-1] or y * y != word_value(repeat_word(w, 2)):
        return "square-digits"
    return None


def _pattern_value(b: int, runs, n: int) -> tuple[int, int]:
    """(value, b**length) of a pattern's word at n: a run (block:kn+j) is worth
    value(block) * (P**c - 1) / (P - 1), for c = kn + j and P = b**len(block)."""
    value, scale = 0, 1
    for block, coef, const in runs:
        count = coef * n + const
        if count:
            p = b ** len(block)
            pc = p**count
            value = value * pc + word_value(bijective_word(b, block)) * (pc - 1) // (p - 1)
            scale *= pc
    return value, scale


def _proof_degree(y_runs, w_runs) -> int:
    """E = 2 max(deg y, deg w), deg = the sum of coef * len(block) over runs."""
    return 2 * max(sum(coef * len(block) for block, coef, _ in runs) for runs in (y_runs, w_runs))


def _check_pattern_row(row: PatternRow) -> str | None:
    # Bijective words are unique, so y*y spells w w exactly when it equals
    # value(w w) = w * (b**|w| + 1).  Times fixed denominators, the difference
    # is a polynomial of degree <= E in b**n: zero at n = 0..E, it is zero at
    # every n.  A count kn + j that is 0 at some n >= 1 is 0 at all of them, so
    # the digit and empty-word checks at n <= min(E, 1) hold for every n too.
    y_runs = parse_pattern(row.y_pattern)
    w_runs = parse_pattern(row.w_pattern)
    for n in range(_proof_degree(y_runs, w_runs) + 1):
        try:
            y, _ = _pattern_value(row.base, y_runs, n)
            w, scale = _pattern_value(row.base, w_runs, n)
        except ValueError as exc:  # a digit is outside 1..b
            return f"n={n}: {exc}"
        if not y:
            return f"n={n}: x must be >= 1"
        if not w:
            return f"n={n}: cannot repeat the empty word"
        if y * y != w * (scale + 1):
            return f"square-digits at n={n}"
    return None


def verify_corpus(corpus: TableCorpus) -> CorpusReport:
    """Recheck every row of a corpus, one result per row."""
    results = []
    for row in corpus.rows:
        if corpus.kind == "solutions":
            label = " ".join(f"{k}={format_decimal(getattr(row, k))}" for k in "qnlby")
            failure = check_solution(row)
        elif corpus.kind == "zeckendorf-squares":
            y, w = row
            label = f"y={format_decimal(y)}"
            failure = _check_zeckendorf_row(y, w)
        else:
            label = f"b={format_decimal(row.base)} row={format_decimal(row.row)}"
            failure = _check_pattern_row(row)
        results.append(RowResult(label, failure))
    return CorpusReport(corpus.name, tuple(results))


def format_report(report: CorpusReport) -> str:
    lines = []
    for r in report.results:
        if r.failure is None:
            lines.append(f"ok   {r.label}")
        else:
            lines.append(f"FAIL {r.label}: {r.failure}")
    passed = sum(r.failure is None for r in report.results)
    lines.append(f"corpus {report.corpus}: {passed}/{len(report.results)} rows pass")
    return "\n".join(lines)
