"""The README's examples run as written: every command of its CLI block
exits 0, and every value its comments promise is what the code gives."""

import ast
import shlex
from collections import OrderedDict
from pathlib import Path

import pytest

from repwords import factoring
from repwords.cli import main
from repwords.search import load_checkpoint, search_range, write_checkpoint
from repwords.triples import Triple

README = (Path(__file__).parents[1] / "README.md").read_text()


def _block(heading, lang):
    """Lines of the first ```lang block after a '## heading' line."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0].splitlines()


def _commands():
    # join backslash-continued lines into one command each
    text = "\n".join(_block("CLI", "sh")).replace("\\\n", " ")
    return [shlex.split(line, comments=True) for line in text.splitlines() if line.strip()]


def test_cli_block_is_found():
    commands = _commands()
    assert len(commands) >= 10
    assert all(argv[0] == "repwords" for argv in commands)


@pytest.mark.parametrize("argv", _commands(), ids=" ".join)
def test_cli_example_exits_0(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(argv[1:])
    err = capsys.readouterr().err
    assert code == 0, err


def test_classify_example_prints_its_comment(capsys):
    line = next(l for l in _block("CLI", "sh") if l.startswith("repwords classify"))
    command, comment = line.split("#", 1)
    assert main(shlex.split(command)[1:]) == 0
    assert capsys.readouterr().out.strip() == comment.strip()


def test_library_example_values():
    # each expression line's comment is the repr of its value
    namespace = {}
    checked = []
    for line in _block("Library", "python"):
        code, _, comment = line.partition("#")
        if not code.strip():
            continue
        try:
            tree = ast.parse(code.strip(), mode="eval")
        except SyntaxError:
            exec(code, namespace)
            continue
        value = eval(compile(tree, "README", "eval"), namespace)
        assert repr(value) == comment.strip(), code
        checked.append(comment.strip())
    assert checked == ["25", "(22, 39, 3)", "(3, 3, 3)"]


def test_checkpoint_example_round_trips(tmp_path):
    # the example file loads, and writing it back gives the same bytes
    section = README.split("\n### Checkpoints\n", 1)[1]
    text = section.split("```\n", 1)[1].split("```", 1)[0]
    assert '"solution"' in text
    path = tmp_path / "cp.jsonl"
    path.write_text(text)
    write_checkpoint(str(path), load_checkpoint(str(path)))
    assert path.read_text() == text


# the benchmark's sweep triples as (q, n, l), in the order it runs them
SWEEP_TRIPLES = [
    (2, 4, 2), (2, 5, 2), (2, 6, 1), (3, 3, 2), (3, 4, 1), (3, 5, 1), (4, 2, 4),
    (4, 3, 2), (5, 3, 1), (6, 2, 3), (2, 3, 1), (2, 3, 2), (3, 2, 2), (3, 2, 3),
    (3, 3, 1), (2, 4, 1), (4, 2, 2),
]


def test_sweep_factoring_count(monkeypatch):
    # the sweep window of seed 1, cold in one process: the README's count
    # of bases that reach full factorization, none of them of (4,2,4)
    monkeypatch.setattr(factoring, "_piece_cache", OrderedDict())
    calls = []
    factor_quotient = factoring.factor_quotient
    monkeypatch.setattr(
        factoring, "factor_quotient", lambda b, *a, **k: calls.append(b) or factor_quotient(b, *a, **k)
    )
    lo, hi = 14, 1_512
    per_triple = {}
    for t in SWEEP_TRIPLES:
        before = len(calls)
        assert search_range(Triple(*t), lo, hi).unresolved == ()
        per_triple[t] = len(calls) - before
    assert per_triple[4, 2, 4] == 0 and len(calls) == 55
    bases = len(SWEEP_TRIPLES) * (hi - lo + 1)
    assert f"{len(calls)} of {bases:,} bases reach full factorization" in " ".join(README.split())


def test_large_base_factoring_count(monkeypatch):
    # the README's count of (4,2,4) bases in 19,000..19,300 that still reach
    # full factorization, cold in one process
    monkeypatch.setattr(factoring, "_piece_cache", OrderedDict())
    calls = []
    factor_quotient = factoring.factor_quotient
    monkeypatch.setattr(
        factoring, "factor_quotient", lambda b, *a, **k: calls.append(b) or factor_quotient(b, *a, **k)
    )
    lo, hi = 19_000, 19_300
    assert search_range(Triple(4, 2, 4), lo, hi).unresolved == ()
    assert len(calls) == 51
    bases = hi - lo + 1
    text = " ".join(README.split())
    assert f"{len(calls)} of the {bases} bases of (4,2,4) in b 19,000..19,300" in text
