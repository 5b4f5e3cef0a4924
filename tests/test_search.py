"""Range search, its brute-force oracle, checkpoints, and the
Zeckendorf square scans."""

import concurrent.futures
import dataclasses
import json
import multiprocessing
import os
import random
import re
import subprocess
import sys
import textwrap
import time
from collections import Counter, OrderedDict
from math import prod

import pytest

import repwords
from repwords import factoring, search
from repwords.factoring import Factorization, factor, factor_quotient
from repwords.families import gen_232
from repwords.search import (
    Checkpoint,
    CheckpointError,
    SolutionRecord,
    brute_solutions_for_base,
    check_solution,
    compute_defect,
    load_checkpoint,
    search_fib_powers,
    search_fib_squares,
    search_range,
    solutions_for_base,
    verify_solution,
    write_checkpoint,
)
from repwords.triples import Triple
from repwords.words import (
    canonical_word,
    format_decimal,
    split_repetition,
    to_canonical,
    to_zeckendorf,
)


def rec(q, n, l, b, y, c):
    return SolutionRecord(q, n, l, b, y, c, to_canonical(c, b))


def test_compute_defect():
    assert compute_defect(factor(343), 2) == 7  # 7^3 needs one more 7
    assert compute_defect(factor(121), 2) == 1
    assert compute_defect(factor(507), 2) == 3  # 3 * 13^2
    assert compute_defect(factor(507), 3) == 9 * 13  # 3^2 * 13 makes 3^3 * 13^3
    assert compute_defect(factor(1), 5) == 1


def test_check_solution_invariant_names():
    good = rec(2, 3, 1, 18, 49, 7)
    assert check_solution(good) is None
    assert verify_solution(good)
    assert check_solution(rec(2, 3, 1, 18, 49, 8)) is not None  # wrong c
    assert check_solution(rec(2, 3, 1, 18, 50, 7)) is not None  # wrong y
    bad_word = SolutionRecord(2, 3, 1, 18, 49, 7, canonical_word(18, (8,)))
    assert check_solution(bad_word) == "word-value"
    # a word carrying the wrong base disagrees with the recomputed digits
    bad_base = SolutionRecord(2, 3, 1, 18, 49, 7, canonical_word(19, (7,)))
    assert check_solution(bad_base) == "word-shape"
    assert check_solution(rec(2, 3, 1, 18, 1, 7)) == "y-range"
    # c too small for an l-digit word surfaces as a shape failure
    assert check_solution(rec(2, 3, 2, 68, 247, 13)) == "word-shape"
    # q = 1 is no triple; that is named before the power equation, which fails too
    assert check_solution(rec(1, 3, 1, 18, 49, 7)) == "triple"
    assert check_solution(SolutionRecord(2, 3, 1, 1, 49, 7, canonical_word(18, (7,)))) == "base"
    # no validated Word reaches the last two names, so these words are
    # altered after __post_init__: a leading zero leaves c below b^(l-1) ...
    zero_led = canonical_word(18, (1, 7))
    object.__setattr__(zero_led, "digits", (0, 7))
    assert check_solution(SolutionRecord(2, 3, 2, 18, 49, 7, zero_led)) == "c-range"
    # ... and a digit >= b keeps c's value but not y^q's digit string
    (real,) = solutions_for_base(Triple(4, 2, 3), 19)
    assert real.w.digits == (9, 13, 4)
    carried = canonical_word(19, (9, 13, 4))
    object.__setattr__(carried, "digits", (9, 12, 4 + 19))
    assert check_solution(dataclasses.replace(real, w=carried)) == "digit-string"


def test_solutions_for_base_known_rows():
    t = Triple(2, 3, 1)
    assert [(r.y, r.c) for r in solutions_for_base(t, 18)] == [(49, 7)]
    assert [(r.y, r.c) for r in solutions_for_base(t, 22)] == [(39, 3), (78, 12)]
    assert solutions_for_base(t, 2) == []
    out = solutions_for_base(Triple(4, 2, 3), 19)
    assert [(r.y, r.w.digits) for r in out] == [(70, (9, 13, 4))]
    # Phi_2(23) = 24 leaves the prime 3 after trial division, and 3 also
    # divides Phi_6(23) = 3 * 13**2: the bound must merge the two
    out = solutions_for_base(Triple(4, 2, 3), 23)
    assert [(r.y, r.c) for r in out] == [(78, 3042)]


def test_wrong_factorization_raises(monkeypatch):
    # a factorization whose product is not the quotient must stop the
    # search, not lose y = 49 at base 18 to a defect grown by a spurious prime
    real = search.factor_quotient

    def spurious(*args, **kwargs):
        f = real(*args, **kwargs)
        return Factorization(tuple(sorted(f.factors + ((10_007, 1),))))

    monkeypatch.setattr(search, "factor_quotient", spurious)
    with pytest.raises(search.InvariantError, match="no 2-th power at base 18$"):
        solutions_for_base(Triple(2, 3, 1), 18)


def test_brute_matches_defect_scan():
    for q, n, l in [(2, 3, 1), (3, 2, 2), (2, 2, 2), (4, 2, 1), (2, 4, 1)]:
        t = Triple(q, n, l)
        for b in range(2, 40):
            assert solutions_for_base(t, b) == brute_solutions_for_base(t, b)


@pytest.mark.parametrize("q,n,l", [(2, 3, 1), (3, 5, 1), (2, 6, 1), (4, 4, 1)])
def test_lone_cold_bases_match_brute(q, n, l, monkeypatch):
    # a lone base is a window narrower than phi(d) >= 2 roots of a piece:
    # the sieve tests it against each prime's roots instead of walking them
    monkeypatch.setattr(factoring, "_piece_cache", OrderedDict())
    t = Triple(q, n, l)
    for b in [*range(2, 120), *range(1_500, 1_530)]:
        assert solutions_for_base(t, b) == brute_solutions_for_base(t, b)


@pytest.mark.parametrize("q,rule", [(3, "E < q"), (4, "E < q"), (2, "not a q-th power")])
def test_defect_bound_rules_match_brute(q, rule, monkeypatch):
    # Phi_5(b) for b in 100..700 leaves cofactors in [B**2, B**3), B the
    # trial limit: E = 2, so q = 3, 4 take the E < q share and q = 2 the
    # not-a-q-th-power share.  Each rule alone must decide some bases,
    # and every base must agree with the oracle.
    monkeypatch.setattr(factoring, "_piece_cache", OrderedDict())
    B, t = factoring._TRIAL_LIMIT, Triple(q, 5, 1)
    decided = Counter()
    for b in range(100, 701):
        exps, large = Counter(), []
        for _, powers, m in factoring._pieces(b, t.n, t.l):
            exps.update(dict(powers))
            if m >= B * B:
                large.append(m)
            elif m > 1:
                exps[m] += 1
        exact = prod(p ** (-e % q) for p, e in exps.items())
        if large and exact < b and factoring.defect_reaches(b, t.n, t.l, q, b):
            rules = {"E < q" if m < B**q else "not a q-th power" for m in large}
            decided[rules.pop() if len(rules) == 1 else "both"] += 1
        assert solutions_for_base(t, b) == brute_solutions_for_base(t, b)
    assert decided[rule] > 0 and set(decided) == {rule}


# bases that only the exponent-shape step of defect_reaches rejects
SHAPE_DECIDED = [
    ((3, 5, 1), (10_005, 10_007, 10_010, 10_012, 10_023, 10_027)),
    ((2, 3, 1), (10_008, 10_011, 10_029, 10_034)),
    ((3, 3, 3), (102,)),
    ((2, 4, 2), (515,)),
]


@pytest.mark.parametrize("triple,bases", SHAPE_DECIDED)
def test_shape_decided_bases_match_brute(triple, bases, monkeypatch):
    # each base reaches the shape step and is rejected there: it never
    # reaches factor_quotient, and the oracle finds no solution either
    monkeypatch.setattr(factoring, "_piece_cache", OrderedDict())
    shaped = []
    least_share = factoring._least_share
    monkeypatch.setattr(factoring, "_least_share", lambda m, q: shaped.append(m) or least_share(m, q))

    def no_factoring(b, *args, **kwargs):
        raise AssertionError(f"base {b} reached factor_quotient")

    monkeypatch.setattr(search, "factor_quotient", no_factoring)
    t = Triple(*triple)
    for b in bases:
        before = len(shaped)
        assert solutions_for_base(t, b) == brute_solutions_for_base(t, b) == []
        assert len(shaped) > before


@pytest.mark.parametrize("q,n,l", [(3, 5, 1), (2, 4, 1), (3, 3, 1)])
def test_sieved_range_matches_brute(q, n, l, monkeypatch):
    # a cold range scan sieves each chunk's pieces at once; every base of
    # a window of several chunks must agree with the oracle
    monkeypatch.setattr(factoring, "_piece_cache", OrderedDict())
    t = Triple(q, n, l)
    for lo, hi in ((2, 450), (1_990, 2_040)):
        cp = search_range(t, lo, hi)
        assert cp.completed == ((lo, hi),) and cp.unresolved == ()
        by_base: dict[int, list[SolutionRecord]] = {}
        for r in cp.solutions:
            by_base.setdefault(r.b, []).append(r)
        for b in range(lo, hi + 1):
            assert by_base.get(b, []) == brute_solutions_for_base(t, b)


def test_bound_decided_bases_are_never_unresolved():
    # every base of (2,5,2) up to 400 is decided by trial division alone,
    # so even a zero budget leaves none unresolved
    cp = search_range(Triple(2, 5, 2), 2, 400, factor_budget_ms=0)
    assert cp.unresolved == ()
    assert cp.completed == ((2, 400),)


def test_negative_budget_rejected(tmp_path):
    message = "factoring budget must be >= 0, got -1"
    path = tmp_path / "cp.jsonl"
    for call in (
        lambda: factor(10, budget_ms=-1),
        lambda: factor_quotient(5, 2, 1, budget_ms=-1),
        lambda: solutions_for_base(Triple(2, 5, 2), 7, factor_budget_ms=-1),
        lambda: search_range(Triple(2, 5, 2), 2, 9, str(path), factor_budget_ms=-1),
    ):
        with pytest.raises(ValueError, match=message):
            call()
    assert not path.exists()
    assert factor(10, budget_ms=0).factors == ((2, 1), (5, 1))


def test_brute_guard():
    with pytest.raises(ValueError):
        brute_solutions_for_base(Triple(2, 2, 5), 10**4)


def test_search_range_known_singletons():
    cp = search_range(Triple(2, 5, 1), 2, 10**4)
    assert [(r.b, r.y, r.w.digits) for r in cp.solutions] == [(3, 11, (1,))]
    cp = search_range(Triple(3, 3, 2), 2, 5000)
    assert cp.solutions == ()
    cp = search_range(Triple(6, 2, 2), 2, 300)
    assert [(r.b, r.y, r.w.digits) for r in cp.solutions] == [(239, 26, (22, 150))]


def test_checkpoint_roundtrip(tmp_path):
    t = Triple(2, 3, 1)
    path = str(tmp_path / "cp.jsonl")
    cp = search_range(t, 2, 100, path)
    again = load_checkpoint(path, expect=t)
    assert again == cp
    assert again.completed == ((2, 100),)
    # integers live as decimal strings on disk
    with open(path) as fh:
        for line in fh:
            obj = json.loads(line)
            (key, val), = obj.items()
            if key == "range":
                assert all(isinstance(v, str) for v in val)
            elif key == "solution":
                assert all(isinstance(val[k], str) for k in ("q", "n", "l", "b", "y", "c"))
                assert all(isinstance(d, str) for d in val["w"])


def test_checkpoint_resume_fills_gaps(tmp_path):
    t = Triple(2, 3, 1)
    path = str(tmp_path / "cp.jsonl")
    first = search_range(t, 2, 120, path)
    resumed = search_range(t, 2, 500, path)
    direct = search_range(t, 2, 500)
    assert resumed.solutions == direct.solutions
    assert resumed.completed == ((2, 500),)
    assert first.solutions == tuple(r for r in direct.solutions if r.b <= 120)


def test_search_partition_determinism(tmp_path):
    t = Triple(2, 3, 1)
    whole = search_range(t, 2, 300)
    path = str(tmp_path / "parts.jsonl")
    for lo, hi in [(150, 220), (2, 149), (221, 300)]:
        search_range(t, lo, hi, path)
    merged = load_checkpoint(path, expect=t)
    assert merged.normalized().solutions == whole.solutions
    assert merged.normalized().completed == ((2, 300),)


def test_search_workers_match_serial(monkeypatch):
    monkeypatch.setattr(search, "_HELPERS_PAY_S", 0)
    t = Triple(2, 3, 1)
    assert search_range(t, 2, 200, workers=2) == search_range(t, 2, 200)


def test_search_workers_write_identical_checkpoints(tmp_path, monkeypatch):
    monkeypatch.setattr(search, "_HELPERS_PAY_S", 0)
    t = Triple(2, 2, 1)
    one, two = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
    search_range(t, 2, 300, str(one), workers=1)
    search_range(t, 2, 300, str(two), workers=2)
    assert one.read_bytes() == two.read_bytes()


def _pools_started(monkeypatch):
    """Record the arguments of every helper pool search_range starts."""
    started = []
    real = concurrent.futures.ProcessPoolExecutor
    monkeypatch.setattr(
        concurrent.futures, "ProcessPoolExecutor", lambda *a: started.append(a) or real(*a)
    )
    return started


def test_helpers_start_only_when_the_scan_left_repays_them(tmp_path, monkeypatch):
    t = Triple(2, 2, 1)
    one, two = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
    search_range(t, 2, 300, str(one), workers=1)

    def refuse(*a):
        raise AssertionError("a short gap started a helper pool")

    with monkeypatch.context() as m:
        m.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        search_range(t, 2, 300, str(two), workers=2)
    assert two.read_bytes() == one.read_bytes()

    two.unlink()
    started = _pools_started(monkeypatch)
    monkeypatch.setattr(search, "_HELPERS_PAY_S", 0)
    search_range(t, 2, 300, str(two), workers=2)
    assert started == [(1,)]
    assert two.read_bytes() == one.read_bytes()


def test_first_chunk_does_not_set_the_pace(monkeypatch):
    # the caller's first chunk also builds the one-time sieve tables, so its
    # pace alone, here 0.2 s for 38 of 299 bases, starts no helper
    real = search._scan_chunk

    def scan(t, budget, chunk):
        if chunk[0] == 2:
            time.sleep(0.2)
        return real(t, budget, chunk)

    def refuse(*a):
        raise AssertionError("the first chunk's pace started a helper pool")

    monkeypatch.setattr(search, "_scan_chunk", scan)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    t = Triple(2, 2, 1)
    assert search_range(t, 2, 300, workers=2) == search_range(t, 2, 300)


def test_caller_error_shuts_the_helpers_down(monkeypatch):
    # the pool starts after the caller's second chunk, the first it times;
    # its third, [40, 58], raises while the helper is still scanning
    # [116, 150] from the back; the pool is shut down before the error
    # leaves search_range
    real = search.solutions_for_base

    def solve(t, b, **kw):
        if b == 45:
            raise search.InvariantError("planted")
        if b >= 116:
            time.sleep(0.002)
        return real(t, b, **kw)

    monkeypatch.setattr(search, "solutions_for_base", solve)
    monkeypatch.setattr(search, "_HELPERS_PAY_S", 0)
    started = _pools_started(monkeypatch)
    with pytest.raises(search.InvariantError, match="planted"):
        search_range(Triple(2, 3, 1), 2, 150, workers=2)
    assert started == [(1,)]
    assert multiprocessing.active_children() == []


def test_short_search_loads_no_pool_module():
    script = textwrap.dedent(
        """
        import sys
        from repwords import cli

        pool_modules = {"multiprocessing", "concurrent.futures.process"}
        assert not pool_modules & set(sys.modules), "loaded by import"
        argv = "search --q 2 --n 2 --l 1 --b-lo 2 --b-hi 300 --workers 2"
        assert cli.main(argv.split()) == 0
        sys.exit(sorted(pool_modules & set(sys.modules)) or None)
        """
    )
    src = os.path.dirname(os.path.dirname(repwords.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("q,n,l,b,y,c,w\n")


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"range":["2","50"]}\nnot json\n')
    with pytest.raises(CheckpointError, match="2"):
        load_checkpoint(str(path))
    path.write_text('{"range":[2,50]}\n')  # bare ints violate the schema
    with pytest.raises(CheckpointError):
        load_checkpoint(str(path))
    triple = '{"triple": ["2", "3", "1"]}\n'
    for text, error in [
        ("[]\n", ":1: each line must be a one-key object"),
        ('{"a": "1", "b": "2"}\n', ":1: each line must be a one-key object"),
        (triple + '{"triple": ["3", "2", "1"]}\n', ":2: conflicting triple lines"),
        (triple + '{"range": ["9", "3"]}\n', ":2: empty range [9,3]"),
        (triple + '{"bogus": "1"}\n', ":2: unknown record kind 'bogus'"),
        ('{"range": ["2", "5"]}\n', ": missing triple line"),
        (
            '{"triple": ["3", "2", "1"]}\n' + json.dumps({"solution": _CELLS_18}) + "\n",
            ": solution for foreign triple Triple(q=2, n=3, l=1)",
        ),
        (
            triple + json.dumps({"solution": {**_CELLS_18, "y": 49}}) + "\n",
            ":2: expected decimal strings, got {",
        ),
    ]:
        path.write_text(text)
        with pytest.raises(CheckpointError, match=f"^{re.escape(str(path) + error)}"):
            load_checkpoint(str(path))


_CELLS_18 = {"q": "2", "n": "3", "l": "1", "b": "18", "y": "49", "c": "7", "w": ["7"]}


@pytest.mark.parametrize("bad", ["1_000", "+12", "\u0661\u0662", "-5", ""])
def test_checkpoint_integers_are_ascii_digits_at_any_length(tmp_path, bad):
    # int() takes each of these but "" up to 4,300 digits and refuses it past
    # them; an unresolved base, a solution's y and a digit of its w refuse it
    path = tmp_path / "bad.jsonl"
    for text in (bad, bad[:-1] + bad[-1:] * 4001):
        for obj in (
            {"unresolved": text},
            {"solution": {**_CELLS_18, "y": text}},
            {"solution": {**_CELLS_18, "w": [text]}},
        ):
            lines = [{"triple": ["2", "3", "1"]}, obj]
            path.write_text("".join(json.dumps(obj) + "\n" for obj in lines))
            with pytest.raises(CheckpointError, match="bad.jsonl:2: invalid decimal"):
                load_checkpoint(str(path))


def test_checkpoint_cells_may_be_padded(tmp_path):
    # parse_decimal strips surrounding whitespace, in solution cells too
    path = tmp_path / "cp.jsonl"
    lines = [{"triple": ["2", "3", "1"]}, {"solution": {**_CELLS_18, "y": " 49", "w": [" 7"]}}]
    path.write_text("".join(json.dumps(obj) + "\n" for obj in lines))
    assert load_checkpoint(str(path)).solutions == (rec(2, 3, 1, 18, 49, 7),)


def test_load_checks_every_record_under_optimize(tmp_path):
    # one w digit of a middle record is changed, the JSON kept valid: load
    # refuses the file, with asserts stripped too
    path = tmp_path / "cp.jsonl"
    search_range(Triple(2, 2, 2), 2, 200, str(path))
    lines = path.read_text().splitlines(keepends=True)
    at = [i for i, line in enumerate(lines) if '"solution"' in line]
    i = at[len(at) // 2]
    obj = json.loads(lines[i])
    cells = obj["solution"]
    last = int(cells["w"][-1])
    cells["w"][-1] = str(last + 1 if last + 1 < int(cells["b"]) else last - 1)
    lines[i] = json.dumps(obj) + "\n"
    path.write_text("".join(lines))
    expect = f"cp.jsonl:{i + 1}: stored solution fails: word-value"
    with pytest.raises(CheckpointError, match=expect):
        load_checkpoint(str(path))
    script = textwrap.dedent(
        """
        import sys
        from repwords.search import CheckpointError, load_checkpoint

        if not sys.flags.optimize:
            sys.exit("not running under -O")
        try:
            load_checkpoint(sys.argv[1])
        except CheckpointError as e:
            print(e)
        else:
            sys.exit("a corrupted record loaded")
        """
    )
    src = os.path.dirname(os.path.dirname(repwords.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script, str(path)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert expect in proc.stdout


def test_checkpoint_holds_records_of_any_size(tmp_path):
    # member 46 of (2,3,2) has a 4,331-digit y, past str()'s digit limit
    rec = gen_232(46)[-1]
    cp = Checkpoint(rec.triple, ((rec.b, rec.b),), (rec,), ())
    path = str(tmp_path / "cp.jsonl")
    write_checkpoint(path, cp)
    assert load_checkpoint(path, expect=rec.triple) == cp


def test_checkpoint_torn_tail_resumes(tmp_path, monkeypatch):
    # a kill during an append leaves a half-written last line; resuming
    # from a cut at any byte of the last chunk gives the uninterrupted run
    t = Triple(2, 3, 1)
    path = tmp_path / "cp.jsonl"
    write_checkpoint(str(path), Checkpoint(t, (), (), ()))
    with monkeypatch.context() as m:
        m.setattr(search, "write_checkpoint", lambda *a: sys.exit("killed"))
        m.setattr(search, "_FLUSH_EVERY", 16)
        with pytest.raises(SystemExit):
            search_range(t, 2, 75, str(path))
    appended = path.read_bytes()
    lines = appended.splitlines(keepends=True)
    assert json.loads(lines[-1]) == {"range": ["66", "75"]}
    assert b'"b": "68"' in lines[-2]  # the last chunk carries solutions

    whole_path = tmp_path / "whole.jsonl"
    whole = search_range(t, 2, 75, str(whole_path))
    last_chunk = appended.rindex(b"range", 0, len(appended) - len(lines[-1]))
    start = appended.index(b"\n", last_chunk) + 1
    for cut in range(start, len(appended)):
        path.write_bytes(appended[:cut])
        assert search_range(t, 2, 75, str(path)) == whole
        assert path.read_bytes() == whole_path.read_bytes()


def test_checkpoint_cut_between_out_of_order_chunks_resumes(tmp_path, monkeypatch):
    # with two workers a helper scans chunks from the back, so their range
    # lines are appended out of order; a kill that leaves the file cut at
    # any line boundary resumes to the bytes of an uninterrupted 1-worker run
    monkeypatch.setattr(search, "_HELPERS_PAY_S", 0)
    t = Triple(2, 3, 1)
    path = tmp_path / "cp.jsonl"
    write_checkpoint(str(path), Checkpoint(t, (), (), ()))
    with monkeypatch.context() as m:
        m.setattr(search, "write_checkpoint", lambda *a: sys.exit("killed"))
        m.setattr(search, "_FLUSH_EVERY", 16)
        with pytest.raises(SystemExit):
            search_range(t, 2, 150, str(path), workers=2)
    appended = path.read_bytes()
    lines = appended.splitlines(keepends=True)
    starts = [int(json.loads(line)["range"][0]) for line in lines if b'"range"' in line]
    assert len(starts) == 10 and starts != sorted(starts)

    whole_path = tmp_path / "whole.jsonl"
    whole = search_range(t, 2, 150, str(whole_path), workers=1)
    for cut in range(1, len(lines) + 1):
        path.write_bytes(b"".join(lines[:cut]))
        assert search_range(t, 2, 150, str(path), workers=2) == whole
        assert path.read_bytes() == whole_path.read_bytes()


def test_checkpoint_lines_are_json_dumps_bytes(tmp_path):
    # lines are formatted by hand; each must equal json.dumps of its
    # decimal strings, for a 1-digit word, a 3-digit word and a 4,331-digit y
    path = tmp_path / "cp.jsonl"
    for r in (rec(2, 3, 1, 18, 49, 7), rec(4, 2, 3, 19, 70, 3500), gen_232(46)[-1]):
        cp = Checkpoint(r.triple, ((r.b, r.b + 1),), (r,), (r.b + 1,))
        write_checkpoint(str(path), cp)
        dec = format_decimal
        fields = {k: dec(getattr(r, k)) for k in "qnlbyc"}
        fields["w"] = [dec(d) for d in r.w.digits]
        expect = [
            {"triple": [dec(r.q), dec(r.n), dec(r.l)]},
            {"range": [dec(r.b), dec(r.b + 1)]},
            {"solution": fields},
            {"unresolved": dec(r.b + 1)},
        ]
        assert path.read_text() == "".join(json.dumps(obj) + "\n" for obj in expect)
        assert load_checkpoint(str(path), expect=r.triple) == cp


def test_checkpoint_drops_only_an_unterminated_tail(tmp_path):
    t = Triple(2, 3, 1)
    path = tmp_path / "cp.jsonl"
    head = '{"triple": ["2", "3", "1"]}\n{"range": ["2", "50"]}\n'
    path.write_text(head + '{"range": ["51", "6')
    assert load_checkpoint(str(path), expect=t).completed == ((2, 50),)
    path.write_text(head + '{"range": ["51", "60"]}')  # complete, newline lost
    assert load_checkpoint(str(path), expect=t).completed == ((2, 60),)
    path.write_text(head + '{"range": ["51", "6\n')
    with pytest.raises(CheckpointError, match=":3:"):
        load_checkpoint(str(path))


def test_invariant_checks_survive_optimize():
    # under python -O a corrupted record must still be refused, not returned
    script = textwrap.dedent(
        """
        import dataclasses, sys
        from repwords import search
        from repwords.triples import Triple

        if not sys.flags.optimize:
            sys.exit("not running under -O")
        search._HELPERS_PAY_S = 0
        real = search._record
        search._record = lambda *a: dataclasses.replace(real(*a), y=real(*a).y + 1)
        for solve in (search.solutions_for_base, search.brute_solutions_for_base):
            try:
                solve(Triple(2, 3, 1), 18)
            except search.InvariantError as e:
                print(e)
            else:
                sys.exit(f"{solve.__name__} returned a corrupted record")
        # with two workers the caller scans the first chunk, [2, 20], and a
        # forked helper the last, [135, 150]; each holds a solution, and
        # each refuses it when only its own chunk's records are corrupted
        bad = search._record
        for lo, hi in ((2, 20), (135, 150)):
            search._record = lambda t, b, *a, lo=lo, hi=hi: (
                bad if lo <= b <= hi else real
            )(t, b, *a)
            try:
                search.search_range(Triple(2, 3, 1), 2, 150, workers=2)
            except search.InvariantError as e:
                print(e)
            else:
                sys.exit(f"search_range returned a corrupted record from {lo}..{hi}")
        """
    )
    src = os.path.dirname(os.path.dirname(repwords.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("power-equation") == 4


def test_checkpoint_rejects_foreign_triple(tmp_path):
    t = Triple(2, 3, 1)
    path = str(tmp_path / "cp.jsonl")
    write_checkpoint(path, Checkpoint(t, ((2, 10),), (), ()))
    with pytest.raises(CheckpointError):
        load_checkpoint(path, expect=Triple(2, 3, 2))
    with pytest.raises(CheckpointError):
        search_range(Triple(3, 2, 2), 2, 50, path)


def test_checkpoint_normalize_merges_ranges():
    t = Triple(2, 3, 1)
    cp = Checkpoint(t, ((5, 10), (2, 4), (11, 20), (30, 40)), (), ())
    n = cp.normalized()
    assert n.completed == ((2, 20), (30, 40))
    assert n.gaps(2, 50) == [(21, 29), (41, 50)]


def test_checkpoint_normalize_sorts_and_deduplicates_records():
    t = Triple(2, 2, 1)
    sols = search_range(t, 2, 120).solutions
    assert len({r.b for r in sols}) < len(sols)  # some base holds two records
    shuffled = list(sols) * 2
    random.Random(1).shuffle(shuffled)
    for given in (sols, tuple(shuffled), sols[:1] * 2 + sols[1:]):
        assert Checkpoint(t, (), given, ()).normalized().solutions == sols
    # distinct records at one (b, y) are both kept
    r = sols[0]
    twin = dataclasses.replace(r, c=r.c + 1)
    for given in ((r, twin), (twin, r, twin)):
        assert set(Checkpoint(t, (), given, ()).normalized().solutions) == {r, twin}
        assert len(Checkpoint(t, (), given, ()).normalized().solutions) == 2


def test_checkpoint_gaps_of_unsorted_ranges():
    cp = Checkpoint(Triple(2, 3, 1), ((30, 40), (5, 10), (11, 20), (2, 3)), (), ())
    assert cp.gaps(1, 45) == [(1, 1), (4, 4), (21, 29), (41, 45)]
    assert cp.gaps(12, 18) == []


def test_unresolved_base_on_tiny_budget():
    # 5**59 + 1 carries a piece no 1 ms budget can split, warm caches or
    # not: the base is reported as unresolved, never guessed at
    cp = search_range(Triple(2, 2, 59), 5, 5, factor_budget_ms=1)
    assert cp.unresolved == (5,)
    assert cp.solutions == ()
    assert cp.completed == ((5, 5),)


def test_unresolved_base_in_checkpoint(tmp_path):
    path = str(tmp_path / "cp.jsonl")
    search_range(Triple(2, 2, 59), 5, 5, path, factor_budget_ms=1)
    with open(path) as fh:
        assert '{"unresolved": "5"}' in fh.read().splitlines()
    cp = load_checkpoint(path)
    assert cp.unresolved == (5,)
    # an unresolved base counts as covered
    assert (5, 5) in cp.completed


def test_fib_squares_small():
    out = search_fib_squares(100)
    assert [(y, w.digits) for y, w in out] == [
        (4, (1, 0, 0)),
        (49, (1, 0, 1, 0, 0, 1, 0, 0)),
    ]
    assert search_fib_squares(4) == []


def test_fib_squares_match_brute():
    # cross-check the shift-identity scan against naked encode/split on a window
    from repwords.words import repeat_word, split_repetition

    want = []
    for y in range(2, 30_000):
        w = split_repetition(to_zeckendorf(y * y), 2)
        if w is not None:
            want.append((y, w))
    assert search_fib_squares(30_000) == want


def brute_fib_powers(q, n, y_max):
    out = []
    for y in range(2, y_max):
        u = split_repetition(to_zeckendorf(y**q), n)
        if u is not None:
            out.append((y, u))
    return out


# (5, 2) reaches y**5 > 2**63, past any fixed-width integer scan
@pytest.mark.parametrize(
    "q,n,y_max",
    [(2, 2, 20_000), (2, 3, 20_000), (3, 2, 20_000), (2, 4, 20_000),
     (4, 2, 20_000), (3, 3, 20_000), (5, 2, 20_000)],
)
def test_fib_powers_match_brute(q, n, y_max):
    assert search_fib_powers(q, n, y_max) == brute_fib_powers(q, n, y_max)


def test_fib_powers():
    assert [(y, w.digits) for y, w in search_fib_powers(4, 2, 100)] == [
        (2, (1, 0, 0)),
        (7, (1, 0, 1, 0, 0, 1, 0, 0)),
    ]
    assert search_fib_powers(3, 2, 1000) == []
    assert [(y, w.digits) for y, w in search_fib_powers(2, 2, 10)] == [(4, (1, 0, 0))]
