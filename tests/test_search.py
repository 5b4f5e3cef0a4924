"""Range search, its brute-force oracle, checkpoints, and the
Zeckendorf square scans."""

import concurrent.futures
import functools
import json
import math
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
from hypothesis import given, settings, strategies as st

import repwords
from repwords import factoring, search
from repwords.arith import ceil_root
from repwords.factoring import (
    FactorBudgetError,
    Factorization,
    compute_defect,
    factor,
    factor_quotient,
)
from repwords.corpus import builtin_corpora, load_corpus
from repwords.families import _SPORADIC_FAMILIES, gen_22_by_length, gen_232, gen_323, gen_n21
from repwords.search import (
    Checkpoint,
    CheckpointError,
    SolutionRecord,
    brute_solutions_for_base,
    check_solution,
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
    System,
    canonical_word,
    fibonacci,
    format_decimal,
    split_repetition,
    to_canonical,
    to_zeckendorf,
    word_value,
    zeckendorf_word,
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
    assert check_solution(_changed(real, w=carried)) == "digit-string"


def _changed(r, **fields):
    # the record r with the given fields changed, built by the constructor
    return SolutionRecord(**{**{f: getattr(r, f) for f in "qnlbycw"}, **fields})


def _literal_check(rec):
    # the literal check, oracle for check_solution: the equation times
    # b**l - 1, and y**q's digits rebuilt in full
    if rec.q < 2 or rec.n < 2 or rec.l < 1:
        return "triple"
    if rec.b < 2:
        return "base"
    if rec.y < 2:
        return "y-range"
    if rec.w.system is not System.CANONICAL or rec.w.base != rec.b or len(rec.w) != rec.l:
        return "word-shape"
    if word_value(rec.w) != rec.c:
        return "word-value"
    if not rec.b ** (rec.l - 1) <= rec.c < rec.b**rec.l:
        return "c-range"
    v = rec.y**rec.q
    if v * (rec.b**rec.l - 1) != rec.c * (rec.b ** (rec.n * rec.l) - 1):
        return "power-equation"
    if to_canonical(v, rec.b).digits != rec.w.digits * rec.n:
        return "digit-string"
    return None


def _with_digits(r, digits):
    # a record whose word is changed after __post_init__, past its checks
    w = canonical_word(r.w.base, r.w.digits)
    object.__setattr__(w, "digits", tuple(digits))
    return _changed(r, w=w)


def _mutants(r):
    for field in "qnlbyc":
        for step in (-1, 1):
            yield _changed(r, **{field: getattr(r, field) + step})
    yield _changed(r, w=canonical_word(r.b + 1, r.w.digits))
    d, b = list(r.w.digits), r.b
    yield _with_digits(r, d[:-1] + [-1])
    if len(d) > 1:
        # carries that keep the word's value: a digit >= b, a negative
        # digit, and a leading zero
        i = max(j for j in range(1, len(d)) if d[j - 1] > 0)
        yield _with_digits(r, d[: i - 1] + [d[i - 1] - 1, d[i] + b] + d[i + 1 :])
        yield _with_digits(r, d[:-2] + [d[-2] + 1, d[-1] - b])
        yield _with_digits(r, [0, d[1] + d[0] * b] + d[2:])
    else:
        yield _with_digits(r, [d[0] + b])
    # a leading zero with c following the word's value: c falls below b**(l-1)
    zero_led = _with_digits(r, [0] + d[1:])
    yield _changed(zero_led, c=word_value(zero_led.w))


def _records_to_check():
    for t, hi in [((2, 2, 3), 200), ((2, 3, 1), 400), ((3, 3, 1), 400), ((2, 4, 1), 400),
                  ((4, 2, 3), 120)]:
        yield from search_range(Triple(*t), 2, hi).solutions
    for q in (2, 3, 4, 5):
        yield from gen_n21(q, 8)
    for l in range(1, 7):
        yield from gen_22_by_length(l, 8)
    for generate in _SPORADIC_FAMILIES.values():
        yield from generate(12)
    # multi-thousand-digit members: (2,3,2) member 46, (3,2,3) member 80
    yield gen_232(46)[-1]
    yield gen_323(80)[-1]
    for name in builtin_corpora():
        corpus = load_corpus(name)
        if corpus.kind == "solutions":
            yield from corpus.rows


def _block_form_matches_literal_on_records_and_mutants():
    seen, names = set(), Counter()
    for r in _records_to_check():
        assert check_solution(r) is None, r
        seen.add((r.n >= 3, r.l >= 2))
        for m in _mutants(r):
            want = _literal_check(m)
            assert check_solution(m) == want, m
            names[want] += 1
    assert seen == {(False, False), (False, True), (True, False), (True, True)}
    assert set(names) == {
        "triple", "base", "y-range", "word-shape", "word-value", "c-range",
        "power-equation", "digit-string",
    }


def test_block_form_check_matches_the_literal_one():
    _block_form_matches_literal_on_records_and_mutants()


def test_block_form_check_matches_the_literal_one_residues_first(monkeypatch):
    # every record and mutant past the bit-length bound takes the residue test
    monkeypatch.setattr(search, "_RESIDUE_BITS", 0)
    _block_form_matches_literal_on_records_and_mutants()


def test_repunit_is_the_quotient():
    for top in (2, 3, 10, 17, 2**64 + 1):
        for n in range(1, 70):
            assert search._repunit(top, n) == (top**n - 1) // (top - 1)


@functools.cache
def _small_records():
    return [
        r for t in [(2, 2, 1), (2, 2, 2), (2, 3, 1), (2, 4, 1), (4, 2, 3), (3, 3, 1)]
        for r in search_range(Triple(*t), 2, 150).solutions
    ]


def _block_form_matches_literal_on_a_random_mutant(data):
    # small records with random fields nudged and random digits carried
    # (value kept) or changed (value followed by c or not)
    r = data.draw(st.sampled_from(_small_records()))
    nudge = st.sampled_from([0, 0, 0, -1, 1])
    r = _changed(r, **{f: getattr(r, f) + data.draw(nudge) for f in "qnlbyc"})
    d = list(r.w.digits)
    i = data.draw(st.integers(0, len(d) - 1))
    k = data.draw(st.integers(-2, 2))
    if i and data.draw(st.booleans()):
        d[i - 1 : i + 1] = [d[i - 1] - k, d[i] + k * r.w.base]
    else:
        d[i] += k
    m = _with_digits(r, d)
    if data.draw(st.booleans()):
        m = _changed(m, c=word_value(m.w))
    assert check_solution(m) == _literal_check(m)


@settings(derandomize=True, max_examples=400)
@given(st.data())
def test_block_form_check_matches_on_random_fields(data):
    _block_form_matches_literal_on_a_random_mutant(data)


@settings(derandomize=True, max_examples=400)
@given(st.data())
def test_block_form_check_matches_on_random_fields_residues_first(data):
    with pytest.MonkeyPatch.context() as m:
        m.setattr(search, "_RESIDUE_BITS", 0)
        _block_form_matches_literal_on_a_random_mutant(data)


def test_a_true_record_past_the_residue_threshold_passes():
    # y**q has q * 2 bits, past _RESIDUE_BITS: the residues agree, and the
    # exact check that follows passes it; n or b one off fails
    q = 2**16 + 1
    b = 2**q - 1
    r = rec(q, 2, 1, b, 2, 1)
    assert r.q * r.y.bit_length() > search._RESIDUE_BITS
    assert check_solution(r) is None
    assert check_solution(_changed(r, n=3)) == "power-equation"
    assert check_solution(rec(q, 2, 1, b + 1, 2, 1)) == "power-equation"


def test_a_failing_record_message_formats_ints_of_any_size():
    # y has over 4,300 digits, where repr of the record would raise ValueError
    r = gen_232(46)[-1]
    assert len(format_decimal(r.y)) > 4300
    with pytest.raises(search.InvariantError) as info:
        search.checked_record(Triple(2, 3, 2), r.b, r.y + 1, r.c, "test")
    msg = str(info.value)
    assert msg.startswith("test produced a record failing power-equation: ")
    assert f'"y": "{format_decimal(r.y + 1)}"' in msg


@pytest.mark.parametrize("q, n", [(2, 10**13), (10**13, 2), (10**13, 10**13)])
def test_huge_q_or_n_in_a_checkpoint_is_refused_at_once(tmp_path, q, n):
    # y**q against c * R by bit lengths first, then, with q and n both
    # huge, by residues mod a prime: neither side is built, so a 13-digit
    # q or n costs no ~10**13-bit integer.  Run capped at 1 GiB of address
    # space, so a regression fails instead of exhausting memory
    path = tmp_path / "cp.jsonl"
    cells = {"q": str(q), "n": str(n), "l": "1", "b": "2", "y": "2", "c": "1", "w": ["1"]}
    lines = [{"triple": [str(q), str(n), "1"]}, {"solution": cells}]
    path.write_text("".join(json.dumps(obj) + "\n" for obj in lines))
    script = textwrap.dedent(
        """
        import resource, sys, time
        from repwords.cli import main
        from repwords.search import CheckpointError, load_checkpoint

        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
        start = time.perf_counter()
        try:
            load_checkpoint(sys.argv[1])
        except CheckpointError as e:
            print(e)
        code = main(["search", "--q", sys.argv[2], "--n", sys.argv[3], "--l", "1",
                     "--b-lo", "2", "--b-hi", "9", "--checkpoint", sys.argv[1]])
        print(code, time.perf_counter() - start)
        """
    )
    src = os.path.dirname(os.path.dirname(repwords.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(path), str(q), str(n)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    refused, ran = proc.stdout.splitlines()
    assert refused == f"{path}:2: stored solution fails: power-equation"
    assert f"{path}:2: stored solution fails: power-equation" in proc.stderr
    code, seconds = ran.split()
    assert code == "3" and float(seconds) < 1.0


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
    real = factoring.factor_quotient

    def spurious(*args, **kwargs):
        f = real(*args, **kwargs)
        return Factorization(tuple(sorted(f.factors + ((10_007, 1),))))

    monkeypatch.setattr(factoring, "factor_quotient", spurious)
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
        [row] = factoring.sieve_pieces(b, b, t.n, t.l)
        for powers, m in row:
            exps.update(dict(powers))
            if m >= B * B:
                large.append(m)
            elif m > 1:
                exps[m] += 1
        exact = prod(p ** (-e % q) for p, e in exps.items())
        if large and exact < b and factoring.defect_reaches(t.n, t.l, q, b, row):
            rules = {"E < q" if m < B**q else "not a q-th power" for m in large}
            decided[rules.pop() if len(rules) == 1 else "both"] += 1
        assert solutions_for_base(t, b) == brute_solutions_for_base(t, b)
    assert decided[rule] > 0 and set(decided) == {rule}


def test_primes_of_nl_shared_by_two_pieces(monkeypatch):
    # (b**6 - 1) / (b**3 - 1) = Phi_2(b) * Phi_6(b) is 3 * 3 at b = 2: the
    # pieces share the prime 3 of n*l = 6, so the defect is 1, not 9, and
    # c = 4 gives y = 6.  Alone, [2, 2] sieves no prime (isqrt(3) = 1) and
    # both pieces are the bare cofactor 3; in a range scan from 2 the sieve
    # finds 3 in both
    t = Triple(2, 2, 3)
    want = brute_solutions_for_base(t, 2)
    assert [(r.y, r.c) for r in want] == [(6, 4)]
    monkeypatch.setattr(factoring, "_piece_cache", OrderedDict())
    assert factoring.sieve_pieces(2, 2, t.n, t.l)[0] == (((), 3), ((), 3))
    assert solutions_for_base(t, 2) == want
    monkeypatch.setattr(factoring, "_piece_cache", OrderedDict())
    assert [r for r in search_range(t, 2, 40).solutions if r.b == 2] == want
    assert factoring.sieve_pieces(2, 2, t.n, t.l)[0] == ((((3, 1),), 1),) * 2
    assert solutions_for_base(t, 2) == want


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

    monkeypatch.setattr(factoring, "factor_quotient", no_factoring)
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
    # blank and blank-looking lines between records are skipped
    spaced = tmp_path / "spaced.jsonl"
    with open(path) as fh:
        spaced.write_text(fh.read().replace("\n", "\n\n \t\n"))
    assert load_checkpoint(str(spaced), expect=t) == cp
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


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_pool_under_other_start_methods_matches_serial(monkeypatch, method):
    # workers that import repwords afresh, as under forkserver, the POSIX
    # default from Python 3.14 on, find what this process finds alone
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method on this platform")
    t = Triple(2, 3, 1)
    serial = search_range(t, 2, 3000)
    started = []
    real, context = concurrent.futures.ProcessPoolExecutor, multiprocessing.get_context(method)
    monkeypatch.setattr(
        concurrent.futures, "ProcessPoolExecutor",
        lambda *a: started.append(a) or real(*a, mp_context=context),
    )
    monkeypatch.setattr(search, "_HELPERS_PAY_S", 0)
    assert search_range(t, 2, 3000, workers=2) == serial
    assert started == [(2,)]


def test_search_workers_write_identical_checkpoints(tmp_path, monkeypatch):
    monkeypatch.setattr(search, "_HELPERS_PAY_S", 0)
    t = Triple(2, 2, 1)
    one, two = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
    search_range(t, 2, 300, str(one), workers=1)
    search_range(t, 2, 300, str(two), workers=2)
    assert one.read_bytes() == two.read_bytes()


def _pools_started(monkeypatch):
    """Record the arguments of every pool search_range starts."""
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
        raise AssertionError("a short gap started a pool")

    with monkeypatch.context() as m:
        m.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        search_range(t, 2, 300, str(two), workers=2)
    assert two.read_bytes() == one.read_bytes()

    two.unlink()
    started = _pools_started(monkeypatch)
    monkeypatch.setattr(search, "_HELPERS_PAY_S", 0)
    search_range(t, 2, 300, str(two), workers=2)
    assert started == [(2,)]
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
    # the pool starts after this process's second chunk, the first it
    # times, and scans every chunk left; the first of them, [40, 58],
    # raises while later ones, from [116, 134] on, still scan slowly; the
    # chunks not yet started are cancelled and the pool is shut down before
    # the error leaves search_range.  The plant is in open_defects, which
    # every chunk runs, and which the forked pool inherits
    real = search.open_defects

    def defects(lo, hi, *args, **kw):
        if lo <= 45 <= hi:
            raise search.InvariantError("planted")
        if lo >= 116:
            time.sleep(0.04)
        return real(lo, hi, *args, **kw)

    monkeypatch.setattr(search, "open_defects", defects)
    monkeypatch.setattr(search, "_HELPERS_PAY_S", 0)
    started = _pools_started(monkeypatch)
    with pytest.raises(search.InvariantError, match="planted"):
        search_range(Triple(2, 3, 1), 2, 150, workers=2)
    assert started == [(2,)]
    assert multiprocessing.active_children() == []


def test_write_error_cancels_the_chunks_left(tmp_path, monkeypatch):
    # the pool scans 18 chunks of 8 bases, [18, 25] to [154, 161], at 0.2 s
    # each; appending the first of them fails, so the chunks not yet
    # started are cancelled, not scanned, before the error leaves
    real = search.open_defects
    real_line = search._range_line

    def defects(lo, hi, *args, **kw):
        if lo >= 18:
            time.sleep(0.2)
            (tmp_path / f"{lo}.scanned").touch()
        return real(lo, hi, *args, **kw)

    def range_line(lo, hi):
        if lo >= 18:
            raise OSError("disk full")
        return real_line(lo, hi)

    monkeypatch.setattr(search, "open_defects", defects)
    monkeypatch.setattr(search, "_range_line", range_line)
    monkeypatch.setattr(search, "_HELPERS_PAY_S", 0)
    monkeypatch.setattr(search, "_FLUSH_EVERY", 8)
    started = _pools_started(monkeypatch)
    with pytest.raises(OSError, match="disk full"):
        search_range(Triple(2, 3, 1), 2, 161, str(tmp_path / "cp.jsonl"), workers=2)
    assert started == [(2,)]
    assert multiprocessing.active_children() == []
    assert 1 <= len(list(tmp_path.glob("*.scanned"))) < 9


def test_pool_chunks_are_appended_in_order(tmp_path, monkeypatch):
    # the pool scans chunks in parallel, but their range lines follow the
    # chunk order, as in a 1-worker run
    monkeypatch.setattr(search, "_HELPERS_PAY_S", 0)
    monkeypatch.setattr(search, "_FLUSH_EVERY", 16)
    monkeypatch.setattr(search, "write_checkpoint", lambda *a: None)
    started = _pools_started(monkeypatch)
    path = tmp_path / "cp.jsonl"
    path.write_text('{"triple": ["2", "3", "1"]}\n')
    search_range(Triple(2, 3, 1), 2, 150, str(path), workers=2)
    assert started == [(2,)]
    lines = map(json.loads, path.read_text().splitlines())
    starts = [int(obj["range"][0]) for obj in lines if "range" in obj]
    assert starts == [2, 18, 34, 50, 66, 82, 98, 114, 130, 146]


def test_one_chunk_left_starts_no_pool(monkeypatch):
    # b 2..4 with two workers is three chunks of one base; after the
    # second, the first one timed, one chunk is left, which a pool cannot
    # share, so it is scanned here whatever the pace says
    def refuse(*a):
        raise AssertionError("a pool started for one chunk")

    monkeypatch.setattr(search, "_HELPERS_PAY_S", 0)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    t = Triple(2, 2, 1)
    assert search_range(t, 2, 4, workers=2) == search_range(t, 2, 4)


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
        # a line of any other shape than the four the writer makes is refused
        (triple + '{"range": "25"}\n', ":2: expected 2 decimal strings, got '25'"),
        (triple + '{"range": ["2", "5", "9"]}\n', ":2: expected 2 decimal strings, got ['2'"),
        ('{"triple": "231"}\n', ":1: expected 3 decimal strings, got '231'"),
        ('{"triple": ["2", "3", "1", "7"]}\n', ":1: expected 3 decimal strings, got ['2'"),
        (triple + '{"unresolved": ["5"]}\n', ":2: expected 1 decimal strings, got [['5']]"),
        (
            triple + json.dumps({"solution": {**_CELLS_18, "x": "1"}}) + "\n",
            ":2: expected the keys q n l b y c w, got {",
        ),
        (
            triple + json.dumps({"solution": dict(list(_CELLS_18.items())[:6])}) + "\n",
            ":2: expected the keys q n l b y c w, got {",
        ),
        (
            triple + json.dumps({"solution": {**_CELLS_18, "w": "7"}}) + "\n",
            ":2: expected decimal strings, got {",
        ),
        (triple + json.dumps({"solution": ["2", "3"]}) + "\n", ":2: expected the keys q n l"),
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


def test_failed_checkpoint_rewrite_leaves_old_file(tmp_path, monkeypatch):
    # the rewrite goes to a temporary file that a failed replace removes
    t = Triple(2, 3, 1)
    path = tmp_path / "cp.jsonl"
    search_range(t, 2, 100, str(path))
    before = path.read_bytes()

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="replace refused"):
        write_checkpoint(str(path), Checkpoint(t, ((2, 300),), (), ()))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cp.jsonl"]
    assert path.read_bytes() == before


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
    # earlier versions appended chunks out of order, a helper's from the
    # back between the caller's from the front; such a file, cut at any line
    # boundary, resumes to the bytes of an uninterrupted 1-worker run
    monkeypatch.setattr(search, "_HELPERS_PAY_S", 0)
    t = Triple(2, 3, 1)
    path = tmp_path / "cp.jsonl"
    write_checkpoint(str(path), Checkpoint(t, (), (), ()))
    with monkeypatch.context() as m:
        m.setattr(search, "write_checkpoint", lambda *a: sys.exit("killed"))
        m.setattr(search, "_FLUSH_EVERY", 16)
        with pytest.raises(SystemExit):
            search_range(t, 2, 150, str(path), workers=2)
    head, *lines = path.read_bytes().splitlines(keepends=True)
    blocks = [[]]  # each chunk's records, then its range line
    for line in lines:
        blocks[-1].append(line)
        if b'"range"' in line:
            blocks.append([])
    assert blocks.pop() == [] and len(blocks) == 10
    blocks = [blocks[i] for i in (0, 9, 1, 8, 2, 7, 3, 6, 4, 5)]
    lines = [head] + [line for block in blocks for line in block]
    starts = [int(json.loads(line)["range"][0]) for line in lines if b'"range"' in line]
    assert starts != sorted(starts)

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


def test_undecodable_torn_tail_resumes(tmp_path):
    # an unterminated last line that is no UTF-8, even a character cut
    # mid-sequence, is a torn tail too: dropped, and the run resumes to the
    # bytes of an uninterrupted one
    t = Triple(2, 3, 1)
    whole_path = tmp_path / "whole.jsonl"
    whole = search_range(t, 2, 75, str(whole_path))
    path = tmp_path / "cp.jsonl"
    search_range(t, 2, 40, str(path))
    head = path.read_bytes()
    # the last: two of the three bytes of one character
    for tail in (b'{"range": ["41", "\xff', b"\xff", b'{"unresolved": "\xe2\x82'):
        path.write_bytes(head + tail)
        assert load_checkpoint(str(path)).completed == ((2, 40),)
        assert search_range(t, 2, 75, str(path)) == whole
        assert path.read_bytes() == whole_path.read_bytes()


def test_crlf_checkpoint_resumes_to_the_bytes_of_an_lf_run(tmp_path):
    # lines end at b"\n" and are stripped, so a checkpoint with CRLF line
    # ends loads as its LF twin does, a torn last line dropped as ever; the
    # resumed run rewrites it to the bytes of an uninterrupted one
    t = Triple(2, 3, 1)
    whole_path = tmp_path / "whole.jsonl"
    whole = search_range(t, 2, 75, str(whole_path))
    lf_path, path = tmp_path / "lf.jsonl", tmp_path / "cp.jsonl"
    search_range(t, 2, 40, str(lf_path))
    lf = load_checkpoint(str(lf_path))
    assert lf.solutions
    head = lf_path.read_bytes().replace(b"\n", b"\r\n")
    for tail in (b"", b'{"range": ["41", "6'):
        path.write_bytes(head + tail)
        assert load_checkpoint(str(path)) == lf
        assert search_range(t, 2, 75, str(path)) == whole
        assert path.read_bytes() == whole_path.read_bytes()


def test_writer_solution_lines_are_read_without_json(tmp_path, monkeypatch):
    # every solution line the writer makes, a 4,331-digit y's too, is read
    # by the one pattern: json.loads decodes only the other lines
    big = gen_232(46)[-1]
    paths = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    search_range(Triple(2, 2, 3), 2, 300, str(paths[0]))
    write_checkpoint(str(paths[1]), Checkpoint(big.triple, ((big.b, big.b),), (big,), ()))
    decoded = []
    real = json.loads
    monkeypatch.setattr(json, "loads", lambda s, *a, **k: decoded.append(s) or real(s, *a, **k))
    for path in paths:
        decoded.clear()
        cp = load_checkpoint(str(path))
        lines = path.read_text().splitlines()
        assert decoded == [line for line in lines if not line.startswith('{"solution"')]
        assert len(cp.solutions) == len(lines) - len(decoded) > 0
    assert cp.solutions == (big,)


def _line_variants(line: str) -> list[str]:
    """Lines that load to the record of line, in shapes the writer never makes."""
    obj = json.loads(line)
    cells = obj["solution"]
    y, c = cells["y"], cells["c"]
    return [
        line.replace(f'"y": "{y}"', f'"y": " {y}"'),  # a padded cell
        line.replace(f'"c": "{c}"', f'"c": "00{c}"'),  # leading zeros
        json.dumps({"solution": dict(reversed(cells.items()))}),  # other key order
        line.replace(f'"y": "{y[0]}', f'"y": "\\u00{ord(y[0]):x}'),  # an escape
        line.replace('"q": ', '"q":  '),  # a space more after a colon
    ]


def test_solution_line_variants_load_alike_and_rewrite_canonically(tmp_path):
    # each variant takes the JSON path to the record of the writer's line,
    # and a resume rewrites it in the writer's bytes
    path = tmp_path / "cp.jsonl"
    for r in (rec(2, 3, 1, 18, 49, 7), gen_232(46)[-1]):
        cp = Checkpoint(r.triple, ((r.b, r.b),), (r,), ())
        write_checkpoint(str(path), cp)
        canon = path.read_text()
        head, line = canon.splitlines()[:2], canon.splitlines()[2]
        assert search._SOLUTION_SHAPE.fullmatch(line)
        variants = _line_variants(line)
        assert len(set(variants)) == 5 and line not in variants
        for variant in variants:
            assert not search._SOLUTION_SHAPE.fullmatch(variant)
            path.write_text("\n".join(head + [variant]) + "\n")
            assert load_checkpoint(str(path), expect=r.triple) == cp
            assert search_range(r.triple, r.b, r.b, str(path)) == cp
            assert path.read_text() == canon


@pytest.mark.parametrize("workers", [1, 2])
def test_resume_formats_each_new_record_once(tmp_path, monkeypatch, workers):
    # a record found is formatted once, for its append, and the final
    # rewrite reuses that line; a loaded record of the writer's shape is
    # never formatted again
    monkeypatch.setattr(search, "_HELPERS_PAY_S", 0)
    formatted = Counter()
    real = search._solution_line
    monkeypatch.setattr(search, "_solution_line", lambda r: formatted.update([r]) or real(r))
    t = Triple(2, 2, 1)
    path = tmp_path / "cp.jsonl"
    half = search_range(t, 2, 150, str(path), workers=workers)
    assert formatted == Counter(half.solutions)
    formatted.clear()
    whole = search_range(t, 2, 300, str(path), workers=workers)
    assert formatted == Counter(r for r in whole.solutions if r.b > 150)
    assert len(whole.solutions) > len(half.solutions) > 0
    whole_path = tmp_path / "whole.jsonl"
    search_range(t, 2, 300, str(whole_path))
    assert path.read_bytes() == whole_path.read_bytes()


def test_invariant_checks_survive_optimize():
    # under python -O a corrupted record must still be refused, not returned
    script = textwrap.dedent(
        """
        import sys
        from repwords import search
        from repwords.triples import Triple

        if not sys.flags.optimize:
            sys.exit("not running under -O")
        search._HELPERS_PAY_S = 0
        real = search.checked_record
        search.checked_record = lambda t, b, y, c, source: real(t, b, y + 1, c, source)
        for solve in (search.solutions_for_base, search.brute_solutions_for_base):
            try:
                solve(Triple(2, 3, 1), 18)
            except search.InvariantError as e:
                print(e)
            else:
                sys.exit(f"{solve.__name__} returned a corrupted record")
        # with two workers this process scans the first chunk, [2, 20], and
        # the pool the last, [135, 150]; each holds a solution, and each
        # refuses it when only its own chunk's records are corrupted
        bad = search.checked_record
        for lo, hi in ((2, 20), (135, 150)):
            search.checked_record = lambda t, b, *a, lo=lo, hi=hi: (
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


# checked_record on the (2,3,1) record at base 18 with y = 50 in place of
# 49; no assert, so python -O runs all of it
CHECKED_SCRIPT = textwrap.dedent(
    """
    from repwords import search
    from repwords.triples import Triple
    from repwords.words import canonical_word

    good = search.SolutionRecord(2, 3, 1, 18, 49, 7, canonical_word(18, (7,)))
    if search.checked_record(Triple(2, 3, 1), 18, 49, 7, "oracle") != good:
        raise SystemExit("a good record did not pass through")
    try:
        search.checked_record(Triple(2, 3, 1), 18, 50, 7, "oracle")
    except search.InvariantError as e:
        print(e)
    """
)


def test_checked_refuses_a_bad_record(capsys):
    # in this process, then under python -O, which must keep the raise
    exec(CHECKED_SCRIPT, {})
    out = capsys.readouterr().out
    assert out.startswith("oracle produced a record failing power-equation: ")
    src = os.path.dirname(os.path.dirname(repwords.__file__))
    under_o = "import sys\nif not sys.flags.optimize:\n    sys.exit('not running under -O')\n"
    proc = subprocess.run(
        [sys.executable, "-O", "-c", under_o + CHECKED_SCRIPT],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, "")


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
    twin = _changed(r, c=r.c + 1)
    for given in ((r, twin), (twin, r, twin)):
        assert set(Checkpoint(t, (), given, ()).normalized().solutions) == {r, twin}
        assert len(Checkpoint(t, (), given, ()).normalized().solutions) == 2


def test_checkpoint_gaps_of_unsorted_ranges():
    cp = Checkpoint(Triple(2, 3, 1), ((30, 40), (5, 10), (11, 20), (2, 3)), (), ())
    assert cp.gaps(1, 45) == [(1, 1), (4, 4), (21, 29), (41, 45)]
    assert cp.gaps(12, 18) == []


@settings(derandomize=True, max_examples=300)
@given(
    st.lists(st.tuples(st.integers(1, 60), st.integers(0, 10)), max_size=8),
    st.integers(1, 60),
    st.integers(0, 60),
)
def test_checkpoint_gaps_are_the_complement(ranges, lo, width):
    completed = tuple((a, min(a + w, 60)) for a, w in ranges)
    hi = lo + width
    left = sorted(set(range(lo, hi + 1)).difference(*(range(a, b + 1) for a, b in completed)))
    runs = []
    for x in left:
        if runs and runs[-1][1] == x - 1:
            runs[-1][1] = x
        else:
            runs.append([x, x])
    cp = Checkpoint(Triple(2, 3, 1), completed, (), ())
    assert cp.gaps(lo, hi) == [tuple(r) for r in runs]


def test_unresolved_base_on_tiny_budget():
    # 5**59 + 1 carries a piece no 1 ms budget can split, warm caches or
    # not: the base is reported as unresolved, never guessed at
    cp = search_range(Triple(2, 2, 59), 5, 5, factor_budget_ms=1)
    assert cp.unresolved == (5,)
    assert cp.solutions == ()
    assert cp.completed == ((5, 5),)
    # alone, the same base raises instead
    with pytest.raises(FactorBudgetError):
        solutions_for_base(Triple(2, 2, 59), 5, factor_budget_ms=1)


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


# (5, 2) reaches y**5 > 2**63, past any fixed-width integer scan; in
# (7, 2) y**7 * mul reaches 122 bits (five 30-bit limbs), and the shifted
# quotient is one below the exact one on 593 of 1,544 scanned y; (3, 4)
# runs n = 4 to k = 13
@pytest.mark.parametrize(
    "q,n,y_max",
    [(2, 2, 20_000), (2, 3, 20_000), (3, 2, 20_000), (2, 4, 20_000),
     (4, 2, 20_000), (3, 3, 20_000), (5, 2, 20_000), (7, 2, 3_000),
     (3, 4, 5_000)],
)
def test_fib_powers_match_brute(q, n, y_max):
    assert search_fib_powers(q, n, y_max) == brute_fib_powers(q, n, y_max)


@pytest.mark.parametrize(
    "q,n,k_max", [(2, 2, 12), (3, 2, 12), (2, 3, 12), (4, 2, 12), (3, 3, 12), (2, 4, 9), (3, 4, 12)]
)
def test_fib_powers_at_block_edges(q, n, k_max):
    # block k scans ceil_root(F(nk+1), q) <= y < ceil_root(F(nk+2), q):
    # stop the scan just before, at and just after each end of each block
    edges = [ceil_root(fibonacci(n * k + j), q) for k in range(1, k_max + 1) for j in (1, 2)]
    want = brute_fib_powers(q, n, max(edges) + 2)
    for y_max in sorted({e + d for e in edges for d in (-1, 0, 1)}):
        assert search_fib_powers(q, n, y_max) == [(y, u) for y, u in want if y < y_max], y_max


def _block_words(k):
    """Every length-k Zeckendorf word that can be a repeated block: a
    leading 1, no two adjacent 1s, a trailing 0."""
    words = [(1,)] if k >= 2 else []
    for _ in range(k - 2):
        words = [w + (0,) for w in words] + [w + (1,) for w in words if w[-1] == 0]
    return [w + (0,) for w in words]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_fib_block_filter_passes_every_block_word(n):
    # the filter alone, over every word u^n rather than over q-th powers:
    # g | V, V passes the residue test, and the step is g's least q-th root multiple
    seen = 0
    for k in range(1, 16):
        _, _, a, b, s, mul, hits, _ = search._fib_block(2, n, k, 10**30)
        g = math.gcd(a, b)
        for q in (2, 3):
            step = search._fib_block(q, n, k, 10**30)[-1]
            assert step == next(d for d in range(1, g + 1) if pow(d, q, g) == 0), (n, k, q)
        for u in _block_words(k):
            v = word_value(zeckendorf_word(u * n))
            assert fibonacci(n * k + 1) <= v < fibonacci(n * k + 2)
            assert v % g == 0, (n, u)
            assert (v - a * ((v * mul) >> s)) % b in hits, (n, u)
            seen += 1
    assert seen == sum(fibonacci(k - 1) for k in range(2, 16))  # F(k-1) words of length k


def _count_encodes(monkeypatch):
    calls = Counter()
    real = search.to_zeckendorf

    def spy(v):
        calls["encode"] += 1
        return real(v)

    monkeypatch.setattr(search, "to_zeckendorf", spy)
    return calls


# re-encodes and results at the commit before the scan walked multiples of
# the step: the candidates are the same y, only fewer y are tested
@pytest.mark.parametrize(
    "q,n,y_max,encodes,found",
    [(2, 2, 1_504_255, 103, 13), (4, 2, 5_040, 3, 2), (2, 3, 5_040, 9, 0),
     (2, 2, 34_000_000, 139, 22)],
)
def test_fib_scan_re_encodes_the_same_candidates(q, n, y_max, encodes, found, monkeypatch):
    calls = _count_encodes(monkeypatch)
    assert len(search_fib_powers(q, n, y_max)) == found
    assert calls["encode"] == encodes


@pytest.mark.parametrize("q,n,k_max", [(2, 2, 16), (2, 3, 12)])
def test_fib_powers_truncated_inside_stepped_blocks(q, n, k_max):
    # stop the scan just before, at and just after the first and the last
    # multiple of the step in each block whose step is above 1
    cuts = set()
    for k in range(1, k_max + 1):
        y_lo, y_hi, *_, step = search._fib_block(q, n, k, 10**30)
        if step > 1:
            first = -(-y_lo // step) * step
            last = (y_hi - 1) // step * step
            cuts |= {m + d for m in (first, last) for d in (-1, 0, 1) if m >= y_lo}
    assert len(cuts) >= 12
    want = brute_fib_powers(q, n, max(cuts) + 1)
    for y_max in sorted(cuts):
        assert search_fib_powers(q, n, y_max) == [(y, u) for y, u in want if y < y_max], y_max


def test_fib_powers():
    assert [(y, w.digits) for y, w in search_fib_powers(4, 2, 100)] == [
        (2, (1, 0, 0)),
        (7, (1, 0, 1, 0, 0, 1, 0, 0)),
    ]
    assert search_fib_powers(3, 2, 1000) == []
    assert [(y, w.digits) for y, w in search_fib_powers(2, 2, 10)] == [(4, (1, 0, 0))]
