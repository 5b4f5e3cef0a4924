"""Family generators: first members against the golden tables, and
structural invariants along each orbit."""

import types
from itertools import islice

import pytest

from repwords import families, search
from repwords.arith import QuadInt
from repwords.corpus import (
    PatternRow,
    TableCorpus,
    _check_pattern_row,
    _check_zeckendorf_row,
    _pattern_value,
    format_report,
    load_corpus,
    parse_pattern,
    verify_corpus,
)
from repwords.families import (
    FUNDAMENTAL_UNITS,
    FamilyError,
    NormFamily,
    _norm_family_stream,
    family,
    find_seed,
    gen_22_by_length,
    gen_231,
    gen_232,
    gen_241,
    gen_322,
    gen_323,
    gen_331,
    gen_422,
    gen_bijective_square,
    gen_fibonacci_family,
    gen_n21,
)
from repwords.factoring import primes_upto
from repwords.search import InvariantError, verify_solution
from repwords.triples import Triple
from repwords.words import (
    bijective_word,
    repeat_word,
    to_bijective,
    to_zeckendorf,
    word_value,
    zeckendorf_word,
)


def test_fundamental_units_have_unit_norm():
    assert FUNDAMENTAL_UNITS[2].norm() == -1
    assert FUNDAMENTAL_UNITS[3].norm() == 1
    assert FUNDAMENTAL_UNITS[7].norm() == 1
    # each is the growing unit: both components positive
    assert all(u.a > 0 and u.b > 0 for u in FUNDAMENTAL_UNITS.values())


def test_find_seed():
    assert find_seed(3, -3, b_multiple=2) == QuadInt(3, 2, 3)
    assert find_seed(7, -3, b_multiple=14) == QuadInt(37, 14, 7)
    with pytest.raises(FamilyError):
        # no a**2 == 3 b**2 - 5 exists mod 4, so the whole bound is searched
        find_seed(3, -5)


def test_norm_family_stream_pell():
    u = FUNDAMENTAL_UNITS[2]
    fam = NormFamily(u, u, 2)
    members = list(islice(_norm_family_stream(fam), 4))
    assert [(m.a, m.b) for m in members] == [(1, 1), (7, 5), (41, 29), (239, 169)]
    assert all(m.norm() == -1 for m in members)
    assert list(islice(_norm_family_stream(fam), 1)) == [u]


def test_norm_family_norm_preserved_100():
    u3 = FUNDAMENTAL_UNITS[3]
    fam = NormFamily(QuadInt(3, 2, 3), u3, 2)
    for m in islice(_norm_family_stream(fam), 100):
        assert m.norm() == -3 and m.a > 0 and m.b > 0


def test_norm_family_validation():
    u = FUNDAMENTAL_UNITS[2]
    with pytest.raises(FamilyError):
        NormFamily(QuadInt(3, 2, 3), u, 2)  # unit of another ring
    with pytest.raises(FamilyError):
        NormFamily(u, QuadInt(2, 1, 2), 2)  # not a unit
    with pytest.raises(FamilyError):
        NormFamily(QuadInt(3, 2, 3), QuadInt(2, -1, 3), 2)  # shrinking unit
    with pytest.raises(FamilyError):
        NormFamily(u, u, 0)  # step below 1
    with pytest.raises(FamilyError):
        NormFamily(u, u, 3, modulus=13)  # u^3 != 1 mod 13


def test_norm_family_stream_stays_on_its_branch():
    u = FUNDAMENTAL_UNITS[2]
    # u has norm -1, so an odd step reaches norm +1 at the second member
    stream = _norm_family_stream(NormFamily(u, u, step=1))
    assert next(stream) == u
    with pytest.raises(FamilyError, match="left the positive norm--1 branch"):
        next(stream)
    # a seed off the positive branch is refused at its first member
    with pytest.raises(FamilyError, match="left the positive"):
        next(_norm_family_stream(NormFamily(QuadInt(-1, -1, 2), u, 2)))


# golden first members, straight from the solution tables
FIRST_MEMBERS = [
    (gen_322, (7, 10, (2, 6))),
    (gen_331, (18, 7, (1,))),
    (gen_323, (19, 140, (1, 2, 1))),
    (gen_241, (7, 40, (4,))),
    (gen_422, (239, 78, (2, 170))),
    (gen_231, (22, 39, (3,))),
    (gen_232, (313, 7575393, (19, 32))),
]


@pytest.mark.parametrize("gen,expect", FIRST_MEMBERS)
def test_first_members(gen, expect):
    r = gen(1)[0]
    assert (r.b, r.y, r.w.digits) == expect


def test_all_family_records_verify_25():
    for gen in (gen_231, gen_322, gen_331, gen_323, gen_241, gen_422):
        for r in gen(25):
            assert verify_solution(r)


def test_gen_232_deep_members_verify():
    # each step multiplies by a unit power of order 56: keep the count low
    for r in gen_232(4):
        assert verify_solution(r)
        assert (r.b * r.b - r.b + 1) % 49 == 0
        assert (2 * r.b + 1) % 98 == 39


def test_gen_232_second_member():
    b1 = gen_232(2)[1].b
    assert b1 == 33519770429365238471302383574583401


def test_gen_231_members_in_table_window():
    # family members landing under b <= 500 must be exactly the c=3 table rows
    got = [(r.b, r.y) for r in gen_231(3) if r.b <= 500]
    assert got == [(22, 39), (313, 543)]


def test_gen_331_congruence():
    for r in gen_331(3):
        assert r.y % 7 == 0
        assert r.c * 7 == r.y
        assert 343 * r.c * r.c == r.b * r.b + r.b + 1


def test_gen_422_divisibility():
    u7 = FUNDAMENTAL_UNITS[2] ** 7
    fam = NormFamily(u7, FUNDAMENTAL_UNITS[2], 14)
    for m in islice(_norm_family_stream(fam), 5):
        assert m.b % 13 == 0


def test_member_maps_keep_divisibility_checks():
    # the (2,3,2) and (4,2,2) orbits are built so these divide; an element
    # where one does not must stop the family, not yield a bad member
    with pytest.raises(FamilyError, match=r"^x\^2 - x \+ 1 not divisible by 49 at x = 1$"):
        families._member_232(QuadInt(3, 2, 3))
    with pytest.raises(FamilyError, match=r"^13\^4 does not divide 648 \* y0\^2 at y0 = 1$"):
        families._member_422(QuadInt(1, 1, 2))


SPORADIC_TRIPLES = [(2, 3, 1), (2, 3, 2), (3, 2, 2), (3, 2, 3), (3, 3, 1), (2, 4, 1), (4, 2, 2)]


@pytest.mark.parametrize("t", SPORADIC_TRIPLES)
def test_sporadic_generators_are_traceable(t):
    # benchmark tracing rebinds plain module-level functions only: a lambda
    # or partial in the catalogue would silently drop out of traced runs
    gen = family(Triple(*t))
    assert isinstance(gen, types.FunctionType)
    assert gen.__name__ == "gen_" + "".join(map(str, t))
    assert vars(families)[gen.__name__] is gen


def test_gen_n21():
    rows = gen_n21(2, 3)
    assert [(r.b, r.y, r.c) for r in rows] == [(3, 2, 1), (8, 3, 1), (15, 4, 1)]
    rows = gen_n21(3, 2)
    assert [(r.b, r.y) for r in rows] == [(7, 2), (26, 3)]
    with pytest.raises(ValueError):
        gen_n21(1, 3)


def test_gen_22_by_length_worked_example():
    r = gen_22_by_length(12, 1)[0]
    assert r.b == 110
    assert r.y == 369226867849529411764706
    assert r.w.digits == (1, 57, 52, 15, 108, 52, 57, 94, 1, 57, 52, 16)


def test_gen_22_by_length_small():
    for l in (1, 2, 3, 4, 6):
        for r in gen_22_by_length(l, 3):
            assert r.l == l and len(r.w) == l
            assert verify_solution(r)
    with pytest.raises(ValueError):
        gen_22_by_length(0, 1)


def _scan_witness(p, t):
    # the original linear scan for the least b with b**(2**t) == -1 mod p**2
    p2 = p * p
    return next(b for b in range(2, p2) if pow(b, 2**t, p2) == p2 - 1)


def _lifted_scan_witness(p, t):
    # the same scan over only the b whose residue mod p solves the congruence
    # mod p, which every solution mod p**2 must
    p2 = p * p
    roots = [r for r in range(2, p) if pow(r, 2**t, p) == p - 1]
    return min(b for r in roots for b in range(r, p2, p) if pow(b, 2**t, p2) == p2 - 1)


@pytest.mark.parametrize("t", range(5))
def test_gen_22_by_length_witness_matches_scan(t):
    primes = [p for p in primes_upto(3000) if p >= 5 and p % 2 ** (t + 1) == 1]
    bases = [r.b for r in gen_22_by_length(2**t, len(primes))]
    assert bases == [_lifted_scan_witness(p, t) for p in primes]
    small = [p for p in primes if p < 200]
    assert bases[: len(small)] == [_scan_witness(p, t) for p in small]


def test_gen_22_deep_members_verify():
    # emission already verifies; this pins the 25-member contract visibly
    assert len(gen_22_by_length(2, 25)) == 25


def test_gen_bijective_square():
    y, w = gen_bijective_square(2, 2)
    assert (y, w.digits) == (5, (2, 1))
    y, w = gen_bijective_square(10, 3)
    assert (y, w.digits) == (1001, (9, 10, 1))
    for b in (2, 3, 7, 12):
        for l in (2, 3, 5, 9):
            y, w = gen_bijective_square(b, l)
            assert y == b**l + 1 and len(w.digits) == l
    with pytest.raises(ValueError):
        gen_bijective_square(2, 1)


def test_failing_member_raises(monkeypatch):
    # a member that fails its check breaks the family, as a solver's record
    # would: it is not skipped
    third = gen_231(3)[2]
    real = search.check_solution
    monkeypatch.setattr(
        search, "check_solution", lambda rec: "power-equation" if rec == third else real(rec)
    )
    assert len(gen_231(2)) == 2
    with pytest.raises(
        InvariantError, match=r"^member 3 of \(2,3,1\) produced a record failing power-equation: "
    ):
        gen_231(3)


def test_no_member_past_count_is_computed(monkeypatch):
    calls = []
    real = families._member_323
    monkeypatch.setattr(families, "_member_323", lambda el: calls.append(el) or real(el))
    assert len(gen_323(5)) == 5
    assert len(calls) == 5


def test_a_broken_family_is_an_invariant_error():
    # a family whose own invariants fail is a bug, as a solver's is
    assert issubclass(FamilyError, InvariantError)
    assert not issubclass(FamilyError, ValueError)


def _bijective_rows():
    # the bijective square families are pattern rows of the bundled corpus
    return {(r.base, r.row): r for r in load_corpus("bijective_families").rows}


def _instantiate_pattern(b, runs, n):
    # the digit oracle: every digit of the pattern's word at n
    digits = ()
    for block, coef, const in runs:
        digits += block * (coef * n + const)
    return bijective_word(b, digits)


def _bijective_member(row, n):
    y = word_value(_instantiate_pattern(row.base, parse_pattern(row.y_pattern), n))
    return y, _instantiate_pattern(row.base, parse_pattern(row.w_pattern), n)


def test_gen_bijective_table_rows():
    rows = _bijective_rows()
    assert parse_pattern(rows[7, 1].y_pattern) == [((3,), 2, 2), ((4,), 0, 1)]
    y, w = _bijective_member(rows[7, 1], 0)
    assert y == 172 and w.digits == (1, 5, 2)
    assert word_value(to_bijective(172 * 172, 7)) == 172 * 172
    y, w = _bijective_member(rows[8, 1], 0)
    assert to_bijective(y, 8).digits == (5, 2, 6)
    with pytest.raises(ValueError, match="bad pattern"):
        parse_pattern("(3:2n+2")


def test_gen_bijective_table_deep():
    for row in _bijective_rows().values():
        for n in (0, 1, 7, 20):
            y, w = _bijective_member(row, n)
            assert to_bijective(y * y, row.base) == repeat_word(w, 2)
    # the value check proves every bundled family for all n
    report = verify_corpus(load_corpus("bijective_families"))
    assert report.ok, format_report(report)


def test_pattern_value_check_agrees_with_digit_oracle():
    for row in _bijective_rows().values():
        b, y_runs, w_runs = row.base, parse_pattern(row.y_pattern), parse_pattern(row.w_pattern)
        for n in range(61):
            y, w = _bijective_member(row, n)
            assert _pattern_value(b, y_runs, n) == (y, b ** len(to_bijective(y, b)))
            value, scale = _pattern_value(b, w_runs, n)
            assert (value, scale) == (word_value(w), b ** len(w))
            for z in (y, y + 1):  # a member, and a square that spells no w w
                assert (z * z == value * (scale + 1)) == (to_bijective(z * z, b) == repeat_word(w, 2))
        assert _check_pattern_row(row) is None


def _block_digit_changes(row):
    # every row that differs from row in one block digit, kept within 1..b;
    # a lone digit is a block of one
    for field in ("y_pattern", "w_pattern"):
        text, state = getattr(row, field), ")"
        for i, ch in enumerate(text):
            if ch in "(:)":
                state = ch
            elif state != ":":  # not in a count kn+m
                for d in range(1, row.base + 1):
                    if d != int(ch):
                        changed = {"y_pattern": row.y_pattern, "w_pattern": row.w_pattern}
                        changed[field] = text[:i] + str(d) + text[i + 1:]
                        yield PatternRow(row.base, row.row, **changed)


def test_changed_block_digits_fail_as_the_digit_oracle_does():
    # verify_corpus, which checks n = 0..E by value, fails a row exactly
    # when the digit oracle finds a mismatch at some n <= 60, and names the
    # same first n; each bundled row, unchanged, is the passing case
    cases = 0
    for row in _bijective_rows().values():
        rows = (row, *_block_digit_changes(row))
        report = verify_corpus(TableCorpus("changed", "bijective-patterns", rows))
        for changed, result in zip(rows, report.results):
            members = map(_bijective_member, [changed] * 61, range(61))
            spelled = (to_bijective(y * y, row.base) == repeat_word(w, 2) for y, w in members)
            bad = next((n for n, ok in enumerate(spelled) if not ok), None)
            expect = None if bad is None else f"square-digits at n={bad}"
            assert result.failure == expect, (changed, result)
        cases += len(rows) - 1
    assert cases == 992


def test_gen_fibonacci_family():
    y, w = gen_fibonacci_family(1)
    assert y == 5236
    assert w.digits == (1, 0, 0, 0, 0, 1, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0)
    y2, w2 = gen_fibonacci_family(2)
    assert y2 == 243252
    for n in range(1, 40):
        y, w = gen_fibonacci_family(n)
        assert to_zeckendorf(y * y) == repeat_word(w, 2)
        assert len(w.digits) == 8 * n + 10
    with pytest.raises(ValueError):
        gen_fibonacci_family(0)


def test_square_families_spell_their_squares():
    # the digit re-encode the generators no longer run is the oracle
    for n in range(1, 61):
        y, w = gen_fibonacci_family(n)
        assert to_zeckendorf(y * y) == repeat_word(w, 2)
    for b in range(2, 41):
        for l in range(2, 9):
            y, w = gen_bijective_square(b, l)
            assert to_bijective(y * y, b) == repeat_word(w, 2)


def test_fibonacci_closed_form_is_the_word_value():
    for n in range(1, 61):
        digits = (
            (1, 0, 0, 0, 0) + (1, 0, 0, 0) * (n - 1) + (1, 0, 1, 0, 0, 1, 0, 0, 1) + (0,) * (4 * n)
        )
        assert gen_fibonacci_family(n)[1].digits == digits
        for e in (0, 8 * n + 10):
            expect = word_value(zeckendorf_word(digits + (0,) * e))
            assert families._fibonacci_copy_value(n, e) == expect, (n, e)


def test_square_families_check_without_re_encoding():
    for fn in (gen_fibonacci_family, gen_bijective_square, _check_zeckendorf_row):
        assert not {"to_zeckendorf", "to_bijective"} & set(fn.__code__.co_names), fn


def test_a_flipped_digit_breaks_a_square_family(monkeypatch):
    # each fault leaves a valid word, so only the value check can see it
    def last_zero_to_one(digits):
        return zeckendorf_word(digits[:-1] + (1,))

    monkeypatch.setattr(families, "zeckendorf_word", last_zero_to_one)
    with pytest.raises(FamilyError, match=r"^square family fails at n=3$"):
        gen_fibonacci_family(3)
    monkeypatch.undo()

    # the value of w is checked against the closed form, not only y*y
    real = families._fibonacci_copy_value
    monkeypatch.setattr(families, "_fibonacci_copy_value", lambda n, e: real(n, e) + (e == 0))
    with pytest.raises(FamilyError, match=r"^square family fails at n=3$"):
        gen_fibonacci_family(3)

    def first_digit_down(b, digits):
        return bijective_word(b, (digits[0] - 1,) + digits[1:])

    monkeypatch.setattr(families, "bijective_word", first_digit_down)
    with pytest.raises(FamilyError, match=r"^square template failed to verify$"):
        gen_bijective_square(5, 4)


def test_family_members_found_by_search():
    # members inside a searchable window must also come out of the search
    from repwords.search import search_range
    from repwords.triples import Triple

    cp = search_range(Triple(3, 2, 2), 2, 50)
    assert [(r.b, r.y) for r in cp.solutions if (r.b, r.y) == (7, 10)] == [(7, 10)]
