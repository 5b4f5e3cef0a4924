"""Acceptance suite: one check per headline guarantee of the package.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them) and then asserts, so the suite doubles as a report and a gate.
"""

from itertools import product

from repwords import is_admissible
from repwords.corpus import builtin_corpora, format_report, load_corpus, verify_corpus
from repwords.families import (
    gen_231,
    gen_232,
    gen_241,
    gen_322,
    gen_323,
    gen_331,
    gen_422,
)
from repwords.search import (
    brute_solutions_for_base,
    search_fib_powers,
    search_fib_squares,
    search_range,
    solutions_for_base,
)
from repwords.triples import F_value, Triple
from repwords.words import Word


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _key(rec):
    return (rec.q, rec.n, rec.l, rec.b, rec.y)


def test_criterion_1_table_231():
    want = sorted(load_corpus("triple_231").rows, key=_key)
    cp = search_range(Triple(2, 3, 1), 2, 500)
    got = sorted(cp.solutions, key=_key)
    ok = got == want and not cp.unresolved
    _verdict(
        "criterion 1 (q,n,l)=(2,3,1) search over b in [2,500]",
        ok,
        f"{len(got)} of {len(want)} table rows, bit-exact",
    )


def test_criterion_2_sporadic_rows():
    by_triple: dict[tuple, list] = {}
    for rec in load_corpus("sporadic").rows:
        by_triple.setdefault((rec.q, rec.n, rec.l), []).append(rec)
    mismatched = []
    total = 0
    for (q, n, l), want in sorted(by_triple.items()):
        b_hi = max(rec.b for rec in want) + 100
        cp = search_range(Triple(q, n, l), 2, b_hi)
        if sorted(cp.solutions, key=_key) != sorted(want, key=_key) or cp.unresolved:
            mismatched.append((q, n, l))
        total += len(want)
    _verdict(
        "criterion 2 sporadic solutions reproduced by search",
        not mismatched,
        f"{total} rows over {len(by_triple)} triples, b up to listed+100"
        + (f"; mismatched {mismatched}" if mismatched else ""),
    )


NONE_TRIPLES = [
    (2, 4, 2),
    (2, 5, 2),
    (2, 6, 1),
    (3, 3, 2),
    (3, 4, 1),
    (3, 5, 1),
    (4, 2, 4),
    (4, 3, 2),
    (5, 3, 1),
    (6, 2, 3),
]


def test_criterion_3_negative_searches():
    nonempty = []
    for q, n, l in NONE_TRIPLES:
        cp = search_range(Triple(q, n, l), 2, 5000)
        if cp.solutions or cp.unresolved:
            nonempty.append((q, n, l))
    _verdict(
        "criterion 3 ten solution-free triples over b in [2,5000]",
        not nonempty,
        "all empty" if not nonempty else f"hits in {nonempty}",
    )


def test_criterion_4_fibonacci_tables():
    want = list(load_corpus("fibonacci_squares").rows)
    got = search_fib_squares(34_000_000)
    powers = [y for y, _ in search_fib_powers(4, 2, 100)]
    ok = got == want and powers == [2, 7]
    _verdict(
        "criterion 4 Zeckendorf doubled-word squares and fourth powers",
        ok,
        f"{len(got)} of {len(want)} squares below 34000000; fourth powers {powers}",
    )


GOLDEN_FIRST = [
    (gen_322, 7, 10, (2, 6)),
    (gen_331, 18, 7, (1,)),
    (gen_323, 19, 140, (1, 2, 1)),
    (gen_241, 7, 40, (4,)),
    (gen_422, 239, 78, (2, 170)),
    (gen_231, 22, 39, (3,)),
    (gen_232, 313, 7575393, (19, 32)),
]

# second (2,3,2) member: the golden 35-digit data lists the base, the
# coordinate of the underlying point on 3t^2 = x^2 + x + 1, and the block
# value; the solution's y is that coordinate times 3(b^2 - b + 1)/7
DEEP_232_B = 33519770429365238471302383574583401
DEEP_232_CURVE = 19352648480568478024495121554106701
DEEP_232_C = 68790306712490710007811612444611710421528067927390557506093905927147


def test_criterion_5_generators_match_tables():
    bad = []
    for gen, b, y, digits in GOLDEN_FIRST:
        rec = gen(1)[0]
        if (rec.b, rec.y, rec.w.digits) != (b, y, digits):
            bad.append(gen.__name__)
    deep = gen_232(2)[1]
    if (
        deep.b != DEEP_232_B
        or deep.c != DEEP_232_C
        or 7 * deep.y != 3 * (deep.b * deep.b - deep.b + 1) * DEEP_232_CURVE
    ):
        bad.append("gen_232[k=1]")
    _verdict(
        "criterion 5 family generators reproduce their table rows",
        not bad,
        "7 first members + the 35-digit second (2,3,2) member"
        + (f"; wrong {bad}" if bad else ""),
    )


def test_criterion_6_oracle_equivalence():
    bad = []
    checked = 0
    for q, n, l in product((2, 3, 4), (2, 3, 4), (1, 2)):
        t = Triple(q, n, l)
        for b in range(2, 101):
            checked += 1
            if solutions_for_base(t, b) != brute_solutions_for_base(t, b):
                bad.append((q, n, l, b))
    _verdict(
        "criterion 6 factoring search equals brute force",
        not bad,
        f"{checked} (triple, base) pairs with q,n<=4 l<=2 b<=100"
        + (f"; diverged {bad[:3]}" if bad else ""),
    )


def test_criterion_7_sign_witness():
    bad = []
    for l in range(1, 10_001):
        if F_value(Triple(2, 2, l)) >= 0:
            bad.append((2, 2, l))
    for q in range(2, 10_001):
        if F_value(Triple(q, 2, 1)) >= 0:
            bad.append((q, 2, 1))
    for q, n, l in [(2, 3, 1), (2, 3, 2), (3, 2, 2), (3, 2, 3), (3, 3, 1), (2, 4, 1), (4, 2, 2)]:
        if F_value(Triple(q, n, l)) >= 0:
            bad.append((q, n, l))
    positive_checked = 0
    for q, n, l in product(range(2, 51), range(2, 51), range(1, 51)):
        t = Triple(q, n, l)
        if is_admissible(t):
            continue
        positive_checked += 1
        if F_value(t) <= 0:
            bad.append((q, n, l))
    _verdict(
        "criterion 7 exact sign witness separates the triple classes",
        not bad,
        f"negative on both families and all sporadics, positive on "
        f"{positive_checked} inadmissible triples" + (f"; wrong {bad[:3]}" if bad else ""),
    )


def test_criterion_8_corpus_verification():
    failing = []
    rows = 0
    for name in builtin_corpora():
        report = verify_corpus(load_corpus(name))
        rows += len(report.results)
        if not report.ok:
            failing.append(format_report(report))
    _verdict(
        "criterion 8 every bundled table passes verification",
        not failing,
        f"{rows} rows over {len(builtin_corpora())} tables, patterns for every n"
        + ("; " + "; ".join(failing) if failing else ""),
    )


def test_solution_words_are_words():
    # sanity anchor for the suite itself: corpus rows carry real words
    rec = load_corpus("sporadic").rows[0]
    assert isinstance(rec.w, Word)
