"""Exhaustive search for repeated-word powers, plus Zeckendorf scans.

For a triple (q, n, l) and a base b, every solution of

    y**q = c * (b**(n*l) - 1) // (b**l - 1),   b**(l-1) <= c < b**l

arises as c = k**q * d where d is the defect of the factored quotient
(the least multiplier making it a perfect q-th power) and k runs over a
short integer interval.  Most bases are settled by the sieve and the
defect bound alone: the quotient's pieces, sieved for a chunk of bases
at once, give a lower bound on d that reaches b**l.  The rest take one
factorization plus a handful of root extractions; factoring.open_defects
makes that decision and hands back d.  A brute-force oracle enumerating
every c directly backs the fast path in tests.

Range scans persist progress to a line-delimited checkpoint file so
they can be interrupted, resumed, and partitioned across workers with a
deterministic final result.  The calling process scans chunks in
order, and once its own pace projects the bases left to take longer than
starting a pool costs, a pool of forked workers scans the rest while it
appends their results in order.
"""

from __future__ import annotations

import concurrent.futures
import json
import math
import operator
import os
import random
import re
import tempfile
import time
from contextlib import ExitStack, closing
from functools import cache, cached_property, partial
from itertools import count

from .arith import Frozen, ceil_root, iroot
from .factoring import FactorBudgetError, check_budget, is_probable_prime, open_defects, root_step
from .triples import Triple
from .words import (
    System,
    Word,
    fibonacci,
    format_decimal,
    parse_decimals,
    split_repetition,
    to_canonical,
    to_zeckendorf,
    word_value,
)

_BRUTE_LIMIT = 10**7
# bits of y**q above which check_solution first compares both sides mod a random prime
_RESIDUE_BITS = 1 << 16


class CheckpointError(RuntimeError):
    """Checkpoint file is corrupt or belongs to a different search."""


class InvariantError(RuntimeError):
    """A solver produced a result that fails its own exact check."""


class SolutionRecord(Frozen):
    """One solution (y, c, w) of the power equation at base b."""

    __slots__ = ("q", "n", "l", "b", "y", "c", "w", "__dict__")  # __dict__ holds _checkpoint_line

    @property
    def triple(self) -> Triple:
        return Triple(self.q, self.n, self.l)

    @cached_property
    def _checkpoint_line(self) -> str:
        """The record's checkpoint line, formatted at most once per record."""
        return _solution_line(self)


def _repunit(top: int, n: int) -> int:
    """1 + top + ... + top**(n-1) in O(log n) products, over n's bits from
    the top: R(2k) = R(k) * (1 + top**k) and R(2k + 1) = R(2k) * top + 1."""
    r, p = 1, top  # R(k) and top**k, k the bits of n read so far
    for shift in reversed(range(n.bit_length() - 1)):
        odd = n >> shift & 1
        r = r * (1 + p) * top + 1 if odd else r * (1 + p)
        if shift:
            p = p * p * top if odd else p * p
    return r


@cache
def _residue_prime() -> int:
    """A random 61-bit prime, drawn once per process: no record can be made to fit it."""
    rng = random.SystemRandom()
    draws = iter(lambda: rng.getrandbits(61) | 1 << 60 | 1, 0)  # never 0: endless
    return next(p for p in draws if is_probable_prime(p))


def check_solution(rec: SolutionRecord) -> str | None:
    """Name of the first failing invariant, or None when all hold.

    The equation is checked as y**q = c * R, R = 1 + b**l + ... + b**((n-1)l), and
    the digit string by range: a length-l word of value c in [b**(l-1), b**l) with
    digits in [0, b) is c's canonical word, and then y**q = c * R is it written n times.
    """
    if rec.q < 2 or rec.n < 2 or rec.l < 1:
        return "triple"
    if rec.b < 2:
        return "base"
    if rec.y < 2:
        return "y-range"
    if (
        rec.w.system is not System.CANONICAL
        or rec.w.base != rec.b
        or len(rec.w) != rec.l
    ):
        return "word-shape"
    if word_value(rec.w) != rec.c:
        return "word-value"
    low = rec.b ** (rec.l - 1)
    top = low * rec.b
    if not low <= rec.c < top:
        return "c-range"
    # 2**(q(ly-1)) <= y**q < 2**(q ly), 2**(lc-1+(n-1)(lt-1)) <= c * R < 2**(lc+(n-1)lt+1)
    ly, lc, lt = rec.y.bit_length(), rec.c.bit_length(), top.bit_length()
    if rec.q * (ly - 1) > lc + (rec.n - 1) * lt or rec.q * ly < lc + (rec.n - 1) * (lt - 1):
        return "power-equation"
    if rec.q * ly > _RESIDUE_BITS:  # so q and n both huge build neither power
        p, m = _residue_prime(), top - 1
        # top**n = 1 mod m, so top**n mod p*m, less 1, is m*R mod p*m
        if pow(rec.y, rec.q, p) != rec.c * ((pow(top, rec.n, p * m) - 1) // m) % p:
            return "power-equation"
    if rec.y**rec.q != rec.c * _repunit(top, rec.n):
        return "power-equation"
    if not all(0 <= d < rec.b for d in rec.w.digits):
        return "digit-string"
    return None


def verify_solution(rec: SolutionRecord) -> bool:
    """Whether check_solution finds every invariant holding."""
    return check_solution(rec) is None


def checked_record(t: Triple, b: int, y: int, c: int, source: str) -> SolutionRecord:
    """The record of (b, y, c) for t; InvariantError naming source if it fails a check."""
    rec = SolutionRecord(t.q, t.n, t.l, b, y, c, to_canonical(c, b))
    bad = check_solution(rec)
    if bad:
        # the checkpoint spelling: repr would refuse an int past 4,300 digits
        raise InvariantError(f"{source} produced a record failing {bad}: {_solution_line(rec)}")
    return rec


def solutions_for_base(
    t: Triple, b: int, *, factor_budget_ms: int | None = None
) -> list[SolutionRecord]:
    """All solutions at base b, ascending in y: the range scan of [b, b].

    Raises FactorBudgetError when factoring the quotient exceeds
    factor_budget_ms, where a range scan records b as unresolved.
    """
    # up front: a base the bound decides never reaches factoring's check
    check_budget(factor_budget_ms)
    sols, unresolved = _scan_chunk(t, factor_budget_ms, (b, b))
    if unresolved:
        raise FactorBudgetError(f"factoring budget exceeded at base {b}")
    return sols


def brute_solutions_for_base(t: Triple, b: int) -> list[SolutionRecord]:
    """Independent oracle: test every c in the range by root extraction.

    Never touches factorization or defects, so it cross-checks
    solutions_for_base from first principles.
    """
    if b < 2:
        raise ValueError(f"base must be >= 2, got {b}")
    if b**t.l > _BRUTE_LIMIT:
        raise ValueError(f"b**l exceeds the brute-force guard {_BRUTE_LIMIT}")
    r = (b ** (t.n * t.l) - 1) // (b**t.l - 1)
    out = []
    for c in range(b ** (t.l - 1), b**t.l):
        y, exact = iroot(c * r, t.q)
        if exact:
            out.append(checked_record(t, b, y, c, "oracle"))
    return out


# ---------------------------------------------------------------------------
# checkpointing


class Checkpoint(Frozen):
    """Progress of one range search: what is done and what was found."""

    __slots__ = ("triple", "completed", "solutions", "unresolved")

    def normalized(self) -> Checkpoint:
        """Canonical form: merged ranges, records sorted and deduplicated."""
        sols = self.solutions
        keys = [(s.b, s.y) for s in sols]
        # records strictly ascending by (b, y) are already sorted and distinct
        if not all(map(operator.lt, keys, keys[1:])):
            sols = tuple(sorted(set(sols), key=lambda s: (s.b, s.y)))
        return Checkpoint(
            self.triple,
            _merged(self.completed),
            sols,
            tuple(sorted(set(self.unresolved))),
        )

    def gaps(self, lo: int, hi: int) -> list[tuple[int, int]]:
        """Subranges of [lo, hi] not yet covered by completed ranges."""
        out, cur = [], lo
        # the empty range just past hi closes the last gap
        for a, b in _merged(self.completed) + ((hi + 1, hi),):
            if cur <= min(a - 1, hi):
                out.append((cur, min(a - 1, hi)))
            cur = max(cur, b + 1)
        return out


def _merged(ranges) -> tuple[tuple[int, int], ...]:
    """Sorted disjoint ranges covering the same bases, adjacent ones joined."""
    merged: list[list[int]] = []
    for lo, hi in sorted(ranges):
        if merged and lo <= merged[-1][1] + 1:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return tuple((lo, hi) for lo, hi in merged)


def _decimals(val, count: int) -> list[int]:
    """The ints of val, a JSON list of exactly count decimal strings."""
    if isinstance(val, list) and len(val) == count and all(isinstance(s, str) for s in val):
        return parse_decimals(val)
    raise CheckpointError(f"expected {count} decimal strings, got {val!r:.64}")


# Lines are built by hand, byte for byte what json.dumps gives: every value
# is a decimal string of ASCII digits, which JSON needs no escape for.
def _range_line(lo: int, hi: int) -> str:
    return f'{{"range": ["{format_decimal(lo)}", "{format_decimal(hi)}"]}}'


def _solution_line(r: SolutionRecord) -> str:
    q, n, l, b, y, c = map(format_decimal, (r.q, r.n, r.l, r.b, r.y, r.c))
    w = '", "'.join(map(format_decimal, r.w.digits))
    w = f'"{w}"' if w else w  # an empty word is []
    return (
        f'{{"solution": {{"q": "{q}", "n": "{n}", "l": "{l}", "b": "{b}",'
        f' "y": "{y}", "c": "{c}", "w": [{w}]}}}}'
    )


def _unresolved_line(b: int) -> str:
    return f'{{"unresolved": "{format_decimal(b)}"}}'


# exactly the lines _solution_line makes, each cell what format_decimal gives:
# such a line is the JSON of the record it reads as, and byte for byte its line
_DECIMAL = "(?:0|[1-9][0-9]*)"
_SOLUTION_SHAPE = re.compile(
    r'\{"solution": \{'
    + "".join(f'"{k}": "({_DECIMAL})", ' for k in "qnlbyc")
    + rf'"w": \[(?:"((?:{_DECIMAL}", ")*{_DECIMAL})")?\]\}}\}}'
)


def _solution(cells: list[str], w: list[str]) -> SolutionRecord:
    q, n, l, b, y, c, *digits = parse_decimals(cells + w)
    return SolutionRecord(q, n, l, b, y, c, Word(System.CANONICAL, b, tuple(digits)))


def _solution_from_shape(m: re.Match) -> SolutionRecord:
    *cells, w = m.groups()
    rec = _solution(cells, w.split('", "') if w else [])
    object.__setattr__(rec, "_checkpoint_line", m.string)  # seeds the cached_property
    return rec


def _solution_from_json(obj) -> SolutionRecord:
    if not (isinstance(obj, dict) and len(obj) == 7):
        raise CheckpointError(f"expected the keys q n l b y c w, got {obj!r:.64}")
    # seven keys, each indexed: one missing raises KeyError
    cells, w = [obj[k] for k in "qnlbyc"], obj["w"]
    if not (isinstance(w, list) and all(isinstance(s, str) for s in cells + w)):
        raise CheckpointError(f"expected decimal strings, got {obj!r:.64}")
    return _solution(cells, w)


def write_checkpoint(path: str, cp: Checkpoint) -> None:
    """Atomic rewrite: never leaves a partial file behind."""
    cp = cp.normalized()
    t = cp.triple
    q, n, l = map(format_decimal, (t.q, t.n, t.l))
    lines = [f'{{"triple": ["{q}", "{n}", "{l}"]}}']
    lines += [_range_line(lo, hi) for lo, hi in cp.completed]
    lines += [rec._checkpoint_line for rec in cp.solutions]
    lines += [_unresolved_line(b) for b in cp.unresolved]
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_checkpoint(path: str, expect: Triple | None = None) -> Checkpoint:
    """Read a checkpoint, dropping a torn (unterminated, unparsable) last line.

    Any other malformed line, undecodable bytes too, raises CheckpointError.
    A solution line of the writer's exact shape is read by one pattern, not
    json.loads, into the same record, which keeps the line for a rewrite.
    """
    triple: Triple | None = None
    completed: list[tuple[int, int]] = []
    solutions: list[SolutionRecord] = []
    unresolved: list[int] = []
    # undecodable bytes are read as lone surrogates, then refused line by line
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                continue
            try:
                if shape := _SOLUTION_SHAPE.fullmatch(line):
                    key, val = "solution", shape
                else:
                    if not line.isascii():  # raises UnicodeDecodeError at a lone surrogate
                        line.encode(errors="surrogateescape").decode()
                    obj = json.loads(line)
                    if not isinstance(obj, dict) or len(obj) != 1:
                        raise CheckpointError("each line must be a one-key object")
                    key, val = next(iter(obj.items()))
                if key == "triple":
                    got = Triple(*_decimals(val, 3))
                    if triple is not None and got != triple:
                        raise CheckpointError("conflicting triple lines")
                    triple = got
                elif key == "range":
                    lo, hi = _decimals(val, 2)
                    if lo > hi:
                        raise CheckpointError(f"empty range [{lo},{hi}]")
                    completed.append((lo, hi))
                elif key == "solution":
                    rec = _solution_from_shape(val) if shape else _solution_from_json(val)
                    bad = check_solution(rec)
                    if bad:
                        raise CheckpointError(f"stored solution fails: {bad}")
                    solutions.append(rec)
                elif key == "unresolved":
                    unresolved += _decimals([val], 1)
                else:
                    raise CheckpointError(f"unknown record kind {key!r}")
            except (CheckpointError, ValueError, KeyError) as e:
                unparsable = isinstance(e, (json.JSONDecodeError, UnicodeDecodeError))
                if unparsable and not raw.endswith("\n"):
                    break  # unterminated last line: an append cut short
                raise CheckpointError(f"{path}:{lineno}: {e}") from None
    if triple is None:
        raise CheckpointError(f"{path}: missing triple line")
    if expect is not None and triple != expect:
        raise CheckpointError(
            f"{path}: checkpoint is for triple {triple}, expected {expect}"
        )
    for rec in solutions:
        if (rec.q, rec.n, rec.l) != (triple.q, triple.n, triple.l):
            raise CheckpointError(f"{path}: solution for foreign triple {rec.triple}")
    return Checkpoint(
        triple, tuple(completed), tuple(solutions), tuple(unresolved)
    ).normalized()


def _ends_with_newline(path: str) -> bool:
    with open(path, "rb") as fh:
        fh.seek(-1, os.SEEK_END)
        return fh.read(1) == b"\n"


def _scan_chunk(
    t: Triple, factor_budget_ms: int | None, chunk: tuple[int, int]
) -> tuple[list[SolutionRecord], list[int]]:
    """Solutions and unresolved bases of the bases lo..hi of chunk.

    Complete and sound: c * r is a q-th power exactly when c = k**q * d,
    so scanning integer k with k**q * d inside the c-range finds every
    solution once, and open_defects leaves out only bases with
    d >= b**l, which have none.  Interval endpoints come from exact root
    extraction with a direct power check on both candidates.
    """
    sols: list[SolutionRecord] = []
    unresolved: list[int] = []
    q, n, l = t.q, t.n, t.l
    for b, d in open_defects(*chunk, n, l, q, budget_ms=factor_budget_ms):
        if d is None:
            unresolved.append(b)
            continue
        c_lo, c_hi = b ** (l - 1), b**l
        # the quotient itself, not the factorization's product: a wrong
        # factorization must fail here
        s, exact = iroot(d * _repunit(c_hi, n), q)
        if not exact:
            raise InvariantError(f"defect times quotient is no {q}-th power at base {b}")
        k = ceil_root(-(-c_lo // d), q)
        while k**q * d < c_hi:
            sols.append(checked_record(t, b, k * s, k**q * d, "defect scan"))
            k += 1
    return sols, unresolved


# most bases scanned between two appends to the checkpoint
_FLUSH_EVERY = 256

# seconds of scanning left, projected from this process's pace, above
# which a pool starts: one costs about 35 ms to import, fork and shut down,
# and since per-base cost grows with b and the last chunk starts last, a
# pool of 2 started after the second chunk lost or broke even on scans of
# up to about 0.6 s on 2 CPUs
_HELPERS_PAY_S = 0.25


def search_range(
    t: Triple,
    b_lo: int,
    b_hi: int,
    checkpoint_path: str | None = None,
    *,
    workers: int = 1,
    factor_budget_ms: int | None = None,
) -> Checkpoint:
    """Scan bases b_lo..b_hi, resuming from and updating the checkpoint.

    The gaps are cut into chunks of at most _FLUSH_EVERY bases and a
    quarter of the gap per worker.  This process scans chunks in order and
    times all but the first, which also pays for the one-time sieve
    tables.  After each timed one, if at least two chunks are left and its
    time per base times the bases left exceeds _HELPERS_PAY_S, a pool of
    `workers` forked processes scans every chunk left; a scan that never
    gets there runs in this process alone.  Finished chunks are appended
    to the checkpoint in ascending order, each range line after its
    records, so a kill at any byte leaves every chunk not yet written a
    gap; a chunk the pool finished while an earlier one still ran is lost
    by a kill too, and rescanned on resume.  The final checkpoint is
    deterministic: independent of worker count, chunking, whether the
    pool started, and any interrupt/resume history.
    """
    if b_lo < 2 or b_lo > b_hi:
        raise ValueError("need 2 <= b_lo <= b_hi")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    check_budget(factor_budget_ms)
    if checkpoint_path and os.path.exists(checkpoint_path):
        cp = load_checkpoint(checkpoint_path, expect=t)
    else:
        cp = Checkpoint(t, (), (), ())
    chunks: list[tuple[int, int]] = []
    for lo, hi in cp.gaps(b_lo, b_hi):
        step = max(1, min(_FLUSH_EVERY, (hi - lo + 1) // (4 * workers) + 1))
        chunks += [(a, min(a + step - 1, hi)) for a in range(lo, hi + 1, step)]
    new_solutions: list[SolutionRecord] = list(cp.solutions)
    new_unresolved: list[int] = list(cp.unresolved)
    completed: list[tuple[int, int]] = list(cp.completed)

    appender = None
    if checkpoint_path:
        if not os.path.exists(checkpoint_path) or not _ends_with_newline(checkpoint_path):
            # new file, or one whose torn tail must not prefix the next append
            write_checkpoint(checkpoint_path, cp)
        appender = open(checkpoint_path, "a", encoding="utf-8")

    def note(chunk: tuple[int, int], found: tuple[list[SolutionRecord], list[int]]) -> None:
        sols, unres = found
        new_solutions.extend(sols)
        new_unresolved.extend(unres)
        completed.append(chunk)
        if appender:
            for rec in sols:
                appender.write(rec._checkpoint_line + "\n")
            for b in unres:
                appender.write(_unresolved_line(b) + "\n")
            # last, so a kill before it leaves the chunk a gap to rescan
            appender.write(_range_line(*chunk) + "\n")
            appender.flush()

    scan = partial(_scan_chunk, t, factor_budget_ms)
    # the pace leaves out the first chunk, which also builds the sieve
    # tables a fresh process lacks.  On any exit the pool's unstarted
    # chunks are cancelled and the pool shut down, then the appender closed
    left = sum(hi - lo + 1 for lo, hi in chunks)
    scanned, spent = 0, 0.0
    with ExitStack() as stack:
        if appender:
            stack.enter_context(appender)
        for i, chunk in enumerate(chunks):
            pays = scanned and spent / scanned * left > _HELPERS_PAY_S
            if workers > 1 and i + 1 < len(chunks) and pays:
                rest = chunks[i:]
                pool = stack.enter_context(concurrent.futures.ProcessPoolExecutor(workers))
                for chunk, found in zip(rest, stack.enter_context(closing(pool.map(scan, rest)))):
                    note(chunk, found)
                break
            start = time.perf_counter()
            found = scan(chunk)
            left -= chunk[1] - chunk[0] + 1
            if i:
                spent += time.perf_counter() - start
                scanned += chunk[1] - chunk[0] + 1
            note(chunk, found)

    final = Checkpoint(
        t, tuple(completed), tuple(new_solutions), tuple(new_unresolved)
    ).normalized()
    if checkpoint_path:
        write_checkpoint(checkpoint_path, final)
    return final


# ---------------------------------------------------------------------------
# Zeckendorf repetition scans


def search_fib_squares(y_max: int) -> list[tuple[int, Word]]:
    """All y with 2 <= y < y_max whose square has Zeckendorf word u u."""
    return search_fib_powers(2, 2, y_max)


def search_fib_powers(q: int, n: int, y_max: int) -> list[tuple[int, Word]]:
    """All y with 2 <= y < y_max whose y**q has Zeckendorf word u^n.

    Returns (y, u) pairs ascending in y.  A length-k word u of value U,
    repeated n times, has value A*U + B*U' where A = sum F(ik+1) and
    B = sum F(ik) over i < n (from F(p+ik) = F(p)F(ik+1) + F(p-1)F(ik)),
    and U' is u read one place lower, within 0.62 of U/phi.  So only the
    y with F(nk+1) <= y**q < F(nk+2) can match, and for each of them U
    lies within one of U0 = y**q * num // den, where num/den approximates
    1/(A + B/phi) by a Fibonacci ratio; a match needs B | y**q - A*U.

    The division is by a divisor fixed for the whole block length k, so
    it is done once: with s the bit length of F(nk+2) and
    mul = (num << s) // den, the scan takes U0' = (y**q * mul) >> s.
    Since y**q < F(nk+2) < 2**s and 0 <= num/den - mul/2**s < 2**-s,
    y**q * num/den exceeds y**q * mul/2**s by less than 1, so U0' is U0
    or U0 - 1, and U lies in U0' + {-1, 0, 1, 2}.  Every y passing the
    test for those four is re-encoded exactly before it is reported.

    Every match has g = gcd(A, B) dividing y**q = A*U + B*U', so y is a
    multiple of step = prod p**ceil(e/q) over the primes p**e of g
    (factoring.root_step, by trial division; a divisor of that step if
    g keeps a composite leftover), and the scan walks only those y.  No
    candidate is lost: the test above reads y**q = A*(U0' + d) mod B,
    which already forces g | y**q, so it rejects every y skipped.
    """
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    out = []
    for k in count(1):
        y_lo, y_hi, a, b, s, mul, hits, step = _fib_block(q, n, k, y_max)
        if y_lo >= y_max:
            return out
        for y in range(-(-y_lo // step) * step, y_hi, step):
            v = y**q
            if (v - a * ((v * mul) >> s)) % b in hits:
                u = split_repetition(to_zeckendorf(v), n)
                if u is not None:
                    out.append((y, u))


def _fib_block(q: int, n: int, k: int, y_max: int) -> tuple:
    """Scan set-up of block length k: (y_lo, y_hi, a, b, s, mul, hits, step).

    The block's y run over y_lo <= y < y_hi, and search_fib_powers tests
    the multiples of step among them; its docstring derives the rest.
    """
    y_lo = max(2, ceil_root(fibonacci(n * k + 1), q))
    top = fibonacci(n * k + 2)
    y_hi = min(y_max, ceil_root(top, q))
    a = sum(fibonacci(i * k + 1) for i in range(n))
    b = sum(fibonacci(i * k) for i in range(n))
    m = n * k + 4
    num, den = fibonacci(m + 1), a * fibonacci(m + 1) + b * fibonacci(m)
    s = top.bit_length()
    mul = (num << s) // den
    # residues of y**q - A*U0' that leave U in U0' + {-1, 0, 1, 2}
    hits = {d * a % b for d in (-1, 0, 1, 2)}
    return y_lo, y_hi, a, b, s, mul, hits, root_step(math.gcd(a, b), q)
