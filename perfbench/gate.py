"""Output gate: every pass is checked before any of its times is kept.

Each check names the operations it fails ((triple, base) pairs, scanned
y values, table rows or family records).  Two outcomes are kept apart:

* a *problem* is wrong output (a record that does not satisfy the power
  equation, a missing golden row, disagreement with the brute-force
  oracle or with the uninterrupted reference checkpoint); it makes the
  run incorrect;
* a *failure* is output that never came (an unresolved base, a crashed
  request); it counts toward failed operations only.

Records are checked twice: with the library's ``check_solution`` and with
the arithmetic below, which shares no code with the program.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
import re
from pathlib import Path

import workloads as W

BRUTE_LIMIT = 10**7          # brute_solutions_for_base refuses larger b**l
BRUTE_COST_PER_BASE = 10_000  # c values the oracle enumerates at one base
BRUTE_BASES_PER_TRIPLE = 2
FIB_TABLE_BOUND = 34_000_000  # fibonacci_squares.csv lists every y below this

# first member of each sporadic family, as the acceptance suite pins it
GOLDEN_FIRST = {
    "3,2,2": (7, 10, (2, 6)),
    "3,3,1": (18, 7, (1,)),
    "3,2,3": (19, 140, (1, 2, 1)),
    "2,4,1": (7, 40, (4,)),
    "4,2,2": (239, 78, (2, 170)),
    "2,3,1": (22, 39, (3,)),
    "2,3,2": (313, 7575393, (19, 32)),
}

SOLUTION_HEADER = ["q", "n", "l", "b", "y", "c", "w"]
DIGITS_PER_INT = 1000        # decimal digits per int() call, under Python's
                              # 4300-digit int/str conversion limit
_DECIMAL = re.compile(r"-?[0-9]+")
_COVERAGE = re.compile(r"bases up to (\d+)")
_SUMMARY = re.compile(r"^corpus (\S+): (\d+)/(\d+) rows pass$")


# ---------------------------------------------------------------------------
# arithmetic checks independent of the program


def canonical_ok(q, n, l, b, y, c, digits) -> bool:
    if q < 2 or n < 2 or l < 1 or b < 2 or y < 2 or len(digits) != l:
        return False
    if digits[0] == 0 or any(not 0 <= d < b for d in digits):
        return False
    v = 0
    for d in digits:
        v = v * b + d
    if v != c or not b ** (l - 1) <= c < b**l:
        return False
    return y**q == c * ((b ** (n * l) - 1) // (b**l - 1))


def zeckendorf_bits(x: int) -> str:
    fibs = [1, 2]
    while fibs[-1] <= x:
        fibs.append(fibs[-1] + fibs[-2])
    bits = []
    for f in reversed(fibs[:-1]):
        if f <= x:
            bits.append("1")
            x -= f
        else:
            bits.append("0")
    return "".join(bits).lstrip("0")


def repeated(bits: str, n: int) -> str | None:
    k, rem = divmod(len(bits), n)
    return bits[:k] if not rem and k and bits == bits[:k] * n else None


def bijective_ok(b, l, y, digits) -> bool:
    if len(digits) != l or any(not 1 <= d <= b for d in digits):
        return False
    v = 0
    for d in digits * 2:
        v = v * b + d
    return v == y * y


# ---------------------------------------------------------------------------
# reading outputs


def dec(cell: str) -> int:
    """Decimal cell to int, however many digits it has.

    The gate never raises the int/str conversion limit: a CLI that prints
    a longer number correctly must be credited, not fail the gate.
    """
    cell = cell.strip()
    if not _DECIMAL.fullmatch(cell):
        raise ValueError(f"bad decimal cell of {len(cell)} characters")
    digits = cell.lstrip("-")
    v = 0
    for i in range(0, len(digits), DIGITS_PER_INT):
        chunk = digits[i:i + DIGITS_PER_INT]
        v = v * 10 ** len(chunk) + int(chunk)
    return -v if cell.startswith("-") else v


def _word(cell: str) -> tuple[int, ...]:
    if not (cell.startswith("(") and cell.endswith(")")):
        raise ValueError(f"bad word cell of {len(cell)} characters")
    return tuple(int(d) for d in cell[1:-1].split(","))


def read_csv(data: bytes, header: list[str]) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(data.decode())))
    if not rows or rows[0] != header:
        raise ValueError(f"expected header {header}, got {rows[:1]}")
    return rows[1:]


def solution_rows(data: bytes) -> list[tuple]:
    """(q, n, l, b, y, c, digits) per CSV row of search/generate output."""
    out = []
    for row in read_csv(data, SOLUTION_HEADER):
        if len(row) != 7:
            raise ValueError(f"row with {len(row)} cells")
        out.append(tuple(dec(v) for v in row[:6]) + (_word(row[6]),))
    return out


def _tables_dir(root: Path) -> Path:
    return root / "src" / "repwords" / "tables"


def read_tables(root: Path):
    """Golden tables, parsed here rather than by the program's loader."""
    solutions: dict[tuple, list] = {}
    coverage: dict[tuple, int] = {}
    fib_squares: list[tuple[int, str]] = []
    row_counts: dict[str, int] = {}
    for path in sorted(_tables_dir(root).glob("*.csv")):
        lines = path.read_text().splitlines()
        comments = " ".join(s for s in lines if s.lstrip().startswith("#"))
        data = [s for s in lines if s.strip() and not s.lstrip().startswith("#")]
        rows = list(csv.reader(data))
        header, body = [h.strip() for h in rows[0]], rows[1:]
        row_counts[path.stem] = len(body)
        if header == SOLUTION_HEADER:
            m = _COVERAGE.search(comments)
            for r in body:
                rec = tuple(dec(v) for v in r[:6]) + (_word(r[6].strip()),)
                solutions.setdefault(rec[:3], []).append(rec)
                if m:
                    coverage[rec[:3]] = int(m.group(1))
        elif header == ["y", "w"]:
            fib_squares.extend((dec(r[0]), r[1].strip()) for r in body)
    return solutions, coverage, fib_squares, row_counts


# ---------------------------------------------------------------------------
# per-run context


class Gate:
    """Reference data for one spec, and the checks of its passes."""

    def __init__(self, root: Path, spec: dict, work: Path):
        from repwords import search, triples

        self.lib_search, self.Triple = search, triples.Triple
        self.root, self.spec = root, spec
        self.solutions, self.coverage, self.fib_squares, self.row_counts = read_tables(root)
        self._verified: dict[tuple[str, str], tuple[set, list, list]] = {}
        w = spec["workload"]
        if w in ("sweep", "resume"):
            self.brute = self._brute_sample()
        if w == "resume":
            self.reference = self._reference(work / "reference")
        if w == "zeckendorf":
            if spec["y_max"] > FIB_TABLE_BOUND:
                raise ValueError("the golden Zeckendorf table stops at y = %d" % FIB_TABLE_BOUND)
            self.power_brute = {
                (q, n): self._zeck_brute(q, n, spec["power_y_max"]) for q, n in ((4, 2), (2, 3))
            }
        if w == "tables":  # bundled table rows plus requested family records
            self.ops = sum(self.row_counts.values()) + sum(
                int(r["cli"][4]) for r in spec["requests"] if r["cli"][0] == "generate")
        else:
            self.ops = spec["ops"]

    def _record(self, r):
        from repwords.words import canonical_word

        q, n, l, b, y, c, digits = r
        return self.lib_search.SolutionRecord(q, n, l, b, y, c, canonical_word(b, digits))

    def _brute_sample(self) -> dict[tuple, dict[int, list]]:
        """Seed-chosen bases where the brute-force oracle is cheap enough."""
        spec = self.spec
        rng = random.Random(f"brute:{spec['workload']}:{spec['seed']}")
        out: dict[tuple, dict[int, list]] = {}
        for t in map(tuple, spec["triples"]):
            l = t[2]
            ok = [b for b in range(spec["lo"], spec["hi"] + 1)
                  if b**l <= BRUTE_LIMIT and b**l - b ** (l - 1) <= BRUTE_COST_PER_BASE]
            for b in rng.sample(ok, min(BRUTE_BASES_PER_TRIPLE, len(ok))):
                recs = self.lib_search.brute_solutions_for_base(self.Triple(*t), b)
                out.setdefault(t, {})[b] = [(r.q, r.n, r.l, r.b, r.y, r.c, r.w.digits) for r in recs]
        return out

    def _reference(self, directory: Path) -> dict[tuple, tuple[bytes, list]]:
        """Uninterrupted single-worker run of each resume triple (not timed)."""
        directory.mkdir(parents=True)
        spec, out = self.spec, {}
        for t in map(tuple, spec["triples"]):
            path = directory / f"checkpoint-{W.tag(t)}.jsonl"
            cp = self.lib_search.search_range(self.Triple(*t), spec["lo"], spec["hi"], str(path), workers=1)
            rows = [(r.q, r.n, r.l, r.b, r.y, r.c, r.w.digits) for r in cp.solutions]
            out[t] = (path.read_bytes(), rows)
        return out

    @staticmethod
    def _zeck_brute(q: int, n: int, y_max: int) -> list[tuple[int, str]]:
        out = []
        for y in range(2, y_max):
            u = repeated(zeckendorf_bits(y**q), n)
            if u is not None:
                out.append((y, u))
        return out

    # -- one pass -----------------------------------------------------------

    def check_pass(self, pass_dir: Path, outcomes: dict) -> tuple[int, list, list]:
        """(failed operations, problems, failures) of one pass."""
        failed: set = set()
        problems: list[str] = []
        failures: list[str] = []
        for req in self.spec["requests"]:
            name = req["out"]
            blobs = [json.dumps(outcomes.get(name), sort_keys=True).encode()]
            for suffix in (".stdout", ".stderr", ".json"):
                p = pass_dir / (name + suffix)
                if p.exists():
                    blobs.append(p.read_bytes())
            if "load" in req:
                p = pass_dir / req["load"][1:]
                blobs.append(p.read_bytes() if p.exists() else b"")
            key = (name, hashlib.sha256(b"\0".join(blobs)).hexdigest())
            if key not in self._verified:
                self._verified[key] = self._check_request(req, pass_dir, outcomes.get(name) or {})
            keys, probs, fails = self._verified[key]
            failed |= keys
            problems += probs
            failures += fails
        count = sum(k[2] if k[0] == "bulk" else 1 for k in failed)
        return min(count, self.ops), problems, failures

    def _check_request(self, req, pass_dir: Path, outcome: dict):
        keys: set = set()
        problems: list[str] = []
        failures: list[str] = []
        name = req["out"]

        def read(suffix):
            return (pass_dir / (name + suffix)).read_bytes()

        if outcome.get("error") or outcome.get("rc", 0) not in (0, None):
            failures.append(f"{name}: {outcome.get('error') or 'exit code %s' % outcome.get('rc')}")
        w = self.spec["workload"]
        try:
            if w == "sweep":
                self._check_search(req, read, outcome, keys, problems, failures)
            elif w == "resume":
                self._check_resume(req, pass_dir, read, outcome, keys, problems)
            elif w == "zeckendorf":
                self._check_zeckendorf(req, read, outcome, keys, problems)
            else:
                self._check_tables(req, read, outcome, keys, problems)
        except (OSError, ValueError, IndexError, KeyError) as exc:
            problems.append(f"{name}: unreadable output ({type(exc).__name__}: {exc})")
            keys.add((name, "all"))
        return keys, problems, failures

    def _check_rows(self, rows, t, lo, hi, keys, problems, name):
        for r in rows:
            b = r[3]
            if tuple(r[:3]) != t or not lo <= b <= hi:
                problems.append(f"{name}: row outside the request: {r[:4]}")
                keys.add((t, b))
            elif not canonical_ok(*r) or self.lib_search.check_solution(self._record(r)) is not None:
                problems.append(f"{name}: record fails verification: {r[:4]}")
                keys.add((t, b))

    def _check_search(self, req, read, outcome, keys, problems, failures):
        name, spec = req["out"], self.spec
        t = tuple(int(req["cli"][i]) for i in (2, 4, 6))
        lo, hi = spec["lo"], spec["hi"]
        crashed = bool(outcome.get("error")) or outcome.get("rc") != 0
        if crashed:
            keys.update((t, b) for b in range(lo, hi + 1))
        rows = solution_rows(read(".stdout")) if not crashed else []
        self._check_rows(rows, t, lo, hi, keys, problems, name)
        got = set(rows)
        for g in self.solutions.get(t, []):
            if lo <= g[3] <= hi and g not in got and not crashed:
                problems.append(f"{name}: golden row missing: {g[:4]}")
                keys.add((t, g[3]))
        golden = set(self.solutions.get(t, []))
        cover = self.coverage.get(t, W.NONE_CHECKED_UP_TO if t in W.NONE_TRIPLES else 0)
        for r in rows:
            if r[3] <= cover and r not in golden:
                problems.append(f"{name}: row absent from the complete table: {r[:4]}")
                keys.add((t, r[3]))
        self._check_brute(t, rows, hi, keys, problems, name)
        for line in read(".stderr").decode().splitlines():
            m = re.match(r"warning: base (\d+) unresolved", line)
            if m:
                failures.append(f"{name}: base {m.group(1)} unresolved")
                keys.add((t, int(m.group(1))))

    def _check_brute(self, t, rows, hi, keys, problems, name):
        for b, want in self.brute.get(t, {}).items():
            if b > hi:
                continue
            got = sorted(r for r in rows if r[3] == b)
            if got != sorted(want):
                problems.append(f"{name}: base {b} disagrees with brute_solutions_for_base")
                keys.add((t, b))

    def _check_resume(self, req, pass_dir, read, outcome, keys, problems):
        name, spec = req["out"], self.spec
        if "load" in req:
            t = tuple(int(v) for v in name.split("-")[1:])
            ref_bytes, ref_rows = self.reference[t]
            p = pass_dir / req["load"][1:]
            want = {"solutions": len(ref_rows), "completed": [[spec["lo"], spec["hi"]]], "unresolved": 0}
            if not p.exists() or p.read_bytes() != ref_bytes:
                problems.append(f"{name}: checkpoint differs from the uninterrupted single-worker run")
                keys.update((t, b) for b in range(spec["lo"], spec["hi"] + 1))
            elif outcome.get("error") or any(outcome.get(k) != v for k, v in want.items()):
                problems.append(f"{name}: load_checkpoint returned {outcome}, expected {want}")
                keys.update((t, b) for b in range(spec["lo"], spec["hi"] + 1))
            return
        t = tuple(int(req["cli"][i]) for i in (2, 4, 6))
        lo, hi = int(req["cli"][8]), int(req["cli"][10])
        if outcome.get("error") or outcome.get("rc") != 0:
            keys.update((t, b) for b in range(lo, hi + 1))
            return
        rows = solution_rows(read(".stdout"))
        self._check_rows(rows, t, lo, hi, keys, problems, name)
        want = [r for r in self.reference[t][1] if r[3] <= hi]
        if rows != want:
            diff = set(rows) ^ set(want)
            problems.append(f"{name}: {len(diff)} rows differ from the reference run")
            keys.update((t, r[3]) for r in diff)
        self._check_brute(t, rows, hi, keys, problems, name)

    def _check_zeckendorf(self, req, read, outcome, keys, problems):
        name = req["out"]
        if outcome.get("error"):
            keys.add(("bulk", name, self.spec["ops"] if req["call"] == "search_fib_squares"
                      else req["args"][2] - 2))
            return
        got = [(y, u) for y, u in json.loads(read(".json"))]
        if req["call"] == "search_fib_squares":
            q, n = 2, 2
            want = [r for r in self.fib_squares if r[0] < req["args"][0]]
        else:
            q, n = req["args"][0], req["args"][1]
            want = self.power_brute[(q, n)]
        for y, u in got:
            if zeckendorf_bits(y**q) != u * n:
                problems.append(f"{name}: y={y} is not an {n}-fold Zeckendorf repeat of y**{q}")
                keys.add((name, y))
        if got != want:
            diff = set(got) ^ set(want)
            problems.append(f"{name}: {sorted(y for y, _ in diff)[:5]} differ from the reference")
            keys.update((name, y) for y, _ in diff)
        if (q, n) == (4, 2) and [y for y, _ in got] != [2, 7]:
            problems.append(f"{name}: fourth powers {[y for y, _ in got]}, expected [2, 7]")
            keys.add((name, "all"))

    def _check_tables(self, req, read, outcome, keys, problems):
        name = req["out"]
        crashed = bool(outcome.get("error"))
        if req["cli"][0] == "verify":
            if crashed:
                keys.update(("verify", c, i) for c, n in self.row_counts.items() for i in range(n))
            else:
                self._check_verify(read(".stdout").decode(), keys, problems)
            return
        triple, count, system = req["cli"][2], int(req["cli"][4]), req["cli"][6]
        if crashed or outcome.get("rc") != 0:
            keys.update((name, i) for i in range(count))
        data = read(".stdout")
        if system == "canonical":
            rows = solution_rows(data)
            t = tuple(int(v) for v in triple.split(","))
            golden = set(self.solutions.get(t, []))
            for i, r in enumerate(rows):
                if tuple(r[:3]) != t or not canonical_ok(*r) or \
                        self.lib_search.check_solution(self._record(r)) is not None:
                    problems.append(f"{name}: member {i + 1} fails verification")
                    keys.add((name, i))
                elif r[3] <= self.coverage.get(t, 0) and r not in golden:
                    problems.append(f"{name}: member {i + 1} absent from the complete table")
                    keys.add((name, i))
            first = GOLDEN_FIRST.get(triple)
            if first and (rows or not crashed) and (not rows or (rows[0][3], rows[0][4], rows[0][6]) != first):
                problems.append(f"{name}: first member is not the golden {first}")
                keys.add((name, 0))
        elif system == "bijective":
            rows = read_csv(data, ["b", "l", "y", "w"])
            for i, (b, l, y, w) in enumerate(rows):
                if not bijective_ok(dec(b), dec(l), dec(y), _word(w)):
                    problems.append(f"{name}: member {i + 1} fails verification")
                    keys.add((name, i))
        else:
            rows = read_csv(data, ["param", "y", "w"])
            golden = dict(self.fib_squares)
            for i, (_, y, w) in enumerate(rows):
                y = dec(y)
                if zeckendorf_bits(y * y) != w * 2 or (y < FIB_TABLE_BOUND and golden.get(y) != w):
                    problems.append(f"{name}: member {i + 1} fails verification")
                    keys.add((name, i))
        if not crashed and len(rows) != count:
            problems.append(f"{name}: {len(rows)} members, {count} requested")
            keys.update((name, i) for i in range(len(rows), count))

    def _check_verify(self, text, keys, problems):
        seen: dict[str, tuple[int, int]] = {}
        fails = 0
        for line in text.splitlines():
            m = _SUMMARY.match(line)
            if m:
                seen[m.group(1)] = (int(m.group(2)), int(m.group(3)))
            elif line.startswith("FAIL"):
                fails += 1
        for corpus, rows in self.row_counts.items():
            passed, total = seen.get(corpus, (0, -1))
            if total != rows or passed != rows:
                problems.append(f"verify: corpus {corpus} reports {passed}/{total}, expected {rows}/{rows}")
                bad = rows - passed if total == rows else rows
                keys.update(("verify", corpus, i) for i in range(max(bad, 0)))
        if fails and not problems:
            problems.append(f"verify: {fails} FAIL lines")
