"""Fast self-test of the benchmark itself (about half a minute).

    python3 perfbench/selftest.py

Checks that BENCHMARK.json matches the metrics the harness prints, runs
every workload at tiny size (untraced and traced), shows that the gate
rejects a corrupted record, a missing golden row, a changed checkpoint
and a missing Zeckendorf square, that it accepts a correct row with more
digits than Python converts by default, and that the harness refuses to
run where the program's sources are absent.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402
from gate import DIGITS_PER_INT, Gate  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
failures: list[str] = []


def check(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}" + (f": {detail}" if detail else ""))
    if not ok:
        failures.append(name)


def check_benchmark_json() -> None:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check("BENCHMARK.json keys", sorted(bench) == sorted(
        ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]))
    check("workloads match", [w["name"] for w in bench["workloads"]] == list(W.WORKLOADS)
          and all(sorted(w) == ["name", "why"] and len(w["why"]) <= 200 for w in bench["workloads"]))
    e2e = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    check("end_to_end match the harness", e2e == list(run.END_TO_END), str(e2e))
    check("end_to_end bounds", all(sorted(m) == ["better", "bound", "name", "unit"]
                                   and 0 < m["bound"] <= 0.25 for m in bench["end_to_end"]))
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    check("setup_s has the largest bound", setup and setup[0]["better"] == "lower" and
          setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"]))
    layers = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    check("per_layer match spans.PER_LAYER", layers == [m[:3] for m in spans.PER_LAYER])
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]] + [w["name"] for w in bench["workloads"]]
    check("names and units well formed",
          all(NAME.match(n) for n in names) and len(set(names)) == len(names)
          and all(UNIT.match(m["unit"]) for m in bench["end_to_end"] + bench["per_layer"]))


def check_workloads() -> None:
    for w in W.WORKLOADS:
        out = run.run_workload(w, 1, 0, False, W.TINY)
        res = out["result"]
        expect = 0
        if w == "tables":  # the over-limit generate request fails every pass
            expect = W.OVER_LIMIT_REQUEST[1] * 2 * out["summary"]["iterations"]
        check(f"{w} tiny run", res["correct"] and res["failed"] == expect
              and set(res["metrics"]) == {m for m, _ in run.END_TO_END},
              f"failed {res['failed']} of {res['attempted']}, problems {out['summary']['problems'][:2]}")
    out = run.run_workload("sweep", 1, 0, True, W.TINY)
    m = out["result"]["metrics"]
    check("traced sweep reports every per-layer metric",
          list(m) == [x[0] for x in spans.PER_LAYER] and m["factoring.factor_quotient.calls"]["value"] > 0
          and m["cli.main.self_s"]["value"] > 0)


def one_pass(workload: str, work: Path):
    spec = W.make_spec(workload, 1, W.TINY)
    work.mkdir(parents=True)
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec))
    gate = Gate(run.ROOT, spec, work)
    res = run.spawn(spec_path, work / "it", "cold")
    return gate, work / "it" / "cold", res["passes"]["cold"]["outcomes"]


def rejects(gate, pass_dir, outcomes, expect: str) -> tuple[bool, str]:
    failed, problems, _ = gate.check_pass(pass_dir, outcomes)
    return failed > 0 and any(expect in p for p in problems), "; ".join(problems[:2])


def check_gate(work: Path) -> None:
    gate, d, outcomes = one_pass("sweep", work / "sweep")
    check("gate accepts a clean pass", gate.check_pass(d, outcomes)[:2] == (0, []))
    path = d / "search-2-3-1.stdout"
    clean = path.read_bytes()
    path.write_bytes(clean.replace(b"2,3,1,22,39,3,(3)", b"2,3,1,22,40,3,(3)"))
    check("gate rejects a corrupted record", *rejects(gate, d, outcomes, "fails verification"))
    path.write_bytes(clean.replace(b"2,3,1,18,49,7,(7)\r\n", b""))
    check("gate rejects a missing golden row", *rejects(gate, d, outcomes, "golden row missing"))

    gate, d, outcomes = one_pass("resume", work / "resume")
    path = d / "checkpoint-2-2-1.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:1] + lines[2:]))
    check("gate rejects a checkpoint that differs from the reference", *rejects(gate, d, outcomes, "checkpoint differs"))

    gate, d, outcomes = one_pass("zeckendorf", work / "zeckendorf")
    path = d / "squares.json"
    path.write_text(json.dumps(json.loads(path.read_text())[1:]))
    check("gate rejects a missing Zeckendorf square", *rejects(gate, d, outcomes, "differ from the reference"))


def dec_str(v: int) -> str:
    """Decimal digits of v >= 0 without Python's int-to-str limit."""
    unit = 10**DIGITS_PER_INT
    parts = []
    while v >= unit:
        v, r = divmod(v, unit)
        parts.append(str(r).zfill(DIGITS_PER_INT))
    return str(v) + "".join(reversed(parts))


def check_gate_long_numbers(work: Path) -> None:
    """A CLI that prints every member of the over-limit request is credited."""
    import csv
    import io

    from repwords import families

    gate, d, outcomes = one_pass("tables", work / "tables")
    name = next(r["out"] for r in gate.spec["requests"] if r["cli"][2] == W.OVER_LIMIT_REQUEST[0])
    records = families.gen_232(W.OVER_LIMIT_REQUEST[1])
    buf = io.StringIO()
    wr = csv.writer(buf)
    wr.writerow(["q", "n", "l", "b", "y", "c", "w"])
    for r in records:
        wr.writerow([dec_str(v) for v in (r.q, r.n, r.l, r.b, r.y, r.c)]
                    + ["(" + ",".join(map(str, r.w.digits)) + ")"])
    (d / (name + ".stdout")).write_text(buf.getvalue())
    (d / (name + ".stderr")).write_text("")
    outcomes[name] = {"rc": 0, "error": None}
    digits = len(dec_str(records[-1].y))
    failed, problems, _ = gate.check_pass(d, outcomes)
    check("gate accepts a correct over-limit row", digits > 4300 and (failed, problems) == (0, []),
          f"last y has {digits} digits; failed {failed}, problems {problems[:2]}")


def check_refuses_without_sources(work: Path) -> None:
    bare = work / "bare"
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "sweep", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True,
                          timeout=60)
    check("refuses to run without src/", proc.returncode != 0 and "{" not in proc.stdout,
          f"exit {proc.returncode}")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    work = run.WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    try:
        check_benchmark_json()
        check_workloads()
        check_gate(work)
        check_gate_long_numbers(work)
        check_refuses_without_sources(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("self-test " + ("passed" if not failures else f"FAILED: {failures}"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
