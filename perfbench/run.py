"""repwords benchmark: end-to-end metrics per workload, or a traced per-layer run.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from anywhere; the program is imported from the ``src/`` directory
next to this one, never from an installed copy.  Every iteration is a
fresh interpreter (``child.py``), as a CLI user gets, with at most
RESUME_WORKERS pool processes.  Iterations repeat, closed loop, until
the next one would pass ``--seconds``; each pass is gated (gate.py)
before its times are kept, and the medians are reported, times at the
reference machine speed of calibrate.py.  The last line of stdout is one
JSON object: correct, attempted, failed, metrics.

With ``--trace 1`` the iterations alternate an untraced and a traced cold
pass, and the metrics are the per-layer ones of spans.PER_LAYER; the
spans of the last traced pass are kept in .bench_work/trace/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

import calibrate  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402

# (name, unit) of the end-to-end metrics, in BENCHMARK.json order
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("warm_wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)
OP_UNITS = {
    "sweep": "(triple, base) pair",
    "resume": "(triple, base) pair",
    "zeckendorf": "scanned y",
    "tables": "table row or family record",
}
MIN_ITERATIONS = 3
CHILD_TIMEOUT_S = 150


def spawn(spec_path: Path, pass_dir: Path, mode: str) -> dict:
    """Run child.py in a fresh interpreter and return its result.json."""
    pass_dir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "child.py"), str(spec_path), str(pass_dir), mode]
    proc = subprocess.Popen(cmd + [str(time.monotonic_ns())], env=env, cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"measured interpreter ({mode}) exited {proc.returncode}:\n"
                           + err.decode(errors="replace")[-3000:])
    return json.loads((pass_dir / "result.json").read_text())


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def cold_scale(r: dict) -> float:
    """Factor that takes the cold pass of result r to reference speed."""
    return calibrate.REF_S * 2 / (r["probe_s"][0] + r["probe_s"][1])


def end_to_end_samples(runs: list[dict], ops: int) -> tuple[dict, dict]:
    """Per-iteration samples of each end-to-end metric: (at reference speed, as measured).

    Set-up is scaled by the probe taken right after it, the cold pass by
    the mean of the probes around it, the warm pass likewise.
    """
    ref: dict[str, list] = {name: [] for name, _ in END_TO_END}
    raw: dict[str, list] = {name: [] for name, _ in END_TO_END}
    for r in runs:
        p = r["probe_s"]
        cold = cold_scale(r)
        warm = calibrate.REF_S * 2 / (p[1] + p[2])
        for name, value, scale in (
            ("setup_s", r["setup_s"], calibrate.REF_S / p[0]),
            ("wall_s", r["wall_s"], cold),
            ("warm_wall_s", r["warm_wall_s"], warm),
            ("ops_per_s", ops / r["wall_s"], 1 / cold),
            ("cpu_s", r["cpu_s"], cold),
            ("peak_rss_mb", r["peak_rss_mb"], 1.0),
        ):
            raw[name].append(value)
            ref[name].append(value * scale)
    return ref, raw


def iqr_frac(values: list[float]) -> float:
    """Distance between first and third quartile, as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 sizes: dict = W.SIZES) -> dict:
    """Measure one workload; returns the result object plus a summary."""
    from gate import Gate

    spec = W.make_spec(workload, seed, sizes)
    work = WORK / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        spec_path = work / "spec.json"
        spec_path.write_text(json.dumps(spec))
        gate = Gate(ROOT, spec, work)
        runs: list[dict] = []
        plain: list[dict] = []
        tally = {"attempted": 0, "failed": 0, "problems": [], "failures": []}
        spent = 0.0
        while True:
            it = work / f"iteration-{len(runs)}"
            t = time.monotonic()
            if trace:
                plain.append(spawn(spec_path, it / "plain", "cold"))
                runs.append(spawn(spec_path, it / "traced", "traced"))
                checked = [(it / "plain", plain[-1]), (it / "traced", runs[-1])]
            else:
                runs.append(spawn(spec_path, it, "cold+warm"))
                checked = [(it, runs[-1])]
            spent += time.monotonic() - t
            for pass_root, res in checked:
                for name, p in res["passes"].items():
                    failed, problems, failures = gate.check_pass(pass_root / name, p["outcomes"])
                    tally["attempted"] += gate.ops
                    tally["failed"] += failed
                    tally["problems"] += problems
                    tally["failures"] += failures
            if trace:
                keep = WORK / "trace" / f"{workload}-seed{seed}.npz"
                keep.parent.mkdir(parents=True, exist_ok=True)
                shutil.copyfile(it / "traced" / "spans.npz", keep)
            shutil.rmtree(it)
            done = len(runs)
            if done >= (1 if trace else MIN_ITERATIONS) and spent + spent / done > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    med = statistics.median
    if trace:
        metrics = {}
        for name, unit, _, _ in spans.PER_LAYER:
            if name == "trace.overhead_frac":
                value = (med(r["wall_s"] * cold_scale(r) for r in runs)
                         / med(r["wall_s"] * cold_scale(r) for r in plain) - 1)
            elif name == "src.lines":
                value = src_lines()
            else:
                value = med(r["layers"][name] for r in runs)
            metrics[name] = {"value": value, "unit": unit}
    else:
        ref, raw = end_to_end_samples(runs, gate.ops)
        metrics = {name: {"value": med(ref[name]), "unit": unit} for name, unit in END_TO_END}
    result = {
        "correct": not tally["problems"],
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": metrics,
    }
    summary = {
        "iterations": len(runs),
        "ops_per_pass": gate.ops,
        "problems": tally["problems"],
        "failures": sorted(set(tally["failures"])),
        "spec": {k: v for k, v in spec.items() if k not in ("requests", "triples")},
    }
    if trace:  # the base against which the span times are read
        summary["traced_wall_s"] = med(r["wall_s"] for r in runs)
    else:
        summary["measured"] = {name: med(v) for name, v in raw.items()}
        summary["spread"] = {name: iqr_frac(v) for name, v in ref.items()}
    if workload == "resume":
        summary["checkpoint_bytes"] = sum(len(b) for b, _ in gate.reference.values())
    return {"result": result, "summary": summary}


def print_summary(workload: str, out: dict) -> None:
    res, s = out["result"], out["summary"]
    print(f"== {workload}: {s['iterations']} iterations, inputs {s['spec']}")
    print(f"   operation: one {OP_UNITS[workload]}; {s['ops_per_pass']} per pass")
    if "traced_wall_s" in s:
        print(f"   traced cold pass, as measured: wall_s {s['traced_wall_s']:.6g} s")
    moves = {name: why for name, _, _, why in spans.PER_LAYER}
    for name, m in res["metrics"].items():
        note = ""
        if name in moves:
            note = f"  [{moves[name]}]"
        elif "measured" in s:
            note = f"  (as measured {s['measured'][name]:.6g}; per-iteration IQR/median {s['spread'][name]:.3f})"
        print(f"   {name:<40} {m['value']:>14.6g} {m['unit']}{note}")
    frac = res["failed"] / res["attempted"] if res["attempted"] else 0.0
    print(f"   {'fail_frac':<40} {frac:>14.6g} ratio ({res['failed']} of {res['attempted']} operations)")
    print(f"   {'src_lines':<40} {src_lines():>14d} count")
    if "checkpoint_bytes" in s:
        print(f"   {'checkpoint_bytes':<40} {s['checkpoint_bytes']:>14d} bytes")
    if workload == "resume" and any(k.startswith("search.") for k in res["metrics"]):
        print("   spans lost inside pool workers: " + ", ".join(spans.LOST_IN_WORKERS))
    for line in s["failures"][:10]:
        print(f"   failure: {line}")
    for line in s["problems"][:10]:
        print(f"   PROBLEM: {line}")
    print(f"   gate: {'passed' if res['correct'] else 'FAILED'}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "repwords" / "__init__.py").is_file():
        print(f"error: no repwords sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = W.WORKLOADS if args.workload == "all" else (args.workload,)
    outs = {}
    for name in names:
        outs[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_summary(name, outs[name])
    if len(outs) == 1:
        final = outs[names[0]]["result"]
    else:
        final = {
            "correct": all(o["result"]["correct"] for o in outs.values()),
            "attempted": sum(o["result"]["attempted"] for o in outs.values()),
            "failed": sum(o["result"]["failed"] for o in outs.values()),
            "metrics": {f"{w}.{k}": v for w, o in outs.items() for k, v in o["result"]["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
