"""One measured interpreter: set up, run the spec's requests, report timings.

Usage: child.py SPEC_JSON PASS_DIR MODE START_NS

MODE is "cold+warm" (the requests twice in this process: PASS_DIR/cold
then PASS_DIR/warm) or "cold" / "traced" (once; "traced" installs span
wrappers first).
START_NS is the monotonic clock just before the parent started this
process, so setup_s covers interpreter start, imports, reading the spec
and installing wrappers.  The machine-speed probe (calibrate.py) runs
after set-up, after the cold pass and at the end; its times go into
probe_s.  Timings go to PASS_DIR/result.json.
"""

import contextlib
import json
import os
import resource
import sys
import time

import calibrate


def _run_requests(requests, pass_dir, search, cli, timings, outcomes):
    os.makedirs(pass_dir)
    loaded = {}
    for req in requests:
        out = os.path.join(pass_dir, req["out"])
        t = time.perf_counter()
        if "cli" in req:
            argv = [os.path.join(pass_dir, a[1:]) if a.startswith("@") else a for a in req["cli"]]
            rc, error = None, None
            with open(out + ".stdout", "w") as fo, open(out + ".stderr", "w") as fe:
                with contextlib.redirect_stdout(fo), contextlib.redirect_stderr(fe):
                    try:
                        rc = cli.main(argv)
                    except SystemExit as exc:
                        rc = exc.code
                    except Exception as exc:  # a crash is a measured outcome, not a harness error
                        error = f"{type(exc).__name__}: {exc}"
            outcomes[req["out"]] = {"rc": rc, "error": error}
        elif "load" in req:
            try:
                loaded[req["out"]] = search.load_checkpoint(os.path.join(pass_dir, req["load"][1:]))
            except Exception as exc:
                outcomes[req["out"]] = {"error": f"{type(exc).__name__}: {exc}"}
        else:
            try:
                loaded[req["out"]] = getattr(search, req["call"])(*req["args"])
            except Exception as exc:
                outcomes[req["out"]] = {"error": f"{type(exc).__name__}: {exc}"}
        timings[req["out"]] = time.perf_counter() - t
    return loaded


def _write_loaded(loaded, pass_dir, outcomes):
    """Serialise library results after the timed region."""
    for name, value in loaded.items():
        if hasattr(value, "completed"):  # a Checkpoint
            outcomes[name] = {
                "solutions": len(value.solutions),
                "completed": [list(r) for r in value.completed],
                "unresolved": len(value.unresolved),
            }
        else:
            with open(os.path.join(pass_dir, name + ".json"), "w") as fh:
                json.dump([[y, "".join(map(str, w.digits))] for y, w in value], fh)
            outcomes[name] = {"found": len(value)}


def _cpu_s() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def main(argv) -> int:
    spec_path, pass_dir, mode, start_ns = argv[1], argv[2], argv[3], int(argv[4])
    from repwords import cli, search

    with open(spec_path) as fh:
        spec = json.load(fh)
    tracer = None
    if mode == "traced":
        import spans

        tracer = spans.Tracer(run_id=os.path.basename(pass_dir))
        tracer.install()
    setup_s = (time.monotonic_ns() - start_ns) / 1e9
    result = {"setup_s": setup_s, "probe_s": [calibrate.probe()]}
    cpu0 = _cpu_s()
    timings, outcomes = {}, {}
    t = time.perf_counter()
    cold_dir = os.path.join(pass_dir, "cold")
    loaded = _run_requests(spec["requests"], cold_dir, search, cli, timings, outcomes)
    result["wall_s"] = time.perf_counter() - t
    result["cpu_s"] = _cpu_s() - cpu0
    result["probe_s"].append(calibrate.probe())
    passes = {"cold": (timings, outcomes, loaded)}
    if mode == "cold+warm":
        timings, outcomes = {}, {}
        t = time.perf_counter()
        loaded = _run_requests(spec["requests"], os.path.join(pass_dir, "warm"),
                               search, cli, timings, outcomes)
        result["warm_wall_s"] = time.perf_counter() - t
        passes["warm"] = (timings, outcomes, loaded)
        result["probe_s"].append(calibrate.probe())
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["peak_rss_mb"] = max(me, kids) / 1024.0
    result["passes"] = {}
    for name, (timings, outcomes, loaded) in passes.items():
        _write_loaded(loaded, os.path.join(pass_dir, name), outcomes)
        result["passes"][name] = {"request_s": timings, "outcomes": outcomes}
    if tracer is not None:
        result["layers"] = tracer.report(spec, cold_dir)
    with open(os.path.join(pass_dir, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
