"""Workload definitions: sizes, seeded inputs and the requests a pass makes.

A workload is turned into a *spec*: a JSON-serialisable dict whose
``requests`` list is everything the measured interpreter executes, in
order.  Three request kinds exist:

  {"cli": [argv...], "out": name}        repwords.cli.main(argv), stdout
                                          and stderr captured to files
  {"load": "@file", "out": name}         repwords.search.load_checkpoint
  {"call": fn, "args": [...], "out": name}  repwords.search.<fn>(*args)

An argument starting with "@" names a file inside the pass directory.
The program sees only these requests; the seed never reaches it.
"""

from __future__ import annotations

import random

WORKLOADS = ("sweep", "resume", "zeckendorf", "tables")

# Solution-free triples of acceptance criterion 3 (no solution for b <= 5000),
# then the seven sporadic triples, in the order the sweep runs them.
NONE_TRIPLES = (
    (2, 4, 2), (2, 5, 2), (2, 6, 1), (3, 3, 2), (3, 4, 1),
    (3, 5, 1), (4, 2, 4), (4, 3, 2), (5, 3, 1), (6, 2, 3),
)
NONE_CHECKED_UP_TO = 5000
SPORADIC_TRIPLES = ((2, 3, 1), (2, 3, 2), (3, 2, 2), (3, 2, 3), (3, 3, 1), (2, 4, 1), (4, 2, 2))

# Solution-dense triples: many small records, factoring of tiny pieces only.
RESUME_TRIPLES = ((2, 2, 1), (2, 2, 2), (2, 2, 3), (3, 2, 1))
RESUME_WORKERS = 2

# generate requests of the tables workload: (triple, count, system).
# (2,3,2) with 46 members is over Python's 4300-digit int-to-str limit from
# member 46 on; the CLI crashes on it and all its rows count as failed.
OVER_LIMIT_REQUEST = ("2,3,2", 46, "canonical")
GENERATE_REQUESTS = (
    ("2,3,1", 400, "canonical"),
    OVER_LIMIT_REQUEST,
    ("3,2,2", 400, "canonical"),
    ("3,2,3", 80, "canonical"),
    ("3,3,1", 60, "canonical"),
    ("2,4,1", 400, "canonical"),
    ("4,2,2", 40, "canonical"),
    ("5,2,1", 300, "canonical"),
    ("2,2,1", 40, "canonical"),
    ("2,2,3", 40, "canonical"),
    ("2,2,6", 300, "bijective"),
    ("2,2,1", 120, "fibonacci"),
)

# Full-size inputs.  Windows move with the seed by at most SHIFT of their size.
SIZES = {
    "sweep": {"window": 1500},
    "resume": {"window": 600},
    "zeckendorf": {"y_max": 1_500_000, "power_y_max": 5_000},
    "tables": {"pattern_n_max": 60, "generate": GENERATE_REQUESTS},
}
# Sizes for the self-test: every workload in well under a second.
TINY = {
    "sweep": {"window": 60},
    "resume": {"window": 60},
    "zeckendorf": {"y_max": 5_000, "power_y_max": 200},
    "tables": {
        "pattern_n_max": 3,
        "generate": (("2,3,1", 5, "canonical"), OVER_LIMIT_REQUEST,
                     ("2,2,6", 5, "bijective"), ("2,2,1", 3, "fibonacci")),
    },
}
SHIFT = 0.02


def _shift(rng: random.Random, size: int) -> int:
    return rng.randint(0, int(size * SHIFT))


def _search_argv(t, lo, hi, *extra) -> list[str]:
    q, n, l = t
    return ["search", "--q", str(q), "--n", str(n), "--l", str(l),
            "--b-lo", str(lo), "--b-hi", str(hi), *extra]


def tag(t) -> str:
    return "-".join(str(v) for v in t)


def make_spec(workload: str, seed: int, sizes: dict = SIZES) -> dict:
    """Inputs of one run; the same (workload, seed, sizes) gives the same spec."""
    rng = random.Random(f"{workload}:{seed}")
    size = sizes[workload]
    spec: dict = {"workload": workload, "seed": seed}
    if workload == "sweep":
        s = _shift(rng, size["window"])
        lo, hi = 2 + s, size["window"] + s
        triples = NONE_TRIPLES + SPORADIC_TRIPLES
        spec.update(lo=lo, hi=hi, triples=[list(t) for t in triples])
        spec["requests"] = [
            {"cli": _search_argv(t, lo, hi), "out": "search-" + tag(t)} for t in triples
        ]
        spec["ops"] = len(triples) * (hi - lo + 1)
    elif workload == "resume":
        s = _shift(rng, size["window"])
        lo, hi = 2 + s, size["window"] + s
        mid = lo + (hi - lo) // 2
        spec.update(lo=lo, mid=mid, hi=hi, triples=[list(t) for t in RESUME_TRIPLES])
        reqs = []
        for t in RESUME_TRIPLES:
            ck = f"@checkpoint-{tag(t)}.jsonl"
            extra = ("--checkpoint", ck, "--workers", str(RESUME_WORKERS))
            reqs.append({"cli": _search_argv(t, lo, mid, *extra), "out": "half-" + tag(t)})
            reqs.append({"cli": _search_argv(t, lo, hi, *extra), "out": "full-" + tag(t)})
            reqs.append({"load": ck, "out": "load-" + tag(t)})
        spec["requests"] = reqs
        spec["ops"] = len(RESUME_TRIPLES) * (hi - lo + 1)
    elif workload == "zeckendorf":
        y_max = size["y_max"] + _shift(rng, size["y_max"])
        p_max = size["power_y_max"] + _shift(rng, size["power_y_max"])
        spec.update(y_max=y_max, power_y_max=p_max)
        spec["requests"] = [
            {"call": "search_fib_squares", "args": [y_max], "out": "squares"},
            {"call": "search_fib_powers", "args": [4, 2, p_max], "out": "powers-4-2"},
            {"call": "search_fib_powers", "args": [2, 3, p_max], "out": "powers-2-3"},
        ]
        spec["ops"] = (y_max - 2) + 2 * (p_max - 2)
    elif workload == "tables":
        # fixed inputs: the seed is recorded but does not change anything
        reqs = [{"cli": ["verify", "--pattern-n-max", str(size["pattern_n_max"])], "out": "verify"}]
        for i, (triple, count, system) in enumerate(size["generate"]):
            reqs.append({
                "cli": ["generate", "--triple", triple, "--count", str(count), "--system", system],
                "out": f"generate-{i}",
            })
        spec.update(pattern_n_max=size["pattern_n_max"], requests=reqs)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return spec
