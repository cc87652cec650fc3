#!/usr/bin/env python3
"""Time ``canonical_form`` and ``are_isomorphic`` on large colourings.

    python3 tools/canonical_timings.py [--src DIR]

Each case runs in a fresh process on the chromarep sources under DIR
(default: this checkout's ``src``), limited to TIMEOUT_S seconds and
MEMORY_MB MB of address space, and the script prints one JSON object: per
case the seconds of each ``canonical_form`` or ``are_isomorphic`` call,
the process's peak RSS, or why it did not finish.  It exits 1 if any case
failed, ran out of time or memory, gave different forms for its
relabellings or a wrong isomorphism verdict, and 0 otherwise.  The
``canonical_form`` cases:

- ``AG(2,q)`` for q = 5, 7: ``construct(Signature({1,3}, q+1), STRONG)``,
  as built and under seeded vertex and colour relabellings (the
  ``relabel`` helper of tests/helpers.py);
- ``single_colour(9)``, the one-colour K_9;
- ``cyclotomic(p)``: ``geometry.cyclotomic(p, n)``, the strong {2,3}
  colourings at n = 4, 5, 6 (p = 41, 71, 97) and the strong {1,2,3} ones
  at n = 4, 5, 6 (p = 73, 131, 181);
- ``random2(30)``: ``random2(30, 30)`` of tests/helpers.py, K_30 with
  each edge coloured 1 or 2 by a seeded random generator, a rigid input
  whose search cannot lean on automorphisms.

The ``are_isomorphic`` cases, one call each:

- ``are_isomorphic(random2(30))``, ``are_isomorphic(random2(30), seed 5)``,
  ``are_isomorphic(AG(2,5))`` and ``are_isomorphic(AG(2,7))``: the
  colouring against a relabelling seeded with 7, or with 5 where the name
  says so; verdict True.  Against its seed-5 relabelling, random2(30)'s
  first code is not a code of the partner, so the two searches advance in
  turn until they meet;
- ``are_isomorphic(random2(30), swap)`` and
  ``are_isomorphic(AG(2,7), swap)``: the colouring against itself with its
  first edges of colours 1 and 2 swapped, which keeps the colour-class
  sizes; verdict False.  A False verdict runs one side's search to its
  end, so these cost ``are_isomorphic`` the most: up to a
  ``canonical_form`` of each side.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 300
MEMORY_MB = 2048
CYCLOTOMIC = {41: 4, 71: 5, 97: 6, 73: 4, 131: 5, 181: 6}
# are_isomorphic case: (colouring, the seed of the relabelling it is
# checked against, or None for its swap)
ISOMORPHISM = {"are_isomorphic(random2(30))": ("random2(30)", 7),
               "are_isomorphic(random2(30), seed 5)": ("random2(30)", 5),
               "are_isomorphic(AG(2,5))": ("AG(2,5)", 7),
               "are_isomorphic(AG(2,7))": ("AG(2,7)", 7),
               "are_isomorphic(random2(30), swap)": ("random2(30)", None),
               "are_isomorphic(AG(2,7), swap)": ("AG(2,7)", None)}
CASES = ("AG(2,5)", "AG(2,7)", "single_colour(9)",
         *(f"cyclotomic({p})" for p in CYCLOTOMIC), "random2(30)",
         *ISOMORPHISM)
RELABELLINGS = {"AG(2,5)": 8, "AG(2,7)": 16}


def build(case):
    from chromarep.algebra import Signature
    from chromarep.colouring import Level
    from chromarep.constructions import construct, single_colour
    from chromarep.geometry import cyclotomic
    from helpers import random2

    if case.startswith("AG"):
        q = int(case[5])
        return construct(Signature(frozenset({1, 3}), q + 1), Level.STRONG)
    if case == "single_colour(9)":
        return single_colour(9)
    if case == "random2(30)":
        return random2(30, 30)
    p = int(case[len("cyclotomic("):-1])
    return cyclotomic(p, CYCLOTOMIC[p])


def swap_first_edges(col):
    """``col`` with its first edges of colours 1 and 2 swapped."""
    from chromarep.colouring import EdgeColouring

    colours = list(col.colours)
    i, j = colours.index(1), colours.index(2)
    colours[i], colours[j] = colours[j], colours[i]
    return EdgeColouring(col.m, col.n, tuple(colours))


def peak_rss_mb():
    """This process's own peak RSS in MB, from its VmHWM.

    On Linux ``ru_maxrss`` keeps the high-water mark from before ``exec``,
    so a child would report its launcher's peak whenever that was larger.
    """
    with open("/proc/self/status") as status:
        kb = status.read().split("VmHWM:")[1].split()[0]
    return round(int(kb) / 1024, 1)


def run_isomorphism(case):
    """Child process: print the seconds of one are_isomorphic call."""
    from chromarep.colouring import are_isomorphic
    from helpers import relabel

    base, seed = ISOMORPHISM[case]
    col = build(base)
    expected = seed is not None
    other = relabel(col, random.Random(seed)) if expected \
        else swap_first_edges(col)
    start = time.perf_counter()
    verdict = are_isomorphic(col, other)
    seconds = round(time.perf_counter() - start, 4)
    if verdict is not expected:
        raise SystemExit(f"{case}: verdict {verdict}, want {expected}")
    print(json.dumps({"m": col.m, "seconds": [seconds], "verdict": verdict,
                      "peak_rss_mb": peak_rss_mb()}))


def run_case(case):
    """Child process: print the seconds of each canonical_form call."""
    from chromarep.colouring import canonical_form
    from helpers import relabel

    col = build(case)
    inputs = [col]
    if case in RELABELLINGS:
        rng = random.Random(7)
        inputs += [relabel(col, rng) for _ in range(RELABELLINGS[case])]
    seconds, forms = [], set()
    for x in inputs:
        start = time.perf_counter()
        forms.add(canonical_form(x).colours)
        seconds.append(round(time.perf_counter() - start, 4))
    if len(forms) != 1:
        raise SystemExit(f"{case}: relabellings disagree")
    print(json.dumps({"m": col.m, "seconds": seconds,
                      "peak_rss_mb": peak_rss_mb()}))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--src", default=str(ROOT / "src"))
    p.add_argument("--case", choices=CASES, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.case:
        sys.path[:0] = [args.src, str(ROOT / "tests")]
        (run_isomorphism if args.case in ISOMORPHISM else run_case)(args.case)
        return
    limit = MEMORY_MB * 2 ** 20

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    out = {}
    for case in CASES:
        start = time.perf_counter()
        try:
            done = subprocess.run(
                [sys.executable, __file__, "--src", args.src, "--case", case],
                capture_output=True, text=True, timeout=TIMEOUT_S,
                preexec_fn=cap)
        except subprocess.TimeoutExpired:
            out[case] = f"not finished in {TIMEOUT_S} s"
            continue
        if done.returncode:
            last = (done.stderr.strip().splitlines() or ["no output"])[-1]
            out[case] = (f"failed after {time.perf_counter() - start:.0f} s "
                         f"within {MEMORY_MB} MB: {last}")
            continue
        record = json.loads(done.stdout)
        record["median_s"] = statistics.median(record["seconds"])
        record["max_s"] = max(record["seconds"])
        out[case] = record
    print(json.dumps(out, indent=1))
    if any(isinstance(record, str) for record in out.values()):
        sys.exit(1)


if __name__ == "__main__":
    main()
