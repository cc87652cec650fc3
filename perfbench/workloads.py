"""The four benchmark workloads: their inputs, verdict calls and checks.

A workload is built at one of three sizes:

- ``full``: the problem as README.md states it; a traced run solves it
  once, so that its counts are exact;
- ``bench``: a smaller instance of the same problem, repeated by the timed
  loop for as long as the run lasts;
- ``smoke``: the smallest instance, for ``smoke.py``.

``build`` returns the requests of one pass.  A request is one verdict call
into the library, the name of the layer it enters, and a check that maps
the verdict to True when it is right.  Only ``enumerate-iso`` uses the
seed: it picks the relabellings whose isomorphism is checked.
"""

from __future__ import annotations

import io
import itertools
import json
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from chromarep import cli
from chromarep.algebra import Signature
from chromarep.colouring import EdgeColouring, Level, are_isomorphic, verify
from chromarep.constructions import (DelegatedToSearch, NotConstructible,
                                     construct, walecki)
from chromarep.search import enumerate_representations, search

NAMES = ("certificate", "strong-search", "enumerate-iso", "catalogue")
SIZES = ("full", "bench", "smoke")

GOLDEN_CATALOGUE = Path(__file__).resolve().parent / "golden_catalogue.json"

# The size knob of each workload: --max-m of the certificate command, the
# node budget of the strong search, the vertex count enumerated, and the
# largest colour count in the catalogue.
CERTIFICATE_MAX_M = {"full": None, "bench": 7, "smoke": 6}
STRONG_BUDGET = {"full": None, "bench": 10_000, "smoke": 1_000}
ENUMERATE_M = {"full": 6, "bench": 5, "smoke": 5}
# Relabellings per built colouring; the timed loop cycles through them, so
# that its median does not hang on how hard one relabelling happens to be.
RELABELLINGS = {"full": 1, "bench": 16, "smoke": 1}
CATALOGUE_MAX_N = {"full": 7, "bench": 4, "smoke": 3}

# Iso-classes of qualitative {1,2}, n=2 colourings of K_m, as the seed
# commit counted them.
ENUMERATE_CLASSES = {5: 3, 6: 37}

RESULT_KINDS = {"EdgeColouring": EdgeColouring,
                "NotConstructible": NotConstructible,
                "DelegatedToSearch": DelegatedToSearch}


@dataclass(frozen=True)
class Request:
    label: str
    span: str  # the layer the call enters, as the tracer names it
    call: Callable[[], Any]
    check: Callable[[Any], bool]


def build(name: str, size: str, seed: int) -> list[Request]:
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    builder = {"certificate": certificate, "strong-search": strong_search,
               "enumerate-iso": enumerate_iso, "catalogue": catalogue}[name]
    return builder(size, seed)


def certificate(size: str, seed: int) -> list[Request]:
    """The north-star command: the {2}, n=3 nonexistence certificate."""
    max_m = CERTIFICATE_MAX_M[size]
    argv = ["search", "--s", "2", "--n", "3", "--level", "qualitative"]
    if max_m is None:
        expected = "certified nonexistent up to m=12"
    else:
        argv += ["--max-m", str(max_m)]
        expected = f"none found (range-limited) up to m={max_m}"

    def call():
        out = io.StringIO()
        return cli.run(argv, out), out.getvalue()

    def check(verdict):
        code, text = verdict
        return code == 0 and text.splitlines()[-1] == expected

    return [Request("chromarep " + " ".join(argv), "cli.run", call, check)]


def strong_search(size: str, seed: int) -> list[Request]:
    """Strong {2,3}, n=3 over m <= 6: every leaf is re-checked by verify."""
    sig = Signature(frozenset({2, 3}), 3)
    budget = STRONG_BUDGET[size]

    def call():
        return search(sig, Level.STRONG, m_range=(2, 6), node_budget=budget)

    def check(outcome):
        if budget is None:
            return outcome.status == "exhausted" and outcome.m_max == 6
        return outcome.status == "aborted" and outcome.nodes == budget + 1

    return [Request(f"search {sig} strong m<=6 budget={budget}",
                    "search.search", call, check)]


def relabel(col: EdgeColouring, rng: random.Random) -> EdgeColouring:
    """The colouring under a random vertex and a random colour permutation."""
    vertices = list(range(col.m))
    rng.shuffle(vertices)
    colours = list(range(1, col.n + 1))
    rng.shuffle(colours)
    return EdgeColouring.from_function(
        col.m, col.n,
        lambda i, j: colours[col.colour(vertices[i], vertices[j]) - 1])


def colour_class_sizes(col: EdgeColouring) -> list[int]:
    """Sizes of the colour classes, sorted: an isomorphism invariant."""
    return sorted(Counter(col.colours).values())


def _built(s, n, level) -> EdgeColouring:
    result = construct(Signature(frozenset(s), n), level)
    if not isinstance(result, EdgeColouring):
        raise RuntimeError(f"no colouring for {s}, n={n}, {level.value}")
    return result


def enumerate_iso(size: str, seed: int) -> list[Request]:
    """Enumeration up to isomorphism, then isomorphism checks on built
    colourings against seeded relabellings of themselves."""
    qual, strong, feeble = Level.QUALITATIVE, Level.STRONG, Level.FEEBLE
    sig = Signature(frozenset({1, 2}), 2)
    m = ENUMERATE_M[size]
    expected = ENUMERATE_CLASSES[m]
    # Every pass returns the same classes; verify each distinct answer once.
    checked: set = set()

    def call_enumerate():
        return enumerate_representations(sig, qual, m)

    def check_enumerate(verdict):
        classes, partial = verdict
        if partial or len(classes) != expected:
            return False
        key = tuple(c.colours for c in classes)
        if key not in checked:
            if not all(verify(c, sig, qual).passed for c in classes):
                return False
            checked.add(key)
        return True

    requests = [Request(f"enumerate {sig} qualitative m={m}",
                        "search.enumerate", call_enumerate, check_enumerate)]

    ag3 = ("AG(2,3)", _built((1, 3), 4, strong))
    if size == "full":
        objects = [("walecki(5)", walecki(5)), ("walecki(6)", walecki(6)),
                   ("lambda2(Q9)", _built((3,), 9, qual)), ag3,
                   ("AG(2,4)", _built((1, 3), 5, strong))]
    elif size == "bench":
        objects = [("walecki(4)", walecki(4)), ("walecki(5)", walecki(5)),
                   ("lambda2(Q7)", _built((3,), 7, qual)), ag3,
                   ("lambda2(Q9)", _built((3,), 9, qual))]
    else:
        objects = [("walecki(3)", walecki(3)), ag3]
    rng = random.Random(seed)
    for label, col in objects:
        pool = itertools.cycle([relabel(col, rng)
                                for _ in range(RELABELLINGS[size])])
        requests.append(Request(
            f"are_isomorphic {label} relabelled", "colouring.are_isomorphic",
            lambda a=col, pool=pool: are_isomorphic(a, next(pool)),
            lambda verdict: verdict is True))

    # A chain colouring and the lambda2 colouring share m and n; their
    # colour-class sizes differ, so they are not isomorphic.
    n = 5 if size == "smoke" else 9
    chain, tri = _built((1, 2), n, feeble), _built((3,), n, qual)
    if (chain.m, chain.n) != (tri.m, tri.n) \
            or colour_class_sizes(chain) == colour_class_sizes(tri):
        raise RuntimeError("the non-isomorphic pair is not a valid probe")
    requests.append(Request(
        f"are_isomorphic chain({n}) lambda2(Q{n})", "colouring.are_isomorphic",
        lambda: are_isomorphic(chain, tri), lambda verdict: verdict is False))
    return requests


def catalogue(size: str, seed: int) -> list[Request]:
    """construct() over every signature, level and colour count up to a
    bound, each result matched against the golden table."""
    max_n = CATALOGUE_MAX_N[size]
    golden = json.loads(GOLDEN_CATALOGUE.read_text())
    # Every pass builds the same colourings; verify each distinct one once.
    checked: set = set()
    requests = []
    for s, n, level_name, kind, nonexistent in golden:
        if n > max_n:
            continue
        sig, level = Signature(frozenset(s), n), Level(level_name)

        def check(result, sig=sig, level=level, kind=kind,
                  nonexistent=nonexistent):
            if not isinstance(result, RESULT_KINDS[kind]):
                return False
            if isinstance(result, NotConstructible):
                return result.nonexistent == nonexistent
            if isinstance(result, EdgeColouring):
                key = (sig, level, result.colours)
                if key not in checked:
                    if not verify(result, sig, level).passed:
                        return False
                    checked.add(key)
            return True

        requests.append(Request(
            f"construct {sig} {level_name}", "constructions.construct",
            lambda sig=sig, level=level: construct(sig, level), check))
    return requests
