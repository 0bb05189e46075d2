"""Print a SHA-256 digest of enumerate_vertices, analyze and solve_enumeration
on fixed LPs.

    PYTHONPATH=src python tests/region_digest.py [--entries | --fast-share | --room-share |
                                                  --walk-share | --exact-share]

The LPs are tangent_pool(seed, m, 16) of perfbench seeds 1, 2 and 3 for m in
3, 4, 8, 16, 64 and 256; every LP of batch_pool(seed, 50, 16) for the same
seeds; and RANDOM_LPS seeded random LPs of one to six rows: rows of small
integers, rows of floats with b of either sign, and rows whose entries are
m * 10**e with e in [-300, 300], the scales that
test_enumerate_extreme_scales_fail_cleanly draws.  Each LP runs at every
tolerance of TOLS.

Each entry is one call of enumerate_vertices, analyze or solve_enumeration
and hashes either its result or the type and message of the error it
raised: a region as its vertices, each the float.hex of both coordinates and
the sorted active rows; a report as its optimal vertex and the float.hex of
its interval's ends; a solution as its vertex, the float.hex of its value
and whether it is unique; DegenerateOptimum also by its tie angle.  The digest takes the entries in
order.  It prints the number of LPs and the hex digest; with --entries it
prints one line per entry instead, so that two trees can be diffed.  A
change that keeps the builder's output must leave the digest as it is on the
same machine.  With --fast-share it prints, for analyze and for
solve_enumeration and each family of LPs (tangent, batch, and the random
integer, mixed and extreme ones), how many entries returned without
building the polygon ("rows"), how many built it, and how many raised
without building it ("refused", mostly a rejected argument).  With
--room-share it prints, for the same calls, how many of the row tests of
solver._optimal_corner's certificate the room bound decided ("room") and
how many took the exact test, solver._clears ("exact"); the rest are the
exempt rows of a corner's pair.  With --walk-share it prints, for the same
calls, how many of the "rows" answers the corner of the two rows whose
normals bracket c gave ("bracket") and how many needed Seidel's walk,
solver._optimal_edges ("walk").  With --exact-share it prints the
exact-agreement ledger: for analyze, solve_enumeration and solve_simplex on
the random integer, mixed and extreme LPs, and on FAMILY_LPS LPs of each of
two families drawn apart from the digest (near-par: two rows whose
normals lie 1e-16 to 3e-13 rad apart; concur: rows within a few ulps of
one point), at each tolerance, how many entries agree with
tests/exact_reference.py's exact_optimum, refuse a finite optimum, or are
wrong, split as exact_verdict says, and how many answers name other active
rows than the exact ones.  This is a script rather than a test because
math.atan2, and so the order of the sort and the cone angles, may differ
between C libraries.
"""

from __future__ import annotations

import hashlib
import math
import random
import sys
from collections import Counter
from itertools import chain
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import planarlp as pl  # noqa: E402
from exact_reference import exact_optimum, near  # noqa: E402
from instances import batch_pool, tangent_pool  # noqa: E402

TOLS = (1e-9, 0.0, 1e-3)
RANDOM_LPS = 3000
_INT_RANGES = ((-3, 3), (-3, 3), (-2, 6))  # a1, a2, b


def _integer_lp(rng: random.Random) -> pl.LinearProgram2D:
    rows = tuple(
        pl.ConstraintRow(*(float(rng.randint(lo, hi)) for lo, hi in _INT_RANGES))
        for _ in range(rng.randint(1, 6))
    )
    c = pl.Vec2(float(rng.randint(-3, 3)), float(rng.randint(-3, 3)))
    return pl.LinearProgram2D(c, rows)


def _mixed_lp(rng: random.Random) -> pl.LinearProgram2D:
    rows = tuple(
        pl.ConstraintRow(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-3, 10))
        for _ in range(rng.randint(1, 6))
    )
    return pl.LinearProgram2D(pl.Vec2(rng.uniform(-5, 5), rng.uniform(-5, 5)), rows)


def _extreme(rng: random.Random) -> float:
    m = rng.uniform(-1.0, 1.0) if rng.random() < 0.5 else float(rng.randint(-3, 3))
    return m * 10.0 ** rng.uniform(-300.0, 300.0)


def _extreme_lp(rng: random.Random) -> pl.LinearProgram2D:
    rows = tuple(
        pl.ConstraintRow(_extreme(rng), _extreme(rng), _extreme(rng))
        for _ in range(rng.randint(1, 6))
    )
    return pl.LinearProgram2D(pl.Vec2(1.0, 1.0), rows)


def _near_parallel_lp(rng: random.Random) -> pl.LinearProgram2D:
    """tests/test_solver.py's _near_parallel_lp strategy, drawn with rng:
    rows (1, 0, B) and (1, +-e, B (1 + d)), e in [1e-16, 10**-12.5] and |d|
    <= 1e-12, between two bounds on x2; shuffled, a1 and a2 swapped at
    random, and c in {1, ..., 10}**2."""
    big = 10.0 ** rng.uniform(3.0, 9.0)
    e = rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(-16.0, -12.5)
    d = rng.uniform(-1e-12, 1e-12)
    hi = big * 10.0 ** rng.uniform(0.0, 3.0)
    lo = hi * rng.uniform(0.1, 0.9)
    rows = [(1.0, 0.0, big), (1.0, e, big * (1.0 + d)), (0.0, 1.0, hi), (0.0, -1.0, -lo)]
    rng.shuffle(rows)
    if rng.random() < 0.5:
        rows = [(a2, a1, b) for a1, a2, b in rows]
    c = pl.Vec2(float(rng.randint(1, 10)), float(rng.randint(1, 10)))
    return pl.LinearProgram2D(c, tuple(pl.ConstraintRow(*row) for row in rows))


def _concurrent_lp(rng: random.Random) -> pl.LinearProgram2D:
    """3 to 5 unit rows (cos t, sin t), t in [0, pi/2], through one point
    p in [1, 100]**2, each b then moved by up to 3 ulps either way; c in
    [0.1, 1]**2."""
    p1, p2 = rng.uniform(1.0, 100.0), rng.uniform(1.0, 100.0)
    rows = []
    for _ in range(rng.randint(3, 5)):
        t = rng.uniform(0.0, math.pi / 2)
        a1, a2 = math.cos(t), math.sin(t)
        b, moves = a1 * p1 + a2 * p2, rng.randint(-3, 3)
        for _ in range(abs(moves)):
            b = math.nextafter(b, math.copysign(math.inf, moves))
        rows.append(pl.ConstraintRow(a1, a2, b))
    return pl.LinearProgram2D(pl.Vec2(rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0)), tuple(rows))


#: LPs per family of the ledger's own families, (family, maker), which the
#: float path gets wrong most often.  They are not in lps().
FAMILY_LPS = 1000
_LEDGER_FAMILIES = (("near-par", _near_parallel_lp), ("concur", _concurrent_lp))


def family_lps():
    """The FAMILY_LPS LPs of each of the ledger's own families, drawn from
    random.Random(7), as (family, lp)."""
    for family, make in _LEDGER_FAMILIES:
        rng = random.Random(7)
        for _ in range(FAMILY_LPS):
            yield family, make(rng)


def lps():
    for seed in (1, 2, 3):
        for m in (3, 4, 8, 16, 64, 256):
            for i, t in enumerate(tangent_pool(seed, m, 16)):
                yield f"tangent-{seed}-{m}-{i}", t.lp
    for seed in (1, 2, 3):
        for b, batch in enumerate(batch_pool(seed, 50, 16)):
            for i, lp in enumerate(batch):
                yield f"batch-{seed}-{b}-{i}", lp
    yield from random_lps()


def random_lps():
    """The RANDOM_LPS random LPs of lps(), as (name, lp), in its order."""
    rng = random.Random(2024)
    makers = (_integer_lp, _mixed_lp, _extreme_lp)
    for i in range(RANDOM_LPS):
        yield f"random-{i}", makers[i % 3](rng)


def _vertex(v: pl.Vertex) -> tuple:
    return v.point.x1.hex(), v.point.x2.hex(), sorted(v.active_rows)


def _outcome(call) -> str:
    try:
        res = call()
    except pl.errors.PlanarLPError as exc:
        angle = getattr(exc, "stable_angle", None)
        tail = "" if angle is None else f" @ {angle.hex()}"
        return f"{type(exc).__name__}: {exc}{tail}"
    if isinstance(res, pl.FeasibleRegion):
        return repr([_vertex(v) for v in res.vertices])
    if isinstance(res, pl.Solution):
        return repr((_vertex(res.vertex), res.value.hex(), res.unique))
    iv = res.interval
    return repr((_vertex(res.optimal_vertex), iv.lo.hex(), iv.hi.hex()))


def entries(lp: pl.LinearProgram2D):
    for tol in TOLS:
        yield f"tol={tol} enumerate", _outcome(lambda: pl.enumerate_vertices(lp, tol=tol))
        yield f"tol={tol} analyze", _outcome(lambda: pl.analyze(lp, tol=tol))
        yield f"tol={tol} solve", _outcome(lambda: pl.solve_enumeration(lp, tol=tol))


_FAMILIES = ("tangent", "batch", "integer", "mixed", "extreme")


def _family(name: str) -> str:
    kind, i = name.split("-")[:2]
    return _FAMILIES[2 + int(i) % 3] if kind == "random" else kind


_ENTRY_POINTS = (("analyze", pl.analyze), ("solve", pl.solve_enumeration))


def _entry_calls():
    """(entry, family, run) for each call of analyze and solve_enumeration
    on the LPs at each tolerance; run() makes the call and says whether it
    raised."""
    for name, lp in lps():
        for tol in TOLS:
            for entry, call in _ENTRY_POINTS:

                def run(call=call, lp=lp, tol=tol) -> bool:
                    try:
                        call(lp, tol=tol)
                        return False
                    except pl.errors.PlanarLPError:
                        return True

                yield entry, _family(name), run


def _watch(name: str) -> list:
    """A list that gains one entry for each call of solver's function name
    from now on."""
    from planarlp import solver

    calls = []
    call = getattr(solver, name)

    def counting(*args):
        calls.append(args)
        return call(*args)

    setattr(solver, name, counting)
    return calls


def fast_share() -> None:
    """Count the routes of analyze and solve_enumeration per family by
    watching their polygon builds."""
    built = _watch("_polygon")
    # rows, polygon, refused
    counts = {(e, f): [0, 0, 0] for e, _ in _ENTRY_POINTS for f in _FAMILIES}
    for entry, family, run in _entry_calls():
        built.clear()
        refused = run()
        counts[entry, family][1 if built else 2 if refused else 0] += 1
    print(f"{'entry':8} {'family':8} {'rows':>6} {'polygon':>8} {'refused':>8}")
    for (entry, f), (rows, poly, refused) in counts.items():
        print(f"{entry:8} {f:8} {rows:6} {poly:8} {refused:8}")


def room_share() -> None:
    """Count the certificate's row tests per entry point and family that the
    room bound decided and that took the exact test, solver._clears."""
    from planarlp import solver

    counts = {(e, f): Counter() for e, _ in _ENTRY_POINTS for f in _FAMILIES}
    tests = Counter()

    class Room(float):
        # The certificate asks slack > room, which Python answers with
        # room.__lt__(slack) first: room's type subclasses slack's.
        def __lt__(self, slack):
            cleared = float.__lt__(self, slack)
            tests["room"] += cleared
            return cleared

    certify, clears = solver._optimal_corner, solver._clears

    def counting_certify(lp, normals):
        rows = [r[:5] + (Room(r[5]),) for r in normals[0]]
        return certify(lp, (rows, *normals[1:]))

    def counting_clears(rec, slack, tol):
        tests["exact"] += 1
        return clears(rec, slack, tol)

    solver._optimal_corner, solver._clears = counting_certify, counting_clears
    for entry, family, run in _entry_calls():
        tests.clear()
        run()
        counts[entry, family].update(tests)
    print(f"{'entry':8} {'family':8} {'room':>9} {'exact':>7}")
    for (entry, f), c in counts.items():
        print(f"{entry:8} {f:8} {c['room']:9} {c['exact']:7}")


def walk_share() -> None:
    """Count the rows answers of analyze and solve_enumeration per family
    that the bracketing corner gave and that needed the walk."""
    built, walked = _watch("_polygon"), _watch("_optimal_edges")
    counts = {(e, f): [0, 0] for e, _ in _ENTRY_POINTS for f in _FAMILIES}
    for entry, family, run in _entry_calls():
        built.clear()
        walked.clear()
        if not run() and not built:
            counts[entry, family][1 if walked else 0] += 1
    print(f"{'entry':8} {'family':8} {'bracket':>8} {'walk':>6}")
    for (entry, f), (bracket, walk) in counts.items():
        print(f"{entry:8} {f:8} {bracket:8} {walk:6}")


def exact_outcome(lp):
    """exact_optimum(lp), or the class of the error it raised."""
    try:
        return exact_optimum(lp)
    except pl.errors.PlanarLPError as exc:
        return type(exc)


def _overflows(optima) -> bool:
    """Some coordinate of the exact optima lies past the floats."""
    try:
        for x1, x2, _ in optima:
            float(x1), float(x2)
    except OverflowError:
        return True
    return False


def exact_verdict(call, lp, tol: float, exact) -> tuple[str, bool]:
    """The ledger's class of call(lp, tol=tol), for analyze,
    solve_enumeration or solve_simplex, against exact, exact_outcome(lp);
    and whether an answer names other active rows than the exact optimum it
    matches.  The class is "arguments" for ZeroRow or ZeroObjective; else
    "agree" for the exact outcome: Infeasible for Infeasible, Unbounded or
    UnboundedRegion for Unbounded, NonFiniteEntry where an exact optimum
    overflows, and otherwise an answer within 8 ulps of an exact optimum,
    unique exactly where that is (DegenerateOptimum is analyze's tie);
    "refuses" for UnboundedRegion or DegenerateRegion where the optimum is
    finite; and else "wrong class", "wrong vertex", or "wrong tie" for
    unique against tied either way."""
    try:
        res = call(lp, tol=tol)
    except (pl.errors.ZeroRow, pl.errors.ZeroObjective):
        return "arguments", False
    except pl.errors.DegenerateOptimum as exc:
        vertex, unique = exc.tied_vertices[0], False
    except pl.errors.PlanarLPError as exc:
        if isinstance(exact, type):
            agree = type(exc) is exact or (
                exact is pl.errors.Unbounded and type(exc) is pl.errors.UnboundedRegion
            )
        elif isinstance(exc, (pl.errors.UnboundedRegion, pl.errors.DegenerateRegion)):
            return "refuses", False
        else:
            agree = isinstance(exc, pl.errors.NonFiniteEntry) and _overflows(exact[0])
        return "agree" if agree else "wrong class", False
    else:
        if isinstance(res, pl.Solution):
            vertex, unique = res.vertex, res.unique
        else:
            vertex, unique = res.optimal_vertex, True
    if isinstance(exact, type):
        return "wrong class", False
    optima, exact_unique = exact
    match = next((o for o in optima if near(vertex.point, o)), None)
    if match is None:
        return "wrong vertex", False
    if unique != exact_unique:
        return "wrong tie", False
    return "agree", vertex.active_rows != match[2]


# The ledger's columns, each a verdict of exact_verdict or "rows", and their
# headers.
_LEDGER = {
    "agree": "agree",
    "refuses": "refuses",
    "arguments": "args",
    "wrong class": "class",
    "wrong vertex": "vertex",
    "wrong tie": "tie",
    "rows": "rows",
}


def exact_share() -> None:
    """Print the exact-agreement ledger per entry point, family and
    tolerance."""
    entries = (*_ENTRY_POINTS, ("simplex", pl.solve_simplex))
    families = (*_FAMILIES[2:], *(f for f, _ in _LEDGER_FAMILIES))
    counts = {(e, f, tol): Counter() for e, _ in entries for f in families for tol in TOLS}
    drawn = ((_family(name), lp) for name, lp in random_lps())
    for family, lp in chain(drawn, family_lps()):
        exact = exact_outcome(lp)
        for tol in TOLS:
            for entry, call in entries:
                verdict, rows_differ = exact_verdict(call, lp, tol, exact)
                c = counts[entry, family, tol]
                c[verdict] += 1
                c["rows"] += rows_differ
    print(f"{'entry':8} {'family':8} {'tol':>6}", *(f"{h:>7}" for h in _LEDGER.values()))
    for (entry, f, tol), c in counts.items():
        print(f"{entry:8} {f:8} {tol:6}", *(f"{c[k]:7}" for k in _LEDGER))


def main() -> None:
    shares = {
        "--fast-share": fast_share,
        "--room-share": room_share,
        "--walk-share": walk_share,
        "--exact-share": exact_share,
    }
    if len(sys.argv) == 2 and sys.argv[1] in shares:
        shares[sys.argv[1]]()
        return
    listing = sys.argv[1:] == ["--entries"]
    h = hashlib.sha256()
    count = 0
    for name, lp in lps():
        for key, outcome in entries(lp):
            if listing:
                print(name, key, outcome)
            h.update(outcome.encode())
            h.update(b"\n")
        count += 1
    if not listing:
        print(count, h.hexdigest())


if __name__ == "__main__":
    main()
