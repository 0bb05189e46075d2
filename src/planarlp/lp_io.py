"""Plain-text LP format.

    # comments run to end of line; blank lines are ignored
    maximize: <c1> <c2>
    constraints:
    <a1> <a2> <b>
    ...

Numbers are decimals ("2", "-0.5", "1e3") or fractions ("1/4", "-2/5");
decimals are read by float(), and a fraction p/q is the quotient of the
integers p and q, which Python rounds once, correctly, to a float.
serialize_lp uses repr() so that parse(serialize(lp)) reproduces every
float bit for bit, signed zeros included.
"""

from __future__ import annotations

from .errors import LPSyntaxError, MissingObjective, NoConstraints
from .geometry import Vec2
from .lp_model import ConstraintRow, LinearProgram2D

_OBJECTIVE_PREFIX = "maximize:"
_CONSTRAINTS_HEADER = "constraints:"


def _parse_number(token: str, lineno: int) -> float:
    num, slash, den = token.partition("/")
    try:
        if not slash:
            return float(token)
        if den[:1] not in "+-":  # a sign is allowed on p only, and q is required
            return int(num) / int(den)
    except (ValueError, ZeroDivisionError, OverflowError):
        pass
    raise LPSyntaxError(lineno, f"not a number: {token!r}")


def parse_lp(text: str) -> LinearProgram2D:
    """Parse the text format above into a program."""
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append((lineno, stripped))

    if not lines:
        raise MissingObjective("no 'maximize:' line found")

    lineno, first = lines[0]
    if not first.startswith(_OBJECTIVE_PREFIX):
        raise LPSyntaxError(lineno, f"expected '{_OBJECTIVE_PREFIX} <c1> <c2>'")
    tokens = first[len(_OBJECTIVE_PREFIX):].split()
    if len(tokens) != 2:
        raise LPSyntaxError(lineno, "objective needs exactly two coefficients")
    objective = Vec2(
        _parse_number(tokens[0], lineno), _parse_number(tokens[1], lineno)
    )

    if len(lines) < 2:
        raise NoConstraints("missing 'constraints:' section")
    lineno, header = lines[1]
    if header != _CONSTRAINTS_HEADER:
        raise LPSyntaxError(lineno, f"expected '{_CONSTRAINTS_HEADER}'")

    rows = []
    for lineno, line in lines[2:]:
        tokens = line.split()
        if len(tokens) != 3:
            raise LPSyntaxError(
                lineno, f"constraint rows need three numbers, got {len(tokens)}"
            )
        a1, a2, b = (_parse_number(t, lineno) for t in tokens)
        rows.append(ConstraintRow(a1, a2, b))
    if not rows:
        raise NoConstraints("no constraint rows after the header")
    return LinearProgram2D(objective, tuple(rows))


def serialize_lp(lp: LinearProgram2D) -> str:
    """Inverse of parse_lp, lossless for float fields."""
    out = [f"{_OBJECTIVE_PREFIX} {lp.objective.x1!r} {lp.objective.x2!r}"]
    out.append(_CONSTRAINTS_HEADER)
    for row in lp.constraints:
        out.append(f"{row.a1!r} {row.a2!r} {row.b!r}")
    return "\n".join(out) + "\n"


def load_lp(path) -> LinearProgram2D:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_lp(fh.read())
