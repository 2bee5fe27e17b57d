"""Seeded generator of SMV modules for the ``serve-check`` workload.

``generate(seed, index)`` is a pure function of its arguments: the same
pair always gives the same source text.  A module has six boolean
variables and one three-valued enum, ``case`` next-state assignments
whose branches may pick nondeterministically from a set, a ``FAIRNESS``
constraint when ``index`` is odd, and 48 distinct specs covering
``AG``, ``p -> AX q``, ``p -> EX q``, ``AG EF``, ``A[p U q]`` and ``EG``
in turn.
Nothing steers the specs towards truth, so some are false and the
service renders their counterexamples.

The shape of a module (sizes, branch counts, which variables get an
``init``, spec shapes) is fixed and only its details are random: the
cost of a module then varies less, and so does a run's mean over the
modules its seed draws.
"""

from __future__ import annotations

import random

ENUM_VALUES = ("lo", "mid", "hi")

#: Module size.  A cold check of one module (each spec one pool work
#: item) takes several of the service client's 50 ms poll steps, so a
#: latency's poll step is a small share of it; the state space stays
#: small enough for the explicit engine and the oracle.
BOOLEANS = 6
ENUMS = 1
SPECS = 48
SHAPES = 6
#: Guarded branches in each ``case`` (before the ``TRUE`` default).
CASES = 2


class _Module:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.booleans = [f"b{i}" for i in range(BOOLEANS)]
        self.enums = [f"e{i}" for i in range(ENUMS)]

    def literal(self, exclude: str | None = None) -> str:
        rng = self.rng
        names = [v for v in self.booleans + self.enums if v != exclude]
        var = rng.choice(names)
        if var in self.enums:
            op = rng.choice(("=", "!="))
            return f"{var} {op} {rng.choice(ENUM_VALUES)}"
        return var if rng.random() < 0.5 else f"!{var}"

    def prop(self, width: int | None = None) -> str:
        rng = self.rng
        width = width or rng.randint(1, 2)
        parts = [self.literal() for _ in range(width)]
        joiner = rng.choice((" & ", " | "))
        return "(" + joiner.join(parts) + ")" if width > 1 else parts[0]

    def next_value(self, var: str) -> str:
        rng = self.rng
        if var in self.enums:
            if rng.random() < 0.35:
                return "{" + ", ".join(rng.sample(ENUM_VALUES, 2)) + "}"
            return rng.choice(ENUM_VALUES)
        roll = rng.random()
        if roll < 0.3:
            return "{0, 1}"
        if roll < 0.5:
            return f"!{var}"
        return rng.choice(("0", "1"))

    def spec(self, shape: int) -> str:
        p, q = self.prop(), self.prop()
        if shape == 0:
            return f"AG ({p} | {q})"
        if shape == 1:
            return f"{p} -> AX {q}"
        if shape == 2:
            return f"{p} -> EX {q}"
        if shape == 3:
            return f"AG EF {p}"
        if shape == 4:
            return f"A[{p} U {q}]"
        return f"EG {p}"


def generate(seed: int, index: int) -> str:
    """SMV source of module ``index`` in the stream of ``seed``."""
    rng = random.Random(f"perfbench-smv:{seed}:{index}")
    m = _Module(rng)
    lines = [f"-- perfbench module {seed}:{index}", "MODULE main", "VAR"]
    for var in m.booleans:
        lines.append(f"  {var} : boolean;")
    for var in m.enums:
        lines.append(f"  {var} : {{{', '.join(ENUM_VALUES)}}};")
    lines.append("ASSIGN")
    for position, var in enumerate(m.booleans + m.enums):
        if position % 2 == 0:
            init = rng.choice(ENUM_VALUES) if var in m.enums else rng.choice("01")
            lines.append(f"  init({var}) := {init};")
        lines.append(f"  next({var}) :=")
        lines.append("    case")
        for _ in range(CASES):
            guard = m.literal(exclude=var)
            lines.append(f"      {guard} : {m.next_value(var)};")
        lines.append(f"      TRUE : {var};")
        lines.append("    esac;")
    if index % 2:
        lines.append(f"FAIRNESS {m.prop(1)}")
    # the shapes in turn; distinct specs only: the service replays a
    # repeated spec from one store record, which is not byte-identical
    # to its cold payload
    shapes = [shape % SHAPES for shape in range(SPECS)]
    rng.shuffle(shapes)
    specs: list[str] = []
    for shape in shapes:
        spec = m.spec(shape)
        while spec in specs:
            spec = m.spec(shape)
        specs.append(spec)
    lines += [f"SPEC {spec}" for spec in specs]
    return "\n".join(lines) + "\n"
