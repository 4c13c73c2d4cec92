"""Seeded input corpora for the benchmark workloads.

Each workload has a fixed list of members drawn with the recipe named in
``README.md``.  The ``--seed`` of a run draws, for each member, one of
the substitutions s -> +-s, t -> +-t, the seed handed to the program, and
the run order.  A seed thus fixes the exact tuple texts the program
receives.  The substitutions are ring automorphisms that keep every
monomial and the magnitude of every coefficient, so they keep the amount
of work: corpora drawn afresh for each seed, or rescaled, spread far beyond
the benchmark's bounds (see ``README.md``).  Tuples are rendered to text
here and only that text reaches the program.

The generators use ``gcd_many`` from the library under test only to reject
members whose components share a factor; everything else is local so that
a change to the library or its tests cannot move the corpus.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

# ``command`` is the cli command; ``members`` the fixed member count; the
# member recipe is selected by the workload name in ``_members``.
WORKLOADS = {
    "full_d2": {"command": "compute", "members": 12},
    "mixed": {"command": "compute", "members": 16},
    "bounds_d3": {"command": "bounds", "members": 3},
}

# Warm-up input for set-up: the reference tuple of the acceptance suite.
WARMUP_TEXT = "(s^2, t^2, s^2-1, s^2+1)"



@dataclass(frozen=True)
class Item:
    """One benchmark input: tuple text plus the seed handed to the program."""

    key: str
    text: str
    seed: int


def _random_terms(rng: random.Random, max_deg: int, coeff_bound=3, density=0.5):
    """Terms {(a, b): c} of the test-suite ``random_poly`` recipe in (s, t).

    Monomials are visited in the order of ``monomials_of_degree``: degree
    by degree, and within a degree by increasing exponent of s.
    """
    terms = {}
    for k in range(max_deg + 1):
        for a in range(k + 1):
            if rng.random() < density:
                c = rng.randint(-coeff_bound, coeff_bound)
                if c:
                    terms[(a, k - a)] = Fraction(c)
    return terms


def _degree(terms) -> int:
    return max((a + b for a, b in terms), default=-1)


def _poly_text(terms) -> str:
    if not terms:
        return "0"
    out = []
    for (a, b), c in sorted(terms.items(), key=lambda x: (-sum(x[0]), -x[0][0])):
        mono = "*".join(f"{v}^{e}" if e > 1 else v for v, e in (("s", a), ("t", b)) if e)
        mag = abs(c)
        body = (f"{mag}*{mono}" if mag != 1 else mono) if mono else f"{mag}"
        out.append(("- " if c < 0 else "+ ") + body)
    first = out[0]
    return (first[2:] if first.startswith("+") else "-" + first[2:]) + "".join(
        " " + part for part in out[1:])


def tuple_text(components) -> str:
    return "(" + ", ".join(_poly_text(t) for t in components) + ")"


def _coprime(components) -> bool:
    from mubasis.arith import gcd_many
    from mubasis.parser import parse_tuple

    nonzero = [p for p in parse_tuple(tuple_text(components)) if not p.is_zero()]
    return bool(nonzero) and gcd_many(nonzero).is_constant()


def _full_degree_member(index: int, d: int):
    """ROADMAP baseline recipe: one Random(index) per input, every component
    of exact degree d, redrawn until the components are coprime."""
    rng = random.Random(index)
    while True:
        comps = [_random_terms(rng, d) for _ in range(4)]
        if all(_degree(c) == d for c in comps) and _coprime(comps):
            return comps


def _mixed_members(count: int):
    """Acceptance criterion 4 recipe and stream: Random(20241), component
    degrees 0..3, not all constant, coprime."""
    rng = random.Random(20240 + 1)
    out = []
    while len(out) < count:
        comps = [_random_terms(rng, rng.randint(0, 3)) for _ in range(4)]
        if not any(comps) or not _coprime(comps):
            continue
        if max(_degree(c) for c in comps) < 1:
            continue
        out.append(comps)
    return out


def _members(workload: str, count: int):
    if workload == "full_d2":
        return [_full_degree_member(i, 2) for i in range(1, count + 1)]
    if workload == "bounds_d3":
        return [_full_degree_member(i, 3) for i in range(1, count + 1)]
    if workload == "mixed":
        return _mixed_members(count)
    raise ValueError(f"unknown workload {workload!r}")


def build(workload: str, seed: int) -> list[Item]:
    """The corpus of one run, in run order; equal seeds give equal corpora."""
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    items = []
    for k, comps in enumerate(_members(workload, spec["members"])):
        es, et = rng.choice((1, -1)), rng.choice((1, -1))
        reflected = [{(a, b): c * es**a * et**b for (a, b), c in terms.items()}
                     for terms in comps]
        items.append(Item(key=f"{workload}/{k}", text=tuple_text(reflected),
                          seed=rng.randrange(2**31)))
    rng.shuffle(items)
    return items
