"""A pinned verdict ledger: what every predicate says, over every field, on
a fixed corpus of complexes.

    python tests/ledger.py [--cold] | sha256sum

prints one line per (complex, predicate, field), sorted:

    facets | predicate | field | verdict | witness

where a call that raises gives the exception's type as its verdict.  The
complexes are every ``corpus()`` entry, ``_random_pure_corpus(1, 100, 8)``,
and every vertex link and every single-vertex deletion of those, each
once.  On each of them run, over Q, F2 and F3, the Cohen-Macaulay,
Buchsbaum, Buchsbaum*, homology-manifold, 2-CM, 2-Buchsbaum* and doubly
Buchsbaum predicates and ``reduced_betti``; field-free ("-") are the
missing faces, the flag test and, on pure complexes, the balanced
coloring, with and without a node budget.  Rank selection adds a line per
colour subset of every coloured corpus entry and of
``random_balanced_complex(0..49)``.

By default one cache is shared, warm, by every complex; ``--cold`` clears
it before each.  Both must print the same lines, which test_ledger.py
pins by their SHA-256.  Nothing in the library reads the ledger.
"""

from __future__ import annotations

import hashlib
import itertools
import sys

from bstar import (GF2, GF3, QQ, clear_caches, corpus, find_balanced_coloring,
                   is_buchsbaum, is_buchsbaum_star, is_cohen_macaulay,
                   is_doubly_buchsbaum, is_homology_manifold,
                   is_m_buchsbaum_star, is_m_cm, random_balanced_complex,
                   rank_selected, reduced_betti)
from bstar.suites import _random_pure_corpus

FIELDS = (QQ, GF2, GF3)

OVER_A_FIELD = {
    "cohen_macaulay": is_cohen_macaulay,
    "buchsbaum": is_buchsbaum,
    "buchsbaum_star": is_buchsbaum_star,
    "homology_manifold": is_homology_manifold,
    "m_cm[2]": lambda c, f: is_m_cm(c, 2, f),
    "m_buchsbaum_star[2]": lambda c, f: is_m_buchsbaum_star(c, 2, f),
    "doubly_buchsbaum": is_doubly_buchsbaum,
    "reduced_betti": lambda c, f: tuple(reduced_betti(c, f)),
}

FIELD_FREE = {
    "missing_faces": lambda c: c.missing_faces(),
    "flag": lambda c: c.is_flag,
}

# a budget the larger complexes exhaust, so that UNKNOWN is pinned too
ON_PURE = {
    "balanced_coloring": find_balanced_coloring,
    "balanced_coloring[max_nodes=12]":
        lambda c: find_balanced_coloring(c, max_nodes=12),
}


def complexes() -> list:
    """The ledger's complexes, each once, in a fixed order."""
    base = [e.complex for e in corpus() + _random_pure_corpus(1, 100, 8)]
    out = {}
    for c in base:
        out.setdefault(c.facets, c)
        for v in c.vertices:
            for child in (c.link((v,)), c.delete((v,))):
                out.setdefault(child.facets, child)
    return list(out.values())


def coloured() -> list:
    """(complex, coloring) for every coloured corpus entry and the first
    fifty random balanced complexes."""
    return ([(e.complex, e.coloring) for e in corpus() if e.coloring]
            + [random_balanced_complex(seed) for seed in range(50)])


def _line(c, name: str, field: str, call) -> str:
    try:
        result = call()
    except Exception as exc:    # the exception's type is the verdict
        verdict, witness = type(exc).__name__, None
    else:
        verdict = getattr(result, "verdict", result)
        witness = getattr(result, "witness", None)
    return f"{c.facets!r} | {name} | {field} | {verdict!r} | {witness!r}"


def _lines_of(c) -> list:
    lines = [_line(c, name, f.label, lambda: pred(c, f))
             for name, pred in OVER_A_FIELD.items() for f in FIELDS]
    lines += [_line(c, name, "-", lambda: get(c))
              for name, get in FIELD_FREE.items()]
    if c.is_pure and not c.is_void:
        lines += [_line(c, name, "-", lambda: get(c))
                  for name, get in ON_PURE.items()]
    return lines


def _selections(c, coloring) -> list:
    colours = range(1, coloring.d + 1)
    return [_line(c, f"rank_selected{list(s)}", "-",
                  lambda: rank_selected(c, coloring, s).facets)
            for size in range(coloring.d + 1)
            for s in itertools.combinations(colours, size)]


def ledger(cold: bool = False) -> list:
    """The sorted ledger lines; ``cold`` clears the cache before each
    complex, else one cache, cleared once, serves them all."""
    clear_caches()
    lines = []
    for c in complexes():
        if cold:
            clear_caches()
        lines += _lines_of(c)
    for c, coloring in coloured():
        if cold:
            clear_caches()
        lines += _selections(c, coloring)
    return sorted(lines)


def digest(lines: list) -> str:
    """The SHA-256 of the lines as ``python tests/ledger.py`` prints them."""
    return hashlib.sha256("".join(f"{x}\n" for x in lines).encode()).hexdigest()


if __name__ == "__main__":
    sys.stdout.writelines(f"{x}\n" for x in ledger(cold="--cold" in sys.argv[1:]))
