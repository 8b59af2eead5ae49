"""Verification suites: one deterministic, seedable suite per claim the
toolkit is expected to certify, plus the random-complex generators and the
empirical explorer for the open lower-bound question.

Each suite produces a SuiteReport whose case records carry the input id,
property, field, expected and observed values, and a witness when a case
fails.  Records are sorted by case id before the report is assembled, so
reports are independent of execution order; the JSON and text renderings
contain identical verdicts.

``lemma-oracle`` and ``hierarchy``, the two costliest suites, compute
each complex once for every field (see ``_for_every_field``): over the
first field, and over the others only when some rank on the way depended
on the field, as torsion makes it do (``rp2_min`` has 2-torsion).  Both
deal their complexes over the usable CPUs: the calling process runs one
share and a forked child each other share (see ``_dealt``).  They run
serially when one CPU is usable, when there is no ``os.fork`` or when
another thread is alive.  Every other suite runs serially: its work takes
a few milliseconds at most, near the 2-3 ms that a fork and the round
trip of its result take.
"""

from __future__ import annotations

import itertools
import os
import random
import signal
import threading
import time
from contextlib import suppress
from math import comb

from .complexes import Complex, Record, build
from .facevectors import (f_vector, h_prime_vector, h_vector, poly_geq,
                          reduced_euler_characteristic, short_simplicial_h)
from .families import (cross_polytope, fixture, fixture_names,
                       multi_point_join_colored, simplex_boundary,
                       skeleton_join_sphere, stacked_cross_polytopal_sphere)
from .homology import (reduced_betti, relative_betti_vector,
                       pair_restriction_surjective, top_restriction_surjective)
from .linalg import (GF2, GF3, QQ, CoefficientField, InvariantError,
                     _field_dependence)
from .properties import (Coloring, is_buchsbaum, is_buchsbaum_star,
                         is_doubly_buchsbaum, is_m_buchsbaum_star, is_m_cm,
                         rank_selected, revalidate_witness)
from .version import __version__


class UnknownSuiteError(LookupError):
    """No suite registered under the requested name."""


class InfeasibleParameterError(ValueError):
    """Random-complex parameters are out of range."""


class CaseRecord(Record):
    __slots__ = ("case_id", "prop", "field", "expected", "got", "witness",
                 "passed")


class SuiteReport(Record):
    __slots__ = ("suite", "version", "fields", "seed", "max_n", "passed",
                 "duration_s", "cases", "notes", "incomplete")
    __setattr__, __delattr__ = object.__setattr__, object.__delattr__  # mutable
    __hash__ = None

    def __init__(self, suite: str, version: str, fields: tuple, seed: int,
                 max_n: int | None, passed: bool, duration_s: float,
                 cases: list, notes: tuple = (), incomplete: bool = False):
        super().__init__(suite, version, fields, seed, max_n, passed,
                         duration_s, cases, notes, incomplete)

    def to_dict(self) -> dict:
        """The fields in order, each case as a dict of its fields."""
        out = dict(zip(self.__slots__, self._values()))
        out["cases"] = [dict(zip(c.__slots__, c._values())) for c in self.cases]
        return out

    def render_text(self) -> str:
        lines = [
            f"suite {self.suite} (version {self.version}, fields "
            f"{','.join(self.fields)}, seed {self.seed}): "
            f"{'PASS' if self.passed else 'FAIL'} "
            f"({sum(c.passed for c in self.cases)}/{len(self.cases)} cases, "
            f"{self.duration_s:.2f}s)"
        ]
        if self.incomplete:
            lines.append("  [incomplete: size caps exceeded]")
        for note in self.notes:
            lines.append(f"  note: {note}")
        for c in self.cases:
            mark = "ok  " if c.passed else "FAIL"
            line = (f"  {mark} {c.case_id} [{c.prop}, {c.field}] "
                    f"expected={c.expected} got={c.got}")
            if c.witness:
                line += f" witness={c.witness}"
            lines.append(line)
        return "\n".join(lines)


def _case(case_id, prop, field_label, expected, got, witness=None) -> CaseRecord:
    return CaseRecord(case_id, prop, field_label, repr(expected), repr(got),
                      None if witness is None else str(witness),
                      expected == got)


# -- random complex generators ----------------------------------------------

def random_pure_complex(seed: int, n_vertices: int, dim: int,
                        facet_count: int) -> Complex:
    """Uniform without-replacement sample of facet_count (dim+1)-subsets of
    range(n_vertices); deterministic per (seed, parameters)."""
    if dim < 0 or n_vertices < dim + 1:
        raise InfeasibleParameterError(
            f"no {dim}-dimensional complex on {n_vertices} vertices")
    total = comb(n_vertices, dim + 1)
    if not 1 <= facet_count <= total:
        raise InfeasibleParameterError(
            f"facet count {facet_count} outside 1..{total}")
    pool = list(itertools.combinations(range(n_vertices), dim + 1))
    rng = random.Random(f"pure-{seed}-{n_vertices}-{dim}-{facet_count}")
    return build(rng.sample(pool, facet_count))


def random_balanced_complex(seed: int, max_vertices: int = 8):
    """Random pure balanced complex with its coloring: facets are sampled
    transversals of d randomly sized color classes."""
    rng = random.Random(f"balanced-{seed}")
    d = rng.choice((2, 3))
    sizes = [rng.randint(1, 3) for _ in range(d)]
    while sum(sizes) > max_vertices:
        sizes[sizes.index(max(sizes))] -= 1
    classes = []
    start = 0
    for s in sizes:
        classes.append(list(range(start, start + s)))
        start += s
    pool = list(itertools.product(*classes))
    count = rng.randint(1, min(len(pool), 10))
    cx = build(rng.sample(pool, count))
    present = set(cx.vertices)
    assignment = {v: c for c, cls in enumerate(classes, start=1)
                  for v in cls if v in present}
    coloring = Coloring(assignment, d)
    coloring.validate(cx)
    return cx, coloring


def _random_pure_corpus(seed: int, count: int, n_max: int):
    rng = random.Random(f"pure-corpus-{seed}-{n_max}")
    out = []
    for k in range(count):
        dim = rng.randint(1, 3)
        n = rng.randint(dim + 1, max(dim + 1, n_max))
        fc = rng.randint(1, comb(n, dim + 1))
        out.append((f"random[{k}]", random_pure_complex(seed * 1009 + k, n, dim, fc)))
    return out


# -- corpus -------------------------------------------------------------------

class CorpusEntry(Record):
    __slots__ = ("cid", "complex", "coloring")


_corpus_cache: list = []


def corpus() -> list:
    """Fixtures plus the constructed families used across the suites."""
    if _corpus_cache:
        return list(_corpus_cache)
    entries = []
    for name in fixture_names():
        f = fixture(name)
        entries.append(CorpusEntry(name, f.complex, f.coloring))
    for d in (2, 4):
        cx, col = cross_polytope(d)
        entries.append(CorpusEntry(f"cross_polytope({d})", cx, col))
    for n, d in ((9, 3), (12, 3), (12, 4), (8, 4)):
        cx, col = stacked_cross_polytopal_sphere(n, d)
        entries.append(CorpusEntry(f"scps({n},{d})", cx, col))
    p33, p33_col = multi_point_join_colored(3, 3)
    entries.append(CorpusEntry("P(3,3)", p33, p33_col))
    entries.append(CorpusEntry("S(2,2,3)", skeleton_join_sphere(2, 2, 4), None))
    entries.append(CorpusEntry("simplex_boundary(3)", simplex_boundary(3), None))
    _corpus_cache.extend(entries)
    return list(entries)


def _entry(cid: str) -> CorpusEntry:
    for e in corpus():
        if e.cid == cid:
            return e
    raise KeyError(cid)


# Balanced Buchsbaum-star fixtures used by the rank-selection suites.
BALANCED_BSTAR_IDS = (
    "cross_polytope(2)", "octahedron", "cross_polytope(4)",
    "scps(9,3)", "scps(12,4)", "k33", "P(3,3)",
)

# Connected balanced Buchsbaum-star fixtures of dimension >= 2 (d >= 3).
BALANCED_BSTAR_D3_IDS = (
    "octahedron", "cross_polytope(4)", "scps(9,3)", "scps(12,3)",
    "scps(12,4)", "scps(8,4)", "P(3,3)", "suspended_hexagon",
)

# d >= 4 members for the h_3 bound.
BALANCED_BSTAR_D4_IDS = ("cross_polytope(4)", "scps(12,4)", "scps(8,4)")


def _binomial_power(m: int, d: int) -> tuple:
    """Coefficients of (1 + m t)^d."""
    return tuple(comb(d, j) * m ** j for j in range(d + 1))


def _stacked_f_formula(n: int, d: int) -> tuple:
    """Inclusion-exclusion f-vector of the stacked cross-polytopal sphere:
    c copies of the cross polytope, c-1 identified facets."""
    c = n // d - 1
    g = c - 1
    f = [1]
    for j in range(d - 1):
        f.append(c * comb(d, j + 1) * 2 ** (j + 1) - g * comb(d, j + 1))
    f.append(c * 2 ** d - 2 * g)
    return tuple(f)


def _proper_nonempty_subsets(d: int):
    for size in range(1, d):
        yield from itertools.combinations(range(1, d + 1), size)


# -- one complex per core, computed once for every field --------------------

def _for_every_field(fields, cases_over) -> list:
    """The cases of ``cases_over(f)`` for every field f, in field order.

    They are computed over the first field.  When that computation left
    this thread's field-dependence counter unmoved (see :mod:`bstar.linalg`),
    every rank and cached entry it used holds over every field, so the
    cases of the other fields are the same records with only ``field``
    changed.  Otherwise every field is computed."""
    if not fields:
        return []
    before = _field_dependence()
    first = cases_over(fields[0])
    if _field_dependence() != before:
        return first + [case for f in fields[1:] for case in cases_over(f)]
    return first + [CaseRecord(c.case_id, c.prop, f.label, c.expected, c.got,
                               c.witness, c.passed)
                    for f in fields[1:] for c in first]


def _face_count(c: Complex) -> int:
    """The work of both dealt suites grows with the faces of a complex."""
    return sum(map(len, c.face_table()))


def _dealt(items, work, cost) -> list:
    """The cases of ``work(item)`` for every item, concatenated in item
    order.  With w = min(len(items), usable CPUs) >= 2, the items are
    dealt into w shares of about equal total ``cost(item)``: each item,
    costliest first, goes to the share with the least cost so far.  w - 1
    forked children run shares 1 .. w-1 while this process runs share 0;
    each child sends its cases, or the exception it raised, back through
    a pipe.  It runs serially when w < 2, when there is no ``os.fork``, or
    when another thread is alive, since a fork taken while that thread
    holds a lock (such as the homology cache lock) leaves the lock held in
    the child.  Only this process keeps its cache entries.  No child
    outlives the call."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(len(items), cpus)
    if workers < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [case for item in items for case in work(item)]
    import pickle  # here: at the top it adds 0.4 MB to every bstar process
    costs = list(map(cost, items))
    shares = [[] for _ in range(workers)]  # item indices per share
    loads = [0] * workers
    for i in sorted(range(len(items)), key=lambda i: -costs[i]):
        k = loads.index(min(loads))
        shares[k].append(i)
        loads[k] += costs[i]
    children = []  # (pid, read end of its pipe) for k = 1 .. w-1
    try:
        for k in range(1, workers):
            read, write = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:
                    _child(write, work, [items[i] for i in shares[k]])
            except BaseException:
                os.close(read)
                raise
            finally:
                os.close(write)
            children.append((pid, os.fdopen(read, "rb")))
        results = [None] * len(items)
        for i in shares[0]:
            results[i] = work(items[i])
        for k, (pid, pipe) in enumerate(children, start=1):
            data = pipe.read()
            if not data:
                raise ChildProcessError(
                    f"worker {k} of {workers} sent no result")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            for i, result in zip(shares[k], value):
                results[i] = result
    except BaseException:
        for pid, _ in children:
            with suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, pipe in children:
            pipe.close()
            # ChildProcessError: reaped already, as when SIGCHLD is ignored
            with suppress(ChildProcessError):
                os.waitpid(pid, 0)
    return [case for cases in results for case in cases]


def _child(write, work, items):
    """Body of a forked child: write (True, cases per item) or (False,
    exception) to the pipe, then leave through ``os._exit``, so that the
    caller's frames never run twice and the parent's buffered output is
    not flushed a second time."""
    try:
        import pickle
        try:
            result = (True, [work(item) for item in items])
        except Exception as exc:
            result = (False, exc)
        with os.fdopen(write, "wb") as pipe:
            pipe.write(pickle.dumps(result))
    finally:
        os._exit(0)


# -- suites -------------------------------------------------------------------

def _suite_stanley(fields, seed, max_n):
    cases = []
    inputs = [(_entry(cid).cid, _entry(cid).complex, _entry(cid).coloring)
              for cid in ("octahedron", "scps(9,3)", "P(3,3)")]
    for k in range(50):
        cx, coloring = random_balanced_complex(seed + k, max_n or 8)
        inputs.append((f"balanced[{k}]", cx, coloring))
    for cid, cx, coloring in inputs:
        d = coloring.d
        h = h_vector(cx)
        sums = [0] * (d + 1)
        for size in range(d + 1):
            for s in itertools.combinations(range(1, d + 1), size):
                hs = h_vector(rank_selected(cx, coloring, s))
                sums[size] += hs[size]
        cases.append(_case(cid, "rank_selection_h_identity", "-",
                           list(h), sums))
    return cases, ()


def _suite_rank_selection(fields, seed, max_n):
    cases = []
    for cid in BALANCED_BSTAR_IDS:
        entry = _entry(cid)
        d = entry.coloring.d
        for s in _proper_nonempty_subsets(d):
            sub = rank_selected(entry.complex, entry.coloring, s)
            for f in fields:
                rep = is_buchsbaum_star(sub, f)
                cases.append(_case(f"{cid}|S={list(s)}", "buchsbaum_star",
                                   f.label, True, rep.verdict, rep.witness))
    return cases, ()


def _suite_m_rank_selection(fields, seed, max_n):
    cases = []
    entry = _entry("P(3,3)")
    for s in itertools.combinations(range(1, 4), 2):
        sub = rank_selected(entry.complex, entry.coloring, s)
        for f in fields:
            rep = is_m_buchsbaum_star(sub, 2, f)
            cases.append(_case(f"P(3,3)|S={list(s)}|m=2", "m_buchsbaum_star",
                               f.label, True, rep.verdict, rep.witness))
    return cases, ()


def _suite_balanced_lbt(fields, seed, max_n):
    cases = []
    for cid in BALANCED_BSTAR_D3_IDS:
        entry = _entry(cid)
        rep = is_buchsbaum_star(entry.complex, QQ)
        cases.append(_case(f"{cid}|hypothesis", "buchsbaum_star", "Q",
                           True, rep.verdict, rep.witness))
        h = h_vector(entry.complex)
        d = len(h) - 1
        lhs, rhs = d * h[2], comb(d, 2) * h[1]
        cases.append(_case(f"{cid}|d*h2>=C(d,2)*h1", "lower_bound", "-",
                           True, lhs >= rhs, f"{lhs} vs {rhs}"))
    for cid in ("scps(9,3)", "scps(12,4)"):
        h = h_vector(_entry(cid).complex)
        d = len(h) - 1
        cases.append(_case(f"{cid}|equality", "lower_bound_equality", "-",
                           comb(d, 2) * h[1], d * h[2]))
    h = h_vector(_entry("P(3,3)").complex)
    cases.append(_case("P(3,3)|strict", "lower_bound_strict", "-",
                       True, 3 * h[2] > comb(3, 2) * h[1]))
    for n, d in ((9, 3), (12, 3), (8, 4)):
        got = f_vector(_entry(f"scps({n},{d})").complex)
        cases.append(_case(f"scps({n},{d})|f_formula", "f_vector", "-",
                           list(_stacked_f_formula(n, d)), list(got)))
    for cid in BALANCED_BSTAR_D3_IDS:
        cx = _entry(cid).complex
        n, d = cx.n_vertices, cx.dim + 1
        if n % d == 0:
            cases.append(_case(f"{cid}|f>=stacked", "f_vector_bound", "-",
                               True, poly_geq(f_vector(cx),
                                              _stacked_f_formula(n, d))))
    return cases, ()


def _suite_h3_bound(fields, seed, max_n):
    cases = []
    for cid in BALANCED_BSTAR_D4_IDS:
        h = h_vector(_entry(cid).complex)
        d = len(h) - 1
        lhs, rhs = d * h[3], comb(d, 3) * h[1]
        cases.append(_case(f"{cid}|d*h3>=C(d,3)*h1", "lower_bound", "-",
                           True, lhs >= rhs, f"{lhs} vs {rhs}"))
    return cases, ()


def _suite_swartz(fields, seed, max_n):
    cases = []
    inputs = [(e.cid, e.complex) for e in corpus() if e.complex.is_pure]
    inputs.extend(_random_pure_corpus(seed, 100, max_n or 8))
    for cid, cx in inputs:
        short = short_simplicial_h(cx)
        h = h_vector(cx)
        d = len(h) - 1
        expected = tuple(j * h[j] + (d - j + 1) * h[j - 1]
                         for j in range(1, d + 1))
        cases.append(_case(cid, "short_h_identity", "-",
                           list(expected), list(short)))
    return cases, ()


def _suite_flag_bound(fields, seed, max_n):
    cases = []
    targets = (
        ("k33", 2, (1, 4, 4)),
        ("P(3,3)", 3, (1, 6, 12, 8)),
        ("octahedron", 3, (1, 3, 3, 1)),
    )
    ms = {"k33": 2, "P(3,3)": 2, "octahedron": 1}
    for cid, d, expected in targets:
        entry = _entry(cid)
        m = ms[cid]
        if expected != _binomial_power(m, d):
            raise InvariantError(f"{cid}: {expected} is not the h-vector bound")
        for f in fields:
            got = h_prime_vector(entry.complex, f)
            cases.append(_case(f"{cid}|h_prime", "h_prime_extremal",
                               f.label, list(expected), list(got)))
    hexsus = _entry("suspended_hexagon")
    cases.append(_case("suspended_hexagon|flag", "flag", "-",
                       True, hexsus.complex.is_flag))
    rep = is_buchsbaum_star(hexsus.complex, QQ)
    cases.append(_case("suspended_hexagon|buchsbaum_star", "buchsbaum_star",
                       "Q", True, rep.verdict, rep.witness))
    hp = h_prime_vector(hexsus.complex, QQ)
    bound = _binomial_power(1, 3)
    cases.append(_case("suspended_hexagon|h_prime>=bound", "poly_geq", "Q",
                       True, poly_geq(hp, bound), f"{hp} vs {bound}"))
    cases.append(_case("suspended_hexagon|strict_excess", "poly_gt", "Q",
                       True, hp != bound and poly_geq(hp, bound),
                       f"{hp} vs {bound}"))
    cases.append(_case("suspended_hexagon|not_cross_polytope", "nonextremal",
                       "-", True,
                       hexsus.complex.n_vertices
                       != _entry("octahedron").complex.n_vertices))
    return cases, ()


def _suite_euler(fields, seed, max_n):
    cases = []
    for cid, m, d in (("k33", 2, 2), ("P(3,3)", 2, 3)):
        cx = _entry(cid).complex
        chi = reduced_euler_characteristic(cx)
        value = (-1) ** (d - 1) * chi
        cases.append(_case(f"{cid}|(-1)^(d-1)chi", "euler_bound", "-",
                           m ** d, value))
        for f in fields:
            betti = reduced_betti(cx, f)
            cases.append(_case(f"{cid}|chi_consistency", "euler_from_betti",
                               f.label, chi, betti.chi_reduced()))
    return cases, ()


def _suite_orientability(fields, seed, max_n):
    cases = []
    rp2 = _entry("rp2_min").complex
    from .properties import is_homology_manifold
    rep = is_homology_manifold(rp2, QQ)
    cases.append(_case("rp2_min|homology_manifold", "homology_manifold", "Q",
                       True, rep.verdict, rep.witness))
    expected = {"F2": True, "Q": False, "F3": False}
    for f in (GF2, QQ, GF3):
        rep = is_buchsbaum_star(rp2, f)
        cases.append(_case(f"rp2_min|buchsbaum_star", "buchsbaum_star",
                           f.label, expected[f.label], rep.verdict,
                           rep.witness))
        if not expected[f.label]:
            w = rep.witness
            ok = (w is not None and w.kind == "surjectivity"
                  and len(w.data[0]) == 1
                  and revalidate_witness(rp2, rep, f))
            cases.append(_case(f"rp2_min|witness_vertex", "witness",
                               f.label, True, ok, w))
    return cases, ()


def _suite_lemma_oracle(fields, seed, max_n):
    inputs = [(e.cid, e.complex) for e in corpus() if not e.complex.is_void]
    inputs.extend(_random_pure_corpus(seed, 100, max_n or 7))

    def case(cid, cx, f):
        bad = None
        for tau in cx.faces_sorted():
            if not tau:
                continue
            rel = relative_betti_vector(cx, tau, f)
            link_betti = reduced_betti(cx.link(tau), f)
            for i in range(-1, cx.dim + 1):
                if rel[i] != link_betti[i - len(tau)]:
                    bad = (tau, i, rel[i], link_betti[i - len(tau)])
                    break
            if bad:
                break
        return [_case(f"{cid}", "contrastar_link_shift", f.label, None, bad)]

    def work(item):
        cid, cx = item
        return _for_every_field(fields, lambda f: case(cid, cx, f))

    return _dealt(inputs, work, lambda item: _face_count(item[1])), ()


def _suite_hierarchy(fields, seed, max_n):
    def cases_over(entry, f):
        cases = []
        cx = entry.complex
        star = is_buchsbaum_star(cx, f)
        if star.verdict:
            d = cx.dim + 1
            if d >= 2:
                betti = reduced_betti(cx, f)
                cases.append(_case(f"{entry.cid}|top_betti", "nonzero_top",
                                   f.label, True, betti[cx.dim] >= 1))
                links_ok = all(
                    is_m_cm(cx.link((v,)), 2, f).verdict
                    for v in cx.vertices)
                cases.append(_case(f"{entry.cid}|links_2cm", "two_cm_links",
                                   f.label, True, links_ok))
            dbl = is_doubly_buchsbaum(cx, f)
            cases.append(_case(f"{entry.cid}|doubly", "doubly_buchsbaum",
                               f.label, True, dbl.verdict, dbl.witness))
        elif star.witness is not None:
            cases.append(_case(f"{entry.cid}|witness_sound", "witness",
                               f.label, True,
                               revalidate_witness(cx, star, f),
                               star.witness))
        buchs = is_buchsbaum(cx, f)
        if buchs.verdict:
            all_c = all(
                top_restriction_surjective(cx, tau, f)
                for tau in cx.faces_sorted() if tau)
            all_b = all(
                pair_restriction_surjective(cx, sigma, tau, f)
                for tau in cx.faces_sorted() if tau
                for k in range(len(tau) + 1)
                for sigma in itertools.combinations(tau, k))
            cases.append(_case(f"{entry.cid}|b_iff_c", "conditions_b_c",
                               f.label, all_c, all_b))
        return cases

    def work(entry):
        return _for_every_field(fields, lambda f: cases_over(entry, f))

    return _dealt(corpus(), work, lambda entry: _face_count(entry.complex)), ()


_SUITES = {
    "stanley-hnums": (_suite_stanley, "balanced h-number identity under rank selection"),
    "rank-selection": (_suite_rank_selection, "rank-selected subcomplexes stay Buchsbaum-star"),
    "m-rank-selection": (_suite_m_rank_selection, "rank selection preserves m-Buchsbaum-star"),
    "balanced-lbt": (_suite_balanced_lbt, "lower bound d*h2 >= C(d,2)*h1 with equality cases"),
    "h3-bound": (_suite_h3_bound, "lower bound d*h3 >= C(d,3)*h1 for d >= 4"),
    "swartz-identity": (_suite_swartz, "short simplicial h-number identity"),
    "flag-lower-bound": (_suite_flag_bound, "flag h'-bound (1+mt)^d and equality cases"),
    "euler-corollary": (_suite_euler, "Euler characteristic bound m^d"),
    "orientability-rp2": (_suite_orientability, "field dependence on the projective plane"),
    "lemma-oracle": (_suite_lemma_oracle, "relative homology equals shifted link homology"),
    "hierarchy": (_suite_hierarchy, "Buchsbaum-star consequences and b/c agreement"),
}

DEFAULT_FIELDS = (QQ, GF2)


def suite_names() -> list:
    return sorted(_SUITES)


def run_suite(name: str, fields=None, seed: int = 0,
              max_n: int | None = None) -> SuiteReport:
    """Run one registered suite deterministically and return its report.
    ``max_n`` bounds the vertex count of the random inputs; the smallest
    value every suite accepts is 3."""
    if name not in _SUITES:
        raise UnknownSuiteError(name)
    if max_n is not None and max_n < 3:
        raise ValueError(f"max_n must be at least 3, got {max_n}")
    func, _ = _SUITES[name]
    if fields is None:
        fields = (GF2, QQ, GF3) if name == "orientability-rp2" else DEFAULT_FIELDS
    start = time.perf_counter()
    cases, notes = func(tuple(fields), seed, max_n)
    duration = time.perf_counter() - start
    cases = sorted(cases, key=lambda c: (c.case_id, c.prop, c.field))
    return SuiteReport(
        suite=name,
        version=__version__,
        fields=tuple(f.label for f in fields),
        seed=seed,
        max_n=max_n,
        passed=all(c.passed for c in cases),
        duration_s=duration,
        cases=cases,
        notes=tuple(notes),
    )


def explore_question(m: int, i: int, d: int, n_max: int = 9, seed: int = 0,
                     field: CoefficientField = QQ, sample_budget: int = 60,
                     max_enumeration: int = 1 << 15) -> SuiteReport:
    """Probe whether every m-CM complex of dimension d-1 with missing faces
    of dimension at most i has h-polynomial coefficientwise at least that of
    the skeleton-join sphere.

    Enumerates exhaustively per vertex count while 2^C(n, d) stays within
    max_enumeration, otherwise samples; any sampling marks the report
    incomplete.  Violations are reported as candidate counterexamples with
    their facet lists; the underlying question is probed, never resolved.
    """
    start = time.perf_counter()
    target = skeleton_join_sphere(m, i, d)
    h_target = h_vector(target)
    cases = []
    incomplete = False
    checked = 0
    rng = random.Random(f"explore-{m}-{i}-{d}-{seed}")
    for n in range(d, n_max + 1):
        pool = list(itertools.combinations(range(n), d))
        exhaustive = 2 ** len(pool) <= max_enumeration
        if exhaustive:
            subsets = _nonempty_subsets(pool)
        else:
            incomplete = True
            subsets = (rng.sample(pool, rng.randint(1, len(pool)))
                       for _ in range(sample_budget))
        for facets in subsets:
            if len({v for f in facets for v in f}) != n:
                continue  # smaller vertex counts cover this complex
            cx = build(facets)
            if any(len(mf) - 1 > i for mf in cx.missing_faces()):
                continue
            if not is_m_cm(cx, m, field).verdict:
                continue
            checked += 1
            if not poly_geq(h_vector(cx), h_target):
                cases.append(_case(
                    f"candidate|n={n}|{list(map(list, cx.facets))}",
                    "h_poly_bound", field.label, True, False,
                    f"h={h_vector(cx)} target={h_target}"))
    cases.append(_case(f"no_violation|checked={checked}", "h_poly_bound",
                       field.label, True, True))
    cases = sorted(cases, key=lambda c: c.case_id)
    duration = time.perf_counter() - start
    return SuiteReport(
        suite=f"explore(m={m},i={i},d={d})",
        version=__version__,
        fields=(field.label,),
        seed=seed,
        max_n=n_max,
        passed=all(c.passed for c in cases),
        duration_s=duration,
        cases=cases,
        notes=(f"target h = {h_target} from the skeleton-join sphere",
               "empirical probe only; the question is not resolved"),
        incomplete=incomplete,
    )


def _nonempty_subsets(pool):
    for mask in range(1, 2 ** len(pool)):
        yield [pool[k] for k in range(len(pool)) if mask >> k & 1]
