"""Verification suites: one deterministic, seedable suite per claim the
toolkit is expected to certify, plus the random-complex generators and the
empirical explorer for the open lower-bound question.

A suite declares its inputs and its claims.  The inputs map corpus ids
to the parameter the claims read, such as the m of an extremal join.  A
claim is a function of one input, ``(complex, coloring, parameter)``,
giving the cases that name no field ("-") or are pinned to Q, or of that
input and a field, giving the cases over it.  No claim reads an input's
id: ``run_suite`` alone forms each case id, ``cid`` (for the claim's
case id "") or ``cid|suffix``.  It rejects a field given twice.  For
each input it takes the once-cases, then the cases over every field
through ``_for_every_field``: computed over the first field, and over
the others only when some rank on the way depended on the field, as
torsion makes it do (``rp2_min`` has 2-torsion); otherwise the first
field's cases are copied.  Every suite runs in the calling process, one
input after another, so its cache entries serve the suites after it.  It
sorts the case records by (case id, property, field), so reports are
independent of execution order; the JSON and text renderings contain
identical verdicts.
"""

from __future__ import annotations

import itertools
import random
import time
from math import comb

from .complexes import Complex, Record, build
from .facevectors import (f_vector, h_prime_vector, h_vector, poly_geq,
                          reduced_euler_characteristic, short_simplicial_h)
from .families import (cross_polytope, fixture, fixture_names,
                       multi_point_join_colored, simplex_boundary,
                       skeleton_join_sphere, stacked_cross_polytopal_sphere)
from .homology import (reduced_betti, relative_betti_vector,
                       pair_restriction_surjective, top_restriction_surjective)
from .linalg import GF2, GF3, QQ, CoefficientField, _field_dependence
from .properties import (Coloring, is_buchsbaum, is_buchsbaum_star,
                         is_doubly_buchsbaum, is_homology_manifold,
                         is_m_buchsbaum_star, is_m_cm, rank_selected,
                         revalidate_witness)
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
    # mutable, so unhashable
    __setattr__, __delattr__ = object.__setattr__, object.__delattr__
    __hash__ = None

    def to_dict(self) -> dict:
        """The fields in order, each case as a dict of its fields."""
        out = dict(zip(self.__slots__, self._values()))
        out["cases"] = [dict(zip(c.__slots__, c._values()))
                        for c in self.cases]
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


def _case(case_id, prop, field_label, expected, got,
          witness=None) -> CaseRecord:
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
    starts = itertools.accumulate(sizes, initial=0)
    classes = [list(range(a, a + s)) for a, s in zip(starts, sizes)]
    pool = list(itertools.product(*classes))
    count = rng.randint(1, min(len(pool), 10))
    cx = build(rng.sample(pool, count))
    present = set(cx.vertices)
    assignment = {v: c for c, cls in enumerate(classes, start=1)
                  for v in cls if v in present}
    coloring = Coloring(assignment, d)
    coloring.validate(cx)
    return cx, coloring


def _random_pure_corpus(seed: int, count: int, n_max: int) -> list:
    rng = random.Random(f"pure-corpus-{seed}-{n_max}")
    out = []
    for k in range(count):
        dim = rng.randint(1, 3)
        n = rng.randint(dim + 1, max(dim + 1, n_max))
        fc = rng.randint(1, comb(n, dim + 1))
        cx = random_pure_complex(seed * 1009 + k, n, dim, fc)
        out.append(CorpusEntry(f"random[{k}]", cx, None))
    return out


# -- corpus -------------------------------------------------------------------

class CorpusEntry(Record):
    __slots__ = ("cid", "complex", "coloring")


_corpus_cache: dict = {}  # corpus id -> CorpusEntry, in corpus order


def _corpus() -> dict:
    if not _corpus_cache:
        fixtures = map(fixture, fixture_names())
        entries = [(f.name, f.complex, f.coloring) for f in fixtures]
        entries += [(f"cross_polytope({d})", *cross_polytope(d))
                    for d in (2, 4)]
        entries += [(f"scps({n},{d})", *stacked_cross_polytopal_sphere(n, d))
                    for n, d in ((9, 3), (12, 3), (12, 4), (8, 4))]
        entries += [("P(3,3)", *multi_point_join_colored(3, 3)),
                    ("S(2,2,3)", skeleton_join_sphere(2, 2, 4), None),
                    ("simplex_boundary(3)", simplex_boundary(3), None)]
        _corpus_cache.update((cid, CorpusEntry(cid, *rest))
                             for cid, *rest in entries)
    return _corpus_cache


def corpus() -> list:
    """Fixtures plus the constructed families used across the suites."""
    return list(_corpus().values())


def _entry(cid: str) -> CorpusEntry:
    return _corpus()[cid]


def _binomial_power(m: int, d: int) -> tuple:
    """Coefficients of (1 + m t)^d."""
    return tuple(comb(d, j) * m ** j for j in range(d + 1))


def _stacked_f_formula(n: int, d: int) -> tuple:
    """Inclusion-exclusion f-vector of the stacked cross-polytopal sphere:
    c copies of the cross polytope, c-1 identified facets."""
    c = n // d - 1
    return (1, *(comb(d, k) * (c * 2 ** k - (c - 1)) for k in range(1, d)),
            c * 2 ** d - 2 * (c - 1))


# -- one input, computed once for every field ---------------------------------

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


# -- suites -------------------------------------------------------------------
#
# The claims call the predicates through this module's globals, never
# through a default argument or a closure, so that whatever rebinds them
# here (a tracer, a test's spy) sees every call.

def _verdict(case_id, prop, field_label, report, expected=True):
    return _case(case_id, prop, field_label, expected, report.verdict,
                 report.witness)


def _no_cases(*input_and_field) -> list:
    return []


def _balanced_inputs(seed, max_n) -> list:
    return [*map(_entry, ("octahedron", "scps(9,3)", "P(3,3)")),
            *(CorpusEntry(f"balanced[{k}]",
                          *random_balanced_complex(seed + k, max_n or 8))
              for k in range(50))]


def _stanley(cx, coloring, _) -> list:
    """h_j is the sum of h_j over the rank selections to j colours."""
    colors = range(1, coloring.d + 1)
    sums = [sum(h_vector(rank_selected(cx, coloring, s))[size]
                for s in itertools.combinations(colors, size))
            for size in range(len(colors) + 1)]
    return [_case("", "rank_selection_h_identity", "-",
                  list(h_vector(cx)), sums)]


def _rank_selection(cx, coloring, _, f) -> list:
    """Rank selection to proper sets of colours keeps Buchsbaum-star."""
    colors = range(1, coloring.d + 1)
    return [_verdict(f"S={list(s)}", "buchsbaum_star", f.label,
                     is_buchsbaum_star(rank_selected(cx, coloring, s), f))
            for size in range(1, len(colors))
            for s in itertools.combinations(colors, size)]


def _m_rank_selection(cx, coloring, m, f) -> list:
    """Rank selection to two colours preserves m-Buchsbaum-star."""
    colors = range(1, coloring.d + 1)
    return [_verdict(f"S={list(s)}|m={m}", "m_buchsbaum_star", f.label,
                     is_m_buchsbaum_star(rank_selected(cx, coloring, s), m, f))
            for s in itertools.combinations(colors, 2)]


def _lower_bound(h, i) -> CaseRecord:
    d = len(h) - 1
    lhs, rhs = d * h[i], comb(d, i) * h[1]
    return _case(f"d*h{i}>=C(d,{i})*h1", "lower_bound", "-",
                 True, lhs >= rhs, f"{lhs} vs {rhs}")


def _balanced_lbt(cx, coloring, expects) -> list:
    """d*h2 >= C(d,2)*h1.  ``expects`` names the input's further cases:
    ``equality`` (a stacked sphere attains the bound), ``strict`` and
    ``f_formula`` (the f-vector of a stacked cross-polytopal sphere)."""
    h, fv = h_vector(cx), f_vector(cx)
    n, d = cx.n_vertices, len(h) - 1
    stacked = _stacked_f_formula(n, d)
    cases = [_verdict("hypothesis", "buchsbaum_star", "Q",
                      is_buchsbaum_star(cx, QQ)), _lower_bound(h, 2)]
    if "equality" in expects:
        cases.append(_case("equality", "lower_bound_equality", "-",
                           comb(d, 2) * h[1], d * h[2]))
    if "strict" in expects:
        cases.append(_case("strict", "lower_bound_strict", "-",
                           True, d * h[2] > comb(d, 2) * h[1]))
    if "f_formula" in expects:
        cases.append(_case("f_formula", "f_vector", "-",
                           list(stacked), list(fv)))
    if n % d == 0:
        cases.append(_case("f>=stacked", "f_vector_bound", "-",
                           True, poly_geq(fv, stacked)))
    return cases


def _h3_bound(cx, coloring, _) -> list:
    """d*h3 >= C(d,3)*h1 for d >= 4."""
    return [_lower_bound(h_vector(cx), 3)]


def _pure_inputs(seed, max_n) -> list:
    return ([e for e in corpus() if e.complex.is_pure]
            + _random_pure_corpus(seed, 100, max_n or 8))


def _swartz(cx, coloring, _) -> list:
    """Short simplicial h-number identity."""
    h = h_vector(cx)
    expected = [j * h[j] + (len(h) - j) * h[j - 1] for j in range(1, len(h))]
    return [_case("", "short_h_identity", "-", expected,
                  list(short_simplicial_h(cx)))]


def _flag_bound(cx, coloring, m, f) -> list:
    """The join of d copies of m + 1 points attains the flag h'-bound
    (1 + m t)^d; m is None for an input that exceeds it."""
    if m is None:
        return []
    return [_case("h_prime", "h_prime_extremal", f.label,
                  list(_binomial_power(m, cx.dim + 1)),
                  list(h_prime_vector(cx, f)))]


def _strict_flag_bound(cx, coloring, m) -> list:
    """A flag Buchsbaum-star complex other than a cross-polytope (m None)
    exceeds the bound (1 + t)^d strictly."""
    if m is not None:
        return []
    hp, bound = h_prime_vector(cx, QQ), _binomial_power(1, cx.dim + 1)
    versus = f"{hp} vs {bound}"
    return [_case("flag", "flag", "-", True, cx.is_flag),
            _verdict("buchsbaum_star", "buchsbaum_star", "Q",
                     is_buchsbaum_star(cx, QQ)),
            _case("h_prime>=bound", "poly_geq", "Q",
                  True, poly_geq(hp, bound), versus),
            _case("strict_excess", "poly_gt", "Q",
                  True, hp != bound and poly_geq(hp, bound), versus),
            _case("not_cross_polytope", "nonextremal", "-",
                  True, cx.n_vertices != 2 * (cx.dim + 1))]


def _euler_bound(cx, coloring, m) -> list:
    """The bound (-1)^(d-1) chi~ >= m^d is attained at the joins."""
    d = cx.dim + 1
    return [_case("(-1)^(d-1)chi", "euler_bound", "-", m ** d,
                  (-1) ** (d - 1) * reduced_euler_characteristic(cx))]


def _euler_from_betti(cx, coloring, _, f) -> list:
    return [_case("chi_consistency", "euler_from_betti", f.label,
                  reduced_euler_characteristic(cx),
                  reduced_betti(cx, f).chi_reduced())]


def _homology_manifold(cx, coloring, _) -> list:
    return [_verdict("homology_manifold", "homology_manifold", "Q",
                     is_homology_manifold(cx, QQ))]


def _star_in_characteristic(cx, coloring, p, f) -> list:
    """Buchsbaum-star over F_p only; elsewhere one vertex shows it fails."""
    rep = is_buchsbaum_star(cx, f)
    cases = [_verdict("buchsbaum_star", "buchsbaum_star", f.label, rep,
                      f.p == p)]
    if f.p != p:
        w = rep.witness
        ok = (w is not None and w.kind == "surjectivity"
              and len(w.data[0]) == 1 and revalidate_witness(cx, rep, f))
        cases.append(_case("witness_vertex", "witness", f.label, True, ok, w))
    return cases


def _oracle_inputs(seed, max_n) -> list:
    return corpus() + _random_pure_corpus(seed, 100, max_n or 7)


def _lemma_oracle(cx, coloring, _, f) -> list:
    """The first face whose contrastar and link homology disagree."""
    return [_case("", "contrastar_link_shift", f.label, None,
                  next(_link_shift_mismatches(cx, f), None))]


def _link_shift_mismatches(cx, f):
    for tau in cx.faces_sorted():
        if tau:
            rel = relative_betti_vector(cx, tau, f)
            link = reduced_betti(cx.link(tau), f)
            for i in range(-1, cx.dim + 1):
                if rel[i] != link[i - len(tau)]:
                    yield tau, i, rel[i], link[i - len(tau)]


def _hierarchy(cx, coloring, _, f) -> list:
    """Buchsbaum-star consequences; conditions (b) and (c) agree."""
    cases = []
    star = is_buchsbaum_star(cx, f)
    if star.verdict:
        if cx.dim >= 1:
            betti = reduced_betti(cx, f)
            cases.append(_case("top_betti", "nonzero_top", f.label, True,
                               betti[cx.dim] >= 1))
            links_ok = all(is_m_cm(cx.link((v,)), 2, f).verdict
                           for v in cx.vertices)
            cases.append(_case("links_2cm", "two_cm_links", f.label, True,
                               links_ok))
        cases.append(_verdict("doubly", "doubly_buchsbaum", f.label,
                              is_doubly_buchsbaum(cx, f)))
    elif star.witness is not None:
        cases.append(_case("witness_sound", "witness", f.label, True,
                           revalidate_witness(cx, star, f), star.witness))
    if is_buchsbaum(cx, f).verdict:
        faces = [tau for tau in cx.faces_sorted() if tau]
        all_c = all(top_restriction_surjective(cx, tau, f) for tau in faces)
        all_b = all(pair_restriction_surjective(cx, sigma, tau, f)
                    for tau in faces
                    for k in range(len(tau) + 1)
                    for sigma in itertools.combinations(tau, k))
        cases.append(_case("b_iff_c", "conditions_b_c", f.label, all_c,
                           all_b))
    return cases


class _Suite:
    """A suite as ``run_suite`` applies it.  ``inputs`` maps corpus ids to
    the parameter the claims read, or is a function of (seed, max_n)
    returning CorpusEntry items, whose parameter is None.  The claims
    ``once(complex, coloring, parameter)`` and ``over(complex, coloring,
    parameter, field)`` give cases with ids relative to the input.
    ``fields`` run when none are named."""

    __slots__ = ("inputs", "once", "over", "fields")

    def __init__(self, inputs, once=_no_cases, over=_no_cases,
                 fields=(QQ, GF2)):
        self.inputs, self.once, self.over = inputs, once, over
        self.fields = fields


_SUITES = {
    "stanley-hnums": _Suite(_balanced_inputs, once=_stanley),
    "rank-selection": _Suite(dict.fromkeys((
        "cross_polytope(2)", "octahedron", "cross_polytope(4)", "scps(9,3)",
        "scps(12,4)", "k33", "P(3,3)")), over=_rank_selection),
    "m-rank-selection": _Suite({"P(3,3)": 2}, over=_m_rank_selection),
    # which further cases of _balanced_lbt each input expects
    "balanced-lbt": _Suite({
        "octahedron": (), "cross_polytope(4)": (),
        "scps(9,3)": ("equality", "f_formula"), "scps(12,3)": ("f_formula",),
        "scps(12,4)": ("equality",), "scps(8,4)": ("f_formula",),
        "P(3,3)": ("strict",), "suspended_hexagon": ()}, once=_balanced_lbt),
    "h3-bound": _Suite(dict.fromkeys(("cross_polytope(4)", "scps(12,4)",
                                      "scps(8,4)")), once=_h3_bound),
    "swartz-identity": _Suite(_pure_inputs, once=_swartz),
    # m of the joins of d copies of m + 1 points, where (1 + m t)^d is
    # attained, and None for a flag complex that exceeds (1 + t)^d
    "flag-lower-bound": _Suite({"k33": 2, "P(3,3)": 2, "octahedron": 1,
                                "suspended_hexagon": None},
                               once=_strict_flag_bound, over=_flag_bound),
    "euler-corollary": _Suite({"k33": 2, "P(3,3)": 2}, once=_euler_bound,
                              over=_euler_from_betti),
    # the characteristic of the only fields where rp2_min is Buchsbaum-star
    "orientability-rp2": _Suite({"rp2_min": 2}, once=_homology_manifold,
                                over=_star_in_characteristic,
                                fields=(GF2, QQ, GF3)),
    "lemma-oracle": _Suite(_oracle_inputs, over=_lemma_oracle),
    "hierarchy": _Suite(lambda seed, max_n: corpus(), over=_hierarchy),
}


def suite_names() -> list:
    return sorted(_SUITES)


def run_suite(name: str, fields=None, seed: int = 0,
              max_n: int | None = None) -> SuiteReport:
    """Run one registered suite deterministically and return its report.
    ``max_n`` bounds the vertex count of the random inputs; the smallest
    value every suite accepts is 3.  A field may be given once only."""
    if name not in _SUITES:
        raise UnknownSuiteError(name)
    if max_n is not None and max_n < 3:
        raise ValueError(f"max_n must be at least 3, got {max_n}")
    suite = _SUITES[name]
    fields = suite.fields if fields is None else tuple(fields)
    labels = tuple(f.label for f in fields)
    if len(set(labels)) < len(labels):
        raise ValueError(f"field {max(labels, key=labels.count)} "
                         f"is given more than once")
    start = time.perf_counter()
    items = ([(entry, None) for entry in suite.inputs(seed, max_n)]
             if callable(suite.inputs) else
             [(_entry(cid), p) for cid, p in suite.inputs.items()])

    def work(item):
        entry, parameter = item
        args, cid = (entry.complex, entry.coloring, parameter), entry.cid

        def under(cases):  # prefixed before _for_every_field copies them
            return [CaseRecord(f"{cid}|{c.case_id}" if c.case_id else cid,
                               *c._values()[1:]) for c in cases]
        return under(suite.once(*args)) + _for_every_field(
            fields, lambda f: under(suite.over(*args, f)))

    cases = [case for item in items for case in work(item)]
    duration = time.perf_counter() - start
    cases.sort(key=lambda c: (c.case_id, c.prop, c.field))
    return SuiteReport(name, __version__, labels, seed, max_n,
                       all(c.passed for c in cases), duration, cases, (),
                       False)


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
    notes = (f"target h = {h_target} from the skeleton-join sphere",
             "empirical probe only; the question is not resolved")
    return SuiteReport(f"explore(m={m},i={i},d={d})", __version__,
                       (field.label,), seed, n_max,
                       all(c.passed for c in cases),
                       time.perf_counter() - start, cases, notes, incomplete)


def _nonempty_subsets(pool):
    for mask in range(1, 2 ** len(pool)):
        yield [pool[k] for k in range(len(pool)) if mask >> k & 1]
