"""Acceptance gate: one test per criterion, each run at its stated
tolerance (all values are exact integers or booleans) and within its
stated runtime budget where one is given.  Each test prints a single
PASS/FAIL line."""

import itertools
import json
import time

from bstar import build, parse_text, run_suite
from bstar.cli import main


def _run(suite_name, label, budget=None, **kwargs):
    start = time.perf_counter()
    report = run_suite(suite_name, **kwargs)
    elapsed = time.perf_counter() - start
    verdict = "PASS" if report.passed else "FAIL"
    print(f"{verdict} {label} ({elapsed:.2f}s, "
          f"{sum(c.passed for c in report.cases)}/{len(report.cases)} cases)")
    assert report.passed, "\n" + report.render_text()
    if budget is not None:
        assert elapsed < budget, f"{label}: {elapsed:.2f}s over {budget}s budget"
    return report


def test_criterion_01_stanley_rank_selection_identity():
    _run("stanley-hnums",
         "criterion 1: h_i(D) = sum over |S|=i of h_i(D_S) on the balanced corpus",
         budget=5.0)


def test_criterion_02_rank_selection_preserves_buchsbaum_star():
    _run("rank-selection",
         "criterion 2: rank-selected subcomplexes stay Buchsbaum* (Q and F2)",
         budget=60.0)


def test_criterion_03_rank_selection_preserves_m_buchsbaum_star():
    _run("m-rank-selection",
         "criterion 3: rank selection preserves 2-Buchsbaum* on the 3-fold join",
         budget=30.0)


def test_criterion_04_balanced_lower_bound_theorem():
    _run("balanced-lbt",
         "criterion 4: d*h2 >= C(d,2)*h1 with stacked-sphere equality and "
         "f-vector formula")


def test_criterion_05_h3_lower_bound():
    _run("h3-bound", "criterion 5: d*h3 >= C(d,3)*h1 for d >= 4 fixtures")


def test_criterion_06_short_simplicial_h_identity():
    _run("swartz-identity",
         "criterion 6: link-sum identity for short simplicial h-numbers")


def test_criterion_07_flag_bound_and_equality_cases():
    _run("flag-lower-bound",
         "criterion 7: flag h'-bound (1+mt)^d, equality joins, strict "
         "non-extremal fixture")


def test_criterion_08_euler_characteristic_corollary():
    _run("euler-corollary",
         "criterion 8: (-1)^(d-1) chi~ reaches m^d on the extremal joins")


def test_criterion_09_orientability_field_dependence():
    _run("orientability-rp2",
         "criterion 9: projective plane Buchsbaum* over F2 only, with "
         "vertex witnesses", budget=5.0)


def test_criterion_10_relative_homology_link_shift():
    _run("lemma-oracle",
         "criterion 10: relative contrastar homology equals shifted link "
         "homology everywhere", budget=60.0)


def test_criterion_11_property_hierarchy():
    _run("hierarchy",
         "criterion 11: Buchsbaum* consequences and exhaustive (b)/(c) "
         "agreement")


def _timed(label, budget, make):
    start = time.perf_counter()
    out = make()
    elapsed = time.perf_counter() - start
    print(f"{'PASS' if elapsed < budget else 'FAIL'} {label} ({elapsed:.2f}s)")
    assert elapsed < budget, f"{label}: {elapsed:.2f}s over {budget}s budget"
    return out


def test_scale_parse_long_path():
    text = json.dumps({"facets": [[i, i + 1] for i in range(10000)]})
    cf = _timed("scale: parse a 10,000-edge path", 2.0,
                lambda: parse_text(text))
    assert len(cf.complex.facets) == 10000 and cf.complex.n_vertices == 10001


def test_scale_build_all_triangles_on_40_vertices():
    c = _timed("scale: build the 9,880 triangles on 40 vertices", 2.0,
               lambda: build(itertools.combinations(range(40), 3)))
    assert len(c.facets) == 9880 and c.vertices == tuple(range(40))


def test_scale_parse_long_path_with_its_vertices():
    # a file listing every face, not only the facets: 10,001 dominated
    # vertices meet 10,000 larger faces
    faces = [[i, i + 1] for i in range(10000)] + [[i] for i in range(10001)]
    text = json.dumps({"facets": faces})
    cf = _timed("scale: parse a 10,000-edge path listed with its vertices",
                2.0, lambda: parse_text(text))
    assert len(cf.complex.facets) == 10000 and cf.complex.n_vertices == 10001


def test_scale_skeleton_join_sphere_on_a_20_simplex(tmp_path):
    # the 1-skeleton of the 20-simplex: 210 edges, not the 2^21 faces of
    # the simplex
    out = tmp_path / "sjs.json"
    code = _timed("scale: construct skeleton-join-sphere 20 2 2", 2.0,
                  lambda: main(["construct", "skeleton-join-sphere", "20",
                                "2", "2", "-o", str(out)]))
    cx = parse_text(out.read_text()).complex
    assert code == 0 and len(cx.facets) == 210 and cx.n_vertices == 21


def test_scale_rank_select_long_path(tmp_path):
    # every vertex of an alternately coloured 20,000-edge path survives
    # selecting both colours; keeping their colours is one set lookup each
    n = 20000
    src, out = tmp_path / "path.json", tmp_path / "selected.json"
    src.write_text(json.dumps({
        "facets": [[i, i + 1] for i in range(n)],
        "coloring": {str(i): i % 2 + 1 for i in range(n + 1)}}))
    code = _timed("scale: rank-select both colours of a 20,000-edge path",
                  2.0, lambda: main(["rank-select", str(src), "--colors", "1,2",
                                     "-o", str(out)]))
    doc = json.loads(out.read_text())
    assert code == 0 and len(doc["facets"]) == n and len(doc["coloring"]) == n + 1
