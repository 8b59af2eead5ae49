"""Re-runnable mutation checks, kept out of the tier-1 run.

    python tests/mutants.py

Each entry of MUTANTS is (file under src/bstar, an exact snippet of that
file, its replacement, the ids of the tests that must fail).  For each
entry the script copies src/ and tests/ to a temporary directory, replaces
the snippet, which must occur exactly once, and runs the named tests on
the copy.  The mutant is killed when every named test fails.  First the
named tests run on an unpatched copy, where every one must pass, so that a
kill shows the mutation and not a broken test.

Prints one line per mutant and exits 1 if a mutant survives, a snippet no
longer matches or a named test fails unpatched.  It needs only the
standard library and pytest (and the tests' own dependencies).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

COMPLEXES = "tests/test_complexes.py::"
HOMOLOGY = "tests/test_homology.py::"
LEDGER = ("tests/test_ledger.py::test_ledger_digest[cold]",
          "tests/test_ledger.py::test_ledger_digest[warm]")
LINALG = "tests/test_linalg.py::"
PROPERTIES = "tests/test_properties.py::"
SUITES = "tests/test_suites.py::"

MUTANTS = {
    "memo returns a marked value without moving the counter": (
        "homology.py",
        """            if type(value) is _FieldDependent:
                _depends_on_field()
                return value.value""",
        """            if type(value) is _FieldDependent:
                return value.value""",
        (HOMOLOGY + "test_entries_that_depended_on_the_field_are_recorded",
         HOMOLOGY + "test_threads_never_hide_a_field_dependent_entry",
         PROPERTIES + "test_reports_that_depended_on_the_field_are_recorded",
         PROPERTIES
         + "test_subdivided_projective_plane_is_buchsbaum_star_over_f2_only",
         SUITES + "test_suite_reports_are_byte_identical"),
    ),
    "memo stores every value unmarked": (
        "homology.py",
        """                value = _store(key, value if _field_dependence() == before
                               else _FieldDependent(value))""",
        """                value = _store(key, value)""",
        (HOMOLOGY + "test_entries_that_depended_on_the_field_are_recorded",
         HOMOLOGY + "test_the_record_leaves_with_evicted_entries",
         HOMOLOGY + "test_threads_never_hide_a_field_dependent_entry",
         PROPERTIES + "test_reports_that_depended_on_the_field_are_recorded",
         PROPERTIES
         + "test_subdivided_projective_plane_is_buchsbaum_star_over_f2_only",
         SUITES + "test_suite_reports_are_byte_identical"),
    ),
    "every field copies the first field's cases": (
        "suites.py",
        """    if _field_dependence() != before:
        return first + [case for f in fields[1:] for case in cases_over(f)]""",
        """    if False:
        return first + [case for f in fields[1:] for case in cases_over(f)]""",
        (SUITES + "test_suite_reports_are_byte_identical",
         SUITES + "test_torsion_complexes_are_computed_per_field",
         SUITES + "test_three_fields_give_the_cases_of_three_single_field_runs"
         "[hierarchy]",
         SUITES + "test_three_fields_give_the_cases_of_three_single_field_runs"
         "[orientability-rp2]",
         SUITES + "test_three_fields_give_the_cases_of_three_single_field_runs"
         "[rank-selection]"),
    ),
    "the report memo stores witnesses in labels": (
        "properties.py",
        """            return report.verdict, _map_witness(report.witness,
                                                c._positions().__getitem__)""",
        """            return report.verdict, report.witness""",
        (PROPERTIES + "test_shared_cm_witness_is_in_the_queried_labels",
         PROPERTIES + "test_shared_nested_witnesses_are_in_the_queried_labels",
         PROPERTIES + "test_buchsbaum"),
    ),
    "run_suite joins the input id and the case id without a bar": (
        "suites.py",
        """            return [CaseRecord(f"{cid}|{c.case_id}" if c.case_id else cid,""",
        """            return [CaseRecord(f"{cid}{c.case_id}" if c.case_id else cid,""",
        (SUITES + "test_suite_reports_are_byte_identical",
         SUITES + "test_claims_read_no_corpus_id"),
    ),
    "the Cohen-Macaulay degree bound off by one": (
        "properties.py",
        """    top = link.dim if sphere else link.dim - 1""",
        """    top = link.dim if sphere else link.dim - 2""",
        (PROPERTIES + "test_cm_disconnected_fails_with_witness",
         PROPERTIES + "test_cm_verdict_and_witness_match_the_plain_scan"),
    ),
    "the Cohen-Macaulay witness comes from the first failing vertex, "
    "not the least face": (
        "properties.py",
        """        least = min(least, found) if least else found""",
        """        least = least or found""",
        (PROPERTIES + "test_cm_verdict_and_witness_match_the_plain_scan",),
    ),
    "the manifold check skips the Betti numbers of a vertex link": (
        "properties.py",
        """        if sphere and (bad := _link_defect(link, field, True)) is not None:""",
        """        if False and (bad := _link_defect(link, field, True)) is not None:""",
        (PROPERTIES + "test_homology_manifold",
         PROPERTIES + "test_manifold_verdict_and_witness_match_the_plain_scan"),
    ),
    "a face's star keeps its parent's faces": (
        "homology.py",
        """                deg: [i for i in parent[deg] if masks[deg + 1][i] & bit]""",
        """                deg: parent[deg]""",
        (HOMOLOGY + "test_stars_match_the_scan_at_every_face",
         HOMOLOGY + "test_sweep_matches_the_scan_at_every_face",
         HOMOLOGY + "test_restriction_maps_match_rank_nullity_oracle",
         HOMOLOGY + "test_lemma_relative_equals_shifted_link",
         SUITES + "test_suite_reports_are_byte_identical"),
    ),
    "kernel_basis reduces F_p entries mod p": (
        "linalg.py",
        """        solved = {position[j]: -v * ratio for j, v in row.items() if j != lead}""",
        """        solved = {position[j]: -v * ratio % field.p if field.p else -v * ratio
                  for j, v in row.items() if j != lead}""",
        (LINALG + "test_rank_and_kernel_match_sympy_on_both_paths",
         PROPERTIES
         + "test_isolated_points_are_buchsbaum_star_over_every_field_alike",
         PROPERTIES
         + "test_subdivided_projective_plane_is_buchsbaum_star_over_f2_only"),
    ),
    "Matrix accepts entries that are not ints": (
        "linalg.py",
        """                if type(v) is not int:
                    raise TypeError(f"entry ({i},{j}) is {v!r}, not an int")
""",
        "",
        (LINALG + "test_entries_must_be_ints",),
    ),
    "the thin rank takes only 1, not -1, for a unit": (
        "linalg.py",
        """        if 1 in values or -1 in values:""",
        """        if 1 in values:""",
        (LINALG + "test_fallbacks_move_the_field_dependence_counter",),
    ),
    "missing_faces skips its proper-subset check": (
        "complexes.py",
        """sub in fs for sub""",
        """sub in fs or True for sub""",
        (COMPLEXES + "test_missing_faces_examples",
         COMPLEXES + "test_missing_faces_match_the_label_scan", *LEDGER),
    ),
    "rank_selected deletes the selected colours instead of the others": (
        "properties.py",
        """coloring.assignment[v] not in s])""",
        """coloring.assignment[v] in s])""",
        (PROPERTIES + "test_rank_selected",
         PROPERTIES + "test_rank_selection_matches_the_built_selection",
         *LEDGER),
    ),
}


def _failed(workdir: str, ids) -> set:
    """The ids among ``ids`` that fail when run on the copy in workdir."""
    env = {**os.environ, "PYTHONPATH": os.path.join(workdir, "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
         *ids], cwd=workdir, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True, timeout=900)
    failed = {line.split()[1] for line in run.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))}
    if run.returncode not in (0, 1) or (run.returncode == 1) != bool(failed):
        raise RuntimeError(f"pytest exited {run.returncode}:\n{run.stdout}")
    return failed & set(ids)


def _copy(workdir: str) -> None:
    for part in ("src", "tests"):
        shutil.copytree(os.path.join(ROOT, part), os.path.join(workdir, part),
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), workdir)


def main() -> int:
    bad = 0
    with tempfile.TemporaryDirectory() as base:
        clean = os.path.join(base, "clean")
        _copy(clean)
        ids = sorted({i for *_, tests in MUTANTS.values() for i in tests})
        broken = _failed(clean, ids)
        if broken:
            print(f"fail unpatched: {sorted(broken)}")
            return 1
        for k, (name, (file, old, new, tests)) in enumerate(MUTANTS.items()):
            workdir = os.path.join(base, str(k))
            _copy(workdir)
            path = os.path.join(workdir, "src", "bstar", file)
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            if text.count(old) != 1:
                print(f"NO MATCH  {name}: the snippet occurs "
                      f"{text.count(old)} times in {file}")
                bad += 1
                continue
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text.replace(old, new))
            survived = sorted(set(tests) - _failed(workdir, tests))
            print(f"{'SURVIVED' if survived else 'killed  '}  {name}"
                  + "".join(f"\n    passed: {t}" for t in survived))
            bad += bool(survived)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
