import hashlib
import json
import os
import signal
import subprocess
import sys
import threading

import pytest

import bstar
import bstar.cli
from bstar import (GF, GF2, GF3, QQ, InfeasibleParameterError, InvariantError,
                   UnknownSuiteError, __version__, build, clear_caches,
                   corpus, explore_question, random_balanced_complex,
                   random_pure_complex, run_suite, suite_names)
from bstar import suites
from bstar.linalg import _depends_on_field
from bstar.suites import CorpusEntry

from oracles import TORSION_FACETS, check_frozen_record


def test_unknown_suite():
    with pytest.raises(UnknownSuiteError):
        run_suite("no-such-suite")


def test_random_pure_complex_determinism():
    a = random_pure_complex(7, 6, 2, 5)
    b = random_pure_complex(7, 6, 2, 5)
    assert a == b
    c = random_pure_complex(8, 6, 2, 5)
    assert a != c
    assert a.is_pure and a.dim == 2 and len(a.facets) == 5


def test_random_pure_complex_full_skeleton():
    full = random_pure_complex(0, 5, 1, 10)
    assert len(full.faces_of_dim(1)) == 10  # the whole K_5 one-skeleton
    assert full.n_vertices == 5


def test_random_pure_complex_infeasible():
    with pytest.raises(InfeasibleParameterError):
        random_pure_complex(0, 4, 2, 5)
    with pytest.raises(InfeasibleParameterError):
        random_pure_complex(0, 3, 3, 1)
    with pytest.raises(InfeasibleParameterError):
        random_pure_complex(0, 4, 1, 0)


def test_random_balanced_complex_validates():
    for seed in range(10):
        cx, coloring = random_balanced_complex(seed)
        coloring.validate(cx)
        assert cx.is_pure
        assert cx.dim == coloring.d - 1
        assert cx.n_vertices <= 8


def test_suite_determinism_and_metadata():
    a = run_suite("stanley-hnums", seed=3)
    b = run_suite("stanley-hnums", seed=3)
    da, db = a.to_dict(), b.to_dict()
    da.pop("duration_s"), db.pop("duration_s")
    assert da == db
    assert a.version == __version__
    assert a.seed == 3
    assert "Q" in a.fields


def test_report_renderings_carry_same_verdicts():
    rep = run_suite("euler-corollary")
    text = rep.render_text()
    assert ("PASS" in text) == rep.passed
    for case in rep.cases:
        assert case.case_id in text
    assert [c.case_id for c in rep.cases] == \
        sorted(c.case_id for c in rep.cases)


def test_corpus_entries_are_usable():
    entries = corpus()
    ids = {e.cid for e in entries}
    assert {"octahedron", "rp2_min", "scps(12,4)", "P(3,3)"} <= ids
    for e in entries:
        assert not e.complex.is_void
        if e.coloring is not None:
            e.coloring.validate(e.complex)


def test_explorer_exhaustive_small_flag_case():
    rep = explore_question(2, 1, 2, n_max=5)
    assert rep.passed
    assert not rep.incomplete
    assert any("no_violation" in c.case_id for c in rep.cases)
    assert any("not resolved" in note for note in rep.notes)


def test_explorer_samples_when_too_large():
    rep = explore_question(2, 1, 2, n_max=8, sample_budget=5,
                           max_enumeration=1 << 10)
    assert rep.incomplete


def test_explorer_dimension_three():
    rep = explore_question(2, 2, 3, n_max=5)
    assert rep.passed and not rep.incomplete


def test_suite_field_override():
    rep = run_suite("rank-selection", fields=(GF2,))
    assert rep.fields == ("F2",)
    assert rep.passed


def test_explorer_exhaustive_six_vertex_graphs():
    # the flag (i = 1) graph case is fully enumerable through six vertices;
    # every 2-CM triangle-free graph satisfies the 4-cycle h-bound
    rep = explore_question(2, 1, 2, n_max=6)
    assert rep.passed and not rep.incomplete
    summary = [c for c in rep.cases if "no_violation" in c.case_id]
    assert summary and "checked=" in summary[0].case_id


# SHA-256 of json.dumps(to_dict() without duration_s, sort_keys=True,
# separators=(",", ":")) per (suite, seed).  Any change to a verdict,
# witness, case id or note of any suite changes its digest; a deliberate
# change to a report updates these literals in the same commit.
SUITE_DIGESTS = {
    ("balanced-lbt", 0): "d1fd6fe23b598371099a94b646678f6009f3c2000a48015abe453e5d87208474",
    ("balanced-lbt", 1): "1b2b27e098beb9dec910b8c1cb7e428a0ee0e845e6abfb236beae1a252318701",
    ("euler-corollary", 0): "385e24b51349c4e54094da598452f405d515433c6c1efb5aede2b37b91a124a9",
    ("euler-corollary", 1): "9006dcae337ed23939321795702c718eeb07ca25dea85febeecdf11398867103",
    ("flag-lower-bound", 0): "c3b34bf8abffc9f8127129ebf1af4c651b5b9b398fc7cdf320f97a513786ef6a",
    ("flag-lower-bound", 1): "79dff2c3771accb4cff5961c502cdf74f440250bbc96eb33c95156ca804fcc2f",
    ("h3-bound", 0): "86b75fa77fc134d77e3196e4bd4dd7bad4e05159e4b4ba89473514dc03546071",
    ("h3-bound", 1): "b7ee7482fc606da8384825506a6749acb56201dd9a3db9e3a716b0e293c535ba",
    ("hierarchy", 0): "f5e43e658aa2d013b2ec873c99375724c97d58bccb1a63e34eee0e6a2198a005",
    ("hierarchy", 1): "5540e54c96812d5084b48a023baf9b6c915ebed6410daf0e476744931f580801",
    ("lemma-oracle", 0): "83b4c65ee4d7fe56ebb138c8347fc8ae56bbbd0da0b6ad67c85c3d4a26a1264e",
    ("lemma-oracle", 1): "857019eb8efcaa22fb3efdd62beaa69c593a076e439a7cb129e966c085500a85",
    ("m-rank-selection", 0): "cddee98ffe9326e4a7d5d0553546c25445b180e04990d39a39bca1aa68e1f5b1",
    ("m-rank-selection", 1): "76d2b2cc95438ca5a341c44281817075e51adfeb0635f8cf1febad9a995d8bdc",
    ("orientability-rp2", 0): "c9774c4d3fa7d8b272fbcb336c1bd8e952c6c0a611b5a0fe8f6ac95d7de8f0cf",
    ("orientability-rp2", 1): "2dba3a31c0dc6c5e3c648b6f31b99a2c4ce8b45ef5a5d3ce0067f4ed73d463eb",
    ("rank-selection", 0): "88b8d7bfa44fe7e991c989dd097676b90b090171252c90ef85f246b9d0badfc3",
    ("rank-selection", 1): "9e4e4e4594c9faaf9d47d66364cebf048d824a381da57b03cc3e2940d8997b4b",
    ("stanley-hnums", 0): "b61e7f356279e0fec4bd026a0df00990ef3a85032bf93317f01ea77c273f39ff",
    ("stanley-hnums", 1): "74f4947f745c7d4963aa9aeb15e73b90692dd033bb23778eaeabc8caa3213713",
    ("swartz-identity", 0): "3cab74a8976153766d2a6be5b7af1058eb030793a20c42f66006c2b84d3ec2a9",
    ("swartz-identity", 1): "ed42d44b0cde8a34d2f7ccb6b34d185744b8a0d80e42acdae1b38c4608c4aecf",
}


def _digest(report) -> str:
    d = report.to_dict()
    d.pop("duration_s")
    text = json.dumps(d, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_suite_reports_are_byte_identical():
    assert sorted({name for name, _ in SUITE_DIGESTS}) == suite_names()
    got = {(name, seed): _digest(run_suite(name, seed=seed))
           for name, seed in SUITE_DIGESTS}
    assert got == SUITE_DIGESTS


def test_claims_read_no_corpus_id(monkeypatch):
    # each claim is a function of one complex: with every corpus id
    # renamed, each suite gives the same cases, their ids prefixed alike
    entries = {e.cid: e for e in corpus()}
    reports = {(name, seed): run_suite(name, seed=seed)
               for name in suite_names() for seed in (0, 1)}

    def renamed(entry):
        return CorpusEntry("x-" + entry.cid, entry.complex, entry.coloring)

    monkeypatch.setattr(suites, "corpus",
                        lambda: [*map(renamed, entries.values())])
    monkeypatch.setattr(suites, "_entry", lambda cid: renamed(entries[cid]))
    for (name, seed), report in reports.items():
        expected = [suites.CaseRecord(
            "x-" + c.case_id if c.case_id.split("|")[0] in entries
            else c.case_id, *(getattr(c, k) for k in CASE_KEYS[1:]))
            for c in report.cases]
        expected.sort(key=lambda c: (c.case_id, c.prop, c.field))
        assert run_suite(name, seed=seed).cases == expected, (name, seed)


# lemma-oracle and hierarchy run their second field in a forked child when
# two CPUs are usable.  These tests report two usable CPUs, so the fork is
# taken on a one-core host as well.
needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")


def _two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)


def _reaped(monkeypatch) -> list:
    """Wrap os.waitpid to collect the wait status of each child it reaps."""
    real = os.waitpid
    statuses = []

    def waitpid(pid, options):
        reaped, status = real(pid, options)
        if reaped:
            statuses.append(status)
        return reaped, status

    monkeypatch.setattr(os, "waitpid", waitpid)
    return statuses


def _lemma_and_hierarchy_reports():
    out = {}
    for name in ("lemma-oracle", "hierarchy"):
        for seed in (0, 1):
            clear_caches()
            d = run_suite(name, seed=seed).to_dict()
            d.pop("duration_s")
            out[name, seed] = d
    return out


@needs_fork
def test_forked_and_serial_runs_give_identical_reports(monkeypatch):
    _two_cpus(monkeypatch)
    real_fork = os.fork
    forks = []

    def counting_fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    statuses = _reaped(monkeypatch)
    forked = _lemma_and_hierarchy_reports()
    assert len(forks) == 4
    assert statuses == [0] * 4  # each child left through os._exit(0)

    # With another thread alive the fields run in this process: a fork
    # would raise here.
    def no_fork():
        raise AssertionError("forked while another thread was alive")

    monkeypatch.setattr(os, "fork", no_fork)
    stop = threading.Event()
    idle = threading.Thread(target=stop.wait)
    idle.start()
    try:
        serial = _lemma_and_hierarchy_reports()
    finally:
        stop.set()
        idle.join(timeout=10)
    assert not idle.is_alive()
    assert serial == forked


@needs_fork
@pytest.mark.parametrize("failing", ["parent", "child"])
def test_worker_error_reaches_the_caller_and_leaves_no_child(monkeypatch,
                                                             failing):
    # the complexes are dealt to this process and to one forked child;
    # the error is raised on those dealt to one of them
    _two_cpus(monkeypatch)
    parent = os.getpid()
    real = suites.relative_betti_vector

    def fails_in_one_process(cx, tau, field):
        if (os.getpid() == parent) == (failing == "parent"):
            raise InvariantError(f"{failing} fails on purpose")
        return real(cx, tau, field)

    monkeypatch.setattr(suites, "relative_betti_vector", fails_in_one_process)
    statuses = _reaped(monkeypatch)
    clear_caches()
    with pytest.raises(InvariantError, match=f"{failing} fails on purpose"):
        run_suite("lemma-oracle")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    # The child left through os._exit(0).  A child whose result has been
    # read is never killed; one that may still be writing, when this
    # process fails first, may be.
    assert len(statuses) == 1
    assert statuses[0] == 0 or (failing == "parent" and
                                os.WIFSIGNALED(statuses[0]) and
                                os.WTERMSIG(statuses[0]) == signal.SIGKILL)


def _cases(*reports):
    return {c for r in reports for c in r.cases}


def _mark_cases_over_fields(monkeypatch):
    """Make every case that names a field depend on it: its ``got`` carries
    the field, and making it moves the field-dependence counter, so that
    the cases of one field may no longer stand for another's."""
    real = suites._case

    def case(case_id, prop, field_label, expected, got, witness=None):
        if field_label != "-":
            _depends_on_field()
            got = (got, field_label)
        return real(case_id, prop, field_label, expected, got, witness)

    monkeypatch.setattr(suites, "_case", case)


@pytest.mark.parametrize("name", suite_names())
def test_three_fields_give_the_cases_of_three_single_field_runs(name,
                                                                monkeypatch):
    # a joint run reuses the first field's cases where no rank depended on
    # the field; its cases are those of single-field runs either way, the
    # cases given once (free of the field or pinned to Q) among them
    fields = (QQ, GF2, GF3)
    for marked in (False, True):
        if marked:
            _mark_cases_over_fields(monkeypatch)
        clear_caches()
        joint = run_suite(name, fields=fields)
        keys = [(c.case_id, c.prop, c.field) for c in joint.cases]
        assert len(keys) == len(set(keys))
        single = [run_suite(name, fields=(f,)) for f in fields]
        assert _cases(joint) == _cases(*single)
        once = _cases(run_suite(name, fields=()))
        assert once == set.intersection(*map(_cases, single))
        clear_caches()
        assert _cases(run_suite(name, fields=(GF2, QQ))) == _cases(*single[:2])
    clear_caches()


def test_orientability_runs_the_fields_it_is_given():
    only_q = run_suite("orientability-rp2", fields=(QQ,))
    assert only_q.fields == ("Q",) and only_q.passed
    assert {c.field for c in only_q.cases} == {"Q"}
    f5 = run_suite("orientability-rp2", fields=(GF(5),))
    assert f5.passed and {c.field for c in f5.cases} == {"Q", "F5"}
    assert [(c.expected, c.got) for c in f5.cases
            if c.prop == "buchsbaum_star"] == [("False", "False")]
    assert run_suite("orientability-rp2").fields == ("F2", "Q", "F3")
    with pytest.raises(ValueError, match="field F2 is given more than once"):
        run_suite("orientability-rp2", fields=(GF2, QQ, GF2))


def test_torsion_complexes_are_computed_per_field(monkeypatch):
    # cases are reused across fields only where no rank depended on the
    # field: never for the cone over the torsion complex (the link of its
    # apex has torsion), nor for rp2_min in hierarchy
    cone = build([f + ("apex",) for f in TORSION_FACETS])
    entries = [CorpusEntry("torsion_cone", cone, None),
               suites._entry("rp2_min"), suites._entry("octahedron")]
    monkeypatch.setattr(suites, "corpus", lambda: list(entries))
    monkeypatch.setattr(suites, "_random_pure_corpus", lambda *args: [])
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)  # serial: the spies see every call
    seen = {}

    def spy(name):
        real = getattr(suites, name)

        def record(cx, *args):
            seen.setdefault(cx.facets, set()).add(args[-1].label)
            return real(cx, *args)

        monkeypatch.setattr(suites, name, record)

    spy("relative_betti_vector")
    spy("is_buchsbaum_star")
    fields = (QQ, GF2, GF3)
    for name in ("lemma-oracle", "hierarchy"):
        seen.clear()
        clear_caches()
        joint = run_suite(name, fields=fields)
        assert seen.pop(cone.facets) == {"Q", "F2", "F3"}
        rp2_fields = seen.pop(suites._entry("rp2_min").complex.facets)
        if name == "hierarchy":
            assert rp2_fields == {"Q", "F2", "F3"}
        assert seen == {suites._entry("octahedron").complex.facets: {"Q"}}
        single = [run_suite(name, fields=(f,)) for f in fields]
        assert _cases(joint) == _cases(*single)
    clear_caches()


def test_verify_all_prints_each_report_once():
    # Piped stdout is block-buffered (PYTHONUNBUFFERED is dropped): a child
    # that flushed its copy of the parent's buffer on its way out would
    # print earlier reports twice.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.path.dirname(
        os.path.dirname(os.path.abspath(bstar.__file__)))
    run = subprocess.run([sys.executable, "-m", "bstar.cli", "verify", "all"],
                         stdout=subprocess.PIPE, text=True, timeout=300,
                         env=env)
    assert run.returncode == 0
    headers = [line.split()[1] for line in run.stdout.splitlines()
               if line.startswith("suite ")]
    assert headers == suite_names()


REPORT_KEYS = ["suite", "version", "fields", "seed", "max_n", "passed",
               "duration_s", "cases", "notes", "incomplete"]
CASE_KEYS = ["case_id", "prop", "field", "expected", "got", "witness", "passed"]


def test_report_dicts_keep_their_key_order(capsys):
    # the digests above sort their keys; verify --json does not
    d = run_suite("orientability-rp2").to_dict()
    assert list(d) == REPORT_KEYS
    assert d["cases"] and all(list(c) == CASE_KEYS for c in d["cases"])
    assert bstar.cli.main(["verify", "orientability-rp2", "--json"]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert list(printed) == REPORT_KEYS
    assert all(list(c) == CASE_KEYS for c in printed["cases"])


def test_case_and_corpus_records_are_frozen():
    case = run_suite("orientability-rp2").cases[0]
    twin = suites.CaseRecord(*(getattr(case, k) for k in CASE_KEYS))
    check_frozen_record(case, twin)
    assert repr(case).startswith(f"CaseRecord(case_id={case.case_id!r}, prop=")
    entry = suites._entry("bowtie2d")
    check_frozen_record(entry, suites.CorpusEntry("bowtie2d", entry.complex, None))
    assert repr(entry) == ("CorpusEntry(cid='bowtie2d', complex=Complex([[1, 2, 3], "
                           "[3, 4, 5]]), coloring=None)")


def test_suite_report_is_a_mutable_record():
    rep = run_suite("orientability-rp2")
    twin = suites.SuiteReport(**{k: getattr(rep, k) for k in REPORT_KEYS})
    assert rep == twin and rep.notes == () and not rep.incomplete
    twin.duration_s = -1.0
    assert rep != twin
    with pytest.raises(TypeError):
        hash(rep)
