import json
import os

import pytest

from bstar import (ComplexFile, ComplexFileError, build, clear_caches,
                   cross_polytope, emit, emit_text, homology, parse,
                   parse_text)
from bstar.cli import main, parse_field
from bstar.linalg import GF2, GF3, QQ


def test_parse_minimal_document(triangle_boundary):
    cf = parse_text('{"facets": [[1, 2], [2, 3], [1, 3]]}')
    assert cf.complex == triangle_boundary
    assert cf.coloring is None and cf.name is None


def test_parse_coloring_violation_names_edge():
    with pytest.raises(ComplexFileError) as err:
        parse_text('{"facets": [[1, 2]], "coloring": {"1": 1, "2": 1}}')
    assert "edge [1, 2]" in str(err.value)


def test_parse_reports_position():
    with pytest.raises(ComplexFileError) as err:
        parse_text('{"facets": [[1, 2],]}', source="bad.json")
    assert str(err.value).startswith("bad.json:1:")


def test_parse_rejects_bad_labels():
    with pytest.raises(ComplexFileError):
        parse_text('{"facets": [[-1, 2]]}')
    with pytest.raises(ComplexFileError):
        parse_text('{"facets": [[1.5]]}')
    with pytest.raises(ComplexFileError):
        parse_text('{"facets": [[true]]}')
    with pytest.raises(ComplexFileError):
        parse_text('{"facets": [[1, 1]]}')
    with pytest.raises(ComplexFileError):
        parse_text('{"facets": [[1]], "coloring": {"9": 1}}')


def test_emit_parse_roundtrip(tmp_path):
    octa, coloring = cross_polytope(3)
    cf = ComplexFile(octa, coloring, name="octahedron",
                     metadata={"note": "fixture"})
    path = tmp_path / "octa.json"
    emit(cf, path)
    back = parse(path)
    assert back.complex == octa
    assert back.coloring.assignment == coloring.assignment
    assert back.name == "octahedron" and back.metadata == {"note": "fixture"}
    # canonical emission is a fixed point
    assert emit_text(back) == emit_text(cf)


def test_integer_coloring_keys_roundtrip(tmp_path):
    c = build([(1, 2), (2, 3)])
    from bstar import Coloring
    coloring = Coloring({1: 1, 2: 2, 3: 1}, 2)
    path = tmp_path / "path.json"
    emit(ComplexFile(c, coloring), path)
    back = parse(path)
    assert back.coloring.assignment == {1: 1, 2: 2, 3: 1}


def test_parse_field_strings():
    assert parse_field("q") is QQ
    assert parse_field("F2") is GF2
    assert parse_field("f3") is GF3
    assert parse_field("7").label == "F7"
    import argparse
    with pytest.raises(argparse.ArgumentTypeError):
        parse_field("f4")


def test_cli_construct_vectors_homology(tmp_path, capsys):
    out = tmp_path / "octa.json"
    assert main(["construct", "cross-polytope", "3", "-o", str(out)]) == 0
    assert main(["vectors", str(out), "--field", "q", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["f"] == [1, 6, 12, 8] and data["h_prime"] == [1, 3, 3, 1]
    assert main(["homology", str(out), "--field", "f2", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["betti"] == [0, 0, 0, 1]


def test_cli_check_exit_codes(tmp_path, capsys):
    octa = tmp_path / "octa.json"
    main(["construct", "cross-polytope", "3", "-o", str(octa)])
    bow = tmp_path / "bowtie.json"
    main(["construct", "named", "bowtie2d", "-o", str(bow)])
    capsys.readouterr()
    assert main(["check", "buchsbaum-star", str(octa), "--field", "q"]) == 0
    assert main(["check", "buchsbaum", str(bow), "--field", "q"]) == 1
    assert main(["check", "m-cm", str(octa), "--field", "q", "-m", "2"]) == 0
    assert main(["check", "balanced", str(octa)]) == 0
    assert main(["check", "flag", str(octa)]) == 0
    assert main(["check", "nonsense", str(octa)]) == 2
    capsys.readouterr()


def test_cli_rank_select(tmp_path, capsys):
    octa = tmp_path / "octa.json"
    main(["construct", "cross-polytope", "3", "-o", str(octa)])
    sub = tmp_path / "sub.json"
    assert main(["rank-select", str(octa), "--colors", "1,2",
                 "-o", str(sub)]) == 0
    cf = parse(sub)
    assert cf.complex.dim == 1 and len(cf.complex.faces_of_dim(1)) == 4
    capsys.readouterr()


def test_cli_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"facets": oops')
    assert main(["vectors", str(bad)]) == 2
    void = tmp_path / "void.json"
    void.write_text('{"facets": []}')
    assert main(["vectors", str(void)]) == 2
    assert main(["vectors", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [["vectors"], ["homology"], ["check", "cm"],
                                  ["check", "buchsbaum-star"],
                                  ["check", "flag"]], ids=" ".join)
def test_cli_on_void_and_empty_complex(tmp_path, capsys, argv):
    empty = tmp_path / "empty.json"
    empty.write_text('{"facets": [[]]}')
    void = tmp_path / "void.json"
    void.write_text('{"facets": []}')
    capsys.readouterr()
    assert main(argv + [str(empty)]) == 0
    out = capsys.readouterr()
    assert out.out and not out.err
    assert main(argv + [str(void)]) == 2
    out = capsys.readouterr()
    assert not out.out
    assert out.err.startswith("error: ") and out.err.count("\n") == 1


def test_cli_deeply_nested_complex_file_exit_2(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text('{"facets": ' + "[" * 100_000 + "]" * 100_000 + "}")
    capsys.readouterr()
    assert main(["vectors", str(deep)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "nested too deeply" in err


def test_cli_verify_and_explore(capsys):
    assert main(["verify", "orientability-rp2"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert main(["verify", "no-such-suite"]) == 2
    capsys.readouterr()
    assert main(["explore", "--m", "2", "--i", "1", "--d", "2",
                 "--max-n", "4", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["passed"] is True


def test_cli_cache_dir(tmp_path, capsys, monkeypatch):
    octa = tmp_path / "octa.json"
    main(["construct", "cross-polytope", "3", "-o", str(octa)])
    cache = tmp_path / "cache"
    monkeypatch.setenv("BSTAR_CACHE_DIR", str(cache))
    assert main(["homology", str(octa), "--field", "q"]) == 0
    assert (cache / "betti.json").exists()
    saved = json.loads((cache / "betti.json").read_text())
    assert any(key.startswith("Q|") for key in saved)
    capsys.readouterr()


def test_cli_cache_file_rewritten_only_when_it_lacks_vectors(
        tmp_path, capsys, monkeypatch):
    octa = tmp_path / "octa.json"
    main(["construct", "cross-polytope", "3", "-o", str(octa)])
    tetra = tmp_path / "tetra.json"
    main(["construct", "simplex", "3", "-o", str(tetra)])
    cache = tmp_path / "cache"
    monkeypatch.setenv("BSTAR_CACHE_DIR", str(cache))
    saved = cache / "betti.json"
    argv = ["check", "buchsbaum-star", str(octa), "--field", "q"]
    assert main(argv) == 0
    content = saved.read_bytes()
    os.utime(saved, ns=(10**18, 10**18))
    # the same command again, warm and then cold as in a new process
    assert main(argv) == 0
    clear_caches()
    assert main(argv) == 0
    assert saved.read_bytes() == content
    assert saved.stat().st_mtime_ns == 10**18
    # a command that computes a new vector rewrites the file
    assert main(["homology", str(tetra), "--field", "q"]) == 0
    assert saved.stat().st_mtime_ns != 10**18
    assert set(json.loads(saved.read_bytes())) > set(json.loads(content))
    assert sorted(os.listdir(cache)) == ["betti.json"]
    capsys.readouterr()


def _facets_of(path):
    return json.dumps(parse(path).complex.facets)


@pytest.mark.parametrize("prop", ["cm", "buchsbaum-star"])
def test_cli_cache_file_keeps_only_the_files_complex(tmp_path, capsys,
                                                     monkeypatch, prop):
    octa = tmp_path / "octa.json"
    main(["construct", "cross-polytope", "3", "-o", str(octa)])
    cache = tmp_path / "cache"
    monkeypatch.setenv("BSTAR_CACHE_DIR", str(cache))
    clear_caches()
    assert main(["check", prop, str(octa), "--field", "q"]) == 0
    saved = json.loads((cache / "betti.json").read_text())
    # the link vectors the check computed stay in memory only
    assert all(key.partition("|")[2] == _facets_of(octa) for key in saved)
    assert len(saved) == (1 if prop == "cm" else 0)
    capsys.readouterr()


def test_cli_cold_homology_is_answered_from_the_file(tmp_path, capsys,
                                                     monkeypatch):
    octa = tmp_path / "octa.json"
    main(["construct", "cross-polytope", "3", "-o", str(octa)])
    monkeypatch.setenv("BSTAR_CACHE_DIR", str(tmp_path / "cache"))
    argv = ["homology", str(octa), "--field", "q", "--json"]
    capsys.readouterr()
    assert main(argv) == 0
    first = capsys.readouterr().out
    clear_caches()

    def no_ranks(m, field):
        raise AssertionError("recomputed a vector held by the file")

    monkeypatch.setattr(homology, "rank", no_ranks)
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_cli_cache_rewrite_keeps_other_complexes(tmp_path, capsys,
                                                 monkeypatch):
    # one entry for a tetrahedron boundary, one for a complex of no file
    content = ('{"Q|[[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]]": [0, 0, 0, 1],'
               ' "F2|[[7, 8]]": [0, 0, 0]}')
    code, err, after = _run_with_cache_file(tmp_path, capsys, monkeypatch,
                                            content)
    assert (code, err) == (0, "")
    saved = json.loads(after)
    assert len(saved) == 3
    assert saved["Q|[[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]]"] == [0, 0, 0, 1]
    assert saved["F2|[[7, 8]]"] == [0, 0, 0]
    assert saved["Q|" + _facets_of(tmp_path / "octa.json")] == [0, 0, 0, 1]


def test_cli_cache_file_stays_small(tmp_path, capsys, monkeypatch):
    files = []
    for family, params in (("cross-polytope", ["3"]), ("simplex", ["3"]),
                           ("named", ["rp2_min"])):
        files.append(tmp_path / f"{family}.json")
        main(["construct", family, *params, "-o", str(files[-1])])
    cache = tmp_path / "cache"
    monkeypatch.setenv("BSTAR_CACHE_DIR", str(cache))
    clear_caches()
    for path in files:
        for field in ("q", "f2"):
            for command in (["vectors"], ["homology"], ["check", "cm"],
                            ["check", "buchsbaum-star"]):
                assert main([*command, str(path), "--field", field]) in (0, 1)
    saved = json.loads((cache / "betti.json").read_text())
    assert len(saved) <= 6
    assert {key.partition("|")[2] for key in saved} == {
        _facets_of(path) for path in files}
    capsys.readouterr()


def test_cli_failed_cache_write_is_an_error(tmp_path, capsys, monkeypatch):
    def fail(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "replace", fail)
    code, err, after = _run_with_cache_file(tmp_path, capsys, monkeypatch,
                                            "{}")
    assert code == 2 and after == "{}"
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "No space left on device" in err
    assert sorted(os.listdir(tmp_path / "cache")) == ["betti.json"]


def _run_with_cache_file(tmp_path, capsys, monkeypatch, content):
    octa = tmp_path / "octa.json"
    main(["construct", "cross-polytope", "3", "-o", str(octa)])
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "betti.json").write_text(content)
    monkeypatch.setenv("BSTAR_CACHE_DIR", str(cache))
    capsys.readouterr()
    code = main(["homology", str(octa), "--field", "q"])
    err = capsys.readouterr().err
    return code, err, (cache / "betti.json").read_text()


@pytest.mark.parametrize("content", ["[1, 2]", "3", '"betti"'])
def test_cli_cache_file_not_an_object(tmp_path, capsys, monkeypatch, content):
    code, err, after = _run_with_cache_file(tmp_path, capsys, monkeypatch,
                                            content)
    assert code == 2 and after == content
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "not a JSON object" in err


@pytest.mark.parametrize("values", [
    "[0, 0, 0]", "[0, 0, 0, 1, 0]", "[0, 0, -1, 1]", "[0, 0, 0, 1.0]",
    "[0, 0, true, 1]", '"0001"', "{}", "null",
])
def test_cli_cache_entry_malformed(tmp_path, capsys, monkeypatch, values):
    # the octahedron has 3-element facets: its entry lists 4 Betti numbers
    content = '{"Q|[[1, 2, 3]]": %s}' % values
    code, err, after = _run_with_cache_file(tmp_path, capsys, monkeypatch,
                                            content)
    assert code == 2 and after == content
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Q|[[1, 2, 3]]" in err and "non-negative ints" in err


def test_cli_cache_entry_with_unparsable_key_is_skipped(tmp_path, capsys,
                                                        monkeypatch):
    content = ('{"Q|[[[1], 2]]": [0, 0, 1], "Q|[]": [1], "F4|[[1]]": [0, 0],'
               ' "Q|[[1, 2]": [0]}')
    code, err, after = _run_with_cache_file(tmp_path, capsys, monkeypatch,
                                            content)
    assert (code, err) == (0, "")
    assert "[[[1], 2]]" not in after


def test_cli_deeply_nested_cache_file_exit_2(tmp_path, capsys, monkeypatch):
    content = '{"facets": ' + "[" * 100_000 + "]" * 100_000 + "}"
    code, err, after = _run_with_cache_file(tmp_path, capsys, monkeypatch,
                                            content)
    assert code == 2 and after == content
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "nested too deeply" in err


def test_cli_cache_entry_with_deeply_nested_key_is_skipped(tmp_path, capsys,
                                                           monkeypatch):
    content = json.dumps({"Q|" + "[" * 100_000 + "]" * 100_000: [1]})
    code, err, after = _run_with_cache_file(tmp_path, capsys, monkeypatch,
                                            content)
    assert (code, err) == (0, "")
    assert "[[[" not in after


def test_cli_json_and_text_verdicts_agree(tmp_path, capsys):
    octa = tmp_path / "octa.json"
    main(["construct", "cross-polytope", "3", "-o", str(octa)])
    capsys.readouterr()
    main(["check", "buchsbaum-star", str(octa), "--field", "q", "--json"])
    as_json = json.loads(capsys.readouterr().out)
    main(["check", "buchsbaum-star", str(octa), "--field", "q"])
    as_text = capsys.readouterr().out
    assert as_json["verdict"] is True and "True" in as_text


def test_cli_explore_with_invalid_parameters_is_a_usage_error(capsys):
    # the skeleton-join sphere needs m >= 2
    assert main(["explore", "--m", "1", "--i", "1", "--d", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "m >= 2" in err


@pytest.mark.parametrize("max_n", ["2", "1", "0", "-3"])
def test_cli_verify_rejects_small_max_n_before_any_output(capsys, max_n):
    assert main(["verify", "all", "--max-n", max_n]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "at least 3" in err


def test_cli_parser_is_built_once_and_reused_cleanly(tmp_path, capsys):
    from bstar.cli import _parser
    assert _parser() is _parser()
    # an appended option starts empty on every call
    argv = ["verify", "all", "--field", "q", "--field", "f2"]
    assert _parser().parse_args(argv).field == [QQ, GF2]
    assert _parser().parse_args(argv).field == [QQ, GF2]
    assert _parser().parse_args(["verify", "all"]).field is None
    octa = tmp_path / "octa.json"
    main(["construct", "cross-polytope", "3", "-o", str(octa)])
    capsys.readouterr()
    outputs = []
    for argv in (["check", "cm", str(octa), "--field", "f2", "--json"],
                 ["verify", "orientability-rp2", "--field", "q", "--json"],
                 ["check", "cm", str(octa), "--field", "f2", "--json"],
                 ["verify", "orientability-rp2", "--field", "q", "--json"]):
        code = main(argv)
        out, err = capsys.readouterr()
        report = json.loads(out.splitlines()[0])
        report.pop("duration_s", None)
        outputs.append((code, report, err))
    assert outputs[0] == outputs[2] and outputs[1] == outputs[3]
    assert outputs[1][1]["fields"] == ["Q"]
