import json
import os

import pytest

from bstar import (ComplexFile, ComplexFileError, build, clear_caches,
                   cross_polytope, emit, emit_text, fixture_names, homology,
                   is_buchsbaum_star, is_cohen_macaulay, parse, parse_text)
from bstar.cli import main, parse_field
from bstar.homology import load_betti_cache, save_betti_cache
from bstar.linalg import GF2, GF3, QQ


def test_parse_minimal_document(triangle_boundary):
    cf = parse_text('{"facets": [[1, 2], [2, 3], [1, 3]]}')
    assert cf.complex == triangle_boundary
    assert cf.coloring is None and cf.name is None


def test_parse_coloring_violation_names_edge():
    with pytest.raises(ComplexFileError) as err:
        parse_text('{"facets": [[1, 2]], "coloring": {"1": 1, "2": 1}}')
    assert "edge [1, 2]" in str(err.value)


def test_parse_coloring_violation_names_the_first_bad_edge():
    # edges [2, 3] and [3, 10] are both monochromatic; [2, 3] comes first
    # in label order, though its facet is listed last
    with pytest.raises(ComplexFileError) as err:
        parse_text('{"facets": [[3, 10], [1, 2], [2, 3]],'
                   ' "coloring": {"1": 2, "2": 1, "3": 1, "10": 1}}')
    assert str(err.value).endswith("edge [2, 3] has both ends colored 1")


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


COLORING_KEY_FAULTS = [  # (coloring, the error after the source)
    pytest.param('{"²": 1, "4": 2}', "coloring names unknown vertex '²'",
                 id="superscript digit"),
    pytest.param('{"03": 1, "4": 2}', "coloring names unknown vertex '03'",
                 id="leading zero"),
    pytest.param('{"٣": 1, "4": 2}', "coloring names unknown vertex '٣'",
                 id="arabic-indic digit"),
    pytest.param('{"3": 1, "03": 2, "4": 2}',
                 "coloring names unknown vertex '03'",
                 id="two keys for one vertex"),
    pytest.param('{"3": 1, "4": 2, "3": 2}',
                 "key '3' is given twice in one object", id="repeated key"),
]


@pytest.mark.parametrize("coloring, error", COLORING_KEY_FAULTS)
def test_coloring_keys_name_int_vertices_as_emitted(coloring, error):
    # an int vertex is named by str(vertex) alone, and only once
    with pytest.raises(ComplexFileError) as err:
        parse_text('{"facets": [[3, 4]], "coloring": %s}' % coloring,
                   source="c.json")
    assert str(err.value) == f"c.json: {error}"


def test_string_vertices_are_named_by_themselves():
    text = '{"facets": [["03", "٣"]], "coloring": {"03": 1, "٣": 2}}'
    cf = parse_text(text)
    assert cf.coloring.assignment == {"03": 1, "٣": 2}
    assert parse_text(emit_text(cf)).coloring == cf.coloring


@pytest.mark.parametrize("coloring, error", COLORING_KEY_FAULTS)
def test_cli_coloring_key_fault_exit_2(tmp_path, capsys, coloring, error):
    path = tmp_path / "c.json"
    path.write_text('{"facets": [[3, 4]], "coloring": %s}' % coloring,
                    encoding="utf-8")
    capsys.readouterr()
    assert main(["vectors", str(path)]) == 2
    out = capsys.readouterr()
    assert not out.out
    assert out.err == f"error: {path}: {error}\n"


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


@pytest.mark.parametrize("argv", [
    ["simplex", "2", "abc"],
    ["cross-polytope", "2", "x"],
    ["scps", "9", "3.0"],
    ["named"],
    ["named", "rp2_min", "extra"],
    ["named", "nosuch"],
])
def test_cli_construct_rejects_bad_parameters(tmp_path, capsys, argv):
    # every parameter of a numeric family must be an int, and named takes
    # exactly one name, that of a fixture: exit 2, one stderr line,
    # nothing written
    out = tmp_path / "out.json"
    assert main(["construct", *argv]) == 2
    assert main(["construct", *argv, "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 2 and lines[0] == lines[1]
    assert lines[0].startswith("construct: ")
    assert "index" not in lines[0]
    assert argv[-1] in lines[0]
    assert not out.exists()
    if argv == ["named", "nosuch"]:
        assert "no fixture is named 'nosuch'" in lines[0]
        assert all(name in lines[0] for name in fixture_names())
        assert "octahedron" in lines[0]


def test_cli_construct_names_the_complex_by_its_parameters(capsys):
    assert main(["construct", "simplex", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["name"] == "simplex(2)"
    assert main(["construct", "scps", "9", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["name"] == "scps(9,3)"


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


_NESTED = '{"facets": ' + "[" * 100_000 + "]" * 100_000 + "}"


@pytest.mark.parametrize("content", [None, "[1, 2]", _NESTED],
                         ids=["no-file", "malformed", "nested"])
def test_cli_ignores_bstar_cache_dir(tmp_path, capsys, monkeypatch, content):
    octa = tmp_path / "octa.json"
    main(["construct", "cross-polytope", "3", "-o", str(octa)])
    cache = tmp_path / "cache"
    if content is not None:
        cache.mkdir()
        (cache / "betti.json").write_text(content)
    capsys.readouterr()

    def session():
        outputs = []
        for command in (["vectors"], ["homology"], ["check", "cm"],
                        ["check", "buchsbaum-star"]):
            for field in ("q", "f2"):
                clear_caches()
                code = main([*command, str(octa), "--field", field])
                outputs.append((code, *capsys.readouterr()))
        return outputs

    monkeypatch.delenv("BSTAR_CACHE_DIR", raising=False)
    unset = session()
    assert all(code == 0 and out and not err for code, out, err in unset)
    monkeypatch.setenv("BSTAR_CACHE_DIR", str(cache))
    assert session() == unset
    if content is None:
        assert not cache.exists()
    else:
        assert os.listdir(cache) == ["betti.json"]
        assert (cache / "betti.json").read_text() == content


# No command calls the Betti-cache file functions; the tests below call
# them as the CLI did: load the file, compute, save the vectors of the
# command's complex.

def _load_compute_save(path, c, compute):
    held = {}
    load_betti_cache(path, held)
    compute(c, QQ)
    save_betti_cache(path, [c.facets], held)


def test_cli_cache_file_rewritten_only_when_it_lacks_vectors(tmp_path,
                                                             octahedron):
    tetra = build([(1, 2, 3, 4)])
    saved = tmp_path / "betti.json"
    clear_caches()
    _load_compute_save(saved, octahedron, is_buchsbaum_star)
    content = saved.read_bytes()
    os.utime(saved, ns=(10**18, 10**18))
    # the same command again, warm and then cold as in a new process
    _load_compute_save(saved, octahedron, is_buchsbaum_star)
    clear_caches()
    _load_compute_save(saved, octahedron, is_buchsbaum_star)
    assert saved.read_bytes() == content
    assert saved.stat().st_mtime_ns == 10**18
    # a command that computes a new vector rewrites the file
    _load_compute_save(saved, tetra, homology.reduced_betti)
    assert saved.stat().st_mtime_ns != 10**18
    assert set(json.loads(saved.read_bytes())) > set(json.loads(content))
    assert sorted(os.listdir(tmp_path)) == ["betti.json"]


@pytest.mark.parametrize("prop", ["cm", "buchsbaum-star"])
def test_cli_cache_file_keeps_only_the_files_complex(tmp_path, octahedron,
                                                     prop):
    path = tmp_path / "betti.json"
    clear_caches()
    _load_compute_save(path, octahedron, {
        "cm": is_cohen_macaulay, "buchsbaum-star": is_buchsbaum_star}[prop])
    saved = json.loads(path.read_text())
    # the link vectors the check computed stay in memory only
    assert all(key.partition("|")[2] == json.dumps(octahedron.facets)
               for key in saved)
    assert len(saved) == (1 if prop == "cm" else 0)


def test_cli_cache_rewrite_keeps_other_complexes(tmp_path, monkeypatch,
                                                 octahedron):
    # entries for a tetrahedron boundary, for a complex of no file and for
    # labels with no common order, which no complex has
    tetra = "[[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]]"
    path = tmp_path / "betti.json"
    path.write_text('{"Q|%s": [0, 0, 0, 1], "F2|[[7, 8]]": [0, 0, 0],'
                    ' "Q|[[null, 1]]": [0, 1, 0]}' % tetra)
    clear_caches()
    _load_compute_save(path, octahedron, homology.reduced_betti)
    saved = json.loads(path.read_text())
    assert len(saved) == 4
    assert saved["Q|" + tetra] == [0, 0, 0, 1]
    assert saved["F2|[[7, 8]]"] == [0, 0, 0]
    assert saved["Q|[[null, 1]]"] == [0, 1, 0]
    assert saved["Q|" + json.dumps(octahedron.facets)] == [0, 0, 0, 1]

    # a loaded vector answers homology without a rank
    def no_ranks(m, field):
        raise AssertionError("recomputed a vector held by the file")

    clear_caches()
    assert load_betti_cache(path) == 4
    monkeypatch.setattr(homology, "rank", no_ranks)
    for facets in (json.loads(tetra), octahedron.facets):
        assert tuple(homology.reduced_betti(build(facets), QQ)) == (0, 0, 0, 1)


def _load_error(tmp_path, content):
    """The message of the ValueError raised by loading a cache file with
    this content, which is left as it was."""
    path = tmp_path / "betti.json"
    path.write_text(content)
    held = {}
    with pytest.raises(ValueError) as err:
        load_betti_cache(path, held)
    assert path.read_text() == content and held == {}
    message = str(err.value)
    assert message.startswith(f"{path}: ") and "\n" not in message
    return message


@pytest.mark.parametrize("content", ["[1, 2]", "3", '"betti"'])
def test_cli_cache_file_not_an_object(tmp_path, content):
    assert "not a JSON object" in _load_error(tmp_path, content)


@pytest.mark.parametrize("values", [
    "[0, 0, 0]", "[0, 0, 0, 1, 0]", "[0, 0, -1, 1]", "[0, 0, 0, 1.0]",
    "[0, 0, true, 1]", '"0001"', "{}", "null",
])
def test_cli_cache_entry_malformed(tmp_path, values):
    # a 3-element facet: the entry lists 4 Betti numbers
    message = _load_error(tmp_path, '{"Q|[[1, 2, 3]]": %s}' % values)
    assert "Q|[[1, 2, 3]]" in message and "non-negative ints" in message


def test_cli_deeply_nested_cache_file_exit_2(tmp_path):
    assert "nested too deeply" in _load_error(tmp_path, _NESTED)


def _rewrite_after_skipped_keys(tmp_path, octahedron, content):
    """The cache file with this content after a command on the octahedron;
    loading it must skip every entry."""
    path = tmp_path / "betti.json"
    path.write_text(content)
    held = {}
    assert load_betti_cache(path, held) == 0 and held == {}
    homology.reduced_betti(octahedron, QQ)
    save_betti_cache(path, [octahedron.facets], held)
    after = path.read_text()
    assert list(json.loads(after)) == ["Q|" + json.dumps(octahedron.facets)]
    return after


def test_cli_cache_entry_with_unparsable_key_is_skipped(tmp_path, octahedron):
    content = ('{"Q|[[[1], 2]]": [0, 0, 1], "Q|[]": [1], "F4|[[1]]": [0, 0],'
               ' "Q|[[1, 2]": [0]}')
    after = _rewrite_after_skipped_keys(tmp_path, octahedron, content)
    assert "[[[1], 2]]" not in after
    # a file that is not JSON at all loads nothing and is replaced
    _rewrite_after_skipped_keys(tmp_path, octahedron, '{"Q|[[1, 2]]": [0, 0')


def test_cli_cache_entry_with_deeply_nested_key_is_skipped(tmp_path,
                                                           octahedron):
    content = json.dumps({"Q|" + "[" * 100_000 + "]" * 100_000: [1]})
    after = _rewrite_after_skipped_keys(tmp_path, octahedron, content)
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


@pytest.mark.parametrize("suite", ["rank-selection", "all"])
def test_cli_verify_rejects_a_repeated_field(capsys, suite):
    # the same field twice would report every case of that field twice
    assert main(["verify", suite, "--field", "q", "--field", "f2",
                 "--field", "Q"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "field Q is given more than once" in err


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


def test_complex_file_is_a_mutable_record():
    a, b = ComplexFile(build([(1, 2)])), ComplexFile(build([(1, 2)]))
    assert a == b and a.metadata == {} and a.metadata is not b.metadata
    a.metadata["note"] = "one"
    assert b.metadata == {} and a != b
    assert repr(b) == ("ComplexFile(complex=Complex([[1, 2]]), coloring=None, "
                       "name=None, metadata={})")
    b.name = "edge"
    assert b.name == "edge"
    with pytest.raises(TypeError):
        hash(a)


def test_cli_check_json_line_on_rp2_over_q(tmp_path, capsys):
    # the witness data is the repr of its faces
    rp2 = tmp_path / "rp2.json"
    main(["construct", "named", "rp2_min", "-o", str(rp2)])
    capsys.readouterr()
    assert main(["check", "buchsbaum-star", str(rp2), "--field", "q", "--json"]) == 1
    assert capsys.readouterr().out == (
        '{"property": "buchsbaum_star", "field": "Q", "verdict": false, '
        '"witness": {"kind": "surjectivity", "data": "((1,),)"}}\n')
