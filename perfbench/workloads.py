"""The four benchmark workloads.

A workload is set up once from the package and the seed, then runs
identical passes.  A pass is a list of operations, each one call into a
public bstar entry point whose output is checked against ``expected``.
``cold`` operations start with bstar's in-memory caches cleared, because
each ``bstar`` process starts cold.

- suites:  ``bstar verify all`` -- the paper's certification traffic,
           many small and medium complexes with heavy cache reuse; where
           the predicates and relative homology do most of their work.
- explore: ``explore(2, 1, 2, n_max=6)`` over Q -- dominated by building
           complexes, links and missing faces; its ranks are tiny and
           mostly cache hits, so a faster elimination kernel should
           barely move it.
- large:   the Betti numbers of cross_polytope(7) and the Buchsbaum*
           verdict of scps(40, 4), over Q then over F2 -- dominated by
           exact elimination on matrices up to 560x672; Q and F2 share
           the kernel with different arithmetic.
- cli:     80 in-process ``bstar`` commands on 10 complex files with a
           persisted Betti cache -- the only workload that touches
           ``files``, ``cli`` and the on-disk cache.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
from typing import Callable, NamedTuple

import expected


class Op(NamedTuple):
    label: str
    field: str | None       # "Q"/"F2" when the operation is over one field
    cold: bool              # clear bstar's caches before the operation
    call: Callable
    check: Callable         # output -> None, or a description of the mismatch


def _mismatch(what, got, want):
    return None if got == want else f"{what}: got {got!r}, expected {want!r}"


class Workload:
    ONE_COMMAND = False     # True: a whole pass is one user command

    def setup(self, bstar, seed, workdir):
        self.bstar = bstar
        self.seed = seed

    def begin_pass(self):
        pass

    def end_pass(self):
        pass


class Suites(Workload):
    """Every registered suite through run_suite, i.e. ``bstar verify all``."""

    ONE_COMMAND = True

    def setup(self, bstar, seed, workdir):
        super().setup(bstar, seed, workdir)
        bstar.corpus()      # the fixtures and families the suites share

    def ops(self):
        bstar = self.bstar
        ops = [Op("suite_names", None, True, bstar.suite_names,
                  lambda got: _mismatch("suite names", got,
                                        sorted(expected.SUITE_CASES)))]
        for name, count in expected.SUITE_CASES.items():
            def check(report, count=count):
                failed = [c.case_id for c in report.cases if not c.passed]
                if failed:
                    return f"{report.suite}: failed cases {failed[:3]}"
                return _mismatch(f"{report.suite} case count",
                                 len(report.cases), count)
            ops.append(Op(name, None, False,
                          lambda name=name: bstar.run_suite(name, seed=self.seed),
                          check))
        return ops


class Explore(Workload):
    """explore_question(2, 1, 2, n_max=6) over Q."""

    def ops(self):
        bstar = self.bstar

        def check(report):
            got = tuple(c.case_id for c in report.cases)
            return (_mismatch("explore cases", got, expected.EXPLORE_CASES)
                    or _mismatch("explore passed", report.passed, True)
                    or _mismatch("explore incomplete", report.incomplete, False))

        return [Op("explore", "Q", True,
                   lambda: bstar.explore_question(2, 1, 2, n_max=6,
                                                  seed=self.seed,
                                                  field=bstar.QQ),
                   check)]


class Large(Workload):
    """cross_polytope(7) Betti numbers and scps(40, 4) Buchsbaum* over Q,
    then over F2 with the caches cleared between the fields.  The seed
    relabels the vertices of both complexes, which changes the canonical
    face order and so the elimination order."""

    def setup(self, bstar, seed, workdir):
        super().setup(bstar, seed, workdir)
        rng = random.Random(f"perfbench-large-{seed}")
        self.facets = [self._shuffled(bstar, c, rng) for c in (
            bstar.cross_polytope(7)[0],
            bstar.stacked_cross_polytopal_sphere(40, 4)[0])]

    @staticmethod
    def _shuffled(bstar, c, rng):
        images = list(c.vertices)
        rng.shuffle(images)
        return c.relabel(dict(zip(c.vertices, images))).facets

    def begin_pass(self):
        # Fresh instances, so no face set cached on a complex object
        # carries over from the previous pass.
        self.cross, self.scps = (self.bstar.build(f) for f in self.facets)

    def ops(self):
        bstar = self.bstar

        def check_betti(betti):
            return _mismatch("cross_polytope(7) Betti", tuple(betti.values),
                             expected.CROSS_POLYTOPE_7_BETTI)

        def check_star(out):
            report, f = out
            return (_mismatch("scps(40,4) Buchsbaum*", report.verdict, True)
                    or _mismatch("scps(40,4) f-vector", f,
                                 expected.SCPS_40_4_F_VECTOR))

        ops = []
        for field in (bstar.QQ, bstar.GF2):
            ops.append(Op("betti", field.label, True,
                          lambda field=field: bstar.reduced_betti(self.cross, field),
                          check_betti))
            ops.append(Op("buchsbaum_star", field.label, False,
                          lambda field=field: (
                              bstar.is_buchsbaum_star(self.scps, field),
                              bstar.f_vector(self.scps)),
                          check_star))
        return ops


class Cli(Workload):
    """A scripted session of 80 ``bstar`` commands, in an order drawn from
    the seed.  Each pass gets an empty BSTAR_CACHE_DIR; caches are cleared
    before every command, as in a fresh process."""

    COMMANDS = ("vectors", "homology", "buchsbaum-star", "cm")

    def setup(self, bstar, seed, workdir):
        super().setup(bstar, seed, workdir)
        made = {
            "cp4": bstar.cross_polytope(4),
            "cp5": bstar.cross_polytope(5),
            "scps12_3": bstar.stacked_cross_polytopal_sphere(12, 3),
            "scps16_4": bstar.stacked_cross_polytopal_sphere(16, 4),
            "mpj3_3": bstar.multi_point_join_colored(3, 3),
            "sjs2_2_4": (bstar.skeleton_join_sphere(2, 2, 4), None),
        }
        for name in ("rp2_min", "k33", "suspended_hexagon",
                     "two_octahedra_disjoint"):
            fx = bstar.fixture(name)
            made[name] = (fx.complex, fx.coloring)
        self.paths = {}
        for name, (cx, coloring) in made.items():
            path = os.path.join(workdir, f"{name}.json")
            bstar.emit(bstar.ComplexFile(cx, coloring, name=name), path)
            self.paths[name] = path
        self.calls = [(name, field, command)
                      for name in expected.CLI_FILES
                      for field in ("q", "f2")
                      for command in self.COMMANDS]
        random.Random(f"perfbench-cli-{seed}").shuffle(self.calls)
        self.cache_dir = os.path.join(workdir, "cache")
        self._saved_env = os.environ.get("BSTAR_CACHE_DIR")

    def begin_pass(self):
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        os.environ["BSTAR_CACHE_DIR"] = self.cache_dir

    def end_pass(self):
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        if self._saved_env is None:
            os.environ.pop("BSTAR_CACHE_DIR", None)
        else:
            os.environ["BSTAR_CACHE_DIR"] = self._saved_env

    def _run(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.bstar.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def ops(self):
        ops = []
        for name, field, command in self.calls:
            path = self.paths[name]
            if command in ("vectors", "homology"):
                argv = [command, path, "--field", field, "--json"]
            else:
                argv = ["check", command, path, "--field", field, "--json"]
            label = f"{command} {name} {field}"
            ops.append(Op(label, field.upper(), True,
                          lambda argv=argv: self._run(argv),
                          lambda out, name=name, field=field, command=command:
                          self._check(out, name, field, command)))
        return ops

    @staticmethod
    def _check(out, name, field, command):
        code, stdout, stderr = out
        f, chi, by_field = expected.CLI_FILES[name]
        betti, h_prime, star, cm = by_field[field]
        label = f"{command} {name} {field}"
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError:
            return f"{label}: exit {code}, unparsable output {stdout[:80]!r} {stderr[:80]!r}"
        if command == "vectors":
            return (_mismatch(label + " exit", code, 0)
                    or _mismatch(label + " f", tuple(doc["f"]), f)
                    or _mismatch(label + " h'", tuple(doc["h_prime"]), h_prime)
                    or _mismatch(label + " chi", doc["chi_reduced"], chi))
        if command == "homology":
            return (_mismatch(label + " exit", code, 0)
                    or _mismatch(label + " betti", tuple(doc["betti"]), betti))
        want = star if command == "buchsbaum-star" else cm
        got = True if doc["verdict"] is True else (doc["witness"] or {}).get("kind")
        return (_mismatch(label + " exit", code, 0 if want is True else 1)
                or _mismatch(label + " verdict", got, want))


WORKLOADS = {"suites": Suites, "explore": Explore, "large": Large, "cli": Cli}
