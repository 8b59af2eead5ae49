"""Expected outputs of every benchmark operation, written down once.

Nothing here is computed by bstar at run time.  The values follow from the
mathematics (spheres have the Betti numbers of a sphere, the reduced Euler
characteristic of an S^k is (-1)^k, joins of q-point sets have b~ = (q-1)^d)
and were cross-checked against the seed commit's output.  A verdict is
either True or the witness kind of the expected failure.
"""

# Suite name -> case count of run_suite(name, seed=s) with default fields.
# Every case must pass; the counts do not depend on the seed.
SUITE_CASES = {
    "balanced-lbt": 29,
    "euler-corollary": 6,
    "flag-lower-bound": 11,
    "h3-bound": 3,
    "hierarchy": 136,
    "lemma-oracle": 240,
    "m-rank-selection": 6,
    "orientability-rp2": 6,
    "rank-selection": 100,
    "stanley-hnums": 53,
    "swartz-identity": 120,
}

# explore_question(2, 1, 2, n_max=6) is exhaustive for every n <= 6, so the
# seed does not change its single case.
EXPLORE_CASES = ("no_violation|checked=560",)

# large: the boundary of the 7-dimensional cross polytope is a 6-sphere,
# scps(40, 4) is a stacked cross-polytopal 3-sphere (Buchsbaum*).
CROSS_POLYTOPE_7_BETTI = (0, 0, 0, 0, 0, 0, 0, 1)
SCPS_40_4_F_VECTOR = (1, 40, 168, 256, 128)

# cli: file -> (f, reduced chi, {field: (betti, h', buchsbaum-star, cm)}).
CLI_FILES = {
    "cp4": ((1, 8, 24, 32, 16), -1, {
        "q": ((0, 0, 0, 0, 1), (1, 4, 6, 4, 1), True, True),
        "f2": ((0, 0, 0, 0, 1), (1, 4, 6, 4, 1), True, True)}),
    "cp5": ((1, 10, 40, 80, 80, 32), 1, {
        "q": ((0, 0, 0, 0, 0, 1), (1, 5, 10, 10, 5, 1), True, True),
        "f2": ((0, 0, 0, 0, 0, 1), (1, 5, 10, 10, 5, 1), True, True)}),
    "scps12_3": ((1, 12, 30, 20), 1, {
        "q": ((0, 0, 0, 1), (1, 9, 9, 1), True, True),
        "f2": ((0, 0, 0, 1), (1, 9, 9, 1), True, True)}),
    "scps16_4": ((1, 16, 60, 88, 44), -1, {
        "q": ((0, 0, 0, 0, 1), (1, 12, 18, 12, 1), True, True),
        "f2": ((0, 0, 0, 0, 1), (1, 12, 18, 12, 1), True, True)}),
    "mpj3_3": ((1, 9, 27, 27), 8, {
        "q": ((0, 0, 0, 8), (1, 6, 12, 8), True, True),
        "f2": ((0, 0, 0, 8), (1, 6, 12, 8), True, True)}),
    "sjs2_2_4": ((1, 6, 15, 18, 9), -1, {
        "q": ((0, 0, 0, 0, 1), (1, 2, 3, 2, 1), True, True),
        "f2": ((0, 0, 0, 0, 1), (1, 2, 3, 2, 1), True, True)}),
    "rp2_min": ((1, 6, 15, 10), 0, {
        "q": ((0, 0, 0, 0), (1, 3, 6, 0), "surjectivity", True),
        "f2": ((0, 0, 1, 1), (1, 3, 6, 1), True, "link_homology")}),
    "k33": ((1, 6, 9), -4, {
        "q": ((0, 0, 4), (1, 4, 4), True, True),
        "f2": ((0, 0, 4), (1, 4, 4), True, True)}),
    "suspended_hexagon": ((1, 8, 18, 12), 1, {
        "q": ((0, 0, 0, 1), (1, 5, 5, 1), True, True),
        "f2": ((0, 0, 0, 1), (1, 5, 5, 1), True, True)}),
    "two_octahedra_disjoint": ((1, 12, 24, 16), 3, {
        "q": ((0, 1, 0, 2), (1, 9, 6, 2), True, "link_homology"),
        "f2": ((0, 1, 0, 2), (1, 9, 6, 2), True, "link_homology")}),
}
