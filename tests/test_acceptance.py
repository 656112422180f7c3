"""Acceptance suite: each criterion runs at its stated scale and seed.

One test per criterion, so the pytest report carries one pass/fail line
each; the same checks back the ``dualkit corpus`` command.
"""

import pytest

from dualkit import corpus

SEED = 0

# the exact line of each criterion at SEED, in criterion order; a changed
# scale, sample or detail string shows here as well as a failure
LINES = (
    "criterion  1 duality round-trip       PASS  (1000 instances over 5 dualizers, triangles included)",
    "criterion  2 square classification    PASS  (dl2 has 4 subalgebras with both graded ones tagged other; bool2 and luk(2) are subdiagonal/product only)",
    "criterion  3 BP/NU coherence          PASS  (NU found for all; binary BP instances bool2:4 dl2:24 luk(2):791 luk(3):889 posluk(2):791; dl2 unary fails on the graded pair, bool2 unary passes)",
    "criterion  4 partial endomorphisms    PASS  (trivial for 10 catalog dualizers; the oplus-reduct of luk(2) doubles 1/2 to 1)",
    "criterion  5 separating terms         PASS  (56 pairs over chains up to n=6)",
    "criterion  6 congruence representation PASS  (50 instances; dl2 square has 2^2 relative congruences)",
    "criterion  7 local-to-global          PASS  (4166 reflexive relations exhausted; 420 random LEP(2) instances all had GEP)",
    "criterion  8 BP representation        PASS  (200 round-trips per dualizer, 500 transported maps)",
    "criterion  9 Birkhoff cross-check     PASS  (free DL on 2 generators: 6 elements, 4 dual points, 6 recovered compatible functions)",
    "criterion 10 Helly intersection       PASS  (125 pairwise-intersecting families out of 637, constructed point verified)",
    "criterion 11 Jonsson property         PASS  (125 corpus representations factor; the empty cover counterexample reproduces for the constant-free reduct)",
)


@pytest.mark.parametrize("criterion, line", zip(corpus.CRITERIA, LINES),
                         ids=[c.__name__.replace("criterion_", "") for c in corpus.CRITERIA])
def test_criterion(criterion, line):
    result = criterion(seed=SEED)
    print(result.line())
    assert result.passed, result.detail
    assert result.line() == line


def test_results_are_numbered_one_to_eleven():
    numbers = []
    for criterion in corpus.CRITERIA:
        # tiny budgets: only the numbering and the result shape matter here
        if criterion is corpus.criterion_duality_roundtrip:
            numbers.append(criterion(seed=SEED, instances_per_dualizer=2).number)
        elif criterion is corpus.criterion_bp_representation:
            numbers.append(criterion(seed=SEED, instances_per_dualizer=2, maps=2).number)
        elif criterion is corpus.criterion_local_to_global:
            numbers.append(criterion(seed=SEED, max_points=2, random_instances=2).number)
        elif criterion is corpus.criterion_congruence_representation:
            numbers.append(criterion(seed=SEED, instances_per_dualizer=2).number)
        elif criterion is corpus.criterion_jonsson:
            numbers.append(criterion(seed=SEED, instances_per_dualizer=2).number)
        elif criterion is corpus.criterion_bp_nu:
            numbers.append(criterion(seed=SEED, samples=10).number)
        else:
            numbers.append(criterion(seed=SEED).number)
    assert numbers == list(range(1, 12))
