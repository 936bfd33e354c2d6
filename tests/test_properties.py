"""Property tests on braid closures beyond the corpus.

The frontier-sweep bracket is checked against the 2^n state sum on
random short words, and on long closures, where the state sum is out of
reach, the determinant is checked against Goeritz and Jones against the
mirror. Every certificate found on a short alternating closure replays.
Jones, writhe and the component count survive relabelling, canonical()
and simplify() (the writhe only the first two: simplify() drops curls).
"""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import braid_closure  # noqa: E402
from qalt.bracket import (bracket_state_sum, determinant,  # noqa: E402
                          jones, kauffman_bracket)
from qalt.diagram import Diagram  # noqa: E402
from qalt.laurent import HalfLaurent  # noqa: E402
from qalt.qa import Certificate, certify, replay_certificate  # noqa: E402
from qalt.tait import checkerboard, goeritz_det  # noqa: E402


@st.composite
def braid_words(draw):
    strands = draw(st.integers(3, 4))
    letter = st.integers(1, strands - 1).flatmap(
        lambda i: st.sampled_from((i, -i)))
    return strands, draw(st.lists(letter, min_size=1, max_size=12))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(braid_words())
def test_bracket_matches_state_sum_on_braid_closures(sw):
    strands, word = sw
    d = braid_closure(word, strands)
    assert kauffman_bracket(d) == bracket_state_sum(d)


def _long_closure(seed: int):
    rng = random.Random(seed)
    n = rng.randint(30, 40)
    while True:
        word = [rng.choice((1, -1)) * rng.randint(1, 3) for _ in range(n)]
        if all(word.count(i) + word.count(-i) for i in (1, 2, 3)):
            return braid_closure(word, 4)


@pytest.mark.parametrize("seed", range(4))
def test_long_closures_det_and_mirror(seed):
    d = _long_closure(seed)
    assert 30 <= len(d.crossings) <= 40
    assert d.is_connected()
    assert determinant(d) == goeritz_det(checkerboard(d)[0])
    v = jones(d)
    assert jones(d.mirror()) == HalfLaurent({-e2: c for e2, c in v.items2()})


@st.composite
def alternating_words(draw):
    # every generator at least once, so the closure is connected;
    # sigma_i is positive for odd i and negative for even i
    strands = draw(st.integers(3, 4))
    extra = draw(st.lists(st.integers(1, strands - 1),
                          max_size=10 - (strands - 1)))
    gens = draw(st.permutations(list(range(1, strands)) + extra))
    return strands, [g if g % 2 else -g for g in gens]


@settings(max_examples=30, deadline=None)
@given(alternating_words())
def test_certificates_replay_on_alternating_closures(sw):
    strands, word = sw
    out = certify(braid_closure(word, strands))
    if isinstance(out, Certificate):
        assert replay_certificate(Certificate.from_json(out.to_json()))


CURLS = (Diagram([(2, 1, 1, 2)]), Diagram([(1, 1, 2, 2)]))


@st.composite
def curled_closures(draw):
    # every generator at least once, so the closure is connected and
    # takes connected sums; then 0-3 curls of either form
    strands = draw(st.integers(3, 4))
    extra = draw(st.lists(st.integers(1, strands - 1),
                          max_size=12 - (strands - 1)))
    gens = draw(st.permutations(list(range(1, strands)) + extra))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=len(gens),
                          max_size=len(gens)))
    d = braid_closure([g * s for g, s in zip(gens, signs)], strands)
    for curl in draw(st.lists(st.sampled_from(CURLS), max_size=3)):
        d = d.connected_sum(curl)
    labels = sorted(set(d._flat))
    image = draw(st.permutations(range(1, 2 * len(labels) + 1)))
    perm = dict(zip(labels, image))
    relabelled = Diagram([tuple(perm[x] for x in t) for t in d.crossings])
    return d, relabelled


@settings(max_examples=40, deadline=None)
@given(curled_closures())
def test_invariants_survive_relabelling_canonical_and_simplify(dd):
    d, relabelled = dd
    v, w, k = jones(d), d.writhe(), d.component_count
    for e in (relabelled, d.canonical(), relabelled.canonical()):
        assert (jones(e), e.writhe(), e.component_count) == (v, w, k)
    for e in (d.simplify(), relabelled.simplify()):
        assert (jones(e), e.component_count) == (v, k)
