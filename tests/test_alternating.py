"""Oracle checks of the statements on reduced alternating diagrams.

A reduced alternating diagram that is diagrammatically prime is a prime
link (Menasco). On such diagrams of 8-14 crossings, generated as braid
closures:

- the breadth of V equals the crossing count (Kauffman, Murasugi,
  Thistlethwaite);
- the breadth is at most the determinant;
- V has no gap unless it is +-t^r V(T(2,det)) or that of the mirror
  (Thistlethwaite, Theorem 1(iv)).

More than one gap appears only on connected sums of Hopf links. These
are test oracles; the battery in qalt.qa takes primality from its
caller.
"""

import random

from conftest import braid_closure
from qalt import corpus
from qalt.bracket import determinant, jones
from qalt.laurent import HalfLaurent, analyze, monomial_quotient
from qalt.qa import HOPF_JONES, torus_2n_jones
from qalt.tait import black_graph


def _reduced(d) -> bool:
    """No nugatory crossing: the Tait graph has no loop and no isthmus."""
    g = black_graph(d)
    return not any(g.is_loop(i) or g.is_isthmus(i)
                   for i in range(g.edge_count()))


def _diagrammatically_prime(d) -> bool:
    """No two faces share two distinct arcs."""
    sides = [{d.crossings[c][s] for c, s in face} for face in d.faces()]
    return all(len(f & g) < 2
               for i, f in enumerate(sides) for g in sides[i + 1:])


def _alternating_closures(seed: int, count: int):
    """Closures of alternating braid words of 8-14 letters on 3-5
    strands, sigma_i positive for odd i and negative for even i, every
    generator at least twice, so the closure is connected and reduced."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        strands = rng.randint(3, 5)
        n = rng.randint(8, 14)
        gens = [i for i in range(1, strands) for _ in range(2)]
        if len(gens) > n:
            continue
        gens += [rng.randint(1, strands - 1) for _ in range(n - len(gens))]
        rng.shuffle(gens)
        out.append(braid_closure([g if g % 2 else -g for g in gens],
                                 strands))
    return out


def _torus_closures():
    """T(2,n) for n = 8..14 as the closure of sigma_1^n."""
    return [braid_closure([1] * n, 2) for n in range(8, 15)]


def _mirror(v):
    return HalfLaurent({-e2: c for e2, c in v.items2()})


def _is_torus_2n(v, det) -> bool:
    ref = torus_2n_jones(det)
    return (monomial_quotient(v, ref) is not None
            or monomial_quotient(v, _mirror(ref)) is not None)


def _hopf_sum(k):
    d = corpus.hopf()
    for _ in range(k - 1):
        d = d.connected_sum(corpus.hopf())
    return d


def test_generated_closures_are_reduced_and_often_prime():
    # a generator whose letters all sit in one block splits the closure
    # into a connected sum, so not every closure is prime
    closures = _alternating_closures(1, 40)
    assert all(_reduced(d) for d in closures)
    prime = [d for d in closures if _diagrammatically_prime(d)]
    assert len(prime) >= 15
    assert all(_reduced(d) and _diagrammatically_prime(d)
               for d in _torus_closures())


def test_primality_check_sees_connected_sums():
    a, b = _alternating_closures(2, 2)
    assert not _diagrammatically_prime(a.connected_sum(b))
    assert not _diagrammatically_prime(a.connected_sum(corpus.hopf()))
    assert not _diagrammatically_prime(_hopf_sum(2))
    assert _diagrammatically_prime(corpus.trefoil())


def test_prime_reduced_alternating_breadth_det_and_gaps():
    torus = checked = 0
    for d in _alternating_closures(3, 40) + _torus_closures():
        if not _diagrammatically_prime(d):
            continue
        checked += 1
        v, det = jones(d), determinant(d)
        rep = analyze(v, step2=2)
        n = len(d.crossings)
        assert rep.breadth2 == 2 * n
        assert rep.breadth2 <= 2 * det
        if rep.gap_count():
            assert _is_torus_2n(v, det)
            torus += 1
    # the T(2,n) closures take the exception
    assert torus >= len(_torus_closures())
    assert checked >= 15 + len(_torus_closures())


def test_more_than_one_gap_only_on_hopf_sums():
    closures = _alternating_closures(4, 12)
    others = (closures + _torus_closures()
              + [a.connected_sum(b) for a, b in zip(closures, closures[1:])]
              + [d.connected_sum(corpus.hopf()) for d in closures])
    for d in others:
        assert analyze(jones(d), step2=2).gap_count() <= 1
    for k in range(2, 5):
        v = jones(_hopf_sum(k))
        assert analyze(v, step2=2).gap_count() >= 2
        power = HalfLaurent.one()
        for _ in range(k):
            power = power * HOPF_JONES
        assert monomial_quotient(v, power) is not None
