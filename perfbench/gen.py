"""Seeded braid-closure generator for the benchmark workloads.

A braid word on k strands is a list of nonzero integers: +i is the
generator sigma_i and -i its inverse, 1 <= i <= k-1. Reading the word
bottom to top, each letter becomes one PD crossing on the current labels
of strand positions i and i+1 (bl, br below; fresh tl, tr above):

    sigma_i+  ->  X[bl, br, tr, tl]
    sigma_i-  ->  X[br, tr, tl, bl]

The closure then renames each top label to the bottom label of its
position. Every generator must occur at least twice, so the diagram is
connected and has no crossing that a lone letter would make nugatory.

Three families:

- ``random``: each letter gets an independent random sign;
- ``alternating``: sigma_i gets sign + for odd i and - for even i, which
  makes the closure an alternating diagram;
- ``near``: an alternating word with one or two letters switched.

This module uses only the standard library: the program under test
receives nothing but the rendered PD text.
"""

from __future__ import annotations

import random

FAMILIES = ("random", "alternating", "near")


def closure(word, strands: int) -> list:
    """PD crossings (4-tuples) of the closure of ``word`` on ``strands``."""
    if strands < 2:
        raise ValueError("need at least two strands")
    cur = list(range(1, strands + 1))
    fresh = strands + 1
    out = []
    for g in word:
        i = abs(g) - 1
        if g == 0 or i + 1 >= strands:
            raise ValueError("letter %r outside 1..%d" % (g, strands - 1))
        bl, br = cur[i], cur[i + 1]
        tl, tr = fresh, fresh + 1
        fresh += 2
        out.append((bl, br, tr, tl) if g > 0 else (br, tr, tl, bl))
        cur[i], cur[i + 1] = tl, tr
    top_to_bottom = {cur[p]: p + 1 for p in range(strands)}
    return [tuple(top_to_bottom.get(x, x) for x in t) for t in out]


def render(crossings) -> str:
    return " ".join("X[%d,%d,%d,%d]" % tuple(t) for t in crossings)


def alternating_sign(g: int) -> int:
    return g if g % 2 else -g


def braid_word(rng: random.Random, strands: int, length: int, family: str,
               switches: int = 1) -> list:
    """A random word with every generator at least twice.

    ``switches`` is the number of letters the ``near`` family flips."""
    if family not in FAMILIES:
        raise ValueError("unknown family %r" % (family,))
    if length < 2 * (strands - 1):
        raise ValueError("word too short to use every generator twice")
    while True:
        gens = [rng.randint(1, strands - 1) for _ in range(length)]
        if all(gens.count(i) >= 2 for i in range(1, strands)):
            break
    if family == "random":
        return [g * rng.choice((1, -1)) for g in gens]
    word = [alternating_sign(g) for g in gens]
    if family == "near":
        for j in rng.sample(range(length), switches):
            word[j] = -word[j]
    return word


def _cyclic_key(word) -> tuple:
    # cyclic rotations of a word close to the same diagram
    return min(tuple(word[i:] + word[:i]) for i in range(len(word)))


def links(family: str, seed: int, count: int, crossings: range,
          strands: range = range(3, 6)) -> list:
    """``count`` distinct (name, PD text) pairs of one family.

    The composition is fixed by position so that every seed gets the
    same mix: entry j has ``crossings[j % len(crossings)]`` crossings on
    ``strands[(j // len(crossings)) % len(strands)]`` strands, and in the
    ``near`` family 1 or 2 switched letters alternating by the next
    digit. Only the words depend on the seed."""
    rng = random.Random("%s:%d" % (family, seed))
    seen = set()
    out = []
    nc, ns = len(crossings), len(strands)
    for j in range(count):
        n = crossings[j % nc]
        k = strands[(j // nc) % ns]
        switches = 1 + (j // (nc * ns)) % 2
        for _ in range(10000):
            word = braid_word(rng, k, n, family, switches)
            key = (k, _cyclic_key(word))
            if key not in seen:
                seen.add(key)
                break
        else:
            raise ValueError("too few distinct %s words with %d crossings "
                             "on %d strands" % (family, n, k))
        out.append(("%s-%d-s%d-n%d" % (family, j, k, n),
                    render(closure(word, k))))
    return out


# properties the tests check on generated codes

def labels_alternate(crossings) -> bool:
    """Every label has one end on an under slot (0, 2) and the other on
    an over slot (1, 3): each arc runs from over to under."""
    slots = {}
    for t in crossings:
        for s, lab in enumerate(t):
            slots.setdefault(lab, []).append(s % 2)
    return all(sorted(v) == [0, 1] for v in slots.values())


def is_connected(crossings) -> bool:
    """The crossings form one piece when joined along shared labels."""
    parent = list(range(len(crossings)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    first = {}
    for ci, t in enumerate(crossings):
        for lab in t:
            if lab in first:
                parent[find(ci)] = find(first[lab])
            else:
                first[lab] = ci
    return len({find(c) for c in range(len(crossings))}) == 1

