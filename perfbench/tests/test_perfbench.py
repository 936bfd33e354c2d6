"""Tests of the benchmark itself. From the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import re
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import gen  # noqa: E402
import spec  # noqa: E402
from spans import Tracer  # noqa: E402

BENCHMARK = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _family_links(family, seed=7, count=63):
    return gen.links(family, seed, count, range(8, 15))


@pytest.mark.parametrize("family", gen.FAMILIES)
def test_same_seed_same_text(family):
    a = _family_links(family)
    b = _family_links(family)
    assert "\n".join(pd for _, pd in a).encode() == \
        "\n".join(pd for _, pd in b).encode()
    assert [pd for _, pd in a] != [pd for _, pd in _family_links(family, 8)]


@pytest.mark.parametrize("family", gen.FAMILIES)
def test_no_code_repeats_and_composition_is_fixed(family):
    links = _family_links(family)
    assert len({pd for _, pd in links}) == len(links)
    for j, (name, pd) in enumerate(links):
        n = 8 + j % 7
        assert name.endswith("-n%d" % n)
        assert pd.count("X[") == n


@pytest.mark.parametrize("family", gen.FAMILIES)
def test_families_are_connected(family):
    for _, pd in _family_links(family):
        assert gen.is_connected(_crossings(pd))


def test_alternating_family_goes_over_then_under():
    for _, pd in _family_links("alternating"):
        assert gen.labels_alternate(_crossings(pd))


def test_near_family_is_not_alternating():
    for _, pd in _family_links("near"):
        assert not gen.labels_alternate(_crossings(pd))


def test_closure_conventions():
    assert gen.closure([1], 2) == [(1, 2, 2, 1)]
    assert gen.closure([-1], 2) == [(2, 2, 1, 1)]
    assert gen.closure([1, 2], 3) == [(1, 2, 5, 1), (5, 3, 3, 2)]


def test_closures_are_the_expected_links():
    qalt = pytest.importorskip("qalt")
    trefoil = qalt.parse_pd(gen.render(gen.closure([1, 1, 1], 2)))
    assert trefoil.component_count == 1
    assert qalt.determinant(trefoil) == 3
    hopf = qalt.parse_pd(gen.render(gen.closure([-1, -1], 2)))
    assert hopf.component_count == 2
    assert qalt.determinant(hopf) == 2
    # figure-eight: sigma1 sigma2^-1 sigma1 sigma2^-1, alternating
    fig8 = gen.closure([1, -2, 1, -2], 3)
    assert gen.labels_alternate(fig8)
    assert qalt.determinant(qalt.parse_pd(gen.render(fig8))) == 5


DECLARED_WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
DECLARED_E2E = {m["name"] for m in BENCHMARK["end_to_end"]}
DECLARED_LAYER = {m["name"] for m in BENCHMARK["per_layer"]}


def test_metric_names_and_units():
    names = list(DECLARED_E2E) + list(spec.PRINTED_END_TO_END) + \
        list(spec.layer_moves())
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    units = [m["unit"] for m in BENCHMARK["end_to_end"]] + \
        [m["unit"] for m in BENCHMARK["per_layer"]] + \
        [u for u, _ in spec.PRINTED_END_TO_END.values()] + \
        list(spec.PRINTED_LAYER.values())
    for unit in units:
        assert UNIT.fullmatch(unit), unit
    for w in spec.WORKLOADS:
        assert NAME.fullmatch(w)


def _reported_on(metric):
    # a declared end-to-end metric is reported on every workload
    if metric in DECLARED_E2E:
        return spec.ALL
    return spec.PRINTED_END_TO_END[metric][1]


def test_every_layer_metric_names_its_end_to_end_metric_and_workload():
    assert set(DECLARED_WORKLOADS) <= set(spec.WORKLOADS)
    for name, pairs in spec.layer_moves().items():
        for metric, workload in pairs:
            assert workload in _reported_on(metric), (name, metric)
        if name in DECLARED_LAYER:
            # a declared metric can move on a declared workload
            assert any(w in DECLARED_WORKLOADS for _, w in pairs), name


def test_every_computed_metric_is_declared_or_printed():
    import run
    assert DECLARED_LAYER | set(spec.PRINTED_LAYER) == \
        set(spec.layer_moves())
    assert not DECLARED_LAYER & set(spec.PRINTED_LAYER)
    res = {"attempted": 10, "elapsed_s": 5.0, "link_ms": [1.0, 2.0],
           "rss_kib": 4096, "failures": {}, "layers": {},
           "outcomes": {"certified": 10, "exhausted": 0, "budget": 0},
           "cert_bytes": [100], "replay_ms": [3.0], "max_nodes": 1,
           "cert_nodes": [3], "cert_unique": [2]}
    assert set(run.layer_metrics("certify-qa", res, res)) == \
        set(spec.layer_moves())
    for w in spec.WORKLOADS:
        computed = set(run.end_to_end(w, res, 0.1))
        assert computed == DECLARED_E2E | {
            k for k, (_, ws) in spec.PRINTED_END_TO_END.items()
            if w in ws}, w


def test_tracer_self_time_excludes_children_and_restores():
    mod = types.SimpleNamespace()

    def leaf(n):
        return sum(i * i for i in range(n))

    def outer(n):
        return mod.leaf(n) + mod.leaf(n)

    mod.leaf, mod.outer = leaf, outer
    tracer = Tracer()
    tracer.wrap(mod, "outer", "m.outer")
    tracer.wrap(mod, "leaf", "m.leaf", span=False)
    assert mod.outer(20000) == 2 * leaf(20000)
    tracer.restore()
    assert mod.outer is outer and mod.leaf is leaf
    totals = tracer.totals()
    calls, self_ns, total_ns = totals["m.outer"]
    assert calls == 1 and total_ns >= totals["m.leaf"][2] + self_ns
    assert totals["m.leaf"][0] == 2
    assert self_ns < totals["m.leaf"][1]
    (span,) = tracer.spans
    assert span[1] == "m.outer" and span[4] is None


def test_instrument_wraps_every_layer_function_and_restores():
    qalt = pytest.importorskip("qalt")
    from spans import instrument
    before = qalt.diagram.Diagram.smooth
    tracer = Tracer()
    instrument(tracer)
    try:
        assert tracer.names == set(spec.LAYER_FUNCTIONS)
        d = qalt.parse_pd(gen.render(gen.closure([1, -2, 1, -2], 3)))
        assert isinstance(qalt.qa.certify(d, qalt.Budget()),
                          qalt.Certificate)
    finally:
        tracer.restore()
    assert qalt.diagram.Diagram.smooth is before
    totals = tracer.totals()
    assert totals["qa.certify"][0] == 1
    assert totals["diagram.Diagram.smooth"][0] > 0


def _crossings(pd):
    return [tuple(int(x) for x in tok[2:-1].split(","))
            for tok in pd.split()]


def test_generator_refuses_a_family_too_small_for_the_count():
    # 32 distinct alternating words of 8 letters on 3 strands
    with pytest.raises(ValueError):
        gen.links("alternating", 1, 33, range(8, 9), range(3, 4))
