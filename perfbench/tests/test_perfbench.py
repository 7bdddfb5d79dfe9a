"""Tests of the benchmark's own pieces.

    python3 -m pytest perfbench/tests
"""

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import layers  # noqa: E402
import ringgen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Recorder, outermost, self_times, top_level_time  # noqa: E402


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]},
            [w["name"] for w in bench["workloads"]])


# -- spans --------------------------------------------------------------------

# a [0, 10] > b [1, 4] > c [2, 3];  a > d [5, 6];  e [11, 11.5] on its own
NESTED = [["x.a", 0.0, 10.0, -1, 0], ["x.b", 1.0, 4.0, 0, 0],
          ["y.c", 2.0, 3.0, 1, 7], ["x.a", 5.0, 6.0, 0, 0],
          ["y.e", 11.0, 11.5, -1, 0]]


def test_self_time_subtracts_direct_children_only():
    assert self_times(NESTED) == [6.0, 2.0, 1.0, 1.0, 0.5]
    assert top_level_time(NESTED) == 10.5


def test_outermost_skips_spans_nested_in_their_own_name():
    assert [outermost(NESTED, i) for i in range(5)] == [
        True, True, True, False, True]


def test_layer_metrics_add_up_to_job_time():
    spans = [["liering.ch_batch", 0.0, 2.0, -1, 100],
             ["liering.bracket_batch", 0.5, 1.5, 0, 100],
             ["ratlin.busy", 3.0, 4.0, -1, 0],
             ["ratlin.busy", 3.2, 3.6, 2, 0]]
    m = layers.layer_metrics([(5.0, spans)])
    assert m["liering.ch_batch_s"] == 1.0
    assert m["liering.bracket_batch_s"] == 1.0
    assert m["liering.ch_products"] == 100
    assert m["liering.ch_products_per_s"] == 50.0
    assert m["ratlin.busy_s"] == 1.0
    assert m["ratlin.calls"] == 1             # the nested call is internal
    assert m["trace.unattributed_s"] == 2.0
    total = sum(m[f"{n}_s"] for n in layers.SPAN_NAMES)
    assert total + m["trace.unattributed_s"] == m["trace.job_s"] == 5.0


def test_recorder_nests_spans_and_closes_them_on_error():
    rec = Recorder()

    def inner(x):
        if x < 0:
            raise ValueError(x)
        return [0] * x

    traced_inner = rec.wrap("m.inner", inner, lambda a, k, r: len(r))
    outer = rec.wrap("m.outer", lambda x: traced_inner(x))
    assert outer(3) == [0, 0, 0]
    with pytest.raises(ValueError):
        outer(-1)
    names = [(s[0], s[3], s[4]) for s in rec.spans]
    assert names == [("m.outer", -1, 0), ("m.inner", 0, 3),
                     ("m.outer", -1, 0), ("m.inner", 2, 0)]
    assert all(s[1] <= s[2] for s in rec.spans)


# -- seeded rings -------------------------------------------------------------

def test_class2_rings_are_a_function_of_the_seed():
    assert ringgen.class2_rings(7) == ringgen.class2_rings(7)
    draws = {json.dumps(ringgen.class2_rings(s), sort_keys=True)
             for s in range(6)}
    assert len(draws) > 1


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_class2_rings_are_valid_class2_rings_within_caps(seed):
    from orbitkit.liering import LazardGroup, make_ring
    from orbitkit.oracle import CLASS_CAP, conjugacy_classes
    from orbitkit.orbitmethod import _TABLE_LIMIT
    for spec, (p, rank, centre) in zip(ringgen.class2_rings(seed),
                                       ringgen.SHAPES):
        brackets = {}
        for key, row in spec["brackets"].items():
            i, j = (int(x) - 1 for x in key.strip("()").split(","))
            brackets[(i, j)] = {int(m) - 1: c for m, c in row.items()}
            assert i < j < rank - centre
            assert all(m >= rank - centre for m in brackets[(i, j)])
        ring = make_ring(spec["p"], spec["moduli"], brackets)
        assert (ring.p, ring.rank, ring.class_) == (p, rank, 2)
        assert ring.order() <= min(ringgen.ORDER_LIMIT, _TABLE_LIMIT)
        table = {k: [v.get(rank - centre + m, 0) for m in range(centre)]
                 for k, v in brackets.items()}
        classes = ringgen.class_count(p, rank - centre, centre, table)
        assert classes == len(conjugacy_classes(LazardGroup(ring)))
        assert classes <= min(ringgen.CLASS_LIMIT, CLASS_CAP)


# -- declared metrics and workloads -------------------------------------------

class _FakeJob:
    def __init__(self, command):
        self.command = command


class _FakeResult:
    def __init__(self, command, spans):
        self.job, self.ok, self.spans = _FakeJob(command), True, spans
        self.total_s, self.setup_s, self.rss_kb = 2.0, 0.5, 1024

    @property
    def work_s(self):
        return self.total_s - self.setup_s


def test_every_metric_emitted_is_declared_with_its_unit():
    end, layer, names = _declared()
    passes = [[_FakeResult("solve", [])]]
    emitted = run.end_to_end(passes)
    assert {k: u for k, (_, u) in emitted.items()} == end
    spans = [[name, 0.0, 0.1, -1, 1] for name in layers.SPAN_NAMES]
    emitted = run.per_layer(passes, [[_FakeResult("solve", spans)]])
    assert {k: u for k, (_, u) in emitted.items()} == layer
    assert sorted(names) == sorted(workloads.WHY)


def test_workloads_are_deterministic_per_seed(tmp_path):
    for name in workloads.WHY:
        a, spec_a = workloads.build(name, 3, str(tmp_path))
        b, spec_b = workloads.build(name, 3, str(tmp_path))
        assert [j.args for j in a] == [j.args for j in b]
        assert spec_a == spec_b


# -- traced and untraced jobs -------------------------------------------------

# spans that the last job of a workload with the given command must record:
# names the CLI imported (character_table, solve_phi_psi), names another
# module imported (orbitmethod's conjugacy_classes), methods, and eig as
# oracle calls it
EXPECTED_SPANS = {
    ("small_rings", "solve"): {"cli.import", "freelie.bch",
                               "chsolver.solve_phi_psi",
                               "chsolver.check_identity"},
    ("u4_census", "chartable"): {"cli.import", "cli.spec_load",
                                 "liering.make_ring", "liering.group_build",
                                 "oracle.character_table",
                                 "oracle.conjugacy_classes", "oracle.eig",
                                 "liering.ch_batch",
                                 "orbitmethod.kirillov_character"},
}


@pytest.mark.parametrize("name,command", sorted(EXPECTED_SPANS))
def test_traced_and_untraced_reports_are_byte_identical(tmp_path, name,
                                                        command, monkeypatch):
    monkeypatch.chdir(ROOT)
    jobs, _ = workloads.build(name, 5, str(tmp_path))
    job = [j for j in jobs if j.command == command][-1]
    plain = run.run_job(job, 0, str(tmp_path), False, 5, 120)
    traced = run.run_job(job, 1, str(tmp_path), True, 5, 120)
    assert plain.ok and traced.ok, (plain.error, traced.error)
    assert plain.digest == traced.digest
    assert plain.spans == [] and traced.missing == []
    assert EXPECTED_SPANS[name, command] <= {s[0] for s in traced.spans}
    assert 0 < plain.setup_s < plain.total_s
