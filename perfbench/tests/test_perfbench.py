"""Tests of the benchmark itself; run from the repository root with
`python3 -m pytest perfbench/tests -q` (about a minute)."""

import io
import json
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import workloads
from spans import Tracer

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_ladder_spec_is_almost_kahler_at_scale_one(n):
    eng = workloads.fresh_engine()
    spec = eng.model.parse_spec(workloads.ladder_spec(n))
    assert spec.n == n
    assert eng.model.validate(spec).ok
    assert spec.almost_kahler
    assert spec.unitary_scale == 1


def test_ladder_n4_extends_h12_t3():
    """At n = 4 the ladder has the structure equations of h12_t3."""
    eng = workloads.fresh_engine()
    ladder = eng.model.parse_spec(workloads.ladder_spec(4))
    h12 = eng.catalog.get("h12_t3").spec
    assert ladder.structure == h12.structure
    assert ladder.omega == h12.omega


def _small_ladder():
    workload = workloads.LadderTable()
    workload.n = 3
    return workload


def test_consecutive_units_start_from_cold_caches():
    workload = _small_ladder()
    bench = workloads._Run(workload, workloads.ladder_spec(3))
    _, _, first = bench.unit(Tracer())
    _, _, second = bench.unit(Tracer())
    for key in ("operators.operator_block.builds", "linalg.rref.calls"):
        assert first[key] > 0
        assert first[key] == second[key]


def test_reused_engine_would_show_as_fewer_builds():
    """Control for the test above: without a fresh engine the second unit
    hits the caches, so the counters do detect carry-over."""
    workload = _small_ladder()
    workload.cold = False
    bench = workloads._Run(workload, workloads.ladder_spec(3))
    _, _, first = bench.unit(Tracer())
    _, _, second = bench.unit(Tracer())
    assert second["operators.operator_block.builds"] < \
        first["operators.operator_block.builds"]
    assert second["linalg.rref.calls"] < first["linalg.rref.calls"]


def _wrappers_left(eng):
    def is_wrapper(value):
        return getattr(value, "__qualname__", "").startswith(
            "Tracer._wrapper")

    owners = [eng.package, eng.linalg.Matrix, eng.hodge.Subspace]
    owners += [getattr(eng, m) for m in workloads.ENGINE_MODULES]
    found = []
    for owner in owners:
        for attr, value in vars(owner).items():
            if is_wrapper(value):
                found.append(attr)
            elif type(value) is dict:
                found += [f"{attr}[{k!r}]" for k, v in value.items()
                          if is_wrapper(v)]
    return found


def _report(eng):
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert eng.cli.main(["report", "--json"]) == 0
    return buf.getvalue()


def test_traced_report_is_byte_identical_and_wrappers_are_restored():
    plain = _report(workloads.fresh_engine())

    eng = workloads.fresh_engine()
    assert workloads.CHECK_IDS == eng.hodge.CHECK_IDS
    before = {(owner, attr): value
              for owner in (eng.operators, eng.hodge, eng.cli, eng.catalog)
              for attr, value in vars(owner).items()}
    before_methods = dict(vars(eng.linalg.Matrix))
    tracer = Tracer()
    workloads.install_tracer(eng, tracer)
    assert _wrappers_left(eng)
    traced = _report(eng)
    tracer.uninstall()

    assert traced == plain
    assert workloads.sha256(plain) == \
        workloads.EXPECTED["catalog_report_sha256"]
    assert _wrappers_left(eng) == []
    for (owner, attr), value in before.items():
        assert vars(owner)[attr] is value, attr
    for attr, value in before_methods.items():
        assert vars(eng.linalg.Matrix)[attr] is value, attr
    totals = tracer.layer_totals()
    assert totals["calls"]["linalg.rref"] > 0
    assert totals["calls"]["hodge.verify.prop31"] > 0


def test_query_stream_digest_follows_the_seed():
    first = workloads.stream_digest(workloads.make_queries(7))
    assert workloads.stream_digest(workloads.make_queries(7)) == first
    assert workloads.stream_digest(workloads.make_queries(8)) != first


def test_query_stream_mix_is_the_same_for_every_seed():
    def mix(seed):
        return sorted((kind, key, op) for kind, key, op, _
                      in workloads.make_queries(seed))

    assert mix(1) == mix(2)


def test_query_forms_parse_with_the_planned_bidegree():
    eng = workloads.fresh_engine()
    for kind, key, op, text in workloads.make_queries(3)[:100]:
        spec = eng.catalog.get(key).spec
        form = eng.model.parse_form(text, spec.n, spec.symbols)
        assert form.pure_bidegree() is not None
        assert not form.is_zero()


def test_self_time_excludes_children_and_hooks():
    class Layers:
        @staticmethod
        def inner():
            time.sleep(0.02)

        @staticmethod
        def outer():
            time.sleep(0.01)
            Layers.inner()

    original = vars(Layers)["inner"]
    tracer = Tracer()
    tracer.wrap_method(Layers, "inner", "inner",
                       hook=lambda args, result: time.sleep(0.05))
    tracer.wrap_method(Layers, "outer", "outer")
    Layers.outer()
    tracer.uninstall()
    totals = tracer.layer_totals()
    assert 0.01 <= totals["self"]["outer"] < 0.03
    assert 0.02 <= totals["self"]["inner"] < 0.04
    assert totals["outer"]["outer"] < 0.06  # hook time is booked apart
    assert totals["calls"] == {"outer": 1, "inner": 1}
    assert vars(Layers)["inner"] is original


def test_benchmark_json_names_the_metrics_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == \
        list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(workloads.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, unit) for name, unit, _ in workloads.PER_LAYER]


def test_speed_factor_is_the_mean_probe_speed_near_the_interval():
    probe = workloads.SpeedProbe()
    window = workloads.PROBE_WINDOW_S
    probe.samples = [(0.0, 0.002), (10.0, 0.001), (10.0 + window, 0.004),
                     (20.0, 0.003)]
    ref = workloads.PROBE_REF_S
    assert probe.factor(9.0, 10.0) == pytest.approx(
        ref * (1 / 0.001 + 1 / 0.004) / 2)
    assert probe.factor(4.0, 5.0) == pytest.approx(  # no sample near: all
        ref * (1 / 0.002 + 1 / 0.001 + 1 / 0.004 + 1 / 0.003) / 4)
    assert workloads.SpeedProbe().factor(0.0, 1.0) == 1.0


def test_clock_leaves_the_probes_out():
    probe = workloads.SpeedProbe()
    probe.start()
    try:
        start, wall = probe.now(), time.perf_counter()
        deadline = wall + 0.3
        while time.perf_counter() < deadline:
            sum(range(1000))
        clock_s = probe.now() - start
    finally:
        probe.stop()
    assert len(probe.samples) >= 5
    assert probe.spent > 0
    assert clock_s == pytest.approx(0.3 - probe.spent, abs=0.01)
