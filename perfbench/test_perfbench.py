"""Tests of the benchmark's own logic: Phi oracles, span arithmetic, probes,
host-speed rescaling.

    python3 -m pytest perfbench
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import oracles  # noqa: E402
import tracing  # noqa: E402
from workloads import SPEED_KINDS, WORKLOADS  # noqa: E402
from varopt import schedules  # noqa: E402


def test_scaling_linear_oracle_matches_library():
    params = {"alpha0": math.log(10.0), "beta0": -0.7, "gamma1": 10.0}
    delta_T, horizon = -0.7 + 10.0, 1.0
    sched = schedules.linear_schedule(delta_T=delta_T, horizon_T=horizon, **params)
    times = schedules.build_mesh(sched, 9).times
    phi = schedules.phi_scalar_path(sched, times)
    expected = oracles.phi_scaling_linear(params, delta_T, horizon, times)
    assert oracles.max_rel_err(phi, expected) <= oracles.PHI_RTOL


def test_scaling_linear_oracle_rejects_other_schedules():
    params = {"alpha0": math.log(10.0), "beta0": -0.7, "gamma1": 10.0}
    with pytest.raises(ValueError):
        oracles.phi_scaling_linear(params, 1.0, 1.0, [0.0])


def test_constant_scalar_oracle_matches_library():
    params = {"alpha0": math.log(10.0), "beta0": 0.2, "gamma0": 0.3}
    delta_T, horizon = 3.0, 1.0
    sched = schedules.constant_schedule(delta_T=delta_T, horizon_T=horizon, **params)
    times = schedules.build_mesh(sched, 9).times
    phi = schedules.phi_scalar_path(sched, times)
    expected = oracles.phi_constant_scalar(params, delta_T, horizon, times)
    assert oracles.max_rel_err(phi, expected) <= 1e-13


def test_constant_vector_oracle_matches_library():
    params = {"alpha0": math.log(10.0), "beta0": -4.0, "gamma0": 0.1}
    delta_T, horizon = 0.5, 2.0
    a_mat = [[0.3, 0.1], [0.1, 0.2]]
    b_vec = [1.0, 0.5]
    sched = schedules.constant_schedule(delta_T=delta_T, horizon_T=horizon, **params)
    times = schedules.build_mesh(sched, 12).times
    phi = schedules.phi_vector_path(sched, a_mat, b_vec, times)
    expected = oracles.phi_constant_vector(params, delta_T, horizon, a_mat, b_vec, times)
    assert expected.shape == phi.shape
    assert oracles.max_rel_err(phi, expected) <= 1e-13


def test_self_time_on_hand_built_span_tree():
    spans = [
        tracing.Span("root", 0.0, 10.0),
        tracing.Span("a", 1.0, 4.0, parent=0),
        tracing.Span("a.child", 2.0, 3.0, parent=1),
        tracing.Span("b", 3.0, 6.0, parent=0),     # overlaps a
        tracing.Span("c", 9.0, 12.0, parent=0),    # runs past root's end
    ]
    # root: 10 minus [1, 6] and [9, 10]; a: 3 minus [2, 3].
    assert tracing.self_times(spans) == [4.0, 2.0, 1.0, 3.0, 3.0]
    # a nested in root counts once; a.child nested in a counts once.
    assert tracing.inclusive_time(spans, {"root", "a"}) == 10.0
    assert tracing.inclusive_time(spans, {"a", "a.child", "b"}) == 6.0


def test_probe_wraps_name_bound_in_importing_module_and_restores():
    from varopt import optimizers

    original = schedules.build_mesh
    probes, missing = tracing.resolve(["varopt.schedules:build_mesh"])
    assert missing == []
    tracer = tracing.Tracer()
    with tracing.instrument(tracer, probes, []):
        assert optimizers.build_mesh is schedules.build_mesh is not original
        optimizers.build_mesh(schedules.constant_schedule(), 3)
    assert optimizers.build_mesh is schedules.build_mesh is original
    assert tracer.calls["varopt.schedules:build_mesh"] == 1
    assert tracing.layer_metrics(tracer)["schedules.mesh_calls"] == 1


def test_missing_probe_is_reported_and_reads_zero():
    targets = ["varopt.schedules:no_such_function", "varopt.no_such_module:f",
               "varopt.bregman:MirrorMap.no_such_method"]
    probes, missing = tracing.resolve(targets)
    assert probes == [] and missing == targets
    tracer = tracing.Tracer()
    with tracing.instrument(tracer, probes, probes):
        pass
    assert all(v == 0 for v in tracing.layer_metrics(tracer).values())


def test_benchmark_json_matches_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (m.name, m.unit) for m in tracing.LAYER_METRICS]


def test_rescaling_to_nominal_host_speed():
    nominal = hostspeed.NOMINAL_S["scalar"]
    # A host at half speed: the kernel and the stage both take twice as long.
    before, after = {"scalar": 1.5 * nominal}, {"scalar": 2.5 * nominal}
    assert hostspeed.at_nominal_speed(3.0, "scalar", before, after) == pytest.approx(1.5)
    times = hostspeed.time_kernels(hostspeed.KERNELS)
    assert set(times) == set(hostspeed.NOMINAL_S) and all(t > 0 for t in times.values())


def test_every_workload_names_its_speed_kernels():
    assert set(SPEED_KINDS) == set(WORKLOADS)
    for kinds in SPEED_KINDS.values():
        assert set(kinds) == {"experiment_s", "setup_s"}
        assert set(kinds.values()) <= set(hostspeed.KERNELS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_config_is_seeded_and_builds(name):
    from varopt.harness.config import build_experiment

    cfg, oracle = WORKLOADS[name](3, "unused")
    assert cfg == WORKLOADS[name](3, "unused")[0]
    assert cfg["seeds"] != WORKLOADS[name](4, "unused")[0]["seeds"]
    config = build_experiment(cfg)
    times = np.linspace(0.0, config.schedule.horizon_T, 5)
    assert np.all(np.isfinite(oracle(times)))
