"""Golden-trace regression harness for the shared discrete-event runtime.

The fixtures under ``tests/golden/*.json`` were captured from the
pre-refactor ``ClusterSimulator`` / ``RequestRouter`` loops (see
``capture_golden.py``).  These tests assert the runtime-based
implementations reproduce them **exactly** — every float bit-identical,
every event in the same order — and that repeated runs are deterministic
under fixed seeds.  A mismatch here means the refactor changed observable
scheduling behavior, not just its internals.
"""

from __future__ import annotations

import json
import os

import pytest

from capture_golden import capture, serving_to_dict, sim_to_dict  # noqa: F401

HERE = os.path.dirname(os.path.abspath(__file__))

FIXTURES = (
    "sim_three_job_wfs",
    "sim_three_job_static",
    "sim_trace20_wfs",
    "serve_fixed",
    "serve_autoscaled",
    "serve_tenants_wfq",
    "serve_shed_brownout_wave",
    "cosched_chaos_crash_recover",
    "cosched_domain_wipe_recover",
)


def _load(name: str) -> dict:
    with open(os.path.join(HERE, f"{name}.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def current() -> dict:
    """One capture of every fixture scenario on the current code."""
    return capture()


@pytest.mark.parametrize("name", FIXTURES)
def test_matches_pre_refactor_golden(name, current):
    golden = _load(name)
    got = json.loads(json.dumps(current[name]))  # normalize tuples/keys
    assert got == golden, (
        f"{name}: runtime-based implementation diverged from the "
        f"pre-refactor golden fixture")


def test_simulation_event_order_deterministic():
    """Two runs of the same seed produce byte-identical results."""
    from repro.elastic import ClusterSimulator, ElasticWFSScheduler, generate_trace

    trace = generate_trace(12, 12, seed=7)
    a = sim_to_dict(ClusterSimulator(6, ElasticWFSScheduler()).run(trace))
    trace = generate_trace(12, 12, seed=7)
    b = sim_to_dict(ClusterSimulator(6, ElasticWFSScheduler()).run(trace))
    assert a == b


def test_serving_event_order_deterministic():
    from repro.elastic import spike_phases
    from repro.serving import serve_workload

    def run():
        return serving_to_dict(serve_workload(
            "mlp_synthetic", spike_phases(300.0, 4.0, 1.0, 0.5),
            max_batch=8, max_wait=0.002, pool_devices=4,
            autoscale=True, slo_p99=0.030, initial_devices=1, seed=4))

    assert run() == run()


def _single_tenant_gateway_dict(phases, *, seed, **kwargs):
    """A WFQ gateway run whose one tenant wraps the plain Poisson source."""
    from repro.data import make_dataset
    from repro.framework.models import get_workload
    from repro.serving import (
        OpenLoopPoissonSource,
        TenantRegistry,
        TenantSpec,
        TenantTaggingSource,
        serve_workload,
    )

    workload = get_workload("mlp_synthetic")
    dataset = make_dataset(workload.dataset, n=512, seed=seed)
    source = TenantTaggingSource(
        OpenLoopPoissonSource(phases, dataset.x_val, seed=seed), "only")
    registry = TenantRegistry([TenantSpec("only", slo_class="premium")])
    report = serve_workload(
        "mlp_synthetic", phases, seed=seed, source=source, tenants=registry,
        **kwargs)
    got = json.loads(json.dumps(serving_to_dict(report)))
    # Strip the gateway's additive tenant bookkeeping; everything that
    # remains must be bit-identical to the plain-router fixture.
    got.pop("tenants")
    for record in got["records"]:
        assert record.pop("tenant") == "only"
    return got


def _fixed_phases():
    from repro.elastic import ServingPhase
    return [ServingPhase(1.0, 300.0)]


def _spiky_phases():
    from repro.elastic import spike_phases
    return spike_phases(400.0, 6.0, 3.0, 1.0)


@pytest.mark.parametrize("name,phases,kwargs", [
    ("serve_fixed", _fixed_phases,
     dict(max_batch=8, max_wait=0.002, pool_devices=4, seed=0)),
    ("serve_autoscaled", _spiky_phases,
     dict(max_batch=16, pool_devices=8, autoscale=True, slo_p99=0.030,
          initial_devices=2, seed=1)),
])
def test_single_tenant_wfq_matches_fifo_golden(name, phases, kwargs):
    """One tenant through the WFQ gateway == the pre-tenancy FIFO router.

    The tentpole's bit-identity clause: with a single tenant the WFQ
    dispatcher's finish tags are monotone in arrival order, so the gateway
    reproduces the committed pre-PR golden fixtures byte for byte — fixed
    mapping and the autoscaled spike both.
    """
    got = _single_tenant_gateway_dict(phases(), **kwargs)
    assert got == _load(name), (
        f"{name}: single-tenant WFQ gateway diverged from the FIFO golden")
