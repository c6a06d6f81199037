"""Property-based tests for the data-passing channels and the cost model.

Invariants checked across arbitrary payload sizes:

* every channel delivers the payload intact (integrity is structural, not a
  coincidence of one test vector);
* simulated latency is monotone in payload size for every mode;
* Roadrunner's serialization component never grows like the baselines';
* the makespan helper never reports a makespan below the longest track or
  above the serial sum.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.environment import build_pair_setup
from repro.payload import Payload
from repro.sim.engine import ParallelTracks
from repro.workloads.generators import make_payload

_MODES = ["roadrunner-user", "roadrunner-kernel", "runc-http", "wasmedge-http"]


@given(
    mode=st.sampled_from(_MODES),
    size=st.integers(min_value=1, max_value=256) .map(lambda kb: kb * 1024),
)
@settings(max_examples=30, deadline=None)
def test_every_channel_delivers_intact_real_payloads(mode, size):
    setup = build_pair_setup(mode, internode=False, materialize=True)
    payload = Payload.random(size, seed=size)
    outcome = setup.channel.transfer(setup.source, setup.target, payload)
    payload.require_match(outcome.delivered)
    assert outcome.metrics.total_latency_s > 0


@given(
    mode=st.sampled_from(_MODES),
    small_mb=st.integers(min_value=1, max_value=40),
    factor=st.integers(min_value=2, max_value=8),
)
@settings(max_examples=20, deadline=None)
def test_latency_is_monotone_in_payload_size(mode, small_mb, factor):
    small_setup = build_pair_setup(mode, internode=False)
    large_setup = build_pair_setup(mode, internode=False)
    small = small_setup.channel.transfer(
        small_setup.source, small_setup.target, make_payload(small_mb)
    )
    large = large_setup.channel.transfer(
        large_setup.source, large_setup.target, make_payload(small_mb * factor)
    )
    assert large.metrics.total_latency_s > small.metrics.total_latency_s


@given(size_mb=st.integers(min_value=1, max_value=300))
@settings(max_examples=20, deadline=None)
def test_roadrunner_serialization_stays_negligible_at_any_size(size_mb):
    rr_setup = build_pair_setup("roadrunner-user", internode=False)
    wasm_setup = build_pair_setup("wasmedge-http", internode=False)
    payload = make_payload(size_mb)
    rr = rr_setup.channel.transfer(rr_setup.source, rr_setup.target, payload)
    wasm = wasm_setup.channel.transfer(wasm_setup.source, wasm_setup.target, payload)
    assert rr.metrics.serialization_s < 0.05 * wasm.metrics.serialization_s


@given(
    tracks=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        ),
        min_size=1,
        max_size=30,
    ),
    workers=st.integers(min_value=1, max_value=8),
)
def test_makespan_bounds(tracks, workers):
    scheduler = ParallelTracks(workers=workers)
    for cpu, wait in tracks:
        scheduler.add(cpu, wait)
    makespan = scheduler.makespan()
    longest = max(cpu + wait for cpu, wait in tracks)
    serial = sum(cpu + wait for cpu, wait in tracks)
    assert makespan >= longest - 1e-9
    assert makespan <= serial + 1e-9
    assert scheduler.mean_completion() <= makespan + 1e-9
