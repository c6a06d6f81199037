"""Pinned arrival streams, and a numpy-free import of the CLI.

Every byte-identity gate downstream of the generators (bench digests, CLI
exports) rests on ``arrival_times()`` reproducing the same floats for the
same parameters.  These sha256 digests pin the exact IEEE-754 bits of
Poisson, bursty and diurnal streams on several seeds.  The cases include
streams longer than 8,192 events, bursty windows that end mid-stream and
a final window cut short by the horizon, and diurnal cycles with a nonzero
phase.
"""

import hashlib
import os
import struct
import subprocess
import sys

import pytest

from repro.traffic.arrivals import BurstyArrivals, DiurnalArrivals, PoissonArrivals

SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")

LONG_POISSON = (PoissonArrivals, dict(rate_rps=3000.0, duration_s=5.0))
SHORT_POISSON = (PoissonArrivals, dict(rate_rps=20.0, duration_s=30.0))
LONG_BURSTS = (BurstyArrivals, dict(on_rate_rps=2000.0, duration_s=30.0, on_s=5.0, off_s=15.0))
CUT_BURSTS = (BurstyArrivals, dict(on_rate_rps=700.0, duration_s=17.3, on_s=2.5, off_s=1.0))
FAST_DAYS = (
    DiurnalArrivals,
    dict(peak_rps=2000.0, trough_rps=200.0, duration_s=20.0, period_s=7.0, phase_s=13.0),
)
SLOW_DAYS = (
    DiurnalArrivals,
    dict(peak_rps=50.0, trough_rps=5.0, duration_s=90.0, period_s=60.0, phase_s=20.0),
)

PINNED = [
    (LONG_POISSON, 0, 15078, "93d8e2f7ac3ed158210f61facd01273688e39ded8b227da28cd419a895f88b2d"),
    (LONG_POISSON, 1, 15036, "29a50e623f7d94947f2ec7475e1c003d4276ecb9d52048495613e545c39015b0"),
    (LONG_POISSON, 7, 15136, "099d58be4bf8e1468d0797b6828c70c9ea2cc8beb058e5da6de99de373be5f1a"),
    (SHORT_POISSON, 0, 585, "03f374bf854715cd0ee8373fd4bfd7114fd07947abd3c08f647c6e91eb98632d"),
    (SHORT_POISSON, 1, 599, "3c3f3f02517ffca6d2bf04a1bfc15e923853ea27b3d100a195ff09e161b465a5"),
    (SHORT_POISSON, 7, 626, "65af41c70d5ca3647451c1d1eaff70978e29885dc95a0205e5276d356527fc72"),
    (LONG_BURSTS, 0, 19983, "e14d479bbff3935e7beb6515fe5ce38288d6dde0673ee549a44358264a98ed31"),
    (LONG_BURSTS, 1, 19945, "c9b09ce5bf420a50a553899426a5981b8b30e724067fe8a4dbeff11fcfe20340"),
    (LONG_BURSTS, 7, 20096, "79743bb7795bf6383e80ccf2aeecade8e4c487b98ce13cd49861e408471d09fd"),
    (CUT_BURSTS, 0, 8696, "8ef6d998665b6fe2ac77041c11105cbaa77ff1566269e3526aa539e029b5302c"),
    (CUT_BURSTS, 1, 8737, "c59486d4eebd436e368a25aa25cf0d7dfd917c90728eecad724f57cdb4bb2050"),
    (CUT_BURSTS, 7, 8824, "be3c0a2873a4dbfd9430f882f6537b2663d1d81def1b14de6dd65fe00421b7a0"),
    (FAST_DAYS, 0, 22188, "a0c6b485e6647288cdac607fc09c389a06f3e1f50316b7b76a10fe366a25c466"),
    (FAST_DAYS, 1, 22242, "00e80c62c3fdce4aa728efd8d03b19e21b5e3c834ff439e6a7699e03d2398354"),
    (FAST_DAYS, 7, 22390, "c860b2ceffb2f23ffa08655cbdad3eaf35f98afc43abdf3e987fda672ca5ab22"),
    (SLOW_DAYS, 0, 2814, "c96982d071c8f5a58788c08764d7c453513f6f83e0311553276b93e81a6300bc"),
    (SLOW_DAYS, 1, 2864, "a76babe10e1ca19bdd7c395cdc210697f273ccec2f6af39ce65277314e8b5cda"),
    (SLOW_DAYS, 7, 2878, "a8561b7ac818b20302d7fae4d44c43f24dabde79d2bc15c6f5050e4fcc96ff1c"),
]


@pytest.mark.parametrize(
    "case, seed, count, digest",
    PINNED,
    ids=["%s-%d-seed%d" % (case[0].name, count, seed) for case, seed, count, _ in PINNED],
)
def test_arrival_stream_matches_pinned_digest(case, seed, count, digest):
    process_class, params = case
    times = process_class(seed=seed, **params).arrival_times()
    assert len(times) == count
    packed = struct.pack("<%dd" % len(times), *times)
    assert hashlib.sha256(packed).hexdigest() == digest


def test_importing_the_cli_leaves_numpy_unloaded():
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    probe = "import sys, repro.cli; print('numpy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
