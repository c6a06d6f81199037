"""Pinned bytes of ``repro traffic`` and ``repro figures``: stdout and every export.

Refactors of the traffic engine promise byte-identical outputs.  These
sha256 digests pin what four representative invocations print and write:
a bursty three-mode comparison, a two-tenant run with classes, WFQ-cost,
a memory budget, middleware and every export, a two-region federation with
a regional failure, and a scaling-policy comparison.  The run directory in
stdout is replaced by a placeholder, and ``manifest.json`` is left out: it
records wall time and the parsed flags.  ``repro figures --export-dir``
(quick mode) is pinned in both data formats, one file per figure.

Python 3.12 changed ``sum()`` of floats to compensate rounding, which moves
some summaries in the last bit, so the digests hold on 3.11 only.
"""

import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from repro.cli import main

pytestmark = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="digests pinned on Python 3.11 float sums"
)

TENANTS = json.dumps(
    [
        {"name": "steady", "pattern": "poisson", "rps": 30, "duration": 20, "weight": 2},
        {"name": "noisy", "pattern": "bursty", "rps": 120, "duration": 20, "payload_mb": 4,
         "mode": "runc-http"},
    ]
)
CLASSES = json.dumps(
    [
        {"name": "interactive", "share": 0.6, "priority": 0, "deadline": 0.5},
        {"name": "batch", "share": 0.4, "priority": 1},
    ]
)
CLUSTERS = json.dumps(
    [
        {"region": "eu-west", "nodes": 2, "tenants": ["steady"]},
        {"region": "us-east", "nodes": 2, "tenants": ["noisy"]},
    ]
)


def _modes(run):
    return [
        "--pattern", "bursty", "--rps", "80", "--duration", "40", "--seed", "5",
        "--modes", "roadrunner-user,runc-http,wasmedge-http",
        "--export", run + "/modes.csv",
    ]


def _tenants(run):
    return [
        "--tenants", TENANTS, "--classes", CLASSES, "--fairness", "wfq-cost",
        "--node-memory-mb", "160", "--middleware", "cache,coalesce", "--cache-ttl", "0.05",
        "--seed", "2",
        "--export", run + "/tenants.json", "--format", "json",
        "--export-nodes", run + "/nodes.json",
        "--metrics-out", run + "/metrics.prom",
        "--trace-out", run + "/trace.json",
        "--events-out", run + "/events.jsonl",
    ]


def _clusters(run):
    return [
        "--tenants", TENANTS, "--clusters", CLUSTERS, "--seed", "3",
        "--global-router", "least-loaded", "--fail-region", "us-east@10",
        "--export", run + "/federation.csv",
        "--metrics-out", run + "/metrics.prom",
        "--events-out", run + "/events.jsonl",
    ]


def _policies(run):
    return [
        "--pattern", "bursty", "--rps", "60", "--duration", "60", "--seed", "4",
        "--compare-policies", "target,step,predictive",
        "--export", run + "/policies.csv",
    ]


PINNED = {
    "modes": (
        _modes,
        {
            "stdout": "cb12fe0f2d25f219e91d84e615b2a61df3b1a05322ad1a5bf766660660929af5",
            "modes.csv": "57eaab01efee2efd37686b14df0edcb928809f6d10a7eae2808a90ee50ed8bde",
        },
    ),
    "tenants": (
        _tenants,
        {
            "stdout": "c8013e09f965086d35b764075dd989a1d592e04c715ff602b4dbfa319b2d513d",
            "events.jsonl": "8222df6c9d05669c1bcc606bf7d305467b831ac280ee4f0acf36951958caf7c0",
            "metrics.prom": "d7af5f32ced8c266983349339476fdf81722bac4e206d7c46c502ea0df1fd3f3",
            "nodes.json": "ea422d5f9d03c8554663e2bc74f95d08777a0f454451ff193d32c9936f2a2a57",
            "tenants.json": "1767cae126d6f0c4daeb238c359c740f900fc163ef6478e676fa576c69c412d5",
            "trace.json": "356f9d5c2fba8c66536e484015e14b250297af5d56b7b8c59dcbb4ae891cdef7",
        },
    ),
    "clusters": (
        _clusters,
        {
            "stdout": "5a342404dcc8bbfa6afc789392dbab7c0a845300e9b46a85ef596cc5e1cf53ab",
            "events-eu-west.jsonl": "b8babd21c7954402c6335ea563964c33ac2581df7779b48827f5b76a80f336c1",
            "events-us-east.jsonl": "f75af9e400a91540078f826846259906eb682c9509c31e8933a8b882b9ac3447",
            "federation.csv": "95a9ee8b1a34b4f8503c083f62d7395cc224f906bf565b4a0f029b71681db3be",
            "metrics.prom": "d6c2f94328983f410dbbd70c85921788b206a9d96f78f83857bf43eb3496f9d1",
        },
    ),
    "policies": (
        _policies,
        {
            "stdout": "80b372f85dd17bf8a08e284077269ab3fc83c1b1052897e246c44eb8759ac91b",
            "policies.csv": "27f46b2a0e6fe0bd0e857224c514eaed904825c995f7f9baacf878ac50f2927d",
        },
    ),
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("case", sorted(PINNED))
def test_cli_outputs_match_pinned_digests(case, tmp_path):
    build, expected = PINNED[case]
    run = str(tmp_path)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["traffic"] + build(run))
    assert code == 0, err.getvalue()
    digests = {"stdout": _digest(out.getvalue().replace(run, "<run>").encode())}
    for path in sorted(tmp_path.iterdir()):
        if path.name != "manifest.json":
            digests[path.name] = _digest(path.read_bytes())
    assert digests == expected


FIGURES = {
    "csv": {
        "stdout": "929449357e2477a06894758910d2f807a30c2866b80b6d8364d47206a38738b4",
        "fig10.csv": "7ff78624374945ba8e1e53eab43d45ee5a194ae658375b065d2bc7a54e92e5ad",
        "fig2a.csv": "3c57f9a36c5e11527bf421251b7a906a96399416565412e8c7b0bf4ca2f5cf20",
        "fig2b.csv": "b304f6823c94b409207aa67a10ffbff41d0579ad2c315d8e8fad572544f354fb",
        "fig6.csv": "f15903202ac94d193867edbdfac3b7c60bd085308b582463ec660d185793716e",
        "fig7.csv": "860546dcf8f7747b2f9db7c74bcb63055a48666eff83719d00c402a19b669298",
        "fig8.csv": "94346d152d6d96df7d39fec59457334bf67797fe6e31ca403ae3721678735b4b",
        "fig9.csv": "9cfc77fa29872ada96f1827fa750219fd265e0b4861cab07b4cce2aba24a9691",
    },
    "json": {
        "stdout": "1fcffe8b05df89ff02c537981e4f199c4c439379bcc9a2cc661896fd9f80aa84",
        "fig10.json": "d2b39876e61e08e205206b1b8685a4645d360d16943cf200a534a74786a66950",
        "fig2a.json": "6371a7dc6d7aeb93f7619200bdecba2dfdbc40b10594f904414695cbb025fe75",
        "fig2b.json": "1207e4d991234cdc04802ea584cd38d825f32927bb171962abfa0054b6285ad3",
        "fig6.json": "e00426fd940f7f967bd12e9c5ae9ebc54702d08f591a68b96964dd8a5d2ec031",
        "fig7.json": "73ee54ae6ebda6163a5502a830bb9b848329f6dba65cde11c13e17f2688aaa89",
        "fig8.json": "3fa24c28a54d686a06b10ebdd80938c7025e412e02d00a79085c0c94fbeff750",
        "fig9.json": "30bb1efe427a04bf890ce678bd612c05880db2dd4e6472c6662f93bac4017a9a",
    },
}


@pytest.mark.parametrize("fmt", sorted(FIGURES))
def test_figure_exports_match_pinned_digests(fmt, tmp_path):
    run = str(tmp_path)
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["figures", "--export-dir", run, "--format", fmt])
    assert code == 0
    digests = {"stdout": _digest(out.getvalue().replace(run, "<run>").encode())}
    for path in sorted(tmp_path.iterdir()):
        digests[path.name] = _digest(path.read_bytes())
    assert digests == FIGURES[fmt]
