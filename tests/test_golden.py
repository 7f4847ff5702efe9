"""Pinned output bytes: metrics CSV and snapshot hashes of seven small runs.

Any change to keys, tables, decisions or serialization that moves a single
byte of either output fails here.  The hashes were taken from the
implementation before the cached state keys; a change that is meant to alter
output must update them on purpose.
"""

from __future__ import annotations

import hashlib

import pytest

from needagent.harness import config_from_dict, metrics_to_csv, run, snapshot_from_run
from needagent.memory import dumps_snapshot

TICKS = 1500

# (label, config, SHA-256 of metrics.csv, SHA-256 of snapshot.json)
GOLDEN = (
    (
        "default",
        {},
        "15b8085f848890e7a5361ab9c7d8f50e42167c93ba68969a1bf0850db82e20e6",
        "7f1d4044d379e51483df825eb73e8e12075dd9f2e34862d7c86d36ce8b10cee9",
    ),
    (
        "window3-delay2",
        {"window_size": 3, "board": {"feedback_delay": 2}},
        "bebaf915586d1be6f0797952f7eb88aa189c3e6c84ecade29ce4df08be4674f3",
        "f2e5134748ff4aa3fce5a8372015d39cf7677586229677452441c59a1a0cdc44",
    ),
    (
        "action-keyed-lexicographic",
        {"learning": {"successor_keying": "action"}, "policy": {"mode": "lexicographic"}},
        "8a6cea6030603d55fd83f2e1e8370923ac094d0d3a6a2de84881dcfb0fa66530",
        "35c95100bceba179ce4ffedda9cb4ea7a6cb6e92cfe5a524f1fe80cfa3e492c7",
    ),
    (
        "segment-gc",
        {"strategy": "segment", "gc": {"horizon": 200, "interval": 100, "min_trust": 40}},
        "db1439d8f1445f78c4d7ee44af19668cbcd7459547dbb3f84f99ef7e111adc83",
        "adb5d474babec13243574f83a0cfcd35ab3ac602238920bb09b7d558372e1cc8",
    ),
    # GC never changes decisions, so the metrics match window3-delay2.  Here
    # 56 records pass one GC pass and are removed by a later one, after a
    # predecessor's removal shortened their history window: a collector that
    # keeps a record for good once it has passed keeps 117 records, not 61.
    (
        "window3-gc",
        {"window_size": 3, "board": {"feedback_delay": 2}, "gc": {"horizon": 50, "interval": 10, "min_trust": 5}},
        "bebaf915586d1be6f0797952f7eb88aa189c3e6c84ecade29ce4df08be4674f3",
        "626d6001f2a1e5243b1937583710008c34232281092180dc4c14387d445113b9",
    ),
    # The only pin with a nonzero predictability weight: every learning
    # update adds the weighted distance between predicted and actual state.
    (
        "delay2-predictability",
        {"learning": {"predictability_weight": 0.5}, "board": {"feedback_delay": 2}},
        "58cfc17112ebfd0a83d04ac33fe65ecd4160f5e8c7e6c18815675d3b98a6b093",
        "c2d0303cebd23e3e3859100ecbaf9ef4adce294b38d59d076ba391e9a8f2da6f",
    ),
    # The only pin in utility-only mode, where an exploring tick's expected
    # state (the match that utility x probability ranks first) can differ
    # from the match that the run's own mode ranks first.
    (
        "utility-only-explore",
        {"policy": {"mode": "utility-only", "exploration_rate": 0.3}},
        "7930b4e86de9998afb8229154bfe3fc2987af74b442f6750e3fb3daf2eece013",
        "33c698262cbd44e2f095342f9a3942d25b76bc8a8b684d93d16e19400f66c117",
    ),
)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("label,overrides,metrics_sha,snapshot_sha", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_outputs_match_the_pinned_hashes(label, overrides, metrics_sha, snapshot_sha):
    result = run(config_from_dict({"seed": 0, "ticks": TICKS, **overrides}))
    assert _sha256(metrics_to_csv(result.metrics)) == metrics_sha
    assert _sha256(dumps_snapshot(snapshot_from_run(result))) == snapshot_sha
