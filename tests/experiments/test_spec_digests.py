"""Pins on the ``SPECS`` catalogue's output and sweep structure.

Two pins, both at scale 0.02 and seed 11:

* the :class:`~repro.experiments.api.RunResult` digest of every seed-
  or variant-averaged sweep (Figures 8–11 and the churn, cooperation
  and security extensions), so any change to a spec's point grid,
  series labels or seed averaging shows up here;
* one SHA-256 per spec over its ``decompose`` output as
  ``(key, runner, params)`` in task order. Task keys, runner names and
  ``params`` address the result cache and the run journal, so a change
  here silently turns every warm cache cold.

If a change is intentional, regenerate with::

    PYTHONPATH=src python -c "
    from tests.experiments.test_spec_digests import decompose_digest
    from repro.experiments.parallel import run_named
    from repro.experiments.specs import SPECS
    for n in SPECS: print(n, decompose_digest(n))
    for n in ('fig8a', 'fig9a', 'fig9b', 'fig10', 'fig11', 'churn',
              'cooperation', 'security'):
        print(n, run_named(n, 0.02, 11).digest)"
"""

import hashlib
import json

import pytest

from repro.experiments.parallel import run_named
from repro.experiments.specs import SPECS

SCALE, SEED = 0.02, 11

RUN_DIGESTS = {
    "fig8a": "6f78e3be579b2e7cd7c488fdac789f1d05f553eaf14dc6cf86e4a4682df7732a",
    "fig9a": "ec29067d1e6c2c3986c0de2ff11d797c94902decc27c7d3e2cb32e7194e48fe1",
    "fig9b": "382f32794e4f18bc74a28a0a7e7b2d61b5105eba3bef86481403f8fa4848b0bc",
    "fig10": "01f31385efca16594f27eebee73518a699505043620b390222be47f8a350cb3c",
    "fig11": "4ab9d25e545afaa9900f2261c8f3f27ba54722415493da7911e46d9c81b29d2e",
    "churn": "1db736e4e2b813cbea2e653a29145bbdf981c4b6fa008e361522528674059451",
    "cooperation": "ceadc7b5dd2a947a099f6421baef911d9c9c77107254c5218e4864dee2ba82c8",
    "security": "b9a8bca0acec900e57fad03e74813c29ae4fc629f17a8eead28894a77bc84999",
}

DECOMPOSE_DIGESTS = {
    "fig5a": "dffba56b0555e043493c23a773b5f49d0c7c3d9da90b8882a2797163a65c164a",
    "fig5b": "92c4a95e97aaacec33deac79eb86599e7c83304a780b2b1e591b01fde5c54c40",
    "fig6a": "d4cecace2826fa457daa1ecd7294a34033c6de1a0be938112ab9a134d304d14e",
    "fig6b": "5cae204213bcd54b09f61c7aec86e673f7d3420ce7a4ead419379c0ec706efcd",
    "fig7a": "cdb08fd41682afbed60dfc19039e97cff10d92a6c578d9d026e3899456a68d61",
    "fig7b": "3017171d633850788f71cb1e1b11f44d5d821a22c735116174a8a0b1fda65bf5",
    "fig8a": "1ba8eedbd32d320d4b643406caa6c713c067b0e6833428d700c4c6046a2fcb8f",
    "fig8b": "a753706ae703526e8e8b0b6a9974d60cffe75afea46a0727de3a31f744410f03",
    "fig9a": "27d364f02f03638e5e97b2d6baf5a66fb7a2096fd4cfe2290b6cc56d386ba66a",
    "fig9b": "ef0580eb54ee1312be9babca448d47186ec58d4e5a4413ce9a80efd51e56e521",
    "fig10": "0aa08b562acb85869aa5c6bed51b3dd6b3ccb917fc906e2e7cfa900fabe04500",
    "fig11": "3a3d7a34afca52125488f33713756caa016c15cc24b7ddd99efe6da8727edcfc",
    "economics": "eac1e5c9a813bdcaf027e1e58b00f75b05e536e70ab13e6a1ea17e5b846a5648",
    "churn": "96e582a6aade271e22099fe241f69ddd6147c530cfb73558b8fe4e10f8f2ca47",
    "cooperation": "2d1e6f63b9189696276d0fdfd9f73f5bf3d415e6e8c13c3e481d90df74a29575",
    "gameworld": "e1f7c6a45497390cac21276472ce213bc716c22f82163e17e72d696dbdb831e5",
    "security": "16d81594491a5f7f95a2e55b7d0cf6f0a0cdc22368ac66e7f76597647f9c17e5",
    "dynamic": "a9ccff8ca1c1476b7bbffb14649ee11e197f5b7f852653d694d87468ee3fc263",
    "chaos": "cc5d8aaf6bca22e81ae4655cef6eddfd4904d3be3ee0110e490ee8a412b11076",
    "orchestration": "ff3c94b7451fb869647b5cf15b53ca3dfe1ba4e400c2d684a4a2e9b89ee745af",
    "scale": "71aaa683476ec08080fe9f4c5add6be7d00d932945c1465aa11a5ededa2de1f0",
    "dynamics": "ce2018927e635396c5f3d6f1f5da52e49b55b9355c0a5116f67759cc1e1bdab3",
}


def decompose_digest(name: str) -> str:
    """SHA-256 over ``(key, runner, params)`` of each task, in order."""
    h = hashlib.sha256()
    for task in SPECS[name].decompose(SCALE, SEED):
        h.update(json.dumps([list(task.key), task.runner, task.params],
                            sort_keys=True,
                            separators=(",", ":")).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def test_every_spec_is_pinned():
    assert set(DECOMPOSE_DIGESTS) == set(SPECS)


@pytest.mark.parametrize("name", sorted(DECOMPOSE_DIGESTS))
def test_decompose_digest(name):
    assert decompose_digest(name) == DECOMPOSE_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(RUN_DIGESTS))
def test_run_digest(name):
    assert run_named(name, SCALE, SEED).digest == RUN_DIGESTS[name]
