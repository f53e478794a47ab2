"""The demos print the same bytes as when these digests were recorded.

Each demo runs in its own interpreter with `src` on the path, plain and
under `python -O`; the sha256 of its stdout is compared with the digest
recorded for it.  Demo 02 prints stable feasibility sets with their surd
endpoints and witnesses.
"""

import hashlib

import pytest

from support import DEMOS, run_python

STDOUT_SHA256 = {
    "01_wr_twists.py":
        "c3ea1d7dfa770b0175a159898b4d859cd32b3e260a74f8293b7b7abc1b927410",
    "02_stable_twists.py":
        "afdce12da6ba961e3730ada57b48800dd007f9d66e5923bed062661b1d67ef26",
    "03_geodesic_orbit.py":
        "9f7a75a514ea6e0fc6ff5c4accf7fb4b5f0d248559f886a634700714e9448e48",
    "04_euclidean_diversity.py":
        "1e71cc9d4c98cb3fa712f2ff64049b0df703ae651867eef7728883f939e3051a",
}


def test_every_demo_has_a_digest():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_stdout_bytes(name):
    # with asserts stripped too: the library has none to strip
    for flags in ((), ("-O",)):
        out = run_python(DEMOS / name, flags=flags, capture_output=True,
                         check=True).stdout
        assert hashlib.sha256(out).hexdigest() == STDOUT_SHA256[name], flags
