"""The demos print the same bytes as when these digests were recorded.

Each demo runs in its own interpreter with `src` on the path, plain and
under `python -O`; the sha256 of its stdout is compared with the digest
recorded for it.  Demo 02 prints stable feasibility sets with their surd
endpoints and witnesses.
"""

import hashlib
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
DEMOS = os.path.join(ROOT, "demos")

STDOUT_SHA256 = {
    "01_wr_twists.py":
        "c3ea1d7dfa770b0175a159898b4d859cd32b3e260a74f8293b7b7abc1b927410",
    "02_stable_twists.py":
        "37aad6a77f24e6deb9118fce34569468f9efdff674b0aa7158483ab2ad0b216d",
    "03_geodesic_orbit.py":
        "f5b1f2ce0c2e7d44f5dfdbce80cfbbc07a3edb8d11606b22f13afbc3121191ad",
    "04_euclidean_diversity.py":
        "1e71cc9d4c98cb3fa712f2ff64049b0df703ae651867eef7728883f939e3051a",
}


def test_every_demo_has_a_digest():
    assert sorted(f for f in os.listdir(DEMOS) if f.endswith(".py")) == \
        sorted(STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_stdout_bytes(name):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    # with asserts stripped too: the library has none to strip
    for flags in ((), ("-O",)):
        out = subprocess.run(
            [sys.executable, *flags, os.path.join(DEMOS, name)],
            capture_output=True, env=env, check=True).stdout
        assert hashlib.sha256(out).hexdigest() == STDOUT_SHA256[name], flags
