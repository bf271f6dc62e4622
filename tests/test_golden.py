"""Golden output digests of the bundled lockstep scenarios and of two short
noisy lockstep runs.

The determinism test only compares two runs of one build; these digests
pin the outputs across code versions. The camera model and the renderer
compute in plain Python floats in a fixed order and the run path makes no
BLAS call, so the digests are also the same on every CPU, whichever
OpenBLAS kernel numpy picks. A change that alters any of these bytes on
purpose must update the digest and say why in CHANGES.md.
"""

import hashlib

import pytest

GOLDEN = {
    "run_3ms": {
        "scenario.json": "8b450cd0732cbace3f8543ce011ceb6d2d9c812632ceaa0f66209259bb600693",
        "run.csv": "c4c965d80b257ebef658d98fea65c4bd5e12f580b6c4b0028652e8c77817fc24",
        "estimates.csv": "234c6188f624ad2d1966d920a668ca27592ba99c0afa7ae58ea1a2c8263fe0a5",
        "net_metrics.csv": "fa73b78dc95d21d52575cf4dbfcd11b293b5a6b00ce497ff481606e8b6c680c2",
        "summary.json": "695ca522b5cd558d658a17b4408521ccefd7720b672f4d999550b801305f7b80",
    },
    "run_6ms": {
        "scenario.json": "77830c4104954aaffb2a5a0941ad6a922f578be3a61929abe11a2435ba00216d",
        "run.csv": "41b3a961bfbd5950340abcbec353d4495f9dbc586af098e051752be6e2b7bca2",
        "estimates.csv": "74ec64044a3896cdede4e6dc30fb9b4e409c907aa4ff10a261d4526befe7844e",
        "net_metrics.csv": "67540042097dcd2f08f45e41037a4ce8403e70b154a5eb1c3ba1830191acecfa",
        "summary.json": "66e29bce8921a73894dec91dfecf16d4c52c34dc514acc22c44d412769d10989",
    },
    "run_baseline_3ms": {
        "scenario.json": "5af39d22e4075525b9fc865eed4f66f26bd09c7747c48b50803756caa0cc0c90",
        "run.csv": "ddf2434b531afeb6d52a7bb69656ce55ebd35743feaa2319f36989e4d2d1cbd0",
        "estimates.csv": "658d836254de5e7bee6290eb29409247ab3d66a4a16b26d77db235ba3f8eee92",
        "net_metrics.csv": "9f69e414b4b34d7139d93bcc93ab18703445181f28a09c5e8b44a08a85a6ff1f",
        "summary.json": "6d5793dc9d39f717b19da9677bbb598525041afb660870b2525e7f0ec52e818c",
    },
    # pixel noise and drops: the noisy render and the dense detector
    "run_noisy_smoke": {
        "scenario.json": "aab5bd336f925cc183c1d30d1886c18be69a80a12b4c6b8ede7d57ef575484fb",
        "run.csv": "399645758f8d353a39184e3be99f8337938e95f85969fce3b46d0151e6a43613",
        "estimates.csv": "0a91588bdbffe947436d875ddc8477c4eea8af4185dca40bf7a0139df330ebe6",
        "net_metrics.csv": "d8c90b2ef82fcd1bf7174e69dfa01e691a1b840199643631ef351c2aa8305727",
        "summary.json": "996b34af663df35db5840231aba4fda71b11f7e4c6f760fbeb44b75cd3664363",
    },
    # sigma 24: the detector's per-pixel test of the painted pixels
    "run_noisy_smoke_24": {
        "scenario.json": "570ac306fd51b0380f51f01a3743994b74649115d3754566f308f2ddf61bde24",
        "run.csv": "5b82bcec5a8e40b37bfeef5a211643c8be45e47a32150f4b35bb16634ae443fa",
        "estimates.csv": "2658f309a1cc0f4042f24c4a8440a0f47818f619b63ae831a542c4f3b01fae5a",
        "net_metrics.csv": "76111721ef97db219ece57231af27acc2d1d3b07a3861f4d4d2136092ced861b",
        "summary.json": "12941a64e19be1624bb0403ecb0aa788d3ac86bf559ea5ab7e148678ad03b92a",
    },
}


@pytest.mark.parametrize("fixture", sorted(GOLDEN))
def test_outputs_match_golden_digests(fixture, request):
    out = request.getfixturevalue(fixture).out_dir
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in GOLDEN[fixture]}
    assert got == GOLDEN[fixture]
