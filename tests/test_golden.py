"""Golden output digests of the bundled lockstep scenarios and of a short
noisy lockstep run.

The determinism test only compares two runs of one build; these digests
pin the outputs across code versions. A change that alters any of these
bytes on purpose must update the digest and say why in CHANGES.md.
"""

import hashlib

import pytest

GOLDEN = {
    "run_3ms": {
        "scenario.json": "8b450cd0732cbace3f8543ce011ceb6d2d9c812632ceaa0f66209259bb600693",
        "run.csv": "114fd5af45fd4f5c05311584be9894efedb263aeba86876f7caa2f8bd4ad3ac4",
        "estimates.csv": "482bdfbb60d8fb7e5652c6a060a0af9fef164bd29601f713e447a99bb6adfbe2",
        "net_metrics.csv": "c9b9e6ecebbcb016a7270a8438d64b696e761b43c925a296e60b14e0b59ca3a1",
        "summary.json": "48a8c3454d8ed804e51e43291c019e5fdd040f197e33501da3c301111e572184",
    },
    "run_6ms": {
        "scenario.json": "77830c4104954aaffb2a5a0941ad6a922f578be3a61929abe11a2435ba00216d",
        "run.csv": "f9db987afc4032fd465e5f47ea65551966af51bc40c0517217d2d21501928344",
        "estimates.csv": "4cb4df209457ada30b6cf95160fa195dfa22435f22fc129da7891b1c00b319cd",
        "net_metrics.csv": "99b81e40257223107488ea55b6e200ee7a90e6a972f59cb13bd6e32b37338b64",
        "summary.json": "3e465f793d05abfd94f4b687a14aff4c28d1811834489e05c2e31e55803eefea",
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
        "run.csv": "dabba80fdc9c9260200d6d7ec677be921a50c5c485db8de611d154fae0d42fc9",
        "estimates.csv": "aab27ef0a7e9a921547c1d5b5362adbe7c171e4e7f7ddee1b8f13d37cff5d412",
        "net_metrics.csv": "b936d9604ab35e026164a444f7a45093fb53792f0da5341ba0db150e95859ca3",
        "summary.json": "9932ae18801dcf98b4e3b6aa4cdcdf0d00a9d89c2067a11a8b14c29fcd18e132",
    },
}


@pytest.mark.parametrize("fixture", sorted(GOLDEN))
def test_outputs_match_golden_digests(fixture, request):
    out = request.getfixturevalue(fixture).out_dir
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in GOLDEN[fixture]}
    assert got == GOLDEN[fixture]
