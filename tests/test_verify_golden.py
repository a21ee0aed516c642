"""`thetacalc verify --suite all` pinned byte for byte.

The digests are of the default bound and seed 0.  Every sampled check
passes, and reports carry no seed, so seed 42 prints the same bytes.
A change to any suite's output, intended or not, shows up here.
"""

import hashlib

import pytest

from thetacalc.cli import main

GOLDEN = {
    "json": "447f76ca08a01516c7e7c2d86cbb9dc010667dd2a6cc5eca443724dfdebdaa4f",
    "text": "0416fad8672470b61415506914284b54c9d58be5dbbe830f0ea5c993e17f2a9b",
}


@pytest.mark.parametrize("fmt", sorted(GOLDEN))
def test_verify_all_output_is_pinned(capsys, fmt):
    code = main(["verify", "--suite", "all", "--seed", "0", "--format", fmt])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[fmt]
