"""Pinned outputs of the constructive extension step.

Each digest is the sha256 of ``write_matching(extend_matching(...))`` on a
generated instance, so any change to a phase's choices shows up here even
when the new matching is still valid.  A change that alters a matching on
purpose must say why and update the digest.
"""

import hashlib

import pytest

from grinblat.construct import Telemetry, extend_matching
from grinblat.formats import write_matching
from grinblat.gen import gen_planted_concentrated

GOLDEN = [
    # (n, c, seed, win branch, sha256)
    (100, 32, 1, "same_left", "d85be28e0e1bb01b274d9dd627bcc644b527d473b15c9d84851d29be83cc8d89"),
    (100, 32, 2, "same_left", "d8a17c408feeff2ee20ff3ad3c199a21d35175c7eb9bd2c09cd5bb2f28ad503e"),
    (100, 32, 3, "same_left", "bf0ed683d51e815662284337a5c95c875fe45df6d3c010faf6bb1f4cabe63f99"),
    (100, 32, 4, "same_left", "a1dcaae9878652e5402934649c22850e7d7909eb886f1fd43678f00509bea888"),
    (100, 32, 5, "same_left", "780cc7b94a6611fb1a037c8d374675cb5084067c4a9121e14ebde20f61196e67"),
    (60, 20, 1, "t_pair", "2cc945a2b6ae78b664e896f5efac2c606ebc2244fcfc26a83df5b0ceb9f99d22"),
]


@pytest.mark.parametrize("n, c, seed, branch, digest", GOLDEN)
def test_planted_matching_digest(n, c, seed, branch, digest):
    inst, sub = gen_planted_concentrated(n, c, seed)
    tel = Telemetry()
    m = extend_matching(inst, sub, new_rel=0, c=c, telemetry=tel)
    assert tel.win_branch == branch
    assert hashlib.sha256(write_matching(m)).hexdigest() == digest
