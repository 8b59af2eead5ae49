"""The verdict ledger of tests/ledger.py, pinned by its SHA-256.

A change to any verdict, witness, missing face, coloring or rank selection
on the ledger's complexes changes the digest.  A deliberate change updates
the literal in the same commit and names the changed lines in CHANGES.md;
``python tests/ledger.py`` at both commits, diffed, shows them."""

import pytest

import ledger

DIGEST = "672cdb1de0f003e8378ce59293b337877e5d10c0fa99a3112a2dd370948dc75b"


@pytest.mark.parametrize("cold", [True, False], ids=["cold", "warm"])
def test_ledger_digest(cold):
    # cold clears the cache before each complex, warm shares one cache:
    # no cached state may change a line
    assert ledger.digest(ledger.ledger(cold=cold)) == DIGEST
