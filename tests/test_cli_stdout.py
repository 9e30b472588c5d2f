"""The stdout of the verify and demo commands is pinned.

Each case runs one command through the CLI and compares the sha256 of
what it prints with the digest of the reference implementation: the
verifier's trial and mismatch counts, its total variation distances and
the demo's cutoffs all show in these bytes.  A refactor must keep them;
a change that means to alter the output updates them and says why.
"""

import hashlib

import pytest

from hidict.cli import main

CASES = {
    "verify shi --universe 16 --trials 20":
        "b07e7312ba5cd65df2f3235a50103ffbc8de185e19dee7257ef912be47ba852d",
    "verify whi --n-list 5,8 --samples 4000":
        "bfe0b1f2f9c6c74b578af8e1357cf2b8a894a47d9f0bf1ace0d7292ff4849865",
    "demo counterexample":
        "50046a4a6f5de8eb436a9051c9f1738d447f537ca8006f5fdb56d0011c3fa7a9",
}


@pytest.mark.parametrize("args", sorted(CASES))
def test_cli_stdout_bytes(args, capsys):
    assert main(args.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CASES[args]
