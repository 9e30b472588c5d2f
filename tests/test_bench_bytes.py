"""The bench's CSV and SVG bytes are pinned.

Each case runs one bench test over all seven structures through the CLI,
which calls the test's ``bench.run_*`` runner, ``emit_csv`` and
``emit_svg``, and compares the sha256 of both files with the digests of
the reference implementation.  A refactor of the bench must keep them;
a change that means to alter the output updates them and says why.
"""

import hashlib

import pytest

from hidict.cli import main

CASES = {
    "zipf-param --alpha-list 1,2,3 --n 128 --queries 2000 --trials 2": (
        "1ef2c7030eb81fbd171074aa4df0279a472283f73615d86e05ee6a21e4fc46b3",
        "5102177b7b2652a27057d3e3338c659c07feff58b5dc2da4d5fb563529d32ad9",
    ),
    "noisy-zipf --n-list 32,64,128 --queries 2000 --trials 2": (
        "1a0ec43223a6b61bec54f6cdf66bbc2efb0f7823189dcba800953afb47860083",
        "5ebfdbb98c8b4752fb415e31ced04b3ef8868da1e91c3c36148a366dcd864160",
    ),
    "inverse-power --n-list 32,128 --queries 2000 --trials 2": (
        "0d620939295fa868cbf22408bc2b2734df79c59e290941e6089a800ef0995ddf",
        "115a0429aa5d4a31228b626ec9749e13e7c5a733519faf5ebcd13b5e61c3c28c",
    ),
    "size --n-list 32,64,128": (
        "6bc46fdd3c908ac0376d3476efc9d22e6ab2525f4612747a11332beeedac2fad",
        "1f270d1d74cc704a6cd763f5bbf40cd30b0a4ffb6aa109c60f6367b9cb9b88a8",
    ),
}


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("args", sorted(CASES))
def test_bench_output_bytes(args, tmp_path, capsys):
    csv, svg = tmp_path / "out.csv", tmp_path / "out.svg"
    assert main(["bench"] + args.split() + ["--csv", str(csv), "--svg", str(svg)]) == 0
    assert (_digest(csv), _digest(svg)) == CASES[args]
