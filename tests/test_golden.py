"""Golden outputs: byte-for-byte pins of the sample -> run -> analyze pipeline.

A fixed small campaign goes through ``sample``, ``run`` (ridge evaluator)
and ``analyze --bootstrap 50 --threshold --corners --cdf --svg``; the
sha256 of every deterministic output file is pinned. A refactor that
claims to change nothing must leave these hashes as they are. A change
that alters outputs on purpose (or a NumPy/SciPy/BLAS upgrade that moves
the last bits) regenerates them with ``python tests/test_golden.py`` and
says why in CHANGES.md.
"""

import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

import pytest

from asuq.cli import main

GOLDEN = {
    "campaign.sampled.json":
        "2292b889321d6d83b7c2214450bd84eb3d271a7826060864698b1272981ff26b",
    "results.json":
        "80b162052316f3ed1e4c76bc4b967d41b8f7173c46efe6164e8c9793be8314ce",
    "summary.csv":
        "19cd8705c338107d6495e830c6ba9c528aee3378ca62356ebb2a9e16394c1d6a",
    "surrogate.json":
        "8704cfe39518489678671db65f1a1c9dae107f8a3cc120cbb5960df4c6f45ff1",
    "range.json":
        "a9e8b44aea292a12f8d313545584de2296757a1955618e9b159ed3172c929351",
    "safeset.json":
        "542d8da3be853f4c84d9d8b24844fa6f16eaa45023a294b687731b56fc74bfe2",
    "cdf.csv":
        "a92913970d74b78fe04a022767d74b85cb5388281ed80318e2564abd07319b23",
}


def run_pipeline(work: Path) -> dict[str, str]:
    """Run the fixed pipeline in ``work``; return sha256 per output file."""
    campaign = work / "campaign.json"
    out = work / "out"
    evaluator = ["--evaluator", "ridge:cubic-monotone", "--wtrue-seed", "7"]
    assert main(["sample", "-M", "40", "--seed", "11",
                 "--out", str(campaign)]) == 0
    sampled = campaign.read_bytes()
    assert main(["run", "--campaign", str(campaign), *evaluator]) == 0
    assert main(["analyze", "--campaign", str(campaign), "--seed", "5",
                 "--bootstrap", "50", "--threshold", "0", "--corners",
                 "--cdf", "--n", "2000", "--svg", "--out", str(out),
                 *evaluator]) == 0
    files = {"campaign.sampled.json": sampled}
    files.update((name, (out / name).read_bytes())
                 for name in GOLDEN if name not in files)
    return {name: hashlib.sha256(data).hexdigest()
            for name, data in files.items()}


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return run_pipeline(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_matches_golden(digests, name):
    assert digests[name] == GOLDEN[name]


if __name__ == "__main__":
    # Prints the GOLDEN entries for the current code, without CLI chatter.
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()):
        digests = run_pipeline(Path(tmp))
    for name, digest in digests.items():
        print(f'    "{name}":\n        "{digest}",')
