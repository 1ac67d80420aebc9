"""Golden outputs: byte-for-byte pins of the sample -> run -> analyze pipeline.

A fixed small campaign goes through ``sample``, ``run`` (ridge evaluator),
the standalone ``range``, ``safeset --threshold 0`` and ``cdf --n 2000
--grid-size 257`` commands, and ``analyze --bootstrap 50 --threshold 0
--corners --cdf --svg``; the sha256 of every deterministic output file,
and of each of these commands' stdout with the work directory masked, is
pinned, as is the stdout of the ``scenario`` and ``space validate``
commands, which read no campaign. A second campaign, a quadratic ridge
whose summary ordering is not monotone, pins ``range`` twice: first
against an evaluator that fails both corners (``range.json`` and the
stderr line, exit 4), then with the corners done (``range.json``, with
``"monotone_caveat": true``, and stdout). A refactor that claims to change
nothing must leave these hashes as they are. A change that alters
outputs on purpose (or a NumPy/SciPy/BLAS upgrade that moves the last
bits) regenerates them with ``python tests/test_golden.py`` and says why
in CHANGES.md.
"""

import ast
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import pytest

from asuq.cli import main

GOLDEN = {
    "sample.stdout":
        "f5a48479b2f707db158f673260f9970b8e65f5aacd9108616058440fd6112c8e",
    "run.stdout":
        "7050d238842b150eacc0175ed13519534c4f11e37d3c31008862dcee2e63d974",
    "campaign.sampled.json":
        "2292b889321d6d83b7c2214450bd84eb3d271a7826060864698b1272981ff26b",
    "results.json":
        "62cb398616af6f2b6497e59611509c2e54d5678953bfc43a72dbcbc8eb5e4bdb",
    "summary.csv":
        "a77a12b801dd2d608760175b3328c2c2be81b2806010c4c2c3e9cfce01326f6e",
    "surrogate.json":
        "8704cfe39518489678671db65f1a1c9dae107f8a3cc120cbb5960df4c6f45ff1",
    "range.json":
        "a9e8b44aea292a12f8d313545584de2296757a1955618e9b159ed3172c929351",
    "safeset.json":
        "81a6c377f0327e5a823228bb8c5cb1609dccf59ce03fce95e88e758261e101aa",
    "cdf.csv":
        "ec1bc74a516c8df9e30b043def6c98c725369247320ce9993abda3786b08c81f",
    "summary.svg":
        "d3077e5e581163f0c24632b4cc46570608704a7bf851ebd21a517e80e8259cbd",
    "cdf.svg":
        "3dbc6f6c6157239e2d804419f7649d6dbb7ca5896f58c7e9647eabc234385d87",
    "analyze.stdout":
        "663ac0e02c662eb0e692a90642551a996909494cfedf360942d45484d7d42acf",
    "campaign.final.json":
        "b0e12a2fd4b0264ba6c850356fdf87ffb7b2df14b3d0284ae5a4ee7a77f4c4e0",
    "range/range.json":
        "a9e8b44aea292a12f8d313545584de2296757a1955618e9b159ed3172c929351",
    "range.stdout":
        "2d7d46c5f924faa780fa44c8c7dd0d72cf1b44e65ceec39cd22cc6de70f1dab0",
    "safeset/safeset.json":
        "81a6c377f0327e5a823228bb8c5cb1609dccf59ce03fce95e88e758261e101aa",
    "safeset.stdout":
        "6b04ebfe0de346a1aeb144279365fb583acde48a994b87a2d70eb2a0d9dbb467",
    "cdf/cdf.csv":
        "720a456cb58de0b96b3340d60e5da785866ceff1e895e531975c84a6417427ec",
    "cdf.stdout":
        "b667c01bf7887d9333ee6dd3802184ea194b8bdc2165ec1e3b749c04415b01e2",
    "dead/range.json":
        "c6f1ad734596719508eafd8c60f0a0ed6f11d458509435b0ff5f4a07b7f74387",
    "dead-range.stderr":
        "7386e440994fb5751447ee8fcea66f1f34bca5ae9ba29dff634f04029f39b700",
    "quadratic/range.json":
        "46f492be7961e220d06710f17ffd992e1f3def7752a7f0519e0640a1214aad81",
    "quadratic-range.stdout":
        "5585a8eb409860d94f76364d41e1e1be84d2239c327dbc0c2d7ea71c86e6297f",
    "scenario-check.stdout":
        "67014fddf91a6a748e877a62d231d0918512fad0e3d783285b425e2c57c442b6",
    "scenario-shots-fit.stdout":
        "610d1d0d1089a229657772f13605f6173b4b75645933c365da4a46c118f8b06e",
    "scenario-shots-fit-all.stdout":
        "f8a7c5e8be269a303fa2926ea877c6236ee088fb2600e8a25eb335a829bc740d",
    "scenario-inflow-nominal.stdout":
        "6275e1207332296967fca3cb89dfb388e98476f0b0c34de8146992d8f7cfb209",
    "scenario-inflow-x.stdout":
        "a94ca36d1fec5b28ae14b5929a51b498943446998168c0532ba8e3348509eca6",
    "space-validate.stdout":
        "88d8d693b7e5ade4c7c63a7655839b733b56cdc618ba0e359b7e205834af1594",
}

# The three standalone commands, run before ``analyze``; each writes one
# report into its own directory. ``range`` evaluates the corners, which
# ``analyze --corners`` then reuses.
STANDALONE = {
    "range": ["--evaluator", "ridge:cubic-monotone", "--wtrue-seed", "7"],
    "safeset": ["--threshold", "0"],
    "cdf": ["--n", "2000", "--grid-size", "257", "--seed", "5"],
}


# Commands that read no campaign, by the name their stdout is pinned under.
NO_CAMPAIGN = {
    "scenario-check": ["scenario", "check"],
    "scenario-shots-fit": ["scenario", "shots-fit"],
    "scenario-shots-fit-all": ["scenario", "shots-fit", "--all"],
    "scenario-inflow-nominal": ["scenario", "inflow", "--nominal"],
    "scenario-inflow-x": ["scenario", "inflow",
                          "--x", "0.5,-0.2,1,0,0.3,0,-1"],
    "space-validate": ["space", "validate"],
}


def _stdout(argv: list[str]) -> str:
    """What ``main(argv)`` prints; it must exit 0."""
    return _streams(argv)[0]


def _streams(argv: list[str], code: int = 0) -> tuple[str, str]:
    """What ``main(argv)`` prints to stdout and to stderr; it must exit
    ``code``."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        assert main(argv) == code, stderr.getvalue()
    return stdout.getvalue(), stderr.getvalue()


def run_pipeline(work: Path) -> dict[str, str]:
    """Run the fixed pipeline in ``work``; return sha256 per output file."""
    campaign = work / "campaign.json"
    out = work / "out"
    evaluator = ["--evaluator", "ridge:cubic-monotone", "--wtrue-seed", "7"]
    files = {}

    def pin_stdout(argv: list[str]) -> None:
        stdout = _stdout(argv).replace(str(work), "<work>")
        files[f"{argv[0]}.stdout"] = stdout.encode()

    pin_stdout(["sample", "-M", "40", "--seed", "11", "--out", str(campaign)])
    files["campaign.sampled.json"] = campaign.read_bytes()
    pin_stdout(["run", "--campaign", str(campaign), *evaluator])
    for command, flags in STANDALONE.items():
        pin_stdout([command, "--campaign", str(campaign), *flags,
                    "--out", str(work / command)])
        for path in (work / command).iterdir():
            files[f"{command}/{path.name}"] = path.read_bytes()
    pin_stdout(["analyze", "--campaign", str(campaign), "--seed", "5",
                "--bootstrap", "50", "--threshold", "0", "--corners",
                "--cdf", "--n", "2000", "--svg", "--out", str(out),
                *evaluator])
    files.update((path.name, path.read_bytes()) for path in out.iterdir())
    files["campaign.final.json"] = campaign.read_bytes()
    files.update((f"{name}.stdout", _stdout(argv).encode())
                 for name, argv in NO_CAMPAIGN.items())

    quadratic = work / "quadratic.json"
    ridge = ["--evaluator", "ridge:quadratic", "--wtrue-seed", "1"]
    dead = work / "dead.py"
    dead.write_text("import sys\nsys.exit(1)\n")
    _stdout(["sample", "-M", "30", "--seed", "2", "--out", str(quadratic)])
    _stdout(["run", "--campaign", str(quadratic), *ridge])
    _, stderr = _streams(["range", "--campaign", str(quadratic), "--evaluator",
                          f"{sys.executable} {dead}",
                          "--out", str(work / "dead")], code=4)
    files["dead/range.json"] = (work / "dead" / "range.json").read_bytes()
    files["dead-range.stderr"] = stderr.replace(str(work), "<work>").encode()
    files["quadratic-range.stdout"] = _stdout(
        ["range", "--campaign", str(quadratic), *ridge,
         "--out", str(work / "quadratic")]).encode()
    files["quadratic/range.json"] = (
        work / "quadratic" / "range.json").read_bytes()
    return {name: hashlib.sha256(data).hexdigest()
            for name, data in files.items()}


@pytest.fixture(scope="module")
def digests(fresh_python):
    # An `asuq` process loads numpy on one BLAS thread; an in-process
    # `main` under pytest would run at the host's thread count.
    return ast.literal_eval("{%s}" % fresh_python(__file__))


def test_outputs_all_pinned(digests):
    assert sorted(digests) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_matches_golden(digests, name):
    assert digests[name] == GOLDEN[name]


if __name__ == "__main__":
    # Prints the GOLDEN entries for the current code, without CLI chatter.
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()):
        digests = run_pipeline(Path(tmp))
    for name, digest in sorted(digests.items()):
        print(f'    "{name}":\n        "{digest}",')
