"""Print a sha256 of every CLI invocation in a fixed list, and one overall.

Each invocation runs `chernoff.cli.main` in-process, from a fresh empty
working directory, so every file it writes is found and no earlier run's
files are.  Its digest covers argv, the environment it set, the exit code,
stdout, stderr and the name and bytes of each file written.  The list holds
every subcommand in every format, with and without --out, the usage and
numerical error paths, and every --help.  Two checkouts whose CLI behaves
identically print the same overall digest on one machine; numeric bits
depend on the numpy build, so digests from different machines may differ.

    python3 tests/cli_golden.py

The name keeps pytest from collecting it.  It imports the package from the
src/ directory of the checkout it sits in.  It takes under a second.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import shlex
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from chernoff.cli import main  # noqa: E402

SIM = "simulate --paths 64 --step 0.02 --horizon 2"
COMMANDS = ["polys", "verify", "moment", "cf", "mgf", "density", "mean-max", "simulate"]

#: each line is an argv, after optional NAME=value environment settings
CASES = [
    "polys --max-n 12", "polys --max-n 12 --format json", "polys --max-n 12 --format csv",
    "polys --max-n 6 --out p.txt", "polys --max-n 6 --format json --out p.json",
    "polys --max-n 6 --format csv --out p.csv",
    "verify --max-n 12",
    "moment --n 2", "moment --n 2 --format json", "moment --n 2 --format csv",
    "moment --n 4 --gamma 2 --format json --out m.json",
    "cf --t 1 --gamma 2", "cf --t 1 --format json", "cf --t 1 --format csv",
    "cf --t 0.5 --format csv --out c.csv",
    "mgf --t-re -3 --t-im 0.5", "mgf --t-re -3 --format json", "mgf --t-re 0.5 --format csv",
    "mgf --t-re 0.5 --sigma 1 --out g.txt",
    "mean-max --gamma 2", "mean-max --format json", "mean-max --format csv",
    "mean-max --format csv --out e.csv",
    "density --from -2 --to 2 --step 0.5", "density --from 0 --to 1 --step 0.5 --format json",
    "density --from -1 --to 1 --step 0.25 --out d.csv",
    "density --from 0 --to 1 --step 0.5 --format json --out d.json",
    f"{SIM} --out s.csv", f"{SIM} --seed 3 --out s.csv --format json", SIM,
    # usage errors: exit 2
    "", "frobnicate", "polys --max-n -1", "polys --max-n 501", "verify --max-n 1",
    "moment --n -2", "moment --n two", "moment --n 2 --gamma 0", "cf --t nan",
    "mgf --t-re inf", "mgf --t-re -3 --sigma 0",
    "density --from 2 --to -2 --step 0.5", "density --from 0 --to 1 --step 1e-12",
    "density --from 0 --to 1 --step 0.5 --format plain",
    "moment --n 2 --out missing/x.txt", "polys --max-n 2 --out .",
    f"{SIM} --paths 1 --out s.csv", f"{SIM} --out missing/s.csv",
    "CHERNOFF_RELTOL=banana moment --n 2",
    # numerical failures: exit 3
    "CHERNOFF_RELTOL=1e-30 moment --n 2", "moment --n 2 --gamma 1e-300",
    "mgf --t-re 1e300", "density --from 1e308 --to 1e308 --step 1 --gamma 1e6",
    "cf --t 1e308 --gamma 1e-300",
    # every help text
    "--help", *(f"{c} --help" for c in COMMANDS),
]


def run(case: str) -> tuple[str, int]:
    """(sha256, exit code) of one invocation, run from an empty directory."""
    words = shlex.split(case)
    settings = list(itertools.takewhile(lambda w: "=" in w, words))
    env = dict(w.split("=", 1) for w in settings)
    argv = words[len(settings):]
    out, err = io.StringIO(), io.StringIO()
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        os.environ.update(env)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            files = {str(p.relative_to(tmp)): p.read_bytes().hex()
                     for p in sorted(Path(tmp).rglob("*")) if p.is_file()}
        finally:
            for name in env:
                del os.environ[name]
            os.chdir(home)
    doc = [argv, env, code, out.getvalue(), err.getvalue(), files]
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest(), code


def golden() -> None:
    os.environ.pop("CHERNOFF_RELTOL", None)
    os.environ["COLUMNS"] = "80"        # argparse wraps --help to the terminal
    overall = hashlib.sha256()
    for case in CASES:
        digest, code = run(case)
        overall.update(digest.encode())
        print(f"{digest}  {code}  {case}")
    print(f"overall {overall.hexdigest()}  ({len(CASES)} invocations)")


if __name__ == "__main__":
    golden()
