"""The golden ``profile/*`` digests, recomputed through the CLI.

``test_cli.test_profile_tables_are_pinned`` checks each table with
:func:`profile_digest`. Run as a script, this module recomputes all 24 and
compares them with ``golden_digests.json``. It needs nothing but the
standard library and faastune, so it also runs under interpreters that have
no pytest:

    PYTHONPATH=src python3 -B tests/profile_digests.py

The simulator draws its jitter with the operations of CPython's
``random.Random.normalvariate``, so a change to that method in some CPython
release shows up here as a mismatch. Exits 1 if any digest differs.
"""

from __future__ import annotations

import hashlib
import io
import json
import platform
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from faastune import cli
from faastune.sim import SHAPES

GOLDEN = Path(__file__).with_name("golden_digests.json")
SEEDS = ("5", "8")


def profile_key(shape: str, seed: str, noisy: bool) -> str:
    return f"profile/{shape}-{seed}" + ("-noisy" if noisy else "")


def _run(argv: list[str]) -> None:
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"faastune {' '.join(argv)} exited {code}")


def profile_digest(workdir: Path, shape: str, seed: str, noisy: bool) -> str:
    """sha256 of the `profile` table of a 6-function app of ``shape``,
    generated and profiled at ``seed``, at the simulator's default noise or,
    if ``noisy``, at jitter cv 0.05 with 2 % cold starts."""
    app = workdir / "app.json"
    profiles = workdir / "profiles.csv"
    _run(["generate-app", "--shape", shape, "--functions", "6", "--seed", seed,
          "--out", str(app)])
    if noisy:
        spec = json.loads(app.read_text())
        for fields in spec["functions"].values():
            fields.update(jitter_cv=0.05, cold_start_prob=0.02)
        app.write_text(json.dumps(spec))
    _run(["profile", "--app", str(app), "--seed", seed, "--out", str(profiles)])
    return hashlib.sha256(profiles.read_bytes()).hexdigest()


def check() -> int:
    """Print one line per mismatch and a summary; 1 if any digest differs."""
    golden = json.loads(GOLDEN.read_text())
    keys = [(shape, seed, noisy) for shape in SHAPES for seed in SEEDS for noisy in (False, True)]
    mismatches = []
    with tempfile.TemporaryDirectory() as workdir, redirect_stdout(io.StringIO()):
        for shape, seed, noisy in keys:
            key = profile_key(shape, seed, noisy)
            if profile_digest(Path(workdir), shape, seed, noisy) != golden[key]:
                mismatches.append(key)
    for key in mismatches:
        print(f"mismatch: {key}")
    print(f"{platform.python_implementation()} {platform.python_version()}: "
          f"{len(keys) - len(mismatches)} of {len(keys)} profile digests match {GOLDEN.name}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(check())
