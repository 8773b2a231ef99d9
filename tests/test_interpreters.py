"""The pinned artifacts hold, and the value types are slotted and round-trip,
on every CPython from 3.10 on that pyenv lists.

``tests/profile_digests.py`` and ``tests/value_types.py`` need only the
standard library, so they run under interpreters that have no pytest. Each
interpreter runs each script in a subprocess, as ``PYENV_VERSION=<version>
pyenv exec python3 -X warn_default_encoding -W error::EncodingWarning``, so a
file opened in the locale's encoding fails the run; the tests are skipped where
pyenv is not installed.
"""

import re
import shutil
import subprocess
from pathlib import Path

import pytest

from helpers import package_env

DIGESTS = Path(__file__).with_name("profile_digests.py")
VALUE_TYPES = Path(__file__).with_name("value_types.py")


def _pyenv_versions() -> list[str]:
    """The CPython versions from 3.10 on that ``pyenv versions --bare``
    lists, or none when pyenv is missing or fails."""
    pyenv = shutil.which("pyenv")
    if pyenv is None:
        return []
    try:
        listed = subprocess.run([pyenv, "versions", "--bare"], capture_output=True, text=True,
                                timeout=60, check=True).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return []
    return [version for version in listed
            if (match := re.fullmatch(r"3\.(\d+)\.\d+", version)) and int(match[1]) >= 10]


VERSIONS = _pyenv_versions()


def _run(script: Path, version: str) -> None:
    """Run ``script`` under pyenv's CPython ``version``, with every read or
    write in the locale's encoding an error; it must exit 0 and name the
    version it ran on."""
    done = subprocess.run(
        [shutil.which("pyenv"), "exec", "python3", "-B", "-X", "warn_default_encoding",
         "-W", "error::EncodingWarning", str(script)],
        capture_output=True, text=True, env=dict(package_env(), PYENV_VERSION=version), timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert f"CPython {version}:" in done.stdout


ON_EVERY_VERSION = pytest.mark.parametrize("version", VERSIONS or [
    pytest.param(None, marks=pytest.mark.skip(reason="pyenv lists no CPython 3.10 or later")),
])


@ON_EVERY_VERSION
def test_profile_digests_match_every_pin_on(version):
    _run(DIGESTS, version)


@ON_EVERY_VERSION
def test_value_types_are_slotted_and_round_trip_on(version):
    _run(VALUE_TYPES, version)
