"""The pinned artifacts hold on every CPython from 3.10 on that pyenv lists.

``tests/profile_digests.py`` needs only the standard library, so it runs
under interpreters that have no pytest. Each interpreter runs it in a
subprocess, as ``PYENV_VERSION=<version> pyenv exec python3``; the test is
skipped where pyenv is not installed.
"""

import re
import shutil
import subprocess
from pathlib import Path

import pytest

from helpers import package_env

DIGESTS = Path(__file__).with_name("profile_digests.py")


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


@pytest.mark.parametrize("version", VERSIONS or [
    pytest.param(None, marks=pytest.mark.skip(reason="pyenv lists no CPython 3.10 or later")),
])
def test_profile_digests_match_every_pin_on(version):
    done = subprocess.run(
        [shutil.which("pyenv"), "exec", "python3", "-B", str(DIGESTS)],
        capture_output=True, text=True, env=dict(package_env(), PYENV_VERSION=version), timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert f"CPython {version}:" in done.stdout
