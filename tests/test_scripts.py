"""Each script under scripts/, and README's Python example, runs to
completion on a small input; the output digest runs once, in full, and must
print the checked-in `tests/output_digest.txt`, with each of its cases a test
of its own.

They use the public API, so a renamed or deleted name, or a changed
signature, breaks them; running them here turns that into a test failure.
"""
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# small arguments for each script, a fraction of a second apiece; the
# digest runs in full, in test_output_digest_is_the_checked_in_one
SCRIPT_ARGS = {
    "lln_scaling.py": ["--populations", "50,200", "--replicas", "20",
                       "--grid-points", "11"],
    "clt_covariance.py": ["--population", "500", "--replicas", "120"],
    "absorption_times.py": ["--populations", "10,20", "--replicas", "40"],
    "output_digest.py": [],
}


def run_script(script, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "scripts" / script),
         *SCRIPT_ARGS[script]],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


def test_every_script_has_arguments():
    assert sorted(p.name for p in (ROOT / "scripts").glob("*.py")) == \
        sorted(SCRIPT_ARGS)


@pytest.mark.parametrize("script", sorted(set(SCRIPT_ARGS) -
                                          {"output_digest.py"}))
def test_script_runs(script, tmp_path):
    proc = run_script(script, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def digest_labels(text):
    return {label: digest for digest, label in
            (line.split("  ", 1) for line in text.splitlines())}


EXPECTED_DIGEST = (ROOT / "tests" / "output_digest.txt").read_text(
    encoding="utf-8")
DIGEST_CASES = sorted({label.split("/", 1)[0]
                       for label in digest_labels(EXPECTED_DIGEST)})


@pytest.fixture(scope="module")
def digest_run(tmp_path_factory):
    # the full script runs once for every test below
    return run_script("output_digest.py", tmp_path_factory.mktemp("digest"))


def differing_labels(got, want):
    differ = sorted(label for label in got.keys() | want.keys()
                    if got.get(label) != want.get(label))
    return "outputs differ from tests/output_digest.txt:\n" + \
        "\n".join(differ) if differ else ""


def test_output_digest_is_the_checked_in_one(digest_run):
    # a change meant to alter output bytes regenerates the file, as the
    # script's docstring says
    assert digest_run.returncode == 0, digest_run.stderr
    message = differing_labels(digest_labels(digest_run.stdout),
                               digest_labels(EXPECTED_DIGEST))
    assert not message, message
    assert digest_run.stdout == EXPECTED_DIGEST


@pytest.mark.parametrize("case", DIGEST_CASES)
def test_output_digest_case(case, digest_run):
    def of_case(text):
        return {label: digest for label, digest in digest_labels(text).items()
                if label.split("/", 1)[0] == case}

    message = differing_labels(of_case(digest_run.stdout),
                               of_case(EXPECTED_DIGEST))
    assert not message, message


def test_readme_python_blocks_run(tmp_path):
    # README's ```python blocks, run together as one program
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)
    assert blocks
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", "\n".join(blocks)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
