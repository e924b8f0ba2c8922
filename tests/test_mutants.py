"""The mutant table of tests/mutants.py is well formed. Running its mutants
is opt-in (python tests/mutants.py); here each snippet must occur exactly
once in its file, each mutated file must compile and each named test must be
collected, so that a refactor that moves code or renames a test updates the
table."""

import subprocess
import sys

import pytest

import helpers
import mutants


def test_ids_are_unique():
    ids = [m.id for m in mutants.MUTANTS]
    assert len(ids) == len(set(ids))


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.id)
def test_snippet_occurs_once(mutant):
    path = mutants.ROOT / mutant.file
    text = path.read_text()
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old
    assert mutant.tests
    # a mutated file that does not compile fails every named test, which
    # would read as a kill
    compile(text.replace(mutant.old, mutant.new), str(path), "exec")


def test_named_tests_are_collected():
    named = sorted({t for m in mutants.MUTANTS for t in m.tests})
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider",
         *named], cwd=mutants.ROOT, env=helpers.module_env(), capture_output=True,
        text=True, check=False)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    collected = proc.stdout.splitlines()
    assert [t for t in named if not mutants._covers(t, collected)] == []
