"""The mutation list in tests/mutants.py stays applicable to today's source."""

import pytest
from mutants import MUTANTS, ROOT, mutated_source


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_each_mutant_applies_once_and_names_existing_tests(mutant):
    # mutated_source refuses a snippet that does not occur exactly once
    assert mutated_source(mutant, ROOT / "src") != (ROOT / "src" / mutant.module).read_text()
    for node_id in mutant.kills:
        path, _, name = node_id.partition("::")
        assert not name or f"\ndef {name}(" in (ROOT / path).read_text(), node_id


def test_mutant_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
