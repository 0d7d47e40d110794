"""scripts/mutants.py's list stays in step with the code it plants faults in:
each listed old text occurs exactly once in its file, so a refactor that
moves or doubles one fails here, not only in the mutants run."""

import importlib.util
import pathlib

REPO = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutants", REPO / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_every_listed_old_text_occurs_once_in_its_file():
    assert mutants.misplaced(REPO) == []
