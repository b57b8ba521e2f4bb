"""The golden CLI corpus: every recorded argv, run through cli.main in
process, gives its recorded exit code and stdout.  Re-record with
tools/record_cli_golden.py, only when an output is meant to change."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# The recorder is not a package: it is loaded from its file, so the test
# runs each entry exactly as it was recorded.
_spec = importlib.util.spec_from_file_location("record_cli_golden",
                                               ROOT / "tools" / "record_cli_golden.py")
recorder = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(recorder)
CORPUS = json.loads(recorder.CORPUS.read_text(encoding="utf-8"))


def test_corpus_holds_every_entry():
    assert [entry["argv"] for entry in CORPUS] == recorder.ENTRIES


@pytest.mark.parametrize("entry", CORPUS, ids=lambda entry: " ".join(entry["argv"]))
def test_cli_output_matches_golden(entry):
    assert recorder.record(entry["argv"]) == entry
