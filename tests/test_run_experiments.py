"""Unit tests for scripts/run_experiments.py: the marker-block splice."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

from run_experiments import BEGIN, END, splice  # noqa: E402


def document(block):
    return f"# intro\n\n{BEGIN}\n\n{block}\n\n{END}\n\n## E19: by hand\n"


def test_splice_rewrites_only_the_marker_block():
    text = document("## E1: old\n\n## E2: old")
    out = splice(text, "\n\n".join(["## E1: new", "## E2: new"]))
    assert out == document("## E1: new\n\n## E2: new")
    assert splice(out, "## E1: new\n\n## E2: new") == out


@pytest.mark.parametrize("text", [
    "# intro\n\n## E19: by hand\n",
    f"# intro\n{BEGIN}\n## E1\n",
    f"{END}\n## E1\n{BEGIN}\n",
], ids=["no-markers", "no-end", "end-before-begin"])
def test_splice_refuses_a_file_without_both_markers(text):
    with pytest.raises(ValueError, match="BEGIN GENERATED"):
        splice(text, "## E1: new")
