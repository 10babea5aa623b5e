"""The README's API names are the package's public names, and those import."""
import re
from pathlib import Path

import trackplan

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_names_are_exported():
    # the README's examples import the package as tp
    named = set(re.findall(r"\btp\.(\w+)", README.read_text()))
    assert named
    assert sorted(named - set(trackplan.__all__)) == []


def test_every_exported_name_imports():
    namespace = {}
    exec("from trackplan import *", namespace)
    assert sorted(set(trackplan.__all__) - set(namespace)) == []
    assert len(set(trackplan.__all__)) == len(trackplan.__all__)
