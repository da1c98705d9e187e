"""The README's "Library layout" table names only what each module exports.

Every backticked name in a module's row must be in that module's
__all__; a dotted name `Name.attr` must have Name in __all__ and attr on
it.  Other backticked text (an option such as `--net`) is not a name.
"""

import importlib
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
NAME = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)?")


def layout_rows(text):
    """{module: [backticked names]} from the layout table."""
    section = text[text.index("## Library layout"):]
    rows = {}
    for line in section.splitlines()[2:]:
        if not line.startswith("|"):
            break
        cells = line.split("|")
        module = re.fullmatch(r"\s*`(sigmadelta\.\w+)`\s*", cells[1])
        if module:
            rows[module.group(1)] = [
                t for t in re.findall(r"`([^`]+)`", cells[2])
                if NAME.fullmatch(t)]
    return rows


def missing_names(rows):
    missing = []
    for module_name, names in rows.items():
        module = importlib.import_module(module_name)
        for name in names:
            owner, _, attr = name.partition(".")
            if owner not in module.__all__ or (
                    attr and not hasattr(getattr(module, owner), attr)):
                missing.append(f"{module_name}: {name}")
    return missing


def test_layout_table_lists_every_module():
    rows = layout_rows(README.read_text())
    assert len(rows) == 8 and all(rows.values())


def test_every_layout_name_is_exported():
    assert missing_names(layout_rows(README.read_text())) == []


@pytest.mark.parametrize("module, stale", [
    ("scale_opt", "`LogScales`"), ("scale_opt", "`comp_loss`"),
    ("costs", "`Nope.record_frame`"), ("costs", "`LayerActivity.nope`")])
def test_check_finds_a_stale_name(module, stale):
    row = f"| `sigmadelta.{module}`".ljust(27) + "| "
    text = README.read_text()
    assert row in text
    missing = missing_names(layout_rows(text.replace(row, f"{row}{stale}, ")))
    assert missing == [f"sigmadelta.{module}: {stale.strip('`')}"]
