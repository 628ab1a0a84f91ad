"""Every leaf setting of the config document is read by the run.

A setting counts as read when some attribute access of that name, in a load
context, appears in ``src/uavcache/*.py`` outside the functions that only
check the config.  A setting that only validation reads changes nothing and
belongs out of the document.

The scan sees reads, not effects: it cannot catch a setting that the run reads
but whose value changes no output.  ``esn.horizon`` was one.  It sized the
mobility readout, yet the run used only the readout's first waypoint, so every
horizon wrote the same artifacts.
"""

import ast
import dataclasses
from pathlib import Path

from uavcache.config import ChannelParams, EsnConfig, GeneratorConfig, ScenarioConfig

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "uavcache"
CHECKS_ONLY = {"validate", "esn_violations"}
BLOCKS = (ScenarioConfig, ChannelParams, EsnConfig, GeneratorConfig)


def leaf_fields() -> set[str]:
    return {f.name for cls in BLOCKS for f in dataclasses.fields(cls)
            if not dataclasses.is_dataclass(f.default_factory)}


def attributes_read_outside_checks(tree: ast.AST) -> set[str]:
    reads = set()

    def visit(node: ast.AST, in_check: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            in_check = in_check or node.name in CHECKS_ONLY
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and not in_check:
            reads.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, in_check)

    visit(tree, False)
    return reads


def test_every_leaf_setting_is_read_outside_the_checks():
    reads = set()
    for path in sorted(PACKAGE.glob("*.py")):
        reads |= attributes_read_outside_checks(ast.parse(path.read_text(), filename=str(path)))
    assert "exponent_los" in reads  # the scan sees the package
    assert sorted(leaf_fields() - reads) == []


# The number of leaf values a config document can set.  A change that adds or
# removes a setting edits this pin and says so in CHANGES.md.
SETTABLE_VALUES = 50


def test_settable_value_count_is_pinned():
    leaves = [f for cls in BLOCKS for f in dataclasses.fields(cls)
              if not dataclasses.is_dataclass(f.default_factory)]
    assert len(leaves) == SETTABLE_VALUES
