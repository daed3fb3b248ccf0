"""Every checker hook call in ``src/repro`` sits behind its ``enabled`` guard.

The default :data:`~repro.check.NULL_CHECKER` has no hooks, so an
unguarded call would raise ``AttributeError`` on every unchecked run that
reaches it.  This test parses each module with :mod:`ast` and requires
every call to an :class:`~repro.check.InvariantChecker` hook name to sit
inside the body of an ``if <receiver>.enabled:`` on the same receiver.
"""

import ast
from pathlib import Path

import pytest

from repro.check import InvariantChecker, NullChecker

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
HOOKS = frozenset(
    name
    for name, value in vars(InvariantChecker).items()
    if callable(value) and not name.startswith("_")
)


def unguarded_hook_calls(source: str) -> list:
    """``(line, hook)`` for each hook call not inside ``if <recv>.enabled:``."""
    found = []

    def visit(node, guards):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in HOOKS
            and ast.dump(node.func.value) not in guards
        ):
            found.append((node.lineno, node.func.attr))
        if (
            isinstance(node, ast.If)
            and isinstance(node.test, ast.Attribute)
            and node.test.attr == "enabled"
        ):
            visit(node.test, guards)
            inner = guards | {ast.dump(node.test.value)}
            for child in node.body:
                visit(child, inner)
            for child in node.orelse:
                visit(child, guards)
            return
        for child in ast.iter_child_nodes(node):
            visit(child, guards)

    visit(ast.parse(source), frozenset())
    return found


def test_hook_names_cover_the_checker():
    assert {"nic_rx", "cache_state", "strategy_executed", "finalize"} <= HOOKS
    assert "enabled" not in HOOKS
    assert not HOOKS & set(vars(NullChecker))


@pytest.mark.parametrize(
    "path", sorted(SRC.rglob("*.py")), ids=lambda p: str(p.relative_to(SRC))
)
def test_every_hook_call_is_guarded(path):
    assert unguarded_hook_calls(path.read_text()) == []


class TestDetector:
    def test_guarded_call_passes(self):
        source = "c = env.check\nif c.enabled:\n    c.nic_tx(3)\n"
        assert unguarded_hook_calls(source) == []

    def test_guarded_attribute_chain_passes(self):
        source = "if self.env.check.enabled:\n    self.env.check.arrival('shed')\n"
        assert unguarded_hook_calls(source) == []

    def test_missing_guard_is_caught(self):
        source = "def f(env):\n    c = env.check\n    c.nic_tx(3)\n"
        assert unguarded_hook_calls(source) == [(3, "nic_tx")]

    def test_guard_on_another_receiver_is_caught(self):
        source = "if m.enabled:\n    c.cache_state(0, [], 0)\n"
        assert unguarded_hook_calls(source) == [(2, "cache_state")]

    def test_else_branch_is_caught(self):
        source = "if c.enabled:\n    pass\nelse:\n    c.finalize(now=0.0)\n"
        assert unguarded_hook_calls(source) == [(4, "finalize")]

    def test_negated_guard_is_caught(self):
        source = "if not c.enabled:\n    c.summary()\n"
        assert unguarded_hook_calls(source) == [(2, "summary")]
