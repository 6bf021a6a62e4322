"""Static checks over the package sources.

The intra-package import graph must stay acyclic: every
src/seedevo/*.py is parsed with ast; imports at module level and inside
functions both count.  Imports under `if TYPE_CHECKING:` never run, but
they still tie two modules' types together, so a second check counts
them too.  The package root imports nothing: each name is imported
from the module that defines it, so importing one module loads only
what that module needs.  The command line loads only what parsing
needs, and each command adds only the modules it runs.  And every
RunConfig field must be read somewhere outside the code that checks
and serializes it, so no setting silently does nothing.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from seedevo.config import RunConfig

PACKAGE = "seedevo"
SRC = Path(__file__).resolve().parents[1] / "src" / PACKAGE
GOLDEN_TRANSCRIPT = Path(__file__).resolve().parent / "data" / "compress_golden.jsonl"

#: Standard modules the engine side needs and neither parsing nor the
#: compressor does; each costs start-up time on every command.
ENGINE_ONLY_STDLIB = {"logging", "concurrent.futures", "subprocess", "statistics", "hashlib", "csv"}


def _is_type_checking(test: ast.expr) -> bool:
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    return isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"


class _ImportCollector(ast.NodeVisitor):
    """Names of sibling modules one module imports."""

    def __init__(self, modules: set[str], type_checking: bool):
        self.modules = modules
        self.type_checking = type_checking
        self.found: set[str] = set()

    def _add(self, dotted: str) -> None:
        head = dotted.split(".")[0]
        if head in self.modules:
            self.found.add(head)

    def visit_If(self, node: ast.If) -> None:
        if _is_type_checking(node.test) and not self.type_checking:
            for stmt in node.orelse:
                self.visit(stmt)
        else:
            self.generic_visit(node)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name.startswith(PACKAGE + "."):
                self._add(alias.name[len(PACKAGE) + 1 :])

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level == 1:
            base = node.module
        elif node.level == 0 and node.module and node.module.split(".")[0] == PACKAGE:
            base = node.module[len(PACKAGE) + 1 :] or None
        else:
            return
        if base:
            self._add(base)
        else:  # from . import a, b
            for alias in node.names:
                self._add(alias.name)


def import_graph(sources: dict[str, str], type_checking: bool = False) -> dict[str, set[str]]:
    """Module -> sibling modules it imports; with type_checking, the
    imports under `if TYPE_CHECKING:` count as well."""
    modules = set(sources)
    graph = {}
    for name, text in sources.items():
        collector = _ImportCollector(modules, type_checking)
        collector.visit(ast.parse(text))
        graph[name] = collector.found - {name}
    return graph


def find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One cycle as a path that starts and ends on the same module."""
    done: set[str] = set()

    def visit(node: str, stack: list[str]) -> list[str] | None:
        stack.append(node)
        for nxt in sorted(graph[node]):
            if nxt in stack:
                return stack[stack.index(nxt):] + [nxt]
            if nxt not in done:
                found = visit(nxt, stack)
                if found:
                    return found
        stack.pop()
        done.add(node)
        return None

    for start in sorted(graph):
        if start not in done:
            found = visit(start, [])
            if found:
                return found
    return None


def package_sources() -> dict[str, str]:
    return {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}


def test_package_import_graph_is_acyclic():
    graph = import_graph(package_sources())
    assert graph["cli"] >= {"engine", "config"}  # the collector sees real edges
    cycle = find_cycle(graph)
    assert cycle is None, "import cycle: " + " -> ".join(cycle)


def test_package_import_graph_is_acyclic_counting_type_checking_imports():
    graph = import_graph(package_sources(), type_checking=True)
    assert graph["cli"] >= {"engine", "config"}
    cycle = find_cycle(graph)
    assert cycle is None, "import cycle through type-only imports: " + " -> ".join(cycle)


def test_collector_counts_function_imports_and_skips_type_checking():
    sources = {
        "a": "from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n    from .b import X\n",
        "b": "def f():\n    from .a import Y\n",
        "c": "from . import a, b\nimport seedevo.a\n",
    }
    graph = import_graph(sources)
    assert graph == {"a": set(), "b": {"a"}, "c": {"a", "b"}}
    assert find_cycle(graph) is None
    assert find_cycle(import_graph(sources, type_checking=True)) == ["a", "b", "a"]
    sources["a"] = "import seedevo.b\n"
    assert find_cycle(import_graph(sources)) == ["a", "b", "a"]


def test_package_root_imports_nothing():
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
    assert imports == []
    assert ast.get_docstring(tree)


def modules_loaded(*steps: str) -> list[set[str]]:
    """Run the steps in order in one fresh interpreter; for each, the
    modules it added to sys.modules.  The first baseline is taken before
    any step, since site preloads some modules on some machines."""
    code = "import sys\nloaded = [set(sys.modules)]\n"
    for step in steps:
        code += f"{step}\nloaded.append(set(sys.modules))\n"
    code += (
        "for old, new in zip(loaded, loaded[1:]):\n"
        "    print(' '.join(sorted(new - old)), file=sys.stderr)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    err = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stderr
    return [set(line.split()) for line in err.splitlines()]


def package_modules(modules: set[str]) -> list[str]:
    return sorted(m for m in modules if m.split(".")[0] == PACKAGE)


def test_compression_loads_no_other_package_module():
    (loaded,) = modules_loaded("import seedevo.compression")
    assert package_modules(loaded) == ["seedevo", "seedevo.compression"]


def test_cli_loads_only_what_parsing_needs():
    (cli,) = modules_loaded("import seedevo.cli")
    assert package_modules(cli) == [
        "seedevo", "seedevo.cli", "seedevo.config", "seedevo.errors",
        "seedevo.hedge", "seedevo.operators",
    ]
    assert cli & ENGINE_ONLY_STDLIB == set()


@pytest.mark.parametrize(
    "argv, added",
    [
        (["compress", str(GOLDEN_TRANSCRIPT), "--rendered", "{tmp}/rendered.jsonl"],
         ["seedevo.compression"]),
        (["run", "--output", "{tmp}/root", "--print-config"], []),
    ],
    ids=["compress", "print-config"],
)
def test_command_loads_only_what_it_runs(tmp_path, argv, added):
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    cli, command = modules_loaded(
        "import seedevo.cli",
        f"assert seedevo.cli.main({argv!r}) == 0",
    )
    assert package_modules(command) == added
    assert (cli | command) & ENGINE_ONLY_STDLIB == set()


class _AttributeReads(ast.NodeVisitor):
    """Attribute names read anywhere except inside the skipped
    (class, method) pairs."""

    def __init__(self, skip: set[tuple[str, str]]):
        self.skip = skip
        self.cls: str | None = None
        self.found: set[str] = set()

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        outer, self.cls = self.cls, node.name
        self.generic_visit(node)
        self.cls = outer

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        if (self.cls, node.name) not in self.skip:
            self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load):
            self.found.add(node.attr)
        self.generic_visit(node)


def test_every_run_config_field_is_read():
    reads = _AttributeReads({("RunConfig", m) for m in ("validate", "to_dict", "from_dict")})
    for text in package_sources().values():
        reads.visit(ast.parse(text))
    assert "population_size" in reads.found  # the collector sees real reads
    unread = sorted(f.name for f in fields(RunConfig) if f.name not in reads.found)
    assert unread == [], f"RunConfig fields nothing reads: {unread}"


def test_benchmark_trace_hooks_find_every_name(monkeypatch):
    """perfbench's traced run wraps functions by name where their callers
    look them up; a rename in the package would break it."""
    monkeypatch.syspath_prepend(str(SRC.parents[1] / "perfbench"))
    helpers = ("workloads", "tracing", "checks", "inputs", "hostspeed")
    try:
        import tracing
        import workloads

        group_messages = workloads.compression.group_messages
        tracer = tracing.Tracer()
        try:
            workloads.install(tracer)  # AttributeError on a name it cannot find
            assert workloads.compression.group_messages is not group_messages
        finally:
            tracer.restore()
        assert workloads.compression.group_messages is group_messages
    finally:
        for name in helpers:
            sys.modules.pop(name, None)
