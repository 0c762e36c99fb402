"""Every name complim exports is read by the program, the acceptance criteria or the benchmark.

A function that only its own unit tests call is not library: it moves into the tests when
other tests need it as an oracle, and is deleted otherwise (README, "Library")."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "complim"


def exported_names():
    tree = ast.parse((SRC / "__init__.py").read_text())
    return [a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom) for a in node.names]


def reads(tree):
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(tree) if isinstance(n, (ast.Name, ast.Attribute))}


def program_reads():
    """(owner, names read) per top-level statement of the package, __all__ lists left out;
    the owner is the name a def or class statement defines, None for any other statement."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in stmt.targets):
                continue
            owner = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
            out.append((owner, reads(stmt)))
    return out


def unread(names, program, acceptance, bench):
    return [
        name for name in names
        if not any(name in read for owner, read in program if owner != name)
        and name not in acceptance
        and not re.search(rf"\b{re.escape(name)}\b", bench)
    ]


def test_every_export_is_read_by_the_program_the_acceptance_criteria_or_the_benchmark():
    acceptance = reads(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()))
    bench = "\n".join(p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py")))
    missing = unread(exported_names(), program_reads(), acceptance, bench)
    assert not missing, f"exported, but read only by their own tests: {missing}"


def test_the_guard_flags_a_name_read_only_by_itself_or_by_nothing():
    # a recursive helper reads its own name; that read does not count
    program = [("gronwall", {"gronwall", "np"}), (None, {"used_by_program"})]
    names = ["gronwall", "used_by_program", "used_by_acceptance", "used_by_bench", "orphan"]
    flagged = unread(names, program, {"used_by_acceptance"}, "child.used_by_bench(x)")
    assert flagged == ["gronwall", "orphan"]
