"""src/asaiperiods holds what its commands run.

Every module-level function or class of the package, and every method
that is not a dunder, must be named somewhere else in src/ (outside
__init__.py, and outside its own body), or sit on ALLOWED with its
reason. Names are matched by their last part, as Name, Attribute or
import alias nodes, so a method counts as used when any attribute of
its name is read. A helper that only tests call belongs in tests/.
"""

import ast
from pathlib import Path

import asaiperiods

SRC = Path(asaiperiods.__file__).parent
HARNESS = [Path(__file__).parent.parent / "layerbench" / name for name in ("tracing.py", "worker.py")]

# "module.name" -> reason. A reason that starts with "harness:" holds
# only while the benchmark harness names the entry.
ALLOWED = {
    "descriptors.rep_json": "the inverse of load_rep_file; tests write descriptors with it, "
                            "so the descriptor format stays in one module",
    "descriptors.series_json": "harness: the descriptors.serialize layer traces it; period "
                               "writes the same text from the kernel's integers",
    "lfactors.tate_L": "harness: the lfactors layer traces it",
    "lfactors.asai_L_multiplicative": "harness: the lfactors layer traces it",
    "localfields.trace_conductor": "the conductor calculus; ROADMAP item 3 decides its fate",
    "localfields.conductor_zero_shift": "the conductor calculus; ROADMAP item 3 decides its fate",
    "localfields.trace_zero_element_kind": "the conductor calculus; ROADMAP item 3 decides its fate",
    "periods.essential_rs_check": "ROADMAP item 2 puts it on a command path",
    "periods.mirabolic_series": "harness: the periods.lattice layer traces it; period "
                                "reads the kernel's integers (mirabolic_ints)",
    "scalars.AlgNum": "harness: the scalars micro-timings build it",
    "scalars.GaussRat.abs2": "ROADMAP item 8 needs it",
    "whittaker.essential_value": "harness: the whittaker.value layer traces it",
}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(module, tree):
    """(qualified name, node) of each module-level function or class and
    each non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not _is_dunder(node.name):
            yield "%s.%s" % (module, node.name), node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not _is_dunder(sub.name):
                        yield "%s.%s.%s" % (module, node.name, sub.name), sub


def _references(tree):
    """(name, line) of every Name, Attribute and import alias."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno


def unreferenced(src):
    """Qualified names defined in src (a package directory) that no
    other place in it names."""
    defs, refs = [], []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defs += [(path.stem, name, node) for name, node in _definitions(path.stem, tree)]
        refs += [(path.stem, name, line) for name, line in _references(tree)]
    return [name for module, name, node in defs
            if not any(ref == name.rpartition(".")[2]
                       and not (where == module and node.lineno <= line <= node.end_lineno)
                       for where, ref, line in refs)]


def test_every_name_is_reached_from_src_or_allowed():
    found = unreferenced(SRC)
    assert [name for name in found if name not in ALLOWED] == []
    # an entry whose name src/ now reaches, or no longer defines, goes
    assert sorted(name for name in ALLOWED if name not in found) == []


def test_harness_entries_are_still_named_by_the_harness():
    text = "".join(path.read_text(encoding="utf-8") for path in HARNESS)
    stale = [name for name, reason in ALLOWED.items()
             if reason.startswith("harness:") and name.rpartition(".")[2] not in text]
    assert stale == []
