"""Static checks on the source tree: the traced benchmark run wraps library
functions by module and name (`perfbench/tracing.py`), so every name it lists
must still exist; no module keeps an import it does not use, and no function
a local name it does not read; no comment or string cites a ROADMAP item by
number, since the items are renumbered; and every committed BENCH file
records what its claim rests on."""

import ast
import importlib
import importlib.util
import json
import math
import re
import statistics
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def test_trace_targets_resolve():
    if not TRACING.is_file():
        pytest.skip("perfbench/tracing.py is absent")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{mod}.{fn}" for mod, fn, _ in tracing.TARGETS
               if not callable(getattr(importlib.import_module(
                   f"bakerlab.{mod}"), fn, None))]
    assert tracing.TARGETS and not missing


def _unused_imports(path):
    # names a module imports but never reads; __all__ counts as a use
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= _all_entries(tree)
    return [f"{path.name}:{line} {name}"
            for name, line in sorted(imported.items()) if name not in used]


def test_no_unused_imports():
    # __init__.py imports to re-export
    modules = [p for p in sorted((ROOT / "src" / "bakerlab").glob("*.py"))
               if p.name != "__init__.py"]
    assert modules
    assert [u for p in modules for u in _unused_imports(p)] == []


def _unread_locals(path):
    # names a function binds and neither it nor a function nested in it
    # reads; `_` is the name for a value left unread on purpose
    found = set()
    for fn in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(fn, ast.FunctionDef):
            names = [n for n in ast.walk(fn) if isinstance(n, ast.Name)]
            read = {n.id for n in names if isinstance(n.ctx, ast.Load)}
            found |= {f"{path.name}:{n.lineno} {n.id}" for n in names
                      if isinstance(n.ctx, ast.Store)
                      and n.id not in read | {"_"}}
    return sorted(found)


def test_no_unread_local_names():
    modules = sorted((ROOT / "src" / "bakerlab").glob("*.py"))
    assert modules
    assert [u for p in modules for u in _unread_locals(p)] == []


def _item_citations(path):
    # text that names an item by number, such as "open item 3": in a module
    # its comments and string literals (docstrings included), in markdown
    # all of it
    cite = re.compile(r"\bitems?\s+\d", re.IGNORECASE)
    if path.suffix == ".md":
        texts = [(1, path.read_text())]
    else:
        with tokenize.open(path) as fh:
            texts = [(tok.start[0], tok.string)
                     for tok in tokenize.generate_tokens(fh.readline)
                     if tok.type in (tokenize.COMMENT, tokenize.STRING)]
    found = []
    for start, text in texts:
        for m in cite.finditer(text):
            line = start + text.count("\n", 0, m.start())
            found.append(f"{path.name}:{line}")
    return found


def test_no_roadmap_item_numbers_in_source():
    # item numbers go stale when ROADMAP is renumbered
    paths = sorted((ROOT / "src" / "bakerlab").glob("*.py"))
    assert paths
    paths.append(ROOT / "README.md")
    assert [c for p in paths for c in _item_citations(p)] == []


def _assigned_constants(path):
    # module-level names bound by an assignment (dunders are read by Python)
    names = []
    for node in ast.parse(path.read_text(), str(path)).body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign)
                   else [])
        for target in targets:
            names += [n.id for n in ast.walk(target)
                      if isinstance(n, ast.Name) and not n.id.startswith("__")]
    return names


def _all_entries(tree):
    # the names listed in a module's __all__
    return {name for node in tree.body if isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "__all__" for t in node.targets)
            for name in ast.literal_eval(node.value)}


def _read_names(tree, strings=False):
    # every name a module reads: a loaded name, an attribute or a
    # from-import, and with strings=True every string literal
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read |= {alias.name for alias in node.names}
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str)):
            read.add(node.value)
    return read


def _parsed(top):
    return [ast.parse(path.read_text(), str(path))
            for path in sorted((ROOT / top).rglob("*.py"))]


def test_no_unread_module_constants():
    # an entry of __all__ counts as a read
    modules = sorted((ROOT / "src" / "bakerlab").glob("*.py"))
    assert modules
    read = set()
    for top in ("src", "tests", "perfbench"):
        for tree in _parsed(top):
            read |= _read_names(tree) | _all_entries(tree)
    assert [f"{p.name}:{name}" for p in modules
            for name in _assigned_constants(p) if name not in read] == []


def test_no_unread_public_functions():
    # a public module-level function must be read by the package or the
    # benchmark, whose tracer names its targets as strings; a test alone,
    # or an entry of __all__, does not keep it
    modules = sorted((ROOT / "src" / "bakerlab").glob("*.py"))
    assert modules
    read = set()
    for tree in _parsed("src"):
        read |= _read_names(tree)
    for tree in _parsed("perfbench"):
        read |= _read_names(tree, strings=True)
    assert [f"{p.name}:{node.name}" for p in modules
            for node in ast.parse(p.read_text(), str(p)).body
            if isinstance(node, ast.FunctionDef)
            and not node.name.startswith("_")
            and node.name not in read] == []


def test_no_unread_private_functions():
    # a private module-level function must be read under src/ outside its
    # own body, so a leftover helper or a self-recursive one is flagged
    stmts = [(node, _read_names(node)) for tree in _parsed("src")
             for node in tree.body]
    assert stmts
    unread = [node.name for node, _ in stmts
              if isinstance(node, ast.FunctionDef)
              and node.name.startswith("_") and not node.name.startswith("__")
              and not any(node.name in reads for other, reads in stmts
                          if other is not node)]
    assert unread == []


def test_bench_files_record_machine_command_and_every_metric():
    # each BENCH_*.json at the root records the machine, the command and,
    # per workload, every end-to-end metric of BENCHMARK.json with the
    # parent's and the change's runs, one per pair, and their median to 6
    # decimals (a median of two runs may end in a 5 at the 7th, rounded
    # either way, and a large one carries a few ulps of its own)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = [m["name"] for m in spec["end_to_end"]]
    workloads = {w["name"] for w in spec["workloads"]}
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    problems = []
    for path in paths:
        data = json.loads(path.read_text())
        machine = data.get("machine", {})
        problems += [f"{path.name}: machine.{key}" for key in
                     ("cpus", "python", "numpy", "numba", "backend")
                     if key not in machine]
        if not (isinstance(data.get("command"), str) and data["command"]):
            problems.append(f"{path.name}: command")
        runs_of = data.get("workloads") or {}
        if not runs_of or not set(runs_of) <= workloads:
            problems.append(f"{path.name}: workloads {sorted(runs_of)}")
        for name, w in runs_of.items():
            for metric in metrics:
                for side in ("parent", "change"):
                    where = f"{path.name}: {name}.{metric}.{side}"
                    rec = w.get("metrics", {}).get(metric, {}).get(side)
                    if rec is None:
                        problems.append(where)
                    elif len(rec["runs"]) != w["pairs"]:
                        problems.append(f"{where}: {len(rec['runs'])} runs")
                    elif abs(statistics.median(rec["runs"])
                             - rec["median"]) > 0.5e-6 + 4 * math.ulp(
                                 rec["median"]):
                        problems.append(f"{where}: median")
    assert problems == []
