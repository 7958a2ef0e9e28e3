"""No name in the package lives only for its own tests, the output format
lives in one module, and no exact value goes through BLAS.

Every function, class, method or property defined under ``src/`` is read
somewhere in ``src/`` outside its own definition, read by the benchmark in
``perfbench/`` (which names traced functions in strings), or re-exported by
the package's ``__init__``.
"""

import ast
import re
from pathlib import Path

import bounded_agents

SRC = Path(bounded_agents.__file__).parent
PERFBENCH = SRC.parents[1] / "perfbench"


def _trees(folder: Path):
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(folder.glob("*.py"))}


def _reads(tree) -> list[str]:
    """Names and attributes that ``tree`` reads."""
    return [node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)]


def _strings(tree) -> set[str]:
    """The dotted parts of string constants that are whole dotted names."""
    return {part for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and re.fullmatch(r"[A-Za-z_][\w.]*", node.value)
            for part in node.value.split(".")}


def unused_definitions() -> list[str]:
    trees = _trees(SRC)
    reads = [name for tree in trees.values() for name in _reads(tree)]
    exported = {alias.asname or alias.name
                for node in ast.walk(trees[SRC / "__init__.py"])
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    bench = set()
    for tree in _trees(PERFBENCH).values():
        bench |= set(_reads(tree)) | _strings(tree)
    unused = []
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue  # called by Python itself
            outside = reads.count(name) - _reads(node).count(name)
            if outside == 0 and name not in bench and name not in exported:
                unused.append(f"{path.name}:{node.lineno} {name}")
    return unused


def test_every_definition_is_used_outside_its_tests():
    assert unused_definitions() == []


def test_only_reproduce_writes_the_text_format():
    """12-digit floats, CSV and JSON text are made by reproduce's helpers alone."""
    found = [f"{path.name}: {marker}" for path in sorted(SRC.glob("*.py"))
             if path.name != "reproduce.py"
             for marker in (".12g", "io.StringIO", "json.dumps")
             if marker in path.read_text(encoding="utf-8")]
    assert found == []


def test_no_blas_in_the_value_path():
    """No matrix product or LAPACK call under src/, whose bits would follow
    the kernel that BLAS picks for the CPU: no ``@``, np.dot, np.matmul,
    np.einsum or np.linalg. The one exception is the resolvent solve of
    stopped_state_distribution."""
    found = []
    for path, tree in _trees(SRC).items():
        exempt = {id(node) for f in ast.walk(tree)
                  if isinstance(f, ast.FunctionDef) and f.name == "stopped_state_distribution"
                  for node in ast.walk(f)}
        for node in ast.walk(tree):
            product = isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op,
                                                                                 ast.MatMult)
            call = (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in ("np", "numpy")
                    and node.attr in ("dot", "matmul", "einsum", "linalg"))
            if (product or call) and id(node) not in exempt:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
