"""The documented public surface runs: README's library sketch, the package
docstring's example, every name ``cdu.__all__`` exports and every name the
benchmark's tracer wraps; and ``src/cdu`` holds no code that only the tests
call."""

import ast
import importlib
import importlib.util
import textwrap
from pathlib import Path

import cdu

README = Path(__file__).resolve().parents[1] / "README.md"
SPANS = README.parent / "bench" / "spans.py"
SRC = Path(cdu.__file__).parent

# functions with no reference in src/cdu, each with the reason it stays
UNREFERENCED = {
    "cli._Parser.error": "overrides ArgumentParser.error, which argparse calls",
    "cli.argv_from_header": "the tests rebuild argvs from report headers with "
                            "it; --resume (ROADMAP item 10) is its planned caller",
    "ddt.uni_report": "bench/spans.py traces it by name",
}


def _readme_sketch():
    """The python block under README's "## Library sketch" heading."""
    text = README.read_text().split("## Library sketch", 1)[1]
    return text.split("```python\n", 1)[1].split("```", 1)[0]


def _docstring_example(doc):
    """The indented block of ``doc``, dedented."""
    lines = doc.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("    "))
    block = []
    for line in lines[start:]:
        if line.strip() and not line.startswith("    "):
            break
        block.append(line)
    return textwrap.dedent("\n".join(block))


def test_readme_library_sketch_runs(capsys):
    """The sketch measures a family's spec and a table given by its values."""
    exec(compile(_readme_sketch(), str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    uniformity, classification = lines[0].split()[:2]
    assert int(uniformity) >= 1 and classification
    assert len(lines) == 2 and int(lines[1]) >= 1


def test_package_docstring_example_runs():
    example = _docstring_example(cdu.__doc__)
    assert "predict.verify" in example
    exec(compile(example, cdu.__file__, "exec"), {})


def test_every_exported_name_resolves():
    assert len(set(cdu.__all__)) == len(cdu.__all__)
    for name in cdu.__all__:
        assert getattr(cdu, name) is not None, name


def test_every_traced_name_resolves():
    """bench/spans.py looks these up by name, so a renamed or deleted one
    would otherwise fail only a traced benchmark run."""
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    names = [f"{layer}.{name}" for layer, names in spans.TARGETS.items()
             for name in names or ()]
    for dotted in names + list(spans.PER_C):
        layer, name = dotted.split(".")
        module = importlib.import_module(f"cdu.{layer}")
        assert callable(getattr(module, name, None)), dotted


def _unreferenced_functions():
    """module.name, or module.Class.name for a method, of every function in
    src/cdu, dunder methods aside, whose name occurs nowhere in src/cdu
    outside its own definition, as a name, an attribute or an import."""
    defs, used = [], set()

    def walk(node, where, inside):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.append(f"{where}.{child.name}")
                walk(child, where, inside | {child.name})
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{where}.{child.name}", inside)
            else:
                name = (child.id if isinstance(child, ast.Name) else
                        child.attr if isinstance(child, ast.Attribute) else
                        child.name if isinstance(child, ast.alias) else None)
                if name not in inside:
                    used.add(name)
                walk(child, where, inside)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text()), path.stem, frozenset())
    return {name for name in defs if not name.rsplit(".", 1)[1].startswith("__")
            and name.rsplit(".", 1)[1] not in used}


def test_src_has_no_test_only_functions():
    """A function whose only callers are tests belongs in the tests: every
    function of src/cdu is referenced there outside its own definition, or
    is in UNREFERENCED with its reason, and UNREFERENCED names no other."""
    assert _unreferenced_functions() == set(UNREFERENCED)
