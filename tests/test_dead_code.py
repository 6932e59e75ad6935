"""Guard against helpers and imports in the package that no package code uses."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "adaptive_fbl"

# read by bench/tracing.py: the GP's likelihood and window, and the
# simulator names it patches, which the generated stepping kernel does not call
ALLOWED_UNREFERENCED = {
    "log_marginal_likelihood",
    "GpModel.inputs",
    "GpModel.targets",
    "compute_control",
    "weight_update_derivative",
    "rk4_step",
}


def modules():
    """(path, parsed tree) of each module of src/adaptive_fbl bar __init__.py."""
    paths = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    return [(path, ast.parse(path.read_text(), filename=str(path))) for path in paths]


def definitions_and_references():
    """(qualified name, bare name) of every module-level function or class
    and every public method, and the set of names the modules reference."""
    defined, referenced = [], set()
    for _, tree in modules():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((node.name, node.name))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        defined.append((f"{node.name}.{item.name}", item.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return defined, referenced


def test_every_definition_is_used_by_the_package():
    """Each module-level function or class and each public method of
    src/adaptive_fbl (bar __init__.py) is named somewhere in the package.

    A reference is any Name or attribute access with the same bare name,
    so a definition whose name collides with an attribute used elsewhere
    passes unseen: a module-level `cholesky` would count as used through
    `np.linalg.cholesky`.
    """
    defined, referenced = definitions_and_references()
    unused = sorted(
        qualified
        for qualified, name in defined
        if name not in referenced and qualified not in ALLOWED_UNREFERENCED
    )
    assert unused == [], f"defined but never referenced in the package: {unused}"


def test_allowlist_names_existing_definitions():
    defined, _ = definitions_and_references()
    assert ALLOWED_UNREFERENCED <= {qualified for qualified, _ in defined}


def test_every_module_level_import_is_used_by_its_module():
    """Each name a module of src/adaptive_fbl (bar __init__.py) imports at
    module level is named in that module, unless its line or the import
    statement's first line carries `# noqa: F401` (imported for others to
    read or patch there)."""
    unused = []
    for path, tree in modules():
        lines = path.read_text().splitlines()
        named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        imports = [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))]
        for node in imports:
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                marked = any("# noqa: F401" in lines[i - 1] for i in (node.lineno, alias.lineno))
                if name not in named and not marked:
                    unused.append(f"{path.name}:{alias.lineno} {name}")
    assert unused == [], f"imported but never named in the module: {unused}"
