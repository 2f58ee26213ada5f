"""Module layering: no obliq module reads a `_`-prefixed name of a sibling module."""

import ast
from pathlib import Path

import obliq

PACKAGE = Path(obliq.__file__).parent
SIBLINGS = {p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__"}


def _sibling(module: str | None, level: int) -> str | None:
    """The sibling module an import names, or None for anything else."""
    if level == 1:
        return module
    if module and module.startswith("obliq."):
        return module.split(".", 1)[1]
    return None


def private_reads(source: str) -> list:
    """(line, "module._name") for every private sibling name the source reads."""
    tree = ast.parse(source)
    aliases = {}  # local name -> sibling module it is bound to
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            target = _sibling(node.module, node.level)
            for alias in node.names:
                if target is None and (node.level == 1 or node.module == "obliq"):
                    aliases[alias.asname or alias.name] = alias.name  # from . import protocol
                elif target in SIBLINGS and alias.name.startswith("_"):
                    hits.append((node.lineno, f"{target}.{alias.name}"))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                target = _sibling(alias.name, 0)
                if target in SIBLINGS and alias.asname:
                    aliases[alias.asname] = target
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and aliases.get(node.value.id) in SIBLINGS
            and node.attr.startswith("_")
            and not node.attr.startswith("__")
        ):
            hits.append((node.lineno, f"{aliases[node.value.id]}.{node.attr}"))
    return sorted(hits)


def test_no_module_reads_a_private_name_of_a_sibling():
    found = [
        f"{path.name}:{line} reads {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, name in private_reads(path.read_text())
    ]
    assert found == []


def test_detector_flags_each_import_form():
    source = "\n".join(
        [
            "from . import protocol",
            "from .analysis import _parallel_map",
            "import obliq.qmath as qm",
            "from obliq import gf2 as g",
            "def f(rng):",
            "    protocol._run_session(rng)",
            "    return qm._splitmix64(1) + g._poly_rem(3, 2) + protocol.run_session.__name__",
        ]
    )
    assert private_reads(source) == [
        (2, "analysis._parallel_map"),
        (6, "protocol._run_session"),
        (7, "gf2._poly_rem"),
        (7, "qmath._splitmix64"),
    ]
