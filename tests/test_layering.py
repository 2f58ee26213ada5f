"""Module layering: no obliq module reads a `_`-prefixed name of a sibling module,
only `qmath` owns a worker pool, importing obliq loads no scipy, and a
per-slot posterior applies no Kronecker chain."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import obliq
from obliq import qmath
from obliq.encodings import EncodingFamily, build_family, explicit_single_bit_family, mub_family, random_family
from obliq.protocol import honest_basis, invert_basis, parity_basis, posterior

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


POOL_NAMES = {"ThreadPoolExecutor", "ProcessPoolExecutor"}


def pool_names(source: str) -> list:
    """(line, name) for every import or use of an executor class in the source."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name.rsplit(".", 1)[-1] for alias in node.names]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        hits += [(node.lineno, name) for name in names if name in POOL_NAMES]
    return sorted(hits)


def test_only_qmath_owns_a_pool():
    found = [
        f"{path.name}:{line} names {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "qmath"
        for line, name in pool_names(path.read_text())
    ]
    assert found == []


def test_pool_detector_flags_each_form():
    source = "\n".join(
        [
            "from concurrent.futures import ThreadPoolExecutor as TPE",
            "import concurrent.futures as cf",
            "def f(items):",
            "    with cf.ProcessPoolExecutor(2) as pool:",
            "        return ThreadPoolExecutor, pool.map(len, items)",
            "executor = None  # the word alone is no pool",
        ]
    )
    assert pool_names(source) == [(1, "ThreadPoolExecutor"), (4, "ProcessPoolExecutor"), (5, "ThreadPoolExecutor")]


def eager_scipy_imports(source: str) -> list:
    """(line, module) for every scipy import that runs when the source is imported."""
    hits = []
    todo = [ast.parse(source)]
    while todo:
        for node in ast.iter_child_nodes(todo.pop()):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue  # a function body runs only when called
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                names = []
            hits += [(node.lineno, name) for name in names if name.split(".")[0] == "scipy"]
            todo.append(node)
    return sorted(hits)


def test_no_module_imports_scipy_at_module_level():
    found = [
        f"{path.name}:{line} imports {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, name in eager_scipy_imports(path.read_text())
    ]
    assert found == []


def test_scipy_detector_flags_only_eager_imports():
    source = "\n".join(
        [
            "import scipy.linalg",
            "from scipy import stats as st",
            "import numpy, scipy",
            "if st:",
            "    from scipy.special import xlogy",
            "class C:",
            "    import scipy.optimize",
            "def f(u):",
            "    import scipy.linalg  # runs only when f is called",
            "    return scipy.linalg.schur(u)",
            "from .scipy_tools import g",
            "import scipyx",
        ]
    )
    assert eager_scipy_imports(source) == [
        (1, "scipy.linalg"),
        (2, "scipy"),
        (3, "scipy"),
        (5, "scipy.special"),
        (7, "scipy.optimize"),
    ]


def test_importing_the_cli_loads_no_scipy():
    code = "import sys, obliq.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.split() == ["[]"]


def spy_chain_calls(monkeypatch) -> list:
    """Record every call of `EncodingFamily.vec_times_encoder` and `qmath.kron_apply` by name."""
    calls = []
    for owner, name in ((EncodingFamily, "vec_times_encoder"), (qmath, "kron_apply")):
        real = getattr(owner, name)

        def spy(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)
    return calls


def test_slot_posteriors_apply_no_kronecker_chain(monkeypatch):
    families = [build_family(mub_family(3, 4)), build_family(random_family(2, 3, qmath.SeededRng(5)))]
    calls = spy_chain_calls(monkeypatch)
    for fam in families:
        for index in range(fam.k):
            for basis in (honest_basis(fam, index), invert_basis(fam, index)):
                for i in range(fam.k):
                    posterior(basis, fam, i, fam.n - 3)
    assert calls == []


def test_chain_spy_catches_the_parity_path(monkeypatch):
    fam = explicit_single_bit_family()
    calls = spy_chain_calls(monkeypatch)
    posterior(parity_basis(), fam, 1, 0)
    assert calls == ["vec_times_encoder", "kron_apply"]
