"""Module layering: no obliq module reads a `_`-prefixed name of a sibling module,
only `qmath` owns a worker pool, each chunked audit enters it once and Haar
sampling never does, importing obliq loads no scipy, no comparison spells a
tolerance as a literal, a per-slot posterior applies no Kronecker chain and a
product session forms no n-entry state.
Every name `obliq` exports, and every public top-level name of each module,
has a reader outside the unit tests, and `povm` imports no sibling module
but `qmath`; no module wraps a family in `build_family` or reads `.basis`.
The benchmark contract: the span tracer in perfbench/ installs and
uninstalls cleanly, every obliq name the workloads read exists, and every
workload sets up and prepares its references."""

import ast
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import obliq
from obliq import analysis, cli, protocol, qmath
from obliq.encodings import (
    EncodingFamily,
    explicit_single_bit_family,
    mub_family,
    random_family,
    walsh_family,
)
from obliq.hardening import GfMask, masked_session, xor_guess_attack
from obliq.protocol import DatabaseState, honest_basis, invert_basis, parity_basis, posterior, run_session

PACKAGE = Path(obliq.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
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
            "    return qm._splitmix64(1) + g._field(3)[0] + protocol.run_session.__name__",
        ]
    )
    assert private_reads(source) == [
        (2, "analysis._parallel_map"),
        (6, "protocol._run_session"),
        (7, "gf2._field"),
        (7, "qmath._splitmix64"),
    ]


POOL_NAMES = {"ThreadPoolExecutor", "ProcessPoolExecutor"}
RNG_NAMES = {"SeedSequence", "Philox", "Generator", "default_rng"}


def named_uses(source: str, wanted: set) -> list:
    """(line, name) for every import or use of a name in `wanted` in the source."""
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
        hits += [(node.lineno, name) for name in names if name in wanted]
    return sorted(hits)


def test_only_qmath_owns_a_pool():
    found = [
        f"{path.name}:{line} names {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "qmath"
        for line, name in named_uses(path.read_text(), POOL_NAMES)
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
    assert named_uses(source, POOL_NAMES) == [(1, "ThreadPoolExecutor"), (4, "ProcessPoolExecutor"), (5, "ThreadPoolExecutor")]


def test_only_qmath_builds_a_random_stream():
    # every stream is a SeededRng, Philox keyed (seed, stream); nothing else seeds a generator
    found = [
        f"{path.name}:{line} names {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "qmath"
        for line, name in named_uses(path.read_text(), RNG_NAMES)
    ]
    assert found == []


def test_rng_detector_flags_each_form():
    source = "\n".join(
        [
            "from numpy.random import default_rng as rng",
            "import numpy as np",
            "def f(seed):",
            "    bits = np.random.Philox(np.random.SeedSequence(seed))",
            "    return np.random.Generator(bits), rng(seed)",
            "generator = None  # the word alone is no stream",
        ]
    )
    assert named_uses(source, RNG_NAMES) == [(1, "default_rng"), (4, "Philox"), (4, "SeedSequence"), (5, "Generator")]


def _mub_encoders(k, m):
    fam = mub_family(k, m)
    return [qmath.kron_chain(fam.factors(i)) for i in range(k)]


# the four chunked audits, each at a size of at least two chunks
AUDITS = {
    "entropic": lambda rng: analysis.verify_theorem1(8, 5000, rng),
    "concentration": lambda rng: analysis.concentration_experiment(256, 32, None, rng),
    "projective": lambda rng: analysis.projective_gain_audit(mub_family(3, 2), 200, rng),
    "hk": lambda rng: analysis.explore_condition_2prime(_mub_encoders(3, 2), 5000, rng),
}


@pytest.mark.parametrize("name", sorted(AUDITS))
def test_each_chunked_audit_enters_the_pool_once(name, monkeypatch):
    calls = []
    real = analysis._parallel_map

    def spy(fn, items):
        calls.append(name)
        return real(fn, items)

    monkeypatch.setattr(analysis, "_parallel_map", spy)
    monkeypatch.setenv("OBLIQ_THREADS", "2")
    AUDITS[name](qmath.SeededRng(4))
    assert calls == [name]


def names_in_function(source: str, function: str) -> set:
    """Every bare name and attribute name used inside the top-level `function` of the source."""
    (node,) = [n for n in ast.parse(source).body if isinstance(n, ast.FunctionDef) and n.name == function]
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
    }


def test_haar_sampling_names_no_pool():
    # a pool call inside the sampler would nest under the audit chunks' lanes
    names = names_in_function((PACKAGE / "qmath.py").read_text(), "haar_unitaries")
    assert "qr" in names
    assert not {n for n in names if "parallel_map" in n or n in POOL_NAMES}


def test_pool_name_detector_sees_nested_calls():
    source = "def haar_unitaries(d):\n    return qmath.parallel_map(fix, [d])\n"
    assert "parallel_map" in names_in_function(source, "haar_unitaries")


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


# ---------------------------------------------------------------------------
# tolerances: every comparison names its threshold (qmath.DEFAULT_TOL, qmath.SUPPORT_EPS or a named guard)


def tolerance_literals(source: str) -> list:
    """(line, value) for every float literal of magnitude in (0, 1e-3) inside a comparison."""
    return sorted(
        (node.lineno, node.value)
        for compare in ast.walk(ast.parse(source))
        if isinstance(compare, ast.Compare)
        for node in ast.walk(compare)
        if isinstance(node, ast.Constant) and type(node.value) is float and 0.0 < abs(node.value) < 1e-3
    )


def test_no_comparison_spells_a_tolerance_as_a_literal():
    found = [
        f"{path.name}:{line} compares against {value!r}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, value in tolerance_literals(path.read_text())
    ]
    assert found == []


def test_tolerance_detector_flags_each_form():
    source = "\n".join(
        [
            "a = slack < -1e-9",
            "b = [p for p in q if p > 1e-12]",
            "if x.max() > bound + 1e-6:",
            "    pass",
            "c = post[d] < 1.0 - 1e-9 < 2",
            "d = e > 1e-3 or f < 0.0 or g < 0 or h > 0.5",
            "i = max(j, 1e-12)",
            "k = TOL < 1e-4j",
        ]
    )
    assert tolerance_literals(source) == [(1, 1e-9), (2, 1e-12), (3, 1e-6), (5, 1e-9)]


def spy_calls(monkeypatch, targets) -> list:
    """Record every call of each (owner, name) in `targets` by name."""
    calls = []
    for owner, name in targets:
        real = getattr(owner, name)

        def spy(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)
    return calls


def spy_chain_calls(monkeypatch) -> list:
    """Record every call of `EncodingFamily.vec_times_encoder` and `qmath.kron_apply` by name."""
    return spy_calls(monkeypatch, ((EncodingFamily, "vec_times_encoder"), (qmath, "kron_apply")))


def test_slot_posteriors_apply_no_kronecker_chain(monkeypatch):
    families = [mub_family(3, 4), random_family(2, 3, qmath.SeededRng(5))]
    calls = spy_chain_calls(monkeypatch)
    for fam in families:
        for index in range(fam.k):
            for basis in (honest_basis(fam, index), invert_basis(fam, index)):
                for i in range(fam.k):
                    posterior(basis, fam, i, fam.n - 3)
    assert calls == []


def spy_state_calls(monkeypatch) -> list:
    """Record every call of the n-entry state path: kron_apply, encode_column and vendor_encode."""
    return spy_calls(monkeypatch, ((qmath, "kron_apply"), (EncodingFamily, "encode_column"), (protocol, "vendor_encode")))


def test_product_sessions_form_no_n_entry_state(monkeypatch, tmp_path):
    # honest, invert and masked sessions, the CLI's sessions and the XOR attack measure slot by slot
    families = [mub_family(3, 4), random_family(2, 3, qmath.SeededRng(5))]
    calls = spy_state_calls(monkeypatch)
    for fam in families:
        db = DatabaseState(fam.k, fam.m, (1,) * fam.k)
        for index in range(fam.k):
            for basis in (honest_basis(fam, index), invert_basis(fam, index)):
                for seed in range(4):
                    run_session(db, fam, basis, qmath.SeededRng(seed))
    walsh = walsh_family(2)
    masked_session(DatabaseState(2, 2, (2, 1)), walsh, GfMask(2, 3, 1), honest_basis(walsh, 1), qmath.SeededRng(3))
    xor_guess_attack(walsh, DatabaseState(2, 2, (2, 1)), 3, 200, qmath.SeededRng(11))
    for flags in (["--k", "3", "--m", "2", "--family", "mub", "--db", "2D"], ["--db", "2", "--r", "3", "--mask"],
                  ["--db", "1", "--strategy", "invert", "--guess", "1"]):
        assert cli.main(["session", *flags, "--seed", "4", "--out", str(tmp_path / "t.json")]) == 0
    assert calls == []


def test_state_spy_catches_the_parity_session(monkeypatch):
    fam = explicit_single_bit_family()
    calls = spy_state_calls(monkeypatch)
    run_session(DatabaseState(2, 1, (1, 0)), fam, parity_basis(), qmath.SeededRng(2))
    assert calls == ["vendor_encode", "encode_column", "kron_apply"]


def test_chain_spy_catches_the_parity_path(monkeypatch):
    fam = explicit_single_bit_family()
    calls = spy_chain_calls(monkeypatch)
    posterior(parity_basis(), fam, 1, 0)
    assert calls == ["vec_times_encoder", "kron_apply"]


# ---------------------------------------------------------------------------
# the public surface: every export is read by the library, a demo, the benchmark or the acceptance suite


def names_read(source: str) -> set:
    """Every name the source loads, bare or as an attribute; a def or class statement reads none."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def test_every_exported_name_has_a_reader_outside_the_unit_tests():
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = {a.asname or a.name for node in init.body if isinstance(node, ast.ImportFrom) for a in node.names}
    readers = [p for p in PACKAGE.glob("*.py") if p.stem != "__init__"]
    readers += [*(ROOT / "demos").glob("*.py"), *PERFBENCH.glob("*.py"), ROOT / "tests" / "test_acceptance.py"]
    read = set().union(*(names_read(p.read_text()) for p in readers))
    assert len(exported) > 40
    assert sorted(exported - read) == []


def test_read_detector_skips_definitions_and_stores():
    source = "def f(a):\n    return g.h(a)\n\nclass C:\n    pass\n\nx = y\nz.w = 1"
    assert names_read(source) == {"g", "h", "a", "y", "z"}


def defined_names(node) -> set:
    """The names a top-level statement defines: a def, a class or the plain names an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, ast.AnnAssign) else []
    return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}


def unread_definitions(modules: dict, others) -> list:
    """Every public top-level function, class or constant of `modules` (stem -> source), as "module.name",
    that nothing reads: not another module, not its own module outside the definition, not a source in `others`."""
    outside = set().union(*map(names_read, others))
    unread = []
    for stem, source in modules.items():
        read = outside.union(*(names_read(text) for other, text in modules.items() if other != stem))
        body = ast.parse(source).body
        reads = [names_read(ast.unparse(node)) for node in body]
        for i, node in enumerate(body):
            rest = read.union(*reads[:i], *reads[i + 1 :])
            unread += [f"{stem}.{name}" for name in defined_names(node) - rest if not name.startswith("_")]
    return sorted(unread)


def test_every_public_module_name_has_a_reader_outside_the_unit_tests():
    modules = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py")) if p.stem != "__init__"}
    others = [p.read_text() for p in [*(ROOT / "demos").glob("*.py"), *PERFBENCH.glob("*.py")]]
    assert unread_definitions(modules, others) == []


def test_unread_definition_detector_counts_each_kind_of_reader():
    modules = {
        "a": "\n".join(
            [
                "def used_by_b():",
                "    pass",
                "def used_here():",
                "    pass",
                "def recursive():",
                "    return recursive()",
                "class Lonely:",
                "    LIMIT = 1",
                "LIMIT: int = 3",
                "TABLE, _HIDDEN = 1, 2",
                "def _private():",
                "    return used_here() + _HIDDEN",
            ]
        ),
        "b": "from .a import used_by_b, Lonely\n\ndef run():\n    return used_by_b()",
    }
    others = ["from obliq import b\nb.run(LIMIT)"]
    assert unread_definitions(modules, others) == ["a.Lonely", "a.TABLE", "a.recursive"]


def family_hops(source: str) -> list:
    """(line, name) for every read of `build_family`, by name, attribute or import, and of a `.basis` attribute."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            hits += [(node.lineno, "build_family") for a in node.names if a.name == "build_family"]
        elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            name = node.id if isinstance(node, ast.Name) else node.attr
            if name == "build_family" or (name == "basis" and isinstance(node, ast.Attribute)):
                hits.append((node.lineno, name))
    return sorted(hits)


def test_no_module_wraps_a_family_or_hops_through_basis():
    # every constructor returns the one family type; `build_family` and `basis` stay for perfbench/ alone
    found = [
        f"{path.name}:{line} reads {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, name in family_hops(path.read_text())
    ]
    assert found == []


def test_family_hop_detector_flags_each_form():
    source = "\n".join(
        [
            "from .encodings import build_family, mub_family",
            "def build_family(family):",
            "    return family",
            "def f(enc, fam, basis):",
            "    g = enc.build_family(mub_family(2, 1))",
            "    return build_family(fam).basis.matrices, fam.basis, basis.items",
        ]
    )
    assert family_hops(source) == [(1, "build_family"), (5, "build_family"), (6, "basis"), (6, "basis"),
                                   (6, "build_family")]


def sibling_imports(source: str) -> set:
    """Every sibling module the source imports, or imports a name from."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            target = _sibling(node.module, node.level)
            found |= {target} if target else {a.name for a in node.names if node.level == 1 or node.module == "obliq"}
        elif isinstance(node, ast.Import):
            found |= {_sibling(a.name, 0) for a in node.names} - {None}
    return found & SIBLINGS


def test_povm_imports_no_sibling_but_qmath():
    # the gain account takes dense encoders, so it needs no family type
    assert sibling_imports((PACKAGE / "povm.py").read_text()) == {"qmath"}


def test_sibling_import_detector_flags_each_form():
    source = "from . import qmath, gf2\nfrom .encodings import W2\nimport obliq.protocol\nfrom obliq import cli\nimport numpy"
    assert sibling_imports(source) == {"qmath", "gf2", "encodings", "protocol", "cli"}


# ---------------------------------------------------------------------------
# the benchmark contract: perfbench/ patches and calls obliq names by string


def _load_perfbench_module(name: str) -> types.ModuleType:
    """Execute perfbench/<name>.py from its text, so no bytecode lands in perfbench/."""
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    sys.modules[module.__name__] = module  # a dataclass looks its module up while it is made
    try:
        exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


def test_span_tracer_installs_and_restores_every_patched_name():
    spans = _load_perfbench_module("spans")
    owners = [obliq] + [importlib.import_module(f"obliq.{name}") for name in spans.MODULES]
    owners += [getattr(getattr(obliq, mod), cls) for mod, classes in spans.METHODS.items() for cls in classes]
    before = [dict(vars(owner)) for owner in owners]
    tracer = spans.Tracer()
    try:
        tracer.install(obliq)
        assert vars(EncodingFamily)["encoder"] is not before[owners.index(EncodingFamily)]["encoder"]
        assert vars(analysis)["_parallel_map"] is not before[owners.index(analysis)]["_parallel_map"]
    finally:
        tracer.uninstall()
    for owner, saved in zip(owners, before):
        now = dict(vars(owner))
        assert now.keys() == saved.keys(), owner
        assert [attr for attr in saved if now[attr] is not saved[attr]] == [], owner


@pytest.mark.parametrize("name", ["sessions", "audits", "leakage"])
def test_every_workload_sets_up_and_prepares_its_references(name, monkeypatch):
    # set-up and references read attributes off obliq objects (`fam.basis.matrices`),
    # which `workload_names` cannot resolve; no pass runs
    monkeypatch.setitem(sys.modules, "reference", _load_perfbench_module("reference"))
    workloads = _load_perfbench_module("workloads")
    assert sorted(workloads.WORKLOADS) == ["audits", "leakage", "sessions"]
    wl = workloads.WORKLOADS[name](obliq, 5)
    wl.setup()
    wl.prepare_references()
    assert wl.families


def workload_names(source: str) -> set:
    """Every dotted obliq name the workloads source reads, as "module.attr".

    A name bound to `self.o` or `o` (the obliq package) or to an attribute
    chain under it is an alias; every attribute chain rooted at an alias, at
    `self.o` or at `o` is resolved through the aliases.
    """
    tree = ast.parse(source)

    def chain(node):
        names = []
        while isinstance(node, ast.Attribute):
            names.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        return [node.id] + names[::-1]

    aliases = {"o": {""}}

    def resolve(parts):
        if parts[:2] == ["self", "o"]:
            return {".".join(parts[2:])}
        return {".".join(p for p in [base] + parts[1:] if p) for base in aliases.get(parts[0], ())}

    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
            pairs = [(target, value)]
            if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
                pairs = zip(target.elts, value.elts)
            for name, val in pairs:
                parts = chain(val)
                if isinstance(name, ast.Name) and parts and resolve(parts):
                    aliases.setdefault(name.id, set()).update(resolve(parts))
    found = set()
    for node in ast.walk(tree):
        parts = chain(node) if isinstance(node, ast.Attribute) else None
        if parts:
            found |= {name for name in resolve(parts) if name}
    return found


def _obliq_has(dotted: str) -> bool:
    module, *rest = dotted.split(".")
    obj = importlib.import_module(f"obliq.{module}")
    for part in rest:
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_every_name_the_workloads_read_exists():
    names = workload_names((PERFBENCH / "workloads.py").read_text())
    assert {"encodings.build_family", "hardening.masked_session", "analysis.max_leakage", "cli.main"} <= names
    assert sorted(name for name in names if not _obliq_has(name)) == []


def test_workload_name_resolver_follows_aliases():
    source = "\n".join(
        [
            "def setup(self, cli):",
            "    enc, Rng = self.o.encodings, self.o.qmath.SeededRng",
            "    o = self.o",
            "    P = o.protocol",
            "    return enc.mub_family(2, 1), P.gone_name, self.o.povm.Povm, cli.main, Rng(1)",
        ]
    )
    assert workload_names(source) == {
        "encodings",
        "qmath",
        "qmath.SeededRng",
        "encodings.mub_family",
        "protocol",
        "protocol.gone_name",
        "povm",
        "povm.Povm",
    }
