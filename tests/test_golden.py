"""Byte-identity manifest: every README command and demo, and the usage errors, against tests/golden.json.

The manifest holds, per command, the exit code and the sha256 of stdout,
stderr and the --out file.  The test runs each README command as a
subprocess under OBLIQ_THREADS = 1 and 2, with --out files in a temporary
directory, and each usage error once.  After a change that is meant to alter
bytes, rewrite the manifest with

    PYTHONPATH=src python tests/test_golden.py --write

so the diff shows which entries changed.  The last digits of some pinned
floats depend on the OpenBLAS kernel that runs the QR and the matrix
products, so a mismatch names numpy's version and that kernel, which

    python tests/test_golden.py --env

prints on its own.
"""

import ast
import ctypes
import glob
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = Path(__file__).with_name("golden.json")

# the README's commands, as written there
COMMANDS = [
    "obliq demo --db 01 --choice 0 --seed 7",
    "obliq session --k 3 --m 4 --family mub --db 2C9 --choice 2 --seed 11 --out t.json",
    "obliq session --k 3 --m 4 --family tensorized --tensor-r 4 --db 2C9 --choice 2 --seed 11 --out t.json",
    "obliq session --family explicit --db 3 --choice 1 --r 3 --seed 13 --out t.json",
    "obliq session --k 2 --m 3 --family walsh --db 2A --mask --seed 12 --out t.json",
    "obliq verify --suite entropic --trials 100000 --seed 3",
    "obliq verify --suite hk --k 3 --m 1 --seed 6",
    "obliq verify --suite povm --m 2 --trials 20 --seed 3",
    "obliq scan --k 2..3 --m 1..2 --seed 9 --out scan.csv",
    "python demos/single_bit_exchange.py",
    "python demos/uncertainty_and_povm.py",
    "python demos/leakage_search.py",
    "python demos/hardened_sessions.py",
]

# inputs that must end in exit 1 with one line of stderr starting "usage
# error": the benchmark's malformed commands (perfbench/workloads.py
# MALFORMED), the share-round cap and three more bad inputs
USAGE_ERRORS = [
    "obliq verify --suite povm --trials -3 --seed 5",
    "obliq scan --k 2 --m 1 --restarts 0 --seed 5",
    "obliq verify --suite hk --k 5 --m 1 --seed 5",
    "obliq scan --k 5 --m 1 --seed 5",
    "obliq session --k 2 --m 6 --family mub --db 0 --r 100000 --seed 1",
    "obliq session --db zz --seed 1",
    "obliq verify --suite bogus --seed 1",
    "obliq verify --suite povm --m 9 --seed 1",
]


def environment() -> str:
    """numpy's version and the core OpenBLAS picked, read in process from numpy's bundled OpenBLAS."""
    import numpy

    libs = sorted(glob.glob(os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs",
                                         "libscipy_openblas64_*.so")))
    core = "unknown"
    if libs:
        corename = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_
        corename.restype = ctypes.c_char_p
        core = corename().decode()
    return f"numpy {numpy.__version__} OpenBLAS core {core}"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(command: str, threads: str, workdir: Path) -> tuple:
    """(exit code and digests, stderr text) of one command run in `workdir` on `threads` worker threads."""
    words = command.split()
    if words[0] == "obliq":
        argv = [sys.executable, "-m", "obliq.cli", *words[1:]]
    else:  # python demos/<name>.py
        argv = [sys.executable, str(ROOT / words[1]), *words[2:]]
    env = {k: v for k, v in os.environ.items() if k not in ("OBLIQ_THREADS", "OPENBLAS_NUM_THREADS")}
    env.update(PYTHONPATH=str(ROOT / "src"), OBLIQ_THREADS=threads)
    proc = subprocess.run(argv, cwd=workdir, env=env, capture_output=True, timeout=300)
    out = workdir / words[words.index("--out") + 1] if "--out" in words else None
    return {
        "exit": proc.returncode,
        "stdout": sha256(proc.stdout),
        "stderr": sha256(proc.stderr),
        "out": sha256(out.read_bytes()) if out else None,
    }, proc.stderr.decode()


def test_commands_are_the_readmes():
    readme = (ROOT / "README.md").read_text()
    listed = [
        line.split("#")[0].strip()
        for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
        for line in block.splitlines()
        if line.startswith(("obliq ", "python demos/"))
    ]
    assert listed == COMMANDS
    assert list(json.loads(MANIFEST.read_text())) == COMMANDS + USAGE_ERRORS


def test_ci_runs_the_roadmaps_tier1_command():
    import yaml  # from the test extra; imported here so the manifest tests run without it

    command = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", (ROOT / "ROADMAP.md").read_text()).group(1)
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml").read_text())
    runs = [step.get("run", "").strip() for job in workflow["jobs"].values() for step in job["steps"]]
    assert command in runs
    # the environment the pinned outputs depend on is printed by the manifest's own reader
    assert "python tests/test_golden.py --env" in runs
    # the job only reads the checkout, so its token gets no write scope
    assert workflow["permissions"] == {"contents": "read"}
    # the install takes the versions the manifest was made with, numpy pinned exactly
    install_step = next(r for r in runs if r.startswith("pip install"))
    install = re.fullmatch(r'pip install -e "\.\[test\]" -c (\S+)', install_step)
    pins = (ROOT / install.group(1)).read_text().splitlines()
    assert [pin for pin in pins if re.fullmatch(r"numpy==\d+(\.\d+)+", pin)]


def test_usage_errors_include_the_benchmarks_malformed_commands():
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text())
    malformed = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["MALFORMED"]
    )
    assert ["obliq " + " ".join(argv) for _, argv in malformed] == USAGE_ERRORS[:4]


def test_env_mode_prints_numpy_and_the_openblas_core():
    proc = subprocess.run([sys.executable, __file__, "--env"], capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout == environment() + "\n"
    assert re.fullmatch(r"numpy \S+ OpenBLAS core \S+\n", proc.stdout)


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("command", COMMANDS)
def test_output_matches_the_manifest(command, threads, tmp_path):
    expected = json.loads(MANIFEST.read_text())[command]
    assert run(command, threads, tmp_path)[0] == expected, f"under {environment()}"


@pytest.mark.parametrize("command", USAGE_ERRORS)
def test_usage_error_matches_the_manifest(command, tmp_path):
    digests, err = run(command, "1", tmp_path)
    assert digests == json.loads(MANIFEST.read_text())[command]
    lines = err.splitlines()
    assert digests["exit"] == 1 and len(lines) == 1 and lines[0].startswith("usage error")


if __name__ == "__main__":
    if sys.argv[1:] == ["--env"]:
        print(environment())
        sys.exit()
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --env | PYTHONPATH=src python tests/test_golden.py --write")
    manifest = {}
    for command in COMMANDS + USAGE_ERRORS:
        with tempfile.TemporaryDirectory() as tmp:
            manifest[command] = run(command, "1", Path(tmp))[0]
    MANIFEST.write_text(json.dumps(manifest, indent=2) + "\n")
