"""Command-line contract: flags, exit codes, deterministic outputs."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import obliq
from obliq import analysis
from obliq.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, EXIT_VIOLATION, VERIFY_SUITES, UsageError, _parse_range, main
from obliq.encodings import MAX_KM, MAX_SHARE_ROUNDS


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDemo:
    def test_walkthrough_choice0(self, capsys):
        code, out, _ = run(["demo", "--db", "01", "--choice", "0", "--seed", "7"], capsys)
        assert code == EXIT_OK
        assert "Decoded item 0 = 0" in out
        assert out.count("|") > 8  # the eight encoded states are printed

    def test_walkthrough_choice1(self, capsys):
        code, out, _ = run(["demo", "--db", "01", "--choice", "1", "--seed", "7"], capsys)
        assert code == EXIT_OK
        assert "Decoded item 1 = 1" in out

    def test_invalid_db_names_flag(self, capsys):
        code, _, err = run(["demo", "--db", "5", "--choice", "0", "--seed", "1"], capsys)
        assert code == EXIT_USAGE
        assert "--db" in err

    def test_seed_required(self, capsys):
        code, _, err = run(["demo", "--db", "01"], capsys)
        assert code == EXIT_USAGE


class TestSession:
    def test_mub_session_decodes_choice(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        code, _, _ = run(
            ["session", "--k", "3", "--m", "4", "--family", "mub", "--db", "2C9",
             "--choice", "2", "--seed", "11", "--out", str(out)],
            capsys,
        )
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        # db 0x2C9 = 713 has item blocks (2, 12, 9)
        assert doc["decoded"] == {"kind": "item", "index": 2, "value": 9}
        assert doc["version"] == 1

    def test_invert_strategy_posterior_shape(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        code, _, _ = run(
            ["session", "--family", "explicit", "--db", "1", "--strategy", "invert",
             "--guess", "0", "--seed", "4", "--out", str(out)],
            capsys,
        )
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        post = doc["posterior"]
        if doc["announced"] == 0:
            assert max(post) > 1 - 1e-9  # point mass
        else:
            assert all(abs(p - 0.25) < 1e-9 for p in post)  # uniform

    def test_byte_identical_reruns(self, tmp_path, capsys):
        args = ["session", "--k", "2", "--m", "2", "--family", "walsh", "--db", "B",
                "--choice", "1", "--seed", "6"]
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        assert run(args + ["--out", str(f1)], capsys)[0] == EXIT_OK
        assert run(args + ["--out", str(f2)], capsys)[0] == EXIT_OK
        assert f1.read_bytes() == f2.read_bytes()

    def test_masked_session_carries_mask(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        code, _, _ = run(
            ["session", "--k", "2", "--m", "3", "--family", "walsh", "--db", "2A",
             "--choice", "0", "--mask", "--seed", "12", "--out", str(out)],
            capsys,
        )
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        announce = doc["events"][2]
        assert "mask" in announce
        # honest decode still returns the original item (block 0 of 0x2A = 5)
        assert doc["decoded"]["value"] == 5

    def test_masked_share_rounds_seeded_values(self, capsys):
        # pinned figures for a masked, share-split session
        code, out, _ = run(
            ["session", "--k", "2", "--m", "3", "--family", "walsh", "--db", "2A", "--mask",
             "--r", "4", "--choice", "1", "--seed", "12"],
            capsys,
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        rounds = [(r["outcome"], r["announced"], r["decoded"]["value"]) for r in doc["rounds"]]
        assert rounds == [(27, 1, 1), (57, 1, 5), (9, 0, 3), (55, 0, 5)]
        assert doc["decoded"] == {"kind": "item", "index": 1, "value": 2}

    def test_xor_rounds_document(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        code, _, _ = run(
            ["session", "--family", "explicit", "--db", "3", "--choice", "1",
             "--r", "3", "--seed", "13", "--out", str(out)],
            capsys,
        )
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["xor_rounds"] == 3
        assert len(doc["rounds"]) == 3
        assert doc["decoded"] == {"kind": "item", "index": 1, "value": 1}

    def test_share_rounds_at_n_4096_pinned(self, capsys):
        # the indented rounds document, as written before transcript_json
        code, out, _ = run(
            ["session", "--k", "2", "--m", "6", "--family", "mub", "--db", "5A3", "--r", "3", "--seed", "2"],
            capsys,
        )
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "3e8fdc26e21db81d335fc03091b2268082fb02037b38b2dd7e0f77ba332189b9"
        )

    def test_share_rounds_are_capped_before_any_session_runs(self, capsys):
        start = time.perf_counter()
        code, out, err = run(
            ["session", "--k", "2", "--m", "6", "--family", "mub", "--db", "0", "--r", "100000", "--seed", "1"],
            capsys,
        )
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (EXIT_USAGE, "")
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("usage error") and "--r" in lines[0]

    @pytest.mark.parametrize("r, code", [(MAX_SHARE_ROUNDS, EXIT_OK), (MAX_SHARE_ROUNDS + 1, EXIT_USAGE)])
    def test_share_round_cap_boundary(self, r, code, capsys):
        got, out, _ = run(["session", "--family", "explicit", "--db", "2", "--r", str(r), "--seed", "4"], capsys)
        assert got == code
        if code == EXIT_OK:
            assert len(json.loads(out)["rounds"]) == r

    def test_parity_strategy(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        code, _, _ = run(
            ["session", "--family", "explicit", "--db", "3", "--strategy", "parity",
             "--seed", "21", "--out", str(out)],
            capsys,
        )
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        if doc["decoded"]["kind"] == "parity":
            assert doc["decoded"]["value"] == 0  # db 11 has even parity

    def test_bad_hex_rejected(self, tmp_path, capsys):
        code, _, err = run(
            ["session", "--family", "explicit", "--db", "zz", "--seed", "1"], capsys
        )
        assert code == EXIT_USAGE and "--db" in err

    def test_io_failure_exit_code(self, capsys):
        code, _, err = run(
            ["session", "--family", "explicit", "--db", "1", "--seed", "2",
             "--out", "/nonexistent-dir/t.json"],
            capsys,
        )
        assert code == EXIT_IO


class TestVerify:
    def test_entropic_suite(self, tmp_path, capsys):
        code, _, _ = run(
            ["verify", "--suite", "entropic", "--trials", "2000", "--seed", "3",
             "--out", str(tmp_path / "r.json")],
            capsys,
        )
        assert code == EXIT_OK
        reports = json.loads((tmp_path / "r.json").read_text())
        assert all(r["violations"] == 0 for r in reports)

    def test_povm_suite(self, capsys):
        code, out, _ = run(["verify", "--suite", "povm", "--trials", "25", "--seed", "5"], capsys)
        assert code == EXIT_OK

    def test_hk_suite_never_fails_for_k3(self, capsys):
        code, out, _ = run(
            ["verify", "--suite", "hk", "--k", "3", "--m", "1", "--trials", "2000",
             "--seed", "6"],
            capsys,
        )
        assert code == EXIT_OK
        reports = json.loads(out)
        assert reports[0]["parameters"]["exploratory"] is True

    def test_honest_suite(self, capsys):
        code, _, _ = run(["verify", "--suite", "honest", "--seed", "8"], capsys)
        assert code == EXIT_OK

    def test_hk_pair_output_pinned(self, capsys):
        # the identity encoder is scored without a product; the bytes are the product form's
        code, out, _ = run(["verify", "--suite", "hk", "--k", "2", "--m", "3", "--seed", "6"], capsys)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "e2a46149b0aa5fad5bc3503150ce1df4583f32e8ad313e90e7f0ce892965356e"
        )

    def test_all_suites_output_pinned_under_one_and_two_threads(self):
        env = {k: v for k, v in os.environ.items() if k not in ("OBLIQ_THREADS", "OPENBLAS_NUM_THREADS")}
        env["PYTHONPATH"] = str(Path(obliq.__file__).parent.parent)
        for threads in ("1", "2", "3"):  # 3 lanes on 2 cores: chunks finish out of order
            proc = subprocess.run(
                [sys.executable, "-m", "obliq.cli", "verify", "--suite", "all", "--seed", "3"],
                env={**env, "OBLIQ_THREADS": threads},
                capture_output=True,
                timeout=300,
            )
            assert (proc.returncode, proc.stderr) == (EXIT_OK, b"")
            assert hashlib.sha256(proc.stdout).hexdigest() == (
                "9302672497f32596d1b1112d73f66eec1291af0cfc7e91d56716691af70410b2"
            )

    def test_unknown_suite(self, capsys):
        code, _, err = run(["verify", "--suite", "nope", "--seed", "1"], capsys)
        assert code == EXIT_USAGE


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name} in the output")


class TestStrictJson:
    @settings(max_examples=40, deadline=None)
    @given(
        suite=st.sampled_from(VERIFY_SUITES),
        trials=st.integers(1, 4),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_verify_output_is_strict_json(self, suite, trials, seed):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["verify", "--suite", suite, "--trials", str(trials), "--seed", str(seed)])
        assert code == EXIT_OK
        reports = json.loads(out.getvalue(), parse_constant=_reject_constant)
        assert reports and all(r["trials"] >= 1 for r in reports)


class TestScan:
    def test_small_grid(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        code, _, _ = run(
            ["scan", "--k", "2..3", "--m", "1..2", "--restarts", "2", "--iters", "60",
             "--seed", "9", "--out", str(out)],
            capsys,
        )
        assert code == EXIT_OK
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("k,m,family")
        data = [l for l in lines if not l.startswith(("k,", "#"))]
        assert len(data) == 4
        for row in data:
            fields = row.split(",")
            assert float(fields[3]) <= float(fields[4]) + 1e-6
        assert lines[-1].startswith("# fit")

    def test_row_2_1_near_one(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        run(["scan", "--k", "2", "--m", "1", "--restarts", "4", "--iters", "200",
             "--seed", "10", "--out", str(out)], capsys)
        row = [l for l in out.read_text().split("\n") if l.startswith("2,1,")][0]
        assert abs(float(row.split(",")[3]) - 1.0) < 1e-3

    def test_grid_cap(self, capsys):
        code, _, err = run(["scan", "--k", "5", "--m", "3", "--seed", "1"], capsys)
        assert code == EXIT_USAGE

    def test_byte_identical(self, tmp_path, capsys):
        args = ["scan", "--k", "2", "--m", "1", "--restarts", "2", "--iters", "50", "--seed", "3"]
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run(args + ["--out", str(f1)], capsys)
        run(args + ["--out", str(f2)], capsys)
        assert f1.read_bytes() == f2.read_bytes()

    def test_thread_count_never_changes_csv(self, tmp_path, capsys, monkeypatch):
        def csv(restarts, iters):
            args = ["scan", "--k", "2..3", "--m", "1..2", "--restarts", restarts, "--iters", iters, "--seed", "4"]
            outputs = []
            for threads in ("1", "2"):
                monkeypatch.setenv("OBLIQ_THREADS", threads)
                out = tmp_path / f"t{threads}.csv"
                assert run(args + ["--out", str(out)], capsys)[0] == EXIT_OK
                outputs.append(out.read_bytes())
            assert outputs[0] == outputs[1]
            return outputs[0]

        # pinned figures: with 3 restarts every cell keeps its best structured start
        assert csv("3", "30") == (
            b"k,m,family,best_gain_bits,bound_bits,restarts,iters,seed\n"
            b"2,1,mub,1.000000000,1.000000000,3,30,4\n"
            b"2,2,mub,2.000000000,2.000000000,3,30,4\n"
            b"3,1,mub,1.000000000,1.500000000,3,30,4\n"
            b"3,2,mub,2.000000000,3.000000000,3,30,4\n"
            b"# fit c=1.000000 alpha=0.000000 reference c=0.4 alpha=0.7\n"
        )
        # 8 restarts exceed 2k in every cell, so every cell runs Haar descents
        # (on the pool at n = 64); at k = 3 a Haar descent wins
        assert csv("8", "40") == (
            b"k,m,family,best_gain_bits,bound_bits,restarts,iters,seed\n"
            b"2,1,mub,1.000000000,1.000000000,8,40,4\n"
            b"2,2,mub,2.000000000,2.000000000,8,40,4\n"
            b"3,1,mub,1.333333313,1.500000000,8,40,4\n"
            b"3,2,mub,2.687053163,3.000000000,8,40,4\n"
            b"# fit c=0.607559 alpha=0.718903 reference c=0.4 alpha=0.7\n"
        )

    def test_bound_violation_exits_2_without_traceback(self, capsys, monkeypatch):
        monkeypatch.setattr(analysis, "_leakage_bound", lambda family: -1.0)
        code, out, err = run(["scan", "--k", "2", "--m", "1", "--restarts", "1", "--seed", "1"], capsys)
        assert code == EXIT_VIOLATION
        assert out == ""
        assert len(err.strip().splitlines()) == 1 and err.startswith("bound violation")


class TestMalformed:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--suite", "povm", "--trials", "-3", "--seed", "5"],
            ["verify", "--suite", "povm", "--trials", "0", "--seed", "5"],
            ["verify", "--suite", "entropic", "--trials", "0", "--seed", "5"],
            ["scan", "--k", "2", "--m", "1", "--restarts", "0", "--seed", "5"],
            ["verify", "--suite", "hk", "--k", "5", "--m", "1", "--seed", "5"],
            ["verify", "--suite", "hk", "--k", "2", "--m", "7", "--seed", "5"],
            ["scan", "--k", "5", "--m", "1", "--seed", "5"],
            ["scan", "--k", "1", "--m", "1", "--seed", "5"],
            ["scan", "--k", "2", "--m", "0", "--seed", "5"],
            ["scan", "--k", "2", "--m", "1", "--iters", "-4", "--seed", "5"],
            ["verify", "--suite", "hk", "--k", "1", "--m", "1", "--seed", "5"],
            ["verify", "--suite", "povm", "--m", "0", "--seed", "5"],
            ["verify", "--suite", "povm", "--m", "-2", "--seed", "5"],
            ["verify", "--suite", "povm", "--m", "5", "--seed", "5"],
            ["verify", "--suite", "povm", "--m", "9", "--seed", "5"],
            ["verify", "--suite", "all", "--k", "5", "--seed", "5"],
            ["verify", "--suite", "all", "--m", "5", "--seed", "5"],
            ["session", "--db", "0", "--choice", "7", "--seed", "5"],
            ["session", "--db", "0", "--strategy", "invert", "--guess", "9", "--seed", "5"],
            ["session", "--k", "3", "--family", "mub", "--db", "0", "--mask", "--seed", "5"],
            ["demo", "--choice", "2", "--seed", "5"],
            ["verify", "--suite", "povm", "--m", "4", "--seed", "5"],
        ],
    )
    def test_one_line_usage_error(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert code == EXIT_USAGE
        assert out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("usage error")

    @pytest.mark.parametrize(
        "argv",
        [
            ["scan", "--k", "2..99999999999", "--m", "1"],
            ["verify", "--suite", "entropic", "--trials", "1000000000000"],
            ["verify", "--suite", "povm", "--trials", "1000000000000"],
            ["scan", "--k", "3", "--m", "2", "--restarts", "1000000000000000000000"],
            ["scan", "--k", "3", "--m", "2", "--restarts", "3000000000"],
            ["scan", "--k", "4", "--m", "3"],
            ["verify", "--suite", "hk", "--k", "4", "--m", "3", "--trials", "1000000000000"],
            ["verify", "--suite", "povm", "--m", "4"],
        ],
    )
    def test_oversized_counts_refused_under_a_1gb_address_space(self, argv):
        # a refusal that regresses into an allocation fails here instead of
        # exhausting the machine's memory
        proc = _run_under_1gb(argv)
        assert (proc.returncode, proc.stdout) == (EXIT_USAGE, b"")
        lines = proc.stderr.decode().splitlines()
        assert len(lines) == 1 and lines[0].startswith("usage error")

    @pytest.mark.parametrize(
        "cell, row",
        [
            (["--k", "4", "--m", "3", "--restarts", "8"], "4,3,mub,3.000000000,6.000000000,8,2000,1"),
            (["--k", "3", "--m", "4", "--restarts", "6"], "3,4,mub,4.000000000,6.000000000,6,2000,1"),
        ],
        ids=["k4m3", "k3m4"],
    )
    def test_structured_only_scan_runs_under_a_1gb_address_space(self, cell, row):
        # n = 4096, above MAX_SEARCH_DIM: the 2k structured starts run alone and
        # the winner stays a Kronecker-factored basis, so no 4096^2 matrix is formed
        proc = _run_under_1gb(["scan", *cell])
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout.decode().splitlines()[:2] == ["k,m,family,best_gain_bits,bound_bits,restarts,iters,seed", row]

    @pytest.mark.parametrize("flags", [["--k", "5"], ["--m", "5"]])
    def test_verify_all_checks_arguments_before_any_suite_runs(self, flags, capsys, monkeypatch):
        ran = []
        monkeypatch.setattr(analysis, "verify_theorem1", lambda *args: ran.append(args))
        code, out, _ = run(["verify", "--suite", "all", *flags, "--seed", "5"], capsys)
        assert (code, out, ran) == (EXIT_USAGE, "", [])


def _run_under_1gb(argv):
    """`obliq <argv> --seed 1` in a child process with 1 GB of address space and a 20 s timeout."""
    child = (
        "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
        "from obliq.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(obliq.__file__).parent.parent)}
    return subprocess.run([sys.executable, "-c", child, *argv, "--seed", "1"], env=env, capture_output=True, timeout=20)


@settings(max_examples=200, deadline=None)
@given(
    lo=st.one_of(st.integers(-2, MAX_KM + 2), st.integers()),
    hi=st.one_of(st.integers(-2, MAX_KM + 2), st.integers()),
)
def test_parse_range_takes_desk_endpoints_only(lo, hi):
    for text, (a, b) in ((f"{lo}..{hi}", (lo, hi)), (str(lo), (lo, lo))):
        if 1 <= a <= b <= MAX_KM:
            assert _parse_range(text) == list(range(a, b + 1))
        else:
            with pytest.raises(UsageError, match="bad range"):
                _parse_range(text)
