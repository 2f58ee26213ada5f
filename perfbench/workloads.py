"""The three workloads: their inputs, the calls they time, and the checks.

A workload is built once per process (`setup`, timed as set-up) and then
yields passes.  A pass is a fixed list of operations whose inputs come from
(seed, pass index); every pass has the same operations in the same order,
so the share of failed operations is the same in every run.  Each operation
is one call into the program; its check runs outside the timed call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

import reference as ref


class CheckFailed(Exception):
    """A program output disagreed with a reference or a required property."""


def require(cond, message: str):
    if not cond:
        raise CheckFailed(message)


@dataclass
class Op:
    kind: str  # "session", "cli-session", "attack", "malformed", "audit", "search"
    label: str
    call: object  # no-argument callable into the program
    check: object  # check(output) -> None, raises CheckFailed
    units: int = 1  # sessions this op completes, or attack trials it runs


def run_cli(cli, argv):
    """cli.main with stdout/stderr captured; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def require_usage_exit(result):
    """A malformed command must end in exit 1 with a one-line usage message."""
    code, out, err = result
    lines = err.strip().splitlines()
    require(code == 1, f"exit code {code}, expected 1")
    require(len(lines) == 1 and lines[0].startswith("usage error"), f"stderr {err.strip()!r}")


# ---------------------------------------------------------------------------
# sessions

# (label, construction, k, m); n = 2^(k m)
SESSION_FAMILIES = (
    ("explicit(2,1)", "explicit", 2, 1),
    ("walsh(2,3)", "walsh", 2, 3),
    ("mub(3,2)", "mub", 3, 2),
    ("mub(3,4)", "mub", 3, 4),
    ("gr-mub(4,3)", "mub", 4, 3),
    ("cyclic(3,2)", "cyclic", 3, 2),
    ("random(2,3)", "random", 2, 3),
    ("tensorized(2,4,r=4)", "tensorized", 2, 4),
)
HONEST_PER_FAMILY = 6
INVERT_PER_FAMILY = 2
PARITY_SESSIONS = 4
MASKED_FAMILIES = ("explicit(2,1)", "walsh(2,3)", "random(2,3)")
MASKED_PER_FAMILY = 2
ATTACK_ROUNDS = (1, 2, 3)
ATTACK_TRIALS = 150
REFERENCE_MAX_N = 256
EVENT_ORDER = ["state_sent", "measurement_committed", "encoding_announced", "decoded"]

# Malformed commands whose inputs never change.  Each should end in exit 1
# with a one-line usage message; today each is a fault of the program.
MALFORMED = (
    ("povm-negative-trials", ["verify", "--suite", "povm", "--trials", "-3", "--seed", "5"]),
    ("scan-zero-restarts", ["scan", "--k", "2", "--m", "1", "--restarts", "0", "--seed", "5"]),
    ("hk-oversized-family", ["verify", "--suite", "hk", "--k", "5", "--m", "1", "--seed", "5"]),
    ("scan-empty-grid", ["scan", "--k", "5", "--m", "1", "--seed", "5"]),
)


class Sessions:
    name = "sessions"
    # Its calls are small numpy and Python dispatches, whose speed on a shared
    # machine moves with the calibration kernel's (see run.Calibration).
    calibrated = True

    def __init__(self, obliq, seed: int):
        self.o = obliq
        self.seed = seed
        self.attack = {r: [0, 0] for r in ATTACK_ROUNDS}  # r -> [successes, trials]

    def setup(self):
        """Build and certify every family (this is what setup_s times)."""
        enc, SeededRng = self.o.encodings, self.o.qmath.SeededRng
        fams = {}
        for label, kind, k, m in SESSION_FAMILIES:
            if kind == "explicit":
                fams[label] = enc.explicit_single_bit_family()
            elif kind == "walsh":
                fams[label] = enc.walsh_family(m)
            elif kind == "mub":
                fams[label] = enc.build_family(enc.mub_family(k, m))
            elif kind == "cyclic":
                fams[label] = enc.build_family(enc.cyclic_family(k, m))
            elif kind == "random":
                fams[label] = enc.build_family(enc.random_family(k, m, SeededRng(self.seed, 1)))
            else:
                fams[label] = enc.build_family(enc.tensorized_family(k, m, 4, SeededRng(self.seed, 2)))
        self.families = fams

    def prepare_references(self):
        """Dense reference encoders for the families small enough to check densely."""
        self.ref_enc = {}
        self.ref_honest = {}
        for label, fam in self.families.items():
            if fam.n <= REFERENCE_MAX_N:
                bases = [np.array(a) for a in fam.basis.matrices]
                self.ref_enc[label] = ref.dense_encoders(bases)
                self.ref_honest[label] = [ref.honest_rows(bases, j) for j in range(fam.k)]

    # -- one pass --------------------------------------------------------

    def make_pass(self, index: int) -> list:
        o = self.o
        P, H, SeededRng = o.protocol, o.hardening, o.qmath.SeededRng
        gen = np.random.default_rng([self.seed, index, 1])
        ops = []

        def draw_db(k, m):
            return [int(v) for v in gen.integers(0, 1 << m, size=k)]

        for label, kind, k, m in SESSION_FAMILIES:
            fam = self.families[label]
            plan = [("honest", int(gen.integers(k))) for _ in range(HONEST_PER_FAMILY)]
            plan += [("invert", int(gen.integers(k))) for _ in range(INVERT_PER_FAMILY)]
            if kind == "explicit":
                plan += [("parity", None)] * PARITY_SESSIONS
            for strategy, arg in plan:
                items = draw_db(k, m)
                rng_seed = int(gen.integers(1 << 62))
                db = P.DatabaseState(k, m, tuple(items))
                if strategy == "honest":
                    basis = P.honest_basis(fam, arg)
                elif strategy == "invert":
                    basis = P.invert_basis(fam, arg)
                else:
                    basis = P.parity_basis()
                rng = SeededRng(rng_seed)
                ops.append(
                    Op(
                        "session",
                        f"{label} {strategy}",
                        lambda db=db, fam=fam, basis=basis, rng=rng: P.run_session(db, fam, basis, rng).to_json(),
                        self._transcript_check(label, strategy, arg, items),
                        units=1,
                    )
                )

        for label in MASKED_FAMILIES:
            fam = self.families[label]
            for _ in range(MASKED_PER_FAMILY):
                k, m = fam.k, fam.m
                items = draw_db(k, m)
                a, b = int(gen.integers(1, 1 << m)), int(gen.integers(1 << m))
                choice = int(gen.integers(k))
                mask = H.GfMask(m, a, b)
                db = P.DatabaseState(k, m, tuple(items))
                basis = P.honest_basis(fam, choice)
                rng = SeededRng(int(gen.integers(1 << 62)))
                ops.append(
                    Op(
                        "session",
                        f"{label} masked",
                        lambda db=db, fam=fam, mask=mask, basis=basis, rng=rng: H.masked_session(
                            db, fam, mask, basis, rng
                        ).to_json(),
                        self._transcript_check(label, "honest", choice, items),
                        units=1,
                    )
                )

        ops.extend(self._cli_sessions(gen))

        db = P.DatabaseState(2, 1, tuple(draw_db(2, 1)))
        for r in ATTACK_ROUNDS:
            rng = SeededRng(int(gen.integers(1 << 62)))
            fam = self.families["explicit(2,1)"]
            ops.append(
                Op(
                    "attack",
                    f"xor_guess_attack r={r}",
                    lambda fam=fam, db=db, r=r, rng=rng: H.xor_guess_attack(fam, db, r, ATTACK_TRIALS, rng),
                    self._attack_check(r),
                    units=ATTACK_TRIALS,
                )
            )

        for label, argv in MALFORMED:
            ops.append(Op("malformed", label, lambda argv=argv: run_cli(o.cli, argv), require_usage_exit))
        return ops

    def _cli_sessions(self, gen) -> list:
        """The README's `obliq session` commands with generated databases and seeds."""
        cli = self.o.cli
        ops = []
        mub_items = [int(v) for v in gen.integers(0, 16, size=3)]
        mub_choice = int(gen.integers(3))
        xor_items = [int(v) for v in gen.integers(0, 2, size=2)]
        xor_choice = int(gen.integers(2))
        mask_items = [int(v) for v in gen.integers(0, 8, size=2)]
        mask_choice = int(gen.integers(2))
        commands = (
            ("mub(3,4)", 3, 4, mub_items, mub_choice, ["--k", "3", "--m", "4", "--family", "mub"], 1),
            ("explicit(2,1)", 2, 1, xor_items, xor_choice, ["--family", "explicit", "--r", "3"], 3),
            ("walsh(2,3)", 2, 3, mask_items, mask_choice, ["--k", "2", "--m", "3", "--family", "walsh", "--mask"], 1),
        )
        for label, k, m, items, choice, flags, sessions in commands:
            width = (k * m + 3) // 4
            inputs = [
                "--db", format(ref.config_of(items, m), f"0{width}X"),
                "--choice", str(choice),
                "--seed", str(int(gen.integers(1 << 31))),
            ]
            argv = ["session"] + flags + inputs
            ops.append(
                Op(
                    "cli-session",
                    "obliq session " + " ".join(flags),
                    lambda argv=argv: run_cli(cli, argv),
                    self._cli_check(label, choice, items),
                    units=sessions,
                )
            )
        return ops

    # -- checks ----------------------------------------------------------

    def _transcript_check(self, label, strategy, arg, items):
        def check(text):
            self.check_transcript(ref.strict_json(text), label, strategy, arg, items)

        return check

    def _cli_check(self, label, choice, items):
        def check(result):
            code, out, err = result
            require(code == 0, f"exit code {code}: {err.strip()}")
            doc = ref.strict_json(out)
            if "rounds" in doc:
                values = []
                for rnd in doc["rounds"]:
                    self.check_transcript(rnd, label, "honest", choice, None)
                    values.append(rnd["decoded"]["value"])
                folded = 0
                for v in values:
                    folded ^= v
                require(doc["decoded"]["value"] == folded, "XOR fold of round decodes differs")
                require(folded == items[choice], f"--r session decoded {folded}, item is {items[choice]}")
            else:
                self.check_transcript(doc, label, "honest", choice, items)

        return check

    def check_transcript(self, t, label, strategy, arg, items):
        """Every property a transcript must have; `items` None skips the database checks."""
        fam = self.families[label]
        k, m, n = fam.k, fam.m, fam.n
        events = t["events"]
        require([e["type"] for e in events] == EVENT_ORDER, f"event order {[e['type'] for e in events]}")
        require([e["seq"] for e in events] == list(range(4)), "event sequence numbers")
        announced, outcome = t["announced"], t["outcome"]
        require(0 <= announced < k and 0 <= outcome < n, "announced index or outcome out of range")
        post = np.asarray(t["posterior"], dtype=float)
        require(post.shape == (n,), f"posterior length {post.size}, expected {n}")
        require(post.min() >= 0.0 and abs(post.sum() - 1.0) <= 1e-9, f"posterior sums to {post.sum()!r}")

        if n <= REFERENCE_MAX_N:
            if strategy == "honest":
                row = self.ref_honest[label][arg][outcome]
            elif strategy == "invert":
                row = self.ref_enc[label][arg][:, outcome].conj()
            else:
                row = ref.PARITY_ROWS[outcome]
            expected = ref.bayes_posterior(row, self.ref_enc[label][announced])
            err = float(np.abs(post - expected).max())
            require(err <= 1e-9, f"posterior differs from the reference by {err:.3g}")

        decoded = t["decoded"]
        mask = events[2].get("mask")
        if strategy == "honest":
            require(decoded["kind"] == "item" and decoded["index"] == arg, f"decoded {decoded}")
            value = decoded["value"]
            if items is not None:
                require(value == items[arg], f"decoded item {arg} = {value}, database has {items[arg]}")
            raw = value if mask is None else ref.gf_mul(mask["a"], value, m, mask["modulus"]) ^ mask["b"]
            support = np.flatnonzero(post > 1e-12)
            wrong = [int(d) for d in support if ref.items_of(int(d), k, m)[arg] != raw]
            require(not wrong, f"posterior mass on configurations with another item {arg}: {wrong[:4]}")
        elif strategy == "invert":
            if announced == arg:
                require(decoded["kind"] == "config", f"matched invert decoded {decoded}")
                require(decoded["items"] == list(items), f"invert recovered {decoded['items']}, database {items}")
                require(decoded["value"] == ref.config_of(items, m), "invert configuration value")
            else:
                require(decoded["kind"] == "none", f"unmatched invert decoded {decoded}")
        else:
            if decoded["kind"] == "parity":
                require(decoded["value"] == items[0] ^ items[1], f"parity {decoded['value']} != d0 xor d1")

    def _attack_check(self, r):
        def check(report):
            require(report["r"] == r and report["trials"] == ATTACK_TRIALS, f"attack report {report}")
            successes = round(report["frequency"] * ATTACK_TRIALS)
            require(abs(successes / ATTACK_TRIALS - report["frequency"]) < 1e-12, "non-integral success count")
            self.attack[r][0] += successes
            self.attack[r][1] += ATTACK_TRIALS

        return check

    def finish(self):
        """Run-level check: the pooled attack frequency lies within 4 sigma of 2^-r."""
        for r, (succ, trials) in self.attack.items():
            freq, expected, sigma, ok = ref.attack_window(succ, trials, r)
            require(ok, f"attack r={r}: frequency {freq:.4f} vs 2^-r={expected} (sigma {sigma:.4f})")

    def corruptions(self, outputs):
        """(description, check, corrupted output) triples for the self-test."""
        out = []
        for op, value in outputs:
            if op.kind != "session" or op.label.endswith("masked"):
                continue
            doc = ref.strict_json(value)
            if doc["decoded"]["kind"] == "item" and not any(c[0].startswith("flipped") for c in out):
                bad = ref.strict_json(value)
                bad["decoded"]["value"] ^= 1
                out.append(("flipped decoded item", op.check, json.dumps(bad)))
            n = len(doc["posterior"])
            support = [i for i, p in enumerate(doc["posterior"]) if p > 1e-3]
            if n <= REFERENCE_MAX_N and len(support) >= 2 and not any(c[0].startswith("posterior") for c in out):
                bad = ref.strict_json(value)
                bad["posterior"][support[0]] += 1e-6
                bad["posterior"][support[1]] -= 1e-6
                out.append(("posterior off by 1e-6", op.check, json.dumps(bad)))
        return out


# ---------------------------------------------------------------------------
# audits

ENTROPIC_TRIALS = 20_000
CONCENTRATION_TRIALS = 32
POVM_TRIALS = {1: 60, 2: 40}
HK_TRIALS = 6_000
PROJECTIVE = (("mub(2,2)", 2, 2, 2000), ("mub(3,2)", 3, 2, 200))


class Audits:
    name = "audits"
    calibrated = False

    def __init__(self, obliq, seed: int):
        self.o = obliq
        self.seed = seed

    def setup(self):
        enc = self.o.encodings
        self.families = {label: enc.build_family(enc.mub_family(k, m)) for label, k, m, _ in PROJECTIVE}

    def prepare_references(self):
        pass

    def make_pass(self, index: int) -> list:
        o = self.o
        cli, A, SeededRng = o.cli, o.analysis, o.qmath.SeededRng
        gen = np.random.default_rng([self.seed, index, 2])

        def seed():
            return str(int(gen.integers(1 << 31)))

        suites = [
            ("entropic", ["--trials", str(ENTROPIC_TRIALS)], check_entropic),
            ("concentration", ["--trials", str(CONCENTRATION_TRIALS)], check_concentration),
            ("povm", ["--m", "1", "--trials", str(POVM_TRIALS[1])], None),
            ("povm", ["--m", "2", "--trials", str(POVM_TRIALS[2])], None),
            ("hk", ["--k", "2", "--m", "3", "--trials", str(HK_TRIALS)], None),
            ("hk", ["--k", "3", "--m", "2", "--trials", str(HK_TRIALS)], None),
            ("honest", [], None),
        ]
        ops = []
        for suite, flags, extra in suites:
            argv = ["verify", "--suite", suite] + flags + ["--seed", seed()]
            ops.append(Op("audit", "obliq " + " ".join(argv[:-2]), lambda argv=argv: run_cli(cli, argv), _verify_check(extra)))
        for label, k, m, trials in PROJECTIVE:
            fam = self.families[label]
            rng = SeededRng(int(gen.integers(1 << 62)))
            ops.append(
                Op(
                    "audit",
                    f"projective_gain_audit {label} x{trials}",
                    lambda fam=fam, trials=trials, rng=rng: A.projective_gain_audit(fam, trials, rng).to_json(),
                    _projective_check(k * m / 2.0),
                )
            )
        return ops

    def finish(self):
        pass

    def corruptions(self, outputs):
        for op, value in outputs:
            if op.kind == "audit" and isinstance(value, tuple) and '"min_slack": ' in value[1]:
                code, out, err = value
                head, tail = out.split('"min_slack": ', 1)
                bad = head + '"min_slack": Infinity' + tail[tail.index(","):]
                return [("Infinity in a report", op.check, (code, bad, err))]
        return []


def _verify_check(extra):
    def check(result):
        code, out, err = result
        require(code == 0, f"exit code {code}: {err.strip()}")
        reports = ref.strict_json(out)
        require(len(reports) >= 1, "empty report list")
        for rep in reports:
            require(rep["violations"] == 0, f"{rep['suite']}: {rep['violations']} violations")
        if extra is not None:
            extra(reports)

    return check


def check_entropic(reports):
    require([r["parameters"]["dim"] for r in reports] == [2, 4, 8], "entropic dims")
    for r in reports:
        dim = r["parameters"]["dim"]
        rhs = r["parameters"]["hadamard_case"]["rhs_bits"]
        require(abs(rhs - math.log2(dim)) <= 1e-12, f"flat-case rhs {rhs} != log2({dim})")


def check_concentration(reports):
    require([r["parameters"]["ell"] for r in reports] == [16, 64, 256], "concentration ells")
    for r in reports:
        grid = r["parameters"]["grid"]
        ts = [row["t"] for row in grid]
        freqs = [row["frequency"] for row in grid]
        require(ts[0] == 0.0 and freqs[0] == 1.0, f"frequency at t=0 is {freqs[0]}")
        require(ts[-1] == 1.1 and freqs[-1] == 0.0, f"frequency at t=1.1 is {freqs[-1]}")
        require(all(a >= b for a, b in zip(freqs, freqs[1:])), f"frequency rises along the grid: {freqs}")


def _projective_check(cap):
    def check(text):
        rep = ref.strict_json(text)
        require(rep["violations"] == 0, f"projective audit: {rep['violations']} violations")
        require(rep["parameters"]["worst_expected_gain"] <= cap + 1e-9, "expected gain above the cap")

    return check


# ---------------------------------------------------------------------------
# leakage

SCAN_ARGS = ["--k", "2..3", "--m", "1..2", "--restarts", "3", "--iters", "30"]
SCAN_CELLS = [(2, 1), (2, 2), (3, 1), (3, 2)]
DIRECT = (
    ("mub(3,1)", 3, 1, dict(restarts=8, iterations=60)),
    ("mub(4,2)", 4, 2, dict(restarts=2, iterations=2)),
)


class Leakage:
    name = "leakage"
    calibrated = False

    def __init__(self, obliq, seed: int):
        self.o = obliq
        self.seed = seed
        self.first_pass_bits = None

    def setup(self):
        enc = self.o.encodings
        self.families = {label: enc.build_family(enc.mub_family(k, m)) for label, k, m, _ in DIRECT}

    def prepare_references(self):
        self.ref_enc = {
            label: ref.dense_encoders([np.array(a) for a in fam.basis.matrices])
            for label, fam in self.families.items()
        }

    def make_pass(self, index: int) -> list:
        o = self.o
        A, SeededRng = o.analysis, o.qmath.SeededRng
        gen = np.random.default_rng([self.seed, index, 3])
        argv = ["scan"] + SCAN_ARGS + ["--seed", str(int(gen.integers(1 << 31)))]
        bits = [0.0]
        ops = [Op("search", "obliq " + " ".join(argv[:-2]), lambda: run_cli(o.cli, argv), _scan_check(bits))]
        for label, k, m, cfg in DIRECT:
            fam = self.families[label]
            config = A.OptimizerConfig(**cfg)
            rng = SeededRng(int(gen.integers(1 << 62)))
            ops.append(
                Op(
                    "search",
                    f"max_leakage {label} restarts={cfg['restarts']} iters={cfg['iterations']}",
                    lambda fam=fam, config=config, rng=rng: A.max_leakage(fam, config, rng),
                    self._direct_check(label, k, m, bits),
                )
            )
        if index == 0:
            self.first_pass_bits = bits
        return ops

    def leak_bits(self):
        return self.first_pass_bits[0] if self.first_pass_bits else None

    def _direct_check(self, label, k, m, bits):
        def check(result):
            require((result.k, result.m) == (k, m), "result shape")
            _check_leakage_bounds(k, m, result.best_gain)
            expected = ref.gain(result.best_params, self.ref_enc[label])
            require(
                abs(expected - result.best_gain) <= 1e-8,
                f"{label}: best_gain {result.best_gain!r} but the reference gain of best_params is {expected!r}",
            )
            bits[0] += result.best_gain

        return check

    def finish(self):
        pass

    def corruptions(self, outputs):
        for op, value in outputs:
            if op.label.startswith("obliq scan"):
                code, out, err = value
                lines = out.splitlines()
                k, m = SCAN_CELLS[0]
                cells = lines[1].split(",")
                cells[3] = f"{k * m / 2.0 + 0.01:.9f}"
                lines[1] = ",".join(cells)
                return [("gain above k*m/2", op.check, (code, "\n".join(lines) + "\n", err))]
        return []


def _check_leakage_bounds(k, m, gain):
    require(m - 1e-6 <= gain <= k * m / 2.0 + 1e-6, f"cell ({k},{m}): best_gain {gain} outside [m, k*m/2]")


def _scan_check(bits):
    def check(result):
        code, out, err = result
        require(code == 0, f"exit code {code}: {err.strip()}")
        lines = out.splitlines()
        require(lines[0].startswith("k,m,family,best_gain_bits"), "scan CSV header")
        rows = [line.split(",") for line in lines[1:-1]]
        require([(int(r[0]), int(r[1])) for r in rows] == SCAN_CELLS, f"scan cells {[(r[0], r[1]) for r in rows]}")
        for r in rows:
            _check_leakage_bounds(int(r[0]), int(r[1]), float(r[3]))
        fit = lines[-1].split()
        require(fit[:1] == ["#"] and fit[1] == "fit", f"last line {lines[-1]!r}")
        c, alpha = float(fit[2].split("=")[1]), float(fit[3].split("=")[1])
        require(math.isfinite(c) and math.isfinite(alpha), f"fit line {lines[-1]!r}")
        bits[0] += sum(float(r[3]) for r in rows)

    return check


WORKLOADS = {w.name: w for w in (Sessions, Audits, Leakage)}
