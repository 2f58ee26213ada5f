"""Command-line front end: demos, sessions, verification suites, scans.

Exit codes are a stable contract: 0 success, 1 usage error, 2 proven-bound
violation, 3 I/O failure.  Every randomized command requires --seed; no
command ever reads system entropy, so identical flags produce byte-identical
output files.  Text output is human-oriented and unstable; JSON and CSV are
the machine contract.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import analysis, hardening, protocol
from .analysis import OptimizerConfig
from .encodings import (
    MAX_KM,
    MAX_POVM_M,
    MAX_SHARE_ROUNDS,
    W2,
    build_family,
    check_desk_cell,
    cyclic_family,
    explicit_single_bit_family,
    mub_family,
    random_family,
    tensorized_family,
    walsh_family,
)
from .protocol import DatabaseState, honest_basis, invert_basis, outcome_probs, parity_basis, run_session
from .qmath import BoundViolation, SeededRng

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2
EXIT_IO = 3

VERIFY_SUITES = ("entropic", "povm", "concentration", "hk", "honest", "all")


class UsageError(ValueError):
    """A refusal of the CLI's own; main reports it like any library ValueError."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse hook; route to exit code 1
        raise UsageError(message)


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


@functools.cache
def _parser() -> _Parser:
    parser = _Parser(prog="obliq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="two-item single-bit walkthrough")
    demo.add_argument("--db", default="0", help="database value as hex, item 0 most significant")
    demo.add_argument("--choice", type=int, default=0, choices=(0, 1), help="which item to learn")
    demo.add_argument("--seed", type=int, required=True)

    sess = sub.add_parser("session", help="run one protocol session, write a JSON transcript")
    sess.add_argument("--k", type=int, default=2)
    sess.add_argument("--m", type=int, default=1)
    sess.add_argument(
        "--family",
        default="explicit",
        choices=("explicit", "walsh", "mub", "cyclic", "random", "tensorized"),
    )
    sess.add_argument("--db", required=True, help="database value as hex")
    sess.add_argument("--choice", type=int, default=0)
    sess.add_argument("--strategy", default="honest", choices=("honest", "invert", "parity"))
    sess.add_argument("--guess", type=int, default=0, help="encoding guess for --strategy invert")
    sess.add_argument("--r", type=int, default=1, help="XOR share-splitting rounds")
    sess.add_argument("--mask", action="store_true", help="apply a random GF(2^m) affine mask")
    sess.add_argument("--tensor-r", type=int, default=2, help="block size for --family tensorized")
    sess.add_argument("--seed", type=int, required=True)
    sess.add_argument("--out", default=None, help="transcript path (default: stdout)")

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("--suite", required=True)
    ver.add_argument("--trials", type=_positive, default=None)
    ver.add_argument("--k", type=int, default=2)
    ver.add_argument("--m", type=int, default=1)
    ver.add_argument("--seed", type=int, required=True)
    ver.add_argument("--out", default=None, help="report path (default: stdout)")

    scan = sub.add_parser("scan", help="leakage scan over a (k, m) grid")
    scan.add_argument("--k", default="2..3", help="k range, e.g. 2..4")
    scan.add_argument("--m", default="1..2", help="m range, e.g. 1..2")
    scan.add_argument("--restarts", type=_positive, default=OptimizerConfig.restarts)
    scan.add_argument("--iters", type=_positive, default=OptimizerConfig.iterations)
    scan.add_argument("--seed", type=int, required=True)
    scan.add_argument("--out", default=None, help="CSV path (default: stdout)")

    return parser


def _parse_db(text: str, k: int, m: int) -> int:
    try:
        value = int(text, 16)
    except ValueError:
        raise UsageError(f"--db {text!r} is not a hex string")
    if not 0 <= value < 1 << (k * m):
        raise UsageError(f"--db value {text!r} out of range for k={k}, m={m} ({k * m} bits)")
    return value


def _parse_range(text: str) -> list:
    lo, dots, hi = text.partition("..")
    try:
        lo, hi = int(lo), int(hi if dots else lo)
    except ValueError:
        raise UsageError(f"bad range {text!r}; expected like 2..4")
    if not 1 <= lo <= hi <= MAX_KM:  # no desk cell lies outside, and the list stays short
        raise UsageError(f"bad range {text!r}; need 1 <= lo <= hi <= {MAX_KM}")
    return list(range(lo, hi + 1))


def _make_family(args, rng: SeededRng):
    kind, k, m = args.family, args.k, args.m
    if kind == "explicit":
        if (k, m) != (2, 1):
            raise UsageError("--family explicit requires --k 2 --m 1")
        return explicit_single_bit_family()
    if kind == "walsh":
        if k != 2:
            raise UsageError("--family walsh requires --k 2")
        return walsh_family(m)
    if kind == "mub":
        return build_family(mub_family(k, m))
    if kind == "cyclic":
        return build_family(cyclic_family(k, m))
    if kind == "random":
        return build_family(random_family(k, m, rng))
    return build_family(tensorized_family(k, m, args.tensor_r, rng))


def _strategy(args, family):
    if args.strategy == "honest":
        return honest_basis(family, args.choice)
    if args.strategy == "invert":
        return invert_basis(family, args.guess)
    if family.k != 2 or family.m != 1:
        raise UsageError("--strategy parity requires k=2, m=1")
    return parity_basis()


def _write_output(text: str, path: str | None) -> int:
    if path is None:
        sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


# ---------------------------------------------------------------------------
# commands


def _amplitude(z: complex) -> str:
    if abs(z.imag) < 1e-12:
        return f"{z.real:+.4f}"
    return f"({z.real:+.4f}{z.imag:+.4f}i)"


def cmd_demo(args) -> int:
    db_value = _parse_db(args.db, 2, 1)
    family = explicit_single_bit_family()
    db = DatabaseState.from_index(db_value, 2, 1)
    kets = ["|00>", "|01>", "|10>", "|11>"]

    print("Two items, one bit each; the vendor encodes with E_0 or E_1.")
    print("Encoded states (columns of the encoders):")
    for i in range(2):
        print(f"  encoding {i}:")
        for d in range(4):
            state = protocol.vendor_encode(DatabaseState.from_index(d, 2, 1), family, i)
            terms = "  ".join(f"{_amplitude(a)} {kets[idx]}" for idx, a in enumerate(state) if abs(a) > 1e-12)
            print(f"    db={d:02b}:  {terms}")

    print(f"\nDatabase is {db.items[0]}{db.items[1]}; honest measurement outcomes by choice:")
    for j in range(2):
        basis = honest_basis(family, j)
        print(f"  choice {j} (measure in basis {j}):")
        for i in range(2):
            state = protocol.vendor_encode(db, family, i)
            dist = protocol.outcome_distribution(state, basis)
            outs = ", ".join(f"{idx:02b} w.p. {p:.2f}" for idx, p in enumerate(dist) if p > 1e-12)
            decoded = {protocol.decode_item(idx, i, j, 2, 1) for idx, p in enumerate(dist) if p > 1e-12}
            print(f"    encoding {i}: outcomes {outs}; all decode item {j} = {decoded.pop()}")

    rng = SeededRng(args.seed)
    transcript = run_session(db, family, honest_basis(family, args.choice), rng)
    print(f"\nSeeded session (seed {args.seed}): outcome {transcript.outcome:02b}, "
          f"announced encoding {transcript.announced}, decoded {transcript.decoded}")
    expected = db.items[args.choice]
    if transcript.decoded["value"] != expected:
        print("error: decoded value disagrees with the database", file=sys.stderr)
        return EXIT_VIOLATION
    print(f"Decoded item {args.choice} = {expected}, matching the database.")
    return EXIT_OK


def cmd_session(args) -> int:
    check_desk_cell(args.k, args.m)
    if not 1 <= args.r <= MAX_SHARE_ROUNDS:
        raise UsageError(f"--r must be in 1..{MAX_SHARE_ROUNDS}, got {args.r}")
    rng = SeededRng(args.seed)
    family = _make_family(args, rng.derive(0))
    db_value = _parse_db(args.db, args.k, args.m)
    db = DatabaseState.from_index(db_value, args.k, args.m)
    strategy = _strategy(args, family)

    mask = None
    if args.mask:
        gen = rng.derive(2).gen
        mask = hardening.GfMask(
            args.m, int(gen.integers(1, 1 << args.m)), int(gen.integers(1 << args.m))
        )

    if args.r == 1:
        sessions = [(db, rng.derive(1))]
    else:
        # share-split rounds: each round is an independent session on one pair
        if args.k != 2:
            raise UsageError("--r > 1 (share splitting) requires --k 2")
        shares = hardening.xor_split(db.items[0], db.items[1], args.r, args.m, rng.derive(3))
        sessions = [
            (DatabaseState(2, args.m, pair), rng.derive(4 + t)) for t, pair in enumerate(shares.pairs)
        ]
    rounds = [run_session(d, family, strategy, stream, mask=mask) for d, stream in sessions]
    if args.r == 1:
        doc = rounds[0].document()
    else:
        decoded = None
        if args.strategy == "honest":
            acc = 0
            for tr in rounds:
                acc ^= tr.decoded["value"]
            decoded = {"kind": "item", "index": args.choice, "value": acc}
        doc = {
            "version": protocol.TRANSCRIPT_VERSION,
            "k": args.k,
            "m": args.m,
            "xor_rounds": args.r,
            "rounds": [tr.document() for tr in rounds],
            "decoded": decoded,
            "seed": [rng.seed, rng.stream],
        }
    return _write_output(protocol.transcript_json(doc, indent=2) + "\n", args.out)


def _verify_one(suite: str, args, rng: SeededRng):
    reports = []
    if suite == "entropic":
        trials = args.trials or 100_000
        for idx, dim in enumerate((2, 4, 8)):
            reports.append(analysis.verify_theorem1(dim, trials, rng.derive(idx)))
    elif suite == "povm":
        trials = args.trials or 200
        family = build_family(mub_family(2, args.m)) if args.m > 1 else explicit_single_bit_family()
        reports.append(analysis.povm_gain_audit(family, trials, rng.derive(0)))
    elif suite == "concentration":
        trials = args.trials or 1000
        for idx, ell in enumerate((16, 64, 256)):
            reports.append(analysis.concentration_experiment(ell, trials, None, rng.derive(idx)))
    elif suite == "hk":
        trials = args.trials or 20_000
        if args.k == 2:
            # the proven pair: the identity and a flat unitary on the joint space, as qubit chains
            encs = [(np.eye(2),) * (2 * args.m), (W2,) * (2 * args.m)]
        else:
            family = build_family(mub_family(args.k, args.m))
            encs = [family.factors(i) for i in range(family.k)]
        reports.append(analysis.explore_condition_2prime(encs, trials, rng.derive(0)))
    else:  # honest
        reports.append(_honest_suite(rng))
    return reports


def _honest_suite(rng: SeededRng) -> analysis.BoundReport:
    """Exhaustive decode correctness plus unbiased-family honest privacy."""
    violations = 0
    checked = 0
    grids = [(2, 1, "explicit"), (2, 2, "walsh"), (3, 1, "mub"), (3, 2, "mub")]
    for k, m, kind in grids:
        if kind == "explicit":
            family = explicit_single_bit_family()
        elif kind == "walsh":
            family = walsh_family(m)
        else:
            family = build_family(mub_family(k, m))
        violations += _completeness_violations(family)
        checked += 1
    leak_worst = 0.0
    for m in (1, 2, 3):
        for k in range(2, (1 << m) + 2):
            family = build_family(mub_family(k, m))
            for j in range(k):
                leak = abs(protocol.honest_leakage(family, j))
                leak_worst = max(leak_worst, leak)
                if leak > 1e-9:
                    violations += 1
    return analysis.BoundReport(
        suite="honest",
        trials=checked,
        min_slack=-leak_worst,
        violations=violations,
        parameters={"worst_abs_leakage_bits": leak_worst},
    )


def _completeness_violations(family) -> int:
    bad = 0
    n, k, m = family.n, family.k, family.m
    for j in range(k):
        basis = honest_basis(family, j)
        mat = basis.matrix
        for i in range(k):
            probs = outcome_probs(mat, family, i)
            decoded = protocol.decode_item(np.arange(n), i, j, k, m)
            items_j = protocol.item_blocks(np.arange(n), k, m)[j]
            support = probs > 1e-18
            ok = decoded[:, None] == items_j[None, :]
            bad += int(np.logical_and(support, ~ok).sum())
    return bad


def cmd_verify(args) -> int:
    if args.suite not in VERIFY_SUITES:
        raise UsageError(f"unknown suite {args.suite!r}; choose from {VERIFY_SUITES}")
    suites = [s for s in VERIFY_SUITES if s != "all"] if args.suite == "all" else [args.suite]
    # every selected suite's arguments are checked before any suite runs
    if "povm" in suites and not 1 <= args.m <= MAX_POVM_M:
        raise UsageError(
            f"--suite povm needs 1 <= m <= {MAX_POVM_M} (4^m <= {4**MAX_POVM_M}), got --m {args.m}"
        )
    if "hk" in suites:
        analysis.scan_cells([args.k], [args.m])
    rng = SeededRng(args.seed)
    reports = []
    for idx, suite in enumerate(suites):
        reports.extend(_verify_one(suite, args, rng.derive(idx)))
    payload = json.dumps([r.to_dict() for r in reports], indent=2, allow_nan=False) + "\n"
    code = _write_output(payload, args.out)
    if code != EXIT_OK:
        return code
    total = sum(r.violations for r in reports)
    return EXIT_VIOLATION if total > 0 else EXIT_OK


def cmd_scan(args) -> int:
    k_values = _parse_range(args.k)
    m_values = _parse_range(args.m)
    config = OptimizerConfig(restarts=args.restarts, iterations=args.iters)
    results, fit = analysis.leakage_scan(k_values, m_values, config, SeededRng(args.seed))
    return _write_output(analysis.scan_csv(results, fit), args.out)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        commands = {"demo": cmd_demo, "session": cmd_session, "verify": cmd_verify, "scan": cmd_scan}
        return commands[args.command](args)
    except ValueError as exc:  # every refusal: the parser's, the CLI's own and the library's input checks
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BoundViolation as exc:
        print(f"bound violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
