"""Operator command line: mine, verify-tower, bench, simulate, overhead.

Exit codes: 0 success, 1 domain failure (invalid proof, corrupt tower, degenerate input)
or a stdout closed early, 2 usage or configuration error. A command fails by raising
``CommandFailed`` (or ``vdf.InvalidSecurityParams``, ``tower.CorruptTower``); ``main``
alone prints its one ``error: ...`` line on stderr and picks the code.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import secrets
import statistics
import sys
import time
from importlib import resources

from . import sim, tower, vdf
from .serialization import write_atomic

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2

DEFAULT_ENDPOINT = "0.0.0.0:6180"


class CommandFailed(Exception):
    """A command's failure: ``main`` prints ``error: <message>`` and exits ``code``."""

    def __init__(self, message: str, code: int = EXIT_DOMAIN):
        super().__init__(message)
        self.code = code


@contextlib.contextmanager
def _outputs(what: str, *paths: str):
    """Yield a list of text parts per path, joined and written to it once the work returns.
    Each path is opened to append first, so a bad one fails before the work; any failure
    removes only paths that did not exist, and an OSError on one is ``cannot write <what>``."""
    def write(mode: str, texts) -> None:
        try:
            for path, text in zip(paths, texts):
                with open(path, mode, encoding="ascii") as fh:
                    fh.write(text)
        except OSError as exc:
            raise CommandFailed(f"cannot write {what}: {exc}") from exc
    created = [path for path in paths if not os.path.lexists(path)]
    parts = [[] for _ in paths]
    try:
        write("a", [""] * len(paths))  # creates a missing path, leaves an existing one whole
        yield parts
        write("w", ["".join(texts) for texts in parts])
    except BaseException:
        for path in created:
            with contextlib.suppress(OSError):  # a path named twice is removed once
                os.remove(path)
        raise


def _load_key(path: str, create: bool) -> bytes:
    """Read the hex identity key; if ``create`` and there is none, write one with mode 0600."""
    if not create or os.path.exists(path):
        with open(path, "r", encoding="ascii") as fh:
            return bytes.fromhex(fh.read().strip())
    key = secrets.token_bytes(32)
    write_atomic(path, (key.hex() + "\n").encode("ascii"))
    return key


def cmd_mine(args) -> None:
    if args.proofs < 0:
        raise CommandFailed("--proofs must be at least 0", EXIT_USAGE)
    fresh = not os.path.exists(args.tower_file)
    if fresh:  # refuse out-of-range parameters, or a tower that fails to load, before any write
        security = vdf.SecurityParams(args.modulus_bits, args.iterations)
        try:
            endpoint = args.endpoint.encode()
        except UnicodeEncodeError as exc:
            raise CommandFailed(f"--endpoint is not UTF-8: {args.endpoint!r}", EXIT_USAGE) from exc
    else:  # grow checks every record while it squares the first link
        try:
            twr = tower.load_tower(args.tower_file, validate=False)
        except OSError as exc:
            raise CommandFailed(f"cannot read tower file: {exc}") from exc
    verb = "write" if fresh and not os.path.exists(args.key_file) else "read"
    try:
        key = _load_key(args.key_file, create=fresh)
    except (OSError, ValueError) as exc:
        raise CommandFailed(f"cannot {verb} key file: {exc}") from exc
    if verb == "write":
        print(f"generated new identity key at {args.key_file}")
    if not key:
        raise CommandFailed("key file holds no key")

    if fresh:
        twr = tower.Tower(params=vdf.setup(security, key, endpoint), records=())
    elif twr.params.public_key != key:
        raise CommandFailed("tower file belongs to a different key")
    else:
        print(f"resuming tower at height {twr.height} "
              f"(t={twr.params.iterations}, modulus {twr.params.modulus.bit_length()} bits)")

    last_saved = time.perf_counter()

    def save(grown: tower.Tower) -> None:  # each link once proved, on the package's worker
        nonlocal last_saved
        tower.save_tower(grown, args.tower_file)
        now = time.perf_counter()
        elapsed, last_saved = (now - last_saved) * 1000.0, now
        print(f"initialized tower, height 1 ({elapsed:.1f} ms)" if grown.height == 1 else
              f"height {grown.height - 1} -> {grown.height} ({elapsed:.1f} ms)")

    try:
        twr = tower.grow(twr, args.proofs + fresh, save)  # and record 0 of a fresh tower
    except BrokenPipeError:  # from save's print: ``main`` ends quietly
        raise
    except OSError as exc:
        raise CommandFailed(f"cannot write tower file: {exc}") from exc
    print(f"tower height {twr.height}")


def cmd_verify_tower(args) -> None:
    if not os.path.exists(args.tower_file):
        raise CommandFailed(f"no such tower file: {args.tower_file}")
    try:
        twr = tower.load_tower(args.tower_file, validate=False)
    except OSError as exc:
        raise CommandFailed(f"cannot read tower file: {exc}") from exc
    spent = [0.0] * twr.height
    failed = tower.check_chain(twr, spent=spent)
    for index in range(twr.height if failed is None else failed[0]):
        print(f"record {index}: ok ({spent[index] * 1000.0:.2f} ms)")
    if failed is not None:
        print(f"record {failed[0]}: INVALID")
        raise CommandFailed(f"tower fails validation at record {failed[0]} ({failed[1]})")
    print(f"tower valid, height {twr.height}")


def cmd_bench(args) -> None:
    try:
        iteration_points = [int(v) for v in args.iterations_list.split(",")]
    except ValueError as exc:
        raise CommandFailed("--iterations-list must be comma-separated integers",
                            EXIT_USAGE) from exc
    if args.samples < 1:
        raise CommandFailed("--samples must be at least 1", EXIT_USAGE)
    securities = [vdf.SecurityParams(args.modulus_bits, t) for t in iteration_points]

    with _outputs("report", args.out) as (lines,):
        # From 2048-bit moduli, verify runs one side of its fold on a second core,
        # so its times depend on how many CPUs the process may use.
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count())
        print(f"powmod: {vdf.powmod_engine()}; cpus: {cpus}")
        lines.append("operation,iterations,sample,elapsed_ms\n")
        for security in securities:
            pp = vdf.setup(security, b"bench", b"bench")
            x = vdf.hash_to_group(pp.input_digest, pp.modulus)
            output, powers = vdf.squarings(pp, x)
            proof = vdf.prove(pp, x, output, powers)
            # A midpoint count one off, which the screen refuses: the last midpoint
            # dropped, or one added where t <= 128 leaves none to drop.
            invalid = dataclasses.replace(
                proof, checkpoints=proof.checkpoints[:-1] if proof.checkpoints else (x,))

            operations = {  # eval, then its two halves: mine runs them on two cores
                "eval": lambda: vdf.eval(pp, x),
                "eval-squarings": lambda: vdf.squarings(pp, x),
                "eval-prove": lambda: vdf.prove(pp, x, output, powers),
                "verify-valid": lambda: vdf.check_proof(pp.modulus, pp.iterations, x, output,
                                                        proof),
                "verify-invalid": lambda: vdf.check_proof(pp.modulus, pp.iterations, x, output,
                                                          invalid),
            }
            # Sample i of all five runs before sample i + 1: a host slowdown skews them alike.
            timings = {label: [] for label in operations}
            for _ in range(args.samples):
                for label, fn in operations.items():
                    started = time.perf_counter()
                    fn()
                    timings[label].append((time.perf_counter() - started) * 1000.0)
            for label, samples in timings.items():
                lines += [f"{label},{pp.iterations},{index},{value:.6f}\n"
                          for index, value in enumerate(samples)]
                # A single sample is its own p25 and p75.
                quartiles = (statistics.quantiles(samples, n=4, method="inclusive")
                             if len(samples) > 1 else samples * 3)
                stats = (statistics.fmean(samples), statistics.median(samples), quartiles[0],
                         quartiles[2], min(samples), max(samples))
                print(f"{label} t={pp.iterations} n={len(samples)}: " + ", ".join(
                    f"{name} {value:.3f} ms" for name, value in
                    zip(("mean", "median", "p25", "p75", "min", "max"), stats)))
    print(f"wrote {args.out}")


def _resolve_scenario(spec: str) -> str:
    """Treat the argument as a path first, then as a bundled scenario name."""
    if os.path.exists(spec):
        with open(spec, "r", encoding="utf-8") as fh:
            return fh.read()
    name = spec if spec.endswith(".json") else spec + ".json"
    bundle = resources.files("delaytower").joinpath("scenarios").joinpath(name)
    if bundle.is_file():
        return bundle.read_text(encoding="utf-8")
    raise FileNotFoundError(f"no scenario file or bundled scenario named {spec!r}")


def cmd_simulate(args) -> None:
    try:
        scenario = sim.scenario_from_json(_resolve_scenario(args.scenario))
    except OSError as exc:
        raise CommandFailed(str(exc), EXIT_USAGE) from exc
    except (UnicodeDecodeError, sim.InvalidScenario) as exc:  # the line names the scenario
        cause = exc.__cause__
        where = (f":{cause.lineno}:{cause.colno}: {cause.msg}"
                 if isinstance(cause, json.JSONDecodeError) else f": {exc}")
        raise CommandFailed(f"{args.scenario}{where}", EXIT_USAGE) from exc

    with _outputs("output", args.out_csv, args.out_summary) as (csv_out, summary_out):
        started = time.perf_counter()
        metrics = sim.run(scenario)
        seconds = time.perf_counter() - started
        csv_out.append(metrics.to_csv())
        summary_out.append(metrics.to_summary_json())

    rounds = len(metrics.epochs) * scenario.epoch_config.rounds_per_epoch
    recovery = sim.recovery_time(metrics)
    recovery_text = "never" if recovery is sim.NEVER_RECOVERED else str(recovery)
    print(f"{len(metrics.epochs)} epochs: {metrics.total_commits} commits, "
          f"{metrics.total_timeouts} timeouts, recovery {recovery_text} "
          f"({seconds * 1000.0:.1f} ms, {rounds / seconds:.0f} rounds/s)")
    print(f"wrote {args.out_csv} and {args.out_summary}")


def cmd_overhead(args) -> None:
    if not 0 <= args.verify_ms < float("inf") or args.proofs_per_epoch <= 0 \
            or args.validators <= 0 or args.epoch_seconds <= 0:
        raise CommandFailed("verify-ms must be >= 0 and the remaining inputs positive",
                            EXIT_USAGE)
    per_validator = args.verify_ms * args.proofs_per_epoch / 1000.0
    network_total = per_validator * args.validators
    fraction = network_total / (args.epoch_seconds * args.validators)
    print(f"per-validator verification: {per_validator:.2f} s per epoch")
    print(f"network total: {network_total:.2f} s per epoch")
    print(f"fraction of validator time: {fraction * 100:.4g}%")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delaytower",
        description="Mine, validate, benchmark, and simulate delay towers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mine = sub.add_parser("mine", help="extend a local tower file")
    p_mine.add_argument("--tower-file", required=True)
    p_mine.add_argument("--key-file", required=True)
    p_mine.add_argument("--proofs", type=int, default=1)
    p_mine.add_argument("--iterations", type=int, default=4096,
                        help="sequential squarings per proof, a power of two (fresh towers only)")
    p_mine.add_argument("--modulus-bits", type=int, default=2048)
    p_mine.add_argument("--endpoint", default=DEFAULT_ENDPOINT)
    p_mine.set_defaults(fn=cmd_mine)

    p_verify = sub.add_parser("verify-tower", help="validate a tower file")
    p_verify.add_argument("--tower-file", required=True)
    p_verify.set_defaults(fn=cmd_verify_tower)

    p_bench = sub.add_parser("bench", help="time eval and verify at several depths")
    p_bench.add_argument("--iterations-list", required=True,
                         help="comma-separated step counts, e.g. 1024,65536")
    p_bench.add_argument("--samples", type=int, default=20)
    p_bench.add_argument("--out", required=True, help="per-sample CSV path")
    p_bench.add_argument("--modulus-bits", type=int, default=512)
    p_bench.set_defaults(fn=cmd_bench)

    p_sim = sub.add_parser("simulate", help="run a scenario file")
    p_sim.add_argument("--scenario", required=True,
                       help="scenario path or bundled name (healthy-100, "
                            "crash-minority, crash-majority)")
    p_sim.add_argument("--out-csv", required=True)
    p_sim.add_argument("--out-summary", required=True)
    p_sim.set_defaults(fn=cmd_simulate)

    p_over = sub.add_parser("overhead", help="verification overhead arithmetic")
    p_over.add_argument("--verify-ms", type=float, required=True)
    p_over.add_argument("--proofs-per-epoch", type=int, required=True)
    p_over.add_argument("--validators", type=int, required=True)
    p_over.add_argument("--epoch-seconds", type=int, required=True)
    p_over.set_defaults(fn=cmd_overhead)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.fn(args)
        sys.stdout.flush()  # so a closed stdout fails here, not in the flush at exit
    except BrokenPipeError:  # stdout closed early, as by `| head`: the end of output
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # for the flush at exit
        return EXIT_DOMAIN
    except (CommandFailed, vdf.InvalidSecurityParams, tower.CorruptTower) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code if isinstance(exc, CommandFailed) else \
            EXIT_USAGE if isinstance(exc, vdf.InvalidSecurityParams) else EXIT_DOMAIN
    return EXIT_OK


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
