"""Mutation test of the package's checks: tier-1 must fail against every mutant.

    python tests/mutants.py tower ledger serialization

A mutant changes one place in a module of ``src/delaytower``: a guard whose body
raises or returns never fires (``if cond:`` becomes ``if False:``), one comparison
flips (``<`` and ``<=``, ``>`` and ``>=``, ``==`` and ``!=``), a gate name that a
``return`` gives becomes its partner's (``"index"`` and ``"input"``, ``"screen"`` and
``"transcript"``), or two adjacent ``if ...: return`` gates trade places. Each is
written into a temporary copy of ``src``, ``tests``, ``pyproject.toml`` and
``README.md``, never into the tree, and tier-1 runs there with ``-x``, the mutated
module's own test file first, under a timeout of five times the unmutated run and
a 2 GiB address-space limit. A failure or a timeout kills the mutant. Mutants run
one fewer at a time than the process has CPUs, at least one, because tier-1 holds
wall-clock bounds that a fully loaded machine can miss: a run that shares every
core with the others could read a timing failure as a kill. Every mutant
is printed with its status, run time, file, line and mutated text, and a killed one
with the test that failed. The exit status is 1 when a survivor is missing from
``ACCEPTED``, and 2 when tier-1 fails on the unmutated copy. The file is not named
``test_*.py``, so tier-1 does not collect it.
"""

from __future__ import annotations

import argparse
import ast
import os
import queue
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "pyproject.toml", "README.md")
FLIPS = {ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="),
         ast.GtE: (">=", ">"), ast.Eq: ("==", "!="), ast.NotEq: ("!=", "==")}
# Each gate name's partner: the other of the chain's gates, or of the proof's.
GATE_PARTNERS = {"index": "input", "input": "index", "screen": "transcript",
                 "transcript": "screen"}

# Survivors that no test should kill, keyed "<file>: <line> -> <mutated line>", each
# with the reason. A survivor missing here fails the run; a key that no longer
# survives is reported, so the list can shrink.
ACCEPTED = {
    "tower.py: if len(data) < 32: -> if len(data) <= 32:":
        "a 32-byte file leaves an empty body, from which no tower parses either way",
    "sim.py: if rec.epoch >= onset and rec.timeouts == 0: -> "
    "if rec.epoch > onset and rec.timeouts == 0:":
        "the onset epoch has timeouts, so it is never the clean epoch",
    "sim.py: if digest.digest()[:8] < cut: -> if digest.digest()[:8] <= cut:":
        "an 8-byte prefix never equals the 9-byte cut",
    "sim.py: elif behavior.kind is BehaviorKind.HONEST or behavior.from_round >= first + rounds: "
    "-> elif behavior.kind is BehaviorKind.HONEST or behavior.from_round > first + rounds:":
        "a crash at the next epoch's first round signs every round either way",
    "sim.py: elif behavior.from_round > first: -> elif behavior.from_round >= first:":
        "a crash at the epoch's first round signs no round either way",
    "vdf.py: if not (self.ctx and all(self.bignums)): -> if False:":
        "libcrypto allocation failure: no test can cause it without fault injection",
    "vdf.py: if lib.BN_bn2binpad(bignum, out, len(out)) < 0: -> "
    "if lib.BN_bn2binpad(bignum, out, len(out)) <= 0:":
        "the call returns the buffer's length, at least 1, or -1",
    "vdf.py: if not done: -> if False:":
        "libcrypto exponentiation failure: no test can cause it without fault injection",
    "vdf.py: while not passed and d < n - 1:  # x = (n - a)^d, then its squares, to the "
    "(n - 1) / 2 -> while not passed and d <= n - 1:  # x = (n - a)^d, then its squares, "
    "to the (n - 1) / 2":
        "one more squaring passes only a^(n-1) = -1, which no prime and no candidate here gives",
    "vdf.py: if n < 1024: -> if n <= 1024:":
        "1024 is even, so the sieve refuses it as the lookup does",
    "vdf.py: if 2 <= candidate < modulus - 1: -> if 2 < candidate < modulus - 1:":
        "a SHAKE-256 draw of the modulus's width is 2 with probability 2^-bits",
    "vdf.py: if 2 <= candidate < modulus - 1: -> if 2 <= candidate <= modulus - 1:":
        "a SHAKE-256 draw of the modulus's width is N - 1 with probability 2^-bits",
    "vdf.py: if rival is not None and rival.done(): -> if False:":
        "cost only: the caller skips a side the worker has already checked",
    "vdf.py: if rival is not None and rival.done(): -> if False: #2":
        "cost only: the caller skips a side the worker has already checked",
    "vdf.py: if stop.is_set() or failed and tasks[i][0] >= min(failed): -> "
    "if stop.is_set() or failed and tasks[i][0] > min(failed):":
        "cost only: the failing claim's other side runs, and the verdict is the same",
}


def returning_gate(node: ast.AST) -> bool:
    return isinstance(node, ast.If) and not node.orelse and isinstance(node.body[-1], ast.Return)


def mutants(source: bytes) -> list[tuple[int, bytes]]:
    """(line number, mutated source) for each guard, each flippable comparison, each
    returned gate name and each pair of adjacent returning gates."""
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))

    def offset(line: int, col: int) -> int:  # ast columns count UTF-8 bytes
        return starts[line - 1] + col

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.If) and isinstance(node.body[-1], (ast.Raise, ast.Return)):
            test = node.test
            begin = offset(test.lineno, test.col_offset)
            end = offset(test.end_lineno, test.end_col_offset)
            found.append((test.lineno, source[:begin] + b"False" + source[end:]))
        if isinstance(node, ast.Compare):
            for left, op, right in zip([node.left, *node.comparators], node.ops,
                                       node.comparators):
                if type(op) not in FLIPS:
                    continue
                old, new = (text.encode() for text in FLIPS[type(op)])
                begin = offset(left.end_lineno, left.end_col_offset)
                at = source.index(old, begin, offset(right.lineno, right.col_offset))
                line = source.count(b"\n", 0, at) + 1
                found.append((line, source[:at] + new + source[at + len(old):]))
        if isinstance(node, ast.Return) and node.value is not None:
            for leaf in ast.walk(node.value):
                if isinstance(leaf, ast.Constant) and leaf.value in GATE_PARTNERS:
                    begin = offset(leaf.lineno, leaf.col_offset)
                    end = offset(leaf.end_lineno, leaf.end_col_offset)
                    partner = f'"{GATE_PARTNERS[leaf.value]}"'.encode()
                    found.append((leaf.lineno, source[:begin] + partner + source[end:]))
        bodies = [getattr(node, field, None) for field in ("body", "orelse", "finalbody")]
        for body in (body for body in bodies if isinstance(body, list)):  # no expression's
            for first, second in zip(body, body[1:]):
                if returning_gate(first) and returning_gate(second):
                    # The second gate's lines, any lines between, then the first's.
                    a, b, c, d = (starts[first.lineno - 1], starts[first.end_lineno],
                                  starts[second.lineno - 1], starts[second.end_lineno])
                    found.append((first.lineno, source[:a] + source[c:d] + source[b:c]
                                  + source[a:b] + source[d:]))
    return sorted(found, key=lambda mutant: mutant[0])


def line_of(source: bytes, number: int) -> str:
    return source.splitlines()[number - 1].decode().strip()


def run_tier1(copy: Path, module: str, timeout: float | None) -> str:
    """"survived", "timeout" or "killed by" the first failing test: tier-1 in ``copy``,
    ``module``'s tests first."""
    own = f"tests/test_{module}.py"
    files = sorted(str(path.relative_to(copy)) for path in (copy / "tests").glob("test_*.py"))
    files = [own] * (own in files) + [name for name in files if name != own]
    shutil.rmtree(copy / ".hypothesis", ignore_errors=True)  # no examples from other mutants
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    process = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "--hypothesis-seed=0", *files],
        cwd=copy, env={**env, "PYTHONDONTWRITEBYTECODE": "1"}, start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    try:
        output = process.communicate(timeout=timeout)[0]
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        return "timeout"
    if process.returncode == 0:
        return "survived"
    failed = [line.split(" - ")[0] for line in output.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return f"killed by {failed[0] if failed else f'exit status {process.returncode}'}"


def copy_tree(scratch: Path, job: int) -> Path:
    """A copy of what tier-1 reads, under ``scratch``."""
    copy = scratch / str(job)
    copy.mkdir()
    for name in COPIED:
        if (ROOT / name).is_dir():
            shutil.copytree(ROOT / name, copy / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        else:
            shutil.copy2(ROOT / name, copy / name)
    return copy


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("modules", nargs="+", help="module names in src/delaytower")
    args = parser.parse_args(argv)
    jobs = max(1, len(os.sched_getaffinity(0)) - 1)
    # Inherited by every run: a mutant that allocates without bound fails with
    # MemoryError instead of taking the host's memory. Tier-1 needs under 2 GiB.
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    limit = 2 << 30 if hard == resource.RLIM_INFINITY else min(2 << 30, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    started = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="delaytower-mutants-") as scratch:
        copies: queue.Queue[Path] = queue.Queue()
        for job in range(jobs):
            copies.put(copy_tree(Path(scratch), job))
        if (unmutated := run_tier1(Path(scratch) / "0", "", None)) != "survived":
            print(f"tier-1 fails on the unmutated copy: {unmutated}", file=sys.stderr)
            return 2
        timeout = 5 * (time.monotonic() - started)
        print(f"unmutated tier-1 and copies: {timeout / 5:.1f} s; timeout {timeout:.0f} s; "
              f"{jobs} at a time", flush=True)

        def test(module: str, mutated: bytes, original: bytes) -> tuple[str, str]:
            copy = copies.get()
            target = copy / "src" / "delaytower" / f"{module}.py"
            try:
                target.write_bytes(mutated)
                began = time.monotonic()
                status, _, killer = run_tier1(copy, module, timeout).partition(" by ")
                return f"{status:8} {time.monotonic() - began:6.1f} s", killer
            finally:
                target.write_bytes(original)
                copies.put(copy)

        results, seen = [], Counter()
        with ThreadPoolExecutor(jobs) as pool:
            for module in args.modules:
                source = (ROOT / "src" / "delaytower" / f"{module}.py").read_bytes()
                for number, mutated in mutants(source):
                    key = f"{module}.py: {line_of(source, number)} -> {line_of(mutated, number)}"
                    seen[key] += 1
                    key += f" #{seen[key]}" * (seen[key] > 1)  # the same edit of a repeated line
                    results.append((pool.submit(test, module, mutated, source),
                                    f"{module}.py:{number}", key))
            for future, place, key in results:
                status, killer = future.result()
                print(f"{status}  {place}  {key.partition(' -> ')[2]}"
                      + f"  ({killer})" * bool(killer), flush=True)
    survived = {key for future, _, key in results if future.result()[0].startswith("survived")}
    for key in sorted(set(ACCEPTED).intersection(key for _, _, key in results) - survived):
        print(f"listed but killed: {key}")
    unlisted = sorted(survived - set(ACCEPTED))
    for key in unlisted:
        print(f"unlisted survivor: {key}")
    print(f"{len(results)} mutants, {len(survived)} survived, {len(unlisted)} unlisted, "
          f"in {time.monotonic() - started:.0f} s")
    return 1 if unlisted else 0


if __name__ == "__main__":
    sys.exit(main())
