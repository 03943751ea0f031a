"""The benchmark's four workloads: inputs, operations and output checks.

A workload is a list of *rounds*; one pass over all rounds is the workload's
whole input set.  Every op is a plain tuple, so inputs are generated without
importing gammacert and the set-up probe can time the import on its own.
``run`` performs the library calls of one op (the timed part) and ``check``
compares the outputs with values the benchmark derives independently (the
untimed part).  A check returns an error message, or None when the output is
right.

Why these four (each stresses different layers, and each optimisation named
in the roadmap has one workload that exercises it and one that bypasses it):

* ``transfer-grid``: the acceptance suite's exhaustive integer grids.  Nearly
  all time is ``polycore`` coercion, ``gamma_to_h`` and the ``concavity``
  predicates; ``paths`` does nothing.  An integer fast path shows here.
* ``transfer-rational``: the same layers with real denominators, larger n and
  many distinct n, plus ``abel_check``.  An int-only path or a per-n cache
  that wins on the grid and loses here shows.
* ``certify-enum``: path enumeration and certificates over many tiny families
  and three large ones.  A DP certificate shows on the large families; the
  tiny ones expose any per-call set-up it adds.
* ``cli-readme``: the README commands, each a fresh ``python -m gammacert``.
  Only here do interpreter start and the ``cli``/``jsonio``/``render`` layers
  dominate.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import resource
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import product
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


# --------------------------------------------------------------------------
# Independent oracles (plain integer / Fraction arithmetic, no gammacert)


def _log_concave(a) -> bool:
    return all(a[t] * a[t] >= a[t - 1] * a[t + 1] for t in range(1, len(a) - 1))


def _ultra_log_concave(a, m: int) -> bool:
    c = math.comb
    return all(
        a[t] * a[t] * c(m, t - 1) * c(m, t + 1) >= a[t - 1] * a[t + 1] * c(m, t) ** 2 for t in range(1, len(a) - 1)
    )


def _no_internal_zeros(a) -> bool:
    support = [t for t, v in enumerate(a) if v != 0]
    return not support or all(a[t] != 0 for t in range(support[0], support[-1] + 1))


def _h_of_gamma(n: int, gamma) -> list:
    h = [0] * (n + 1)
    for j, g in enumerate(gamma):
        for i in range(j, n - j + 1):
            h[i] += math.comb(n - 2 * j, i - j) * g
    return h


def _lhs_rhs(n: int, i: int, r: int) -> tuple[int, int]:
    """lhs(r) and rhs(r) of the weight-r inequality, from their binomial sums."""

    def c(a: int, b: int) -> int:
        return math.comb(a, b) if 0 <= b <= a else 0

    lhs = sum(c(n - 2 * j, i - j) * c(n - 2 * (r - j), i - (r - j)) for j in range(r + 1))
    rhs = sum(c(n - 2 * j, i - 1 - j) * c(n - 2 * (r - j), i + 1 - (r - j)) for j in range(r + 1))
    return lhs, rhs


def child_env() -> dict:
    """Environment for a child interpreter that imports gammacert from src/."""
    return dict(os.environ, PYTHONPATH=str(SRC))


def _chunk(ops: list, size: int) -> list[list]:
    return [ops[k : k + size] for k in range(0, len(ops), size)]


class Workload:
    name = ""
    # What the set-up probe imports before its warm-up.
    setup_modules = ("gammacert",)

    def rounds(self, seed: int) -> list[list[tuple]]:
        raise NotImplementedError

    def warmup(self, seed: int) -> list[tuple]:
        raise NotImplementedError

    def run(self, gc, op):
        raise NotImplementedError

    def run_in_process(self, gc, op):
        """The op run inside this process (the traced run and warm-up use this)."""
        return self.run(gc, op)

    def check(self, gc, op, result, tally: Counter) -> str | None:
        raise NotImplementedError

    def check_pass(self, tally: Counter) -> str | None:
        """Check totals over one complete pass; None when right."""
        return None

    def peak_rss_kb(self) -> int:
        """Peak resident set of the process that did the work."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# --------------------------------------------------------------------------


class TransferGrid(Workload):
    """Exhaustive grids of the acceptance suite, shuffled into equal rounds.

    LC: every gamma in {0..3}^(n//2+1) for n <= 12 (27,304 vectors, 1,498 meet
    the hypothesis).  ULC: {0..2}^(n//2+1) for n <= 10 (1,455 vectors, 204).
    The shuffle makes every round a random sample of the grid, so round times
    are comparable and any prefix of the run has the grid's mix of n.
    """

    name = "transfer-grid"
    ROUNDS = 32
    EXPECTED = {"lc": (27_304, 1_498), "ulc": (1_455, 204)}

    @staticmethod
    def _grid(kind: str, max_n: int, max_entry: int) -> list[tuple]:
        return [
            (kind, n, entries)
            for n in range(max_n + 1)
            for entries in product(range(max_entry + 1), repeat=n // 2 + 1)
        ]

    def _ops(self) -> list[tuple]:
        return self._grid("lc", 12, 3) + self._grid("ulc", 10, 2)

    def rounds(self, seed):
        ops = self._ops()
        random.Random(seed).shuffle(ops)
        return _chunk(ops, -(-len(ops) // self.ROUNDS))

    def warmup(self, seed):
        # One op of every (kind, n), so anything built lazily per n is built.
        seen, out = set(), []
        for op in self._ops():
            if op[:2] not in seen and any(op[2]):
                seen.add(op[:2])
                out.append(op)
        return out

    def run(self, gc, op):
        kind, n, entries = op
        g = gc.GammaVector(n, entries)
        return gc.check_transfer(g) if kind == "lc" else gc.check_ulc_transfer(g)

    def check(self, gc, op, report, tally):
        kind, n, gamma = op
        h = _h_of_gamma(n, gamma)
        if kind == "lc":
            hyp = _log_concave(gamma) and _no_internal_zeros(gamma)
            concl = _log_concave(h) and _no_internal_zeros(h)
        else:
            hyp = _ultra_log_concave(gamma, n // 2) and _no_internal_zeros(gamma)
            concl = _ultra_log_concave(h, n) and _no_internal_zeros(h)
        tally[kind] += 1
        tally[kind + "-hypothesis"] += report.hypothesis
        if report.violation:
            return f"{kind} transfer violated at n={n}, gamma={gamma}"
        if list(report.h.h) != h:
            return f"wrong h at n={n}, gamma={gamma}"
        if (report.hypothesis, report.conclusion) != (hyp, concl):
            return f"wrong verdict at n={n}, gamma={gamma}"
        return None

    def check_pass(self, tally):
        for kind, (cases, hyp) in self.EXPECTED.items():
            got = (tally[kind], tally[kind + "-hypothesis"])
            if got != (cases, hyp):
                return f"{kind} grid: (cases, hypothesis_true) = {got}, expected {(cases, hyp)}"
        return None


# --------------------------------------------------------------------------


class TransferRational(Workload):
    """Seeded non-integer rational gamma vectors with n in 0..40, and abel pairs.

    A third of the ops are gamma vectors built log-concave from decreasing
    ratios (the full h predicates run), a third are arbitrary (usually an
    early witness), a third are ``abel_check`` on tail-sign pairs.  Every
    transfer op also runs the exact round trip h_to_gamma(gamma_to_h(g)).
    """

    name = "transfer-rational"
    MAX_N = 40
    ABEL_MAX = 12
    OPS_PER_KIND = 984  # 24 of each n, 82 of each abel length
    ROUNDS = 8

    @staticmethod
    def _non_integer(rng: random.Random) -> Fraction:
        q = rng.randint(2, 9)
        p = rng.randint(1, 30)
        while p % q == 0:
            p = rng.randint(1, 30)
        return Fraction(p, q)

    def _built(self, rng, n):
        ratios = sorted((Fraction(rng.randint(1, 12), rng.randint(1, 6)) for _ in range(n // 2)), reverse=True)
        entries = [self._non_integer(rng)]
        for ratio in ratios:
            entries.append(entries[-1] * ratio)
        return ("lc-built", n, tuple(entries))

    def _arbitrary(self, rng, n):
        rest = (Fraction(rng.randint(0, 24), rng.randint(1, 9)) for _ in range(n // 2))
        return ("arbitrary", n, (self._non_integer(rng), *rest))

    @staticmethod
    def _abel(rng, size):
        def frac():
            return Fraction(rng.randint(0, 24), rng.randint(1, 8))

        head = rng.randint(0, size)
        a = [frac() for _ in range(head)] + [-frac() for _ in range(size - head)]
        total = sum(a, Fraction(0))
        if total < 0:
            a[0] -= total
        b = sorted((frac() for _ in range(size)), reverse=True)
        return ("abel", tuple(a), tuple(b))

    def _ops(self, rng, count):
        # n and the abel length cycle instead of being drawn, so the seed
        # changes the values but not the mix of sizes.
        ops = []
        for k in range(count):
            n = k % (self.MAX_N + 1)
            ops += [self._built(rng, n), self._arbitrary(rng, n), self._abel(rng, 1 + k % self.ABEL_MAX)]
        rng.shuffle(ops)
        return ops

    def rounds(self, seed):
        ops = self._ops(random.Random(seed), self.OPS_PER_KIND)
        return _chunk(ops, -(-len(ops) // self.ROUNDS))

    def warmup(self, seed):
        rng = random.Random(seed ^ 0x5EED)
        built = [self._built(rng, n) for n in range(self.MAX_N + 1)]
        return built + [self._abel(rng, size) for size in range(1, self.ABEL_MAX + 1)]

    def run(self, gc, op):
        if op[0] == "abel":
            return gc.abel_check(op[1], op[2])
        _, n, entries = op
        report = gc.check_transfer(gc.GammaVector(n, entries))
        return report, gc.h_to_gamma(report.h)

    def check(self, gc, op, result, tally):
        if op[0] == "abel":
            _, a, b = op
            direct = sum((x * y for x, y in zip(a, b)), Fraction(0))
            if result.total != direct or direct < 0:
                return f"abel total {result.total} != {direct} for a={a}, b={b}"
            if any(t < 0 for t in result.terms):
                return f"negative abel term for a={a}, b={b}"
            return None
        kind, n, gamma = op
        report, back = result
        if tuple(back.gamma) != gamma:
            return f"round trip changed gamma at n={n}: {gamma} -> {back.gamma}"
        hyp = _log_concave(gamma) and _no_internal_zeros(gamma)
        if report.hypothesis != hyp or (kind == "lc-built" and not hyp):
            return f"wrong hypothesis verdict for {kind} n={n}, gamma={gamma}"
        if report.violation:
            return f"transfer violated at n={n}, gamma={gamma}"
        return None


# --------------------------------------------------------------------------


class CertifyEnum(Workload):
    """Path enumeration and certificates: one op is one library call on one
    family.  Families: every n <= 10, i <= n/2, i <= r <= 2i+2 (163 families,
    2,905 paths), plus (14,5,5), (16,6,6) and (18,7,7) (217,872 paths).  One
    round is the whole set, shuffled."""

    name = "certify-enum"
    LARGE = ((14, 5, 5), (16, 6, 6), (18, 7, 7))
    CALLS = ("cert", "cross", "lhs", "rhs")

    def _ops(self, small=True, large=True):
        ops = []
        for n in range(11 if small else 0):
            for i in range(n // 2 + 1):
                ops.append(("rot", n, i, i))
                ops += [(call, n, i, r) for r in range(i, 2 * i + 3) for call in self.CALLS]
        for n, i, r in self.LARGE if large else ():
            ops.append(("rot", n, i, r))
            ops += [(call, n, i, r) for call in self.CALLS]
        return ops

    def rounds(self, seed):
        ops = self._ops()
        random.Random(seed).shuffle(ops)
        return [ops]

    def warmup(self, seed):
        return self._ops(large=False) + [(call, *self.LARGE[0]) for call in ("rot", *self.CALLS)]

    def run(self, gc, op):
        call, n, i, r = op
        cfg = gc.PathConfig(n, i, r)
        if call == "cert":
            return gc.build_certificate(cfg)
        if call == "cross":
            return gc.check_crossing_claim(cfg)
        if call == "lhs":
            return gc.lhs_by_paths(cfg)
        if call == "rhs":
            return gc.rhs_by_paths(cfg)
        return gc.check_rotation_balance(cfg)

    def check(self, gc, op, result, tally):
        call, n, i, r = op
        lhs, rhs = _lhs_rhs(n, i, r)
        paths = math.comb(2 * n - 2 * r, 2 * i - r) if 2 * i >= r else 0
        where = f"{call} at (n, i, r) = {(n, i, r)}"
        if call == "lhs":
            return None if result == lhs else f"{where}: {result} != {lhs}"
        if call == "rhs":
            return None if result == rhs else f"{where}: {result} != {rhs}"
        if call == "cross":
            ok = result.paths_total == paths and 0 <= result.paths_touching_shifted <= paths
            return None if ok else f"{where}: {result}"
        if call == "rot":
            # Rectangles pair base point s with shifted point t >= s; a
            # rectangle holds C(2(t-s)+2, t-s) paths.
            pairs = [(s, t) for t in range(i) for s in range(t + 1)]
            checked = sum(math.comb(2 * (t - s) + 2, t - s) for s, t in pairs)
            ok = (result.rectangles, result.paths_checked) == (len(pairs), checked)
            return None if ok else f"{where}: {result}, expected {len(pairs)} rectangles, {checked} paths"
        cert = result
        boundary = [c for *_, c in cert.boundary_terms]
        if (cert.lhs, cert.rhs, cert.total, cert.path_count) != (lhs, rhs, lhs - rhs, paths):
            return f"{where}: lhs/rhs/total/paths = {(cert.lhs, cert.rhs, cert.total, cert.path_count)}"
        if cert.avoiding_term < 0 or any(c <= 0 for c in boundary) or cert.total != cert.avoiding_term + sum(boundary):
            return f"{where}: decomposition is not manifestly nonnegative"
        if i >= 1 and cert.total != gc.diagonal_sum(n, i, r):
            return f"{where}: total {cert.total} != diagonal_sum"
        readme = (cert.total, cert.avoiding_term, sum(boundary), cert.contributing_paths)
        if (n, i, r) == (6, 2, 2) and readme != (28, 27, 1, 15):
            return f"{where}: README instance is not 28 = 27 + 1 with 15 contributing paths"
        return None


# --------------------------------------------------------------------------


class CliReadme(Workload):
    """The README's commands, each a fresh ``python -m gammacert`` process,
    one at a time in a seeded round-robin order.  Stdout (with stderr merged)
    and exit code must match ``cli_expected.json``: the block of README
    examples, the ``--`` convention example, and a ``--json`` vector fed back
    through ``--file -`` as the README describes."""

    name = "cli-readme"
    setup_modules = ("gammacert", "gammacert.cli")

    def __init__(self):
        with open(BENCH_DIR / "cli_expected.json", encoding="utf-8") as handle:
            self.cases = json.load(handle)
        self.child_peak_kb = 0

    def _ops(self):
        return [(k, c["argv"], c.get("stdin")) for k, c in enumerate(self.cases)]

    def rounds(self, seed):
        ops = self._ops()
        random.Random(seed).shuffle(ops)
        return [ops]

    def warmup(self, seed):
        return self._ops()

    def run(self, gc, op):
        """Run one command in a fresh interpreter; returns (stdout, exit code)."""
        _, argv, stdin = op
        proc = subprocess.Popen(
            [sys.executable, "-m", "gammacert", *argv],
            stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=child_env(),
            cwd=ROOT,
        )
        if stdin is not None:
            proc.stdin.write(stdin.encode())
            proc.stdin.close()
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_peak_kb = max(self.child_peak_kb, usage.ru_maxrss)
        return out.decode(), proc.returncode

    def run_in_process(self, gc, op):
        """The same command through ``cli.main`` in this process."""
        _, argv, stdin = op
        buf = io.StringIO()
        saved_stdin = sys.stdin
        sys.stdin = io.StringIO(stdin or "")
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                code = gc.cli.main(list(argv))
        finally:
            sys.stdin = saved_stdin
        return buf.getvalue(), code

    def peak_rss_kb(self):
        """The largest command process, not this one."""
        return self.child_peak_kb

    def check(self, gc, op, result, tally):
        k, argv, _ = op
        out, code = result
        case = self.cases[k]
        if (out, code) != (case["stdout"], case["exit"]):
            return f"`gammacert {' '.join(argv)}` gave exit {code} and {out!r}"
        return None


WORKLOADS = {w.name: w for w in (TransferGrid, TransferRational, CertifyEnum, CliReadme)}
