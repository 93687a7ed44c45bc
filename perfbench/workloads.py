"""Seeded inputs, one operation per input, and output checks for the four
benchmark workloads.

Inputs are built from plain integer lists with this module's own arithmetic,
so every fact a check relies on (a determinant, a period, a conjugator, a
shift-equivalence witness) holds by construction and never comes from
ckbundle's own output. ckbundle sees only the finished inputs.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Any

import hostspeed


class CheckFailed(Exception):
    """An operation returned an output that contradicts a known fact."""


def require(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckFailed(reason)


# --- exact helpers on list-of-lists matrices, independent of ckbundle -------


def identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def small_det(m: list[list[int]]) -> int:
    """Laplace expansion; only used on matrices of size at most 3."""
    if len(m) == 1:
        return m[0][0]
    return sum(
        (-1) ** j * m[0][j] * small_det([row[:j] + row[j + 1 :] for row in m[1:]])
        for j in range(len(m))
    )


def i_minus(m: list[list[int]]) -> list[list[int]]:
    n = len(m)
    return [[int(i == j) - m[i][j] for j in range(n)] for i in range(n)]


def group_2x2(m: list[list[int]]) -> tuple[int, tuple[int, ...]]:
    """coker(m) for a 2x2 matrix as (free rank, invariant factors): the first
    Smith entry is the gcd of the entries, the product is |det|."""
    g = math.gcd(*[x for row in m for x in row])
    d = abs(small_det(m))
    if g == 0:
        return 2, ()
    if d == 0:
        return 1, (g,) if g > 1 else ()
    return 0, tuple(x for x in (g, d // g) if x > 1)


def elementary_word(rng, n: int, length: int) -> tuple[list[list[int]], list[list[int]]]:
    """A product of `length` random elementary generators of GL_n(Z)
    (transvections E_ij(+-1) and the sign flip) and its exact inverse. No
    generator directly follows its own inverse, so the word does not cancel
    down to a short one by plain backtracking."""
    gens = []
    for i in range(n):
        for j in range(n):
            if i != j:
                for sign in (1, -1):
                    e, f = identity(n), identity(n)
                    e[i][j], f[i][j] = sign, -sign
                    gens.append((e, f))
    flip = identity(n)
    flip[0][0] = -1
    gens.append((flip, flip))
    w, w_inv = identity(n), identity(n)
    previous_inverse = None
    for _ in range(length):
        g, g_inv = rng.choice(gens)
        while g == previous_inverse:
            g, g_inv = rng.choice(gens)
        w, w_inv = mat_mul(w, g), mat_mul(g_inv, w_inv)
        previous_inverse = g_inv
    return w, w_inv


def permuted(rng, m: list[list[int]]) -> list[list[int]]:
    """Relabel the vertices; irreducibility and period are unchanged."""
    p = list(range(len(m)))
    rng.shuffle(p)
    return [[m[p[i]][p[j]] for j in range(len(m))] for i in range(len(m))]


def no_zero_line(m: list[list[int]]) -> bool:
    return all(any(row) for row in m) and all(any(col) for col in zip(*m))


# --- invariant reports -------------------------------------------------------


@dataclass
class ReportInput:
    kind: str
    rows: list[list[int]]
    det: int | None = None  # known by construction
    irreducible: bool | None = None
    primitive: bool | None = None
    matrix: Any = None  # the validated IntMatrix


def lu_unimodular(rng, n: int) -> ReportInput:
    """L @ U with L unit lower-triangular and U upper-triangular with a +-1
    diagonal, off-diagonal entries in [-2, 2]; det is the product of U's
    diagonal. Redrawn until some entry is negative, so no CK flags apply."""
    while True:
        lower = [[1 if i == j else rng.randint(-2, 2) if j < i else 0 for j in range(n)] for i in range(n)]
        upper = [
            [rng.choice((1, -1)) if i == j else rng.randint(-2, 2) if j > i else 0 for j in range(n)]
            for i in range(n)
        ]
        rows = mat_mul(lower, upper)
        if any(x < 0 for row in rows for x in row):
            return ReportInput("lu", rows, det=math.prod(upper[i][i] for i in range(n)))


def dense_primitive(rng, n: int) -> ReportInput:
    """Entries in [1, 20]: a positive matrix is primitive."""
    rows = [[rng.randint(1, 20) for _ in range(n)] for _ in range(n)]
    return ReportInput("dense", rows, irreducible=True, primitive=True)


def cyclic_imprimitive(rng, n: int, period: int) -> ReportInput:
    """Vertex k lies in class k mod period and every arc goes from one class
    to the next: a Hamiltonian cycle 0 -> 1 -> ... -> n-1 -> 0 (so the graph
    is strongly connected) plus two chords per vertex. Every cycle length is
    a multiple of period >= 2, so no power is positive."""
    if n % period:
        raise ValueError("n must be a multiple of the period")
    rows = [[0] * n for _ in range(n)]
    for k in range(n):
        rows[k][(k + 1) % n] = rng.randint(1, 3)
        for _ in range(2):
            rows[k][rng.randrange((k + 1) % period, n, period)] = rng.randint(1, 3)
    return ReportInput("imprimitive", permuted(rng, rows), irreducible=True, primitive=False)


def block_reducible(rng, n: int) -> ReportInput:
    """Positive diagonal blocks, nonnegative upper-right block, zero
    lower-left block: the first half is never reached from the second."""
    k = n // 2
    rows = [
        [rng.randint(1, 5) if (i < k) == (j < k) else rng.randint(0, 5) if i < k else 0 for j in range(n)]
        for i in range(n)
    ]
    return ReportInput("reducible", permuted(rng, rows), irreducible=False, primitive=False)


# (generator, size) per input; the shares are fixed so that a pass costs the
# same on every seed and the median and tail fall inside one size class.
UNIMODULAR_SCHEDULE = (
    [(lu_unimodular, 4)] * 9
    + [(lu_unimodular, 6)] * 9
    + [(lu_unimodular, 8)] * 8
    + [(lu_unimodular, 10)] * 7
    + [(lu_unimodular, 12)] * 34
    + [(lu_unimodular, 14)] * 10
    + [(lu_unimodular, 16)] * 10
    + [(lu_unimodular, 20)] * 5
    + [(lu_unimodular, 24)] * 6
    + [(lu_unimodular, 32)] * 2
)


def _imp(period):
    return lambda rng, n: cyclic_imprimitive(rng, n, period)


NONNEGATIVE_SCHEDULE = (
    [(dense_primitive, 8)] * 6
    + [(block_reducible, 8)] * 6
    + [(_imp(2), 8)] * 3
    + [(_imp(4), 8)] * 3
    + [(dense_primitive, 12)] * 9
    + [(dense_primitive, 16)] * 8
    + [(block_reducible, 12)] * 4
    + [(_imp(3), 12)] * 3
    + [(dense_primitive, 24)] * 4
    + [(block_reducible, 16)] * 3
    + [(_imp(2), 16)] * 2
    + [(_imp(4), 16)] * 2
    + [(dense_primitive, 32)] * 2
    + [(block_reducible, 20)]
    + [(_imp(3), 21)] * 6
)


class ReportWorkload:
    """One op: cli.build_report plus a JSON round trip of the report."""

    def __init__(self, schedule):
        self.schedule = schedule

    def generate(self, rng) -> list[ReportInput]:
        inputs = [make(rng, n) for make, n in self.schedule]
        rng.shuffle(inputs)  # spread each size class over the pass
        return inputs

    def prepare(self, lib, inputs, workdir):
        for item in inputs:
            item.matrix = lib.intmat.IntMatrix(item.rows)
            if item.kind == "lu":
                lib.bundle.make_bundle(item.matrix)
            else:
                lib.ck.make_descriptor(item.matrix)
        return inputs

    def run(self, lib, item, tracer=None, clock=None):
        report, _warnings = lib.cli.build_report(item.matrix)
        encoded = json.dumps(report.to_dict())
        return report, lib.cli.InvariantReport.from_dict(json.loads(encoded))

    def check(self, lib, item, output) -> bool:
        report, back = output
        n = len(item.rows)
        require(back == report, "JSON round trip changed the report")
        require(report.matrix == item.matrix, "report matrix differs from the input")
        require(report.trace == sum(item.rows[i][i] for i in range(n)), "trace")
        if item.det is not None:
            require(report.det == item.det, f"det {report.det}, constructed {item.det}")
        k0 = report.k0
        require(k0 == report.bowen_franks, "k0 differs from bowen_franks")
        require(
            report.k1.free_rank == k0.free_rank and not report.k1.invariant_factors,
            "k1 is not free of the free rank of k0",
        )
        unimodular = report.det in (1, -1)
        require(item.kind != "lu" or unimodular, "constructed unimodular, det not +-1")
        if unimodular:
            p = report.alexander
            require(p is not None and report.h1 is not None, "bundle fields missing")
            coeffs = p.coefficients
            require(len(coeffs) == n + 1 and coeffs[n] == 1, "alexander is not monic of degree n")
            require(coeffs[0] == (-1) ** n * report.det, "alexander constant term")
            require(coeffs[n - 1] == -report.trace, "alexander t^(n-1) coefficient")
            order = k0.order()
            require(abs(p(1)) == (0 if order is None else order), "|p(1)| is not the order of k0")
            require(
                (report.h1.free_rank, report.h1.invariant_factors)
                == (k0.free_rank + 1, k0.invariant_factors),
                "h1 is not Z + k0",
            )
            require(report.theorem1_check is True, "theorem1_check")
        else:
            require(report.h1 is None and report.alexander is None, "bundle fields on det != +-1")
        if item.irreducible is None:
            require(report.irreducible is None and report.primitive is None, "CK flags on signed input")
        else:
            require(report.irreducible == item.irreducible, f"irreducible={report.irreducible}")
            require(report.primitive == item.primitive, f"primitive={report.primitive}")
        return True

    @staticmethod
    def canonical(output) -> str:
        return json.dumps(output[0].to_dict(), sort_keys=True, separators=(",", ":"))


# --- pair verdicts -----------------------------------------------------------


@dataclass
class PairInput:
    kind: str  # short, long, kdiff, inverse, inverse-flip (compare path); sse, bf (se-search path)
    a: list[list[int]]
    b: list[list[int]]
    homeomorphic: bool | None = None  # known by construction
    entry_bound: int = 0
    lhs: Any = None
    rhs: Any = None


def conjugate_pair(rng, n: int, word_length: int, kind: str) -> PairInput:
    """B = W A W^-1 for a random A and a random word W of the given length."""
    a, _ = elementary_word(rng, n, 6)
    w, w_inv = elementary_word(rng, n, word_length)
    return PairInput(kind, a, mat_mul(mat_mul(w, a), w_inv), homeomorphic=True)


def companion(coeffs: list[int]) -> list[list[int]]:
    """Companion matrix of t^n - c_{n-1} t^(n-1) + ... with constant term
    (-1)^n: det 1, trace c_{n-1}. n is 2 or 3."""
    if len(coeffs) == 1:  # t^2 - x t + 1
        return [[0, -1], [1, coeffs[0]]]
    x, y = coeffs  # t^3 - x t^2 + y t - 1
    return [[0, 0, 1], [1, 0, -y], [0, 1, x]]


def kdiff_pair(rng, n: int) -> PairInput:
    """W C W^-1 for companion matrices C of two characteristic polynomials
    with nonnegative trace (so no sign normalization) and different nonzero
    |p(1)| = |det(I - C)|: K0 and the torsion of H1 differ."""
    while True:
        a, b = (companion([rng.randint(0, 9) for _ in range(n - 1)]) for _ in range(2))
        da, db = abs(small_det(i_minus(a))), abs(small_det(i_minus(b)))
        if da and db and da != db:
            break
    (wa, wa_inv), (wb, wb_inv) = elementary_word(rng, n, 2), elementary_word(rng, n, 2)
    a, b = mat_mul(mat_mul(wa, a), wa_inv), mat_mul(mat_mul(wb, b), wb_inv)
    return PairInput("kdiff", a, b, homeomorphic=False)


def inverse_pair(rng, opposite: bool) -> PairInput:
    """M = W C W^-1 against M^-1 = W C^-1 W^-1, C the companion matrix of
    t^3 - x t^2 + y t - 1, so trace M = x and trace M^-1 = y. The bundles of
    M and M^-1 are homeomorphic (reverse the base circle). Without
    `opposite`, x != y are both in [0, 6]; with it, x is in [0, 6] and y in
    [-6, -2], so only M^-1 has its sign flipped by normalize_monodromy (at
    y = -1 the K0 of -M^-1 happens to equal that of M)."""
    if opposite:
        x, y = rng.randint(0, 6), rng.randint(-6, -2)
    else:
        x, y = rng.sample(range(7), 2)
    c = companion([x, y])
    c_inv = [[y, 1, 0], [-x, 0, 1], [1, 0, 0]]
    w, w_inv = elementary_word(rng, 3, 2)
    m = mat_mul(mat_mul(w, c), w_inv)
    m_inv = mat_mul(mat_mul(w, c_inv), w_inv)
    if mat_mul(m, m_inv) != identity(3):
        raise AssertionError("companion inverse is wrong")
    return PairInput("inverse-flip" if opposite else "inverse", m, m_inv, homeomorphic=True)


def sse_pair(rng, n: int, bound: int) -> PairInput:
    """(R S, S R) with R, S in [0, bound]: (R, S, lag 1) is a witness inside
    the search box, so the pair is shift equivalent."""
    while True:
        r = [[rng.randint(0, bound) for _ in range(n)] for _ in range(n)]
        s = [[rng.randint(0, bound) for _ in range(n)] for _ in range(n)]
        a, b = mat_mul(r, s), mat_mul(s, r)
        if no_zero_line(a) and no_zero_line(b):
            return PairInput("sse", a, b, entry_bound=bound)


def bf_pair(rng) -> PairInput:
    """Nonnegative 2x2 matrices with equal trace and determinant (so equal
    trace sequences) whose Bowen-Franks groups coker(I - A) differ."""
    while True:
        a = [[rng.randint(0, 6) for _ in range(2)] for _ in range(2)]
        if not no_zero_line(a) or small_det(i_minus(a)) == 0:
            continue
        t, d = a[0][0] + a[1][1], small_det(a)
        bf_a = group_2x2(i_minus(a))
        candidates = []
        for p in range(t + 1):
            q = t - p
            rest = p * q - d  # the product of the two off-diagonal entries
            if rest < 0:
                continue
            if rest == 0:
                off = [(0, c) for c in range(7)] + [(c, 0) for c in range(1, 7)]
            else:
                off = [(x, rest // x) for x in range(1, rest + 1) if rest % x == 0]
            for u, v in off:
                b = [[p, u], [v, q]]
                if no_zero_line(b) and group_2x2(i_minus(b)) != bf_a:
                    candidates.append(b)
        if candidates:
            return PairInput("bf", a, rng.choice(candidates), entry_bound=2)


# (maker, count) per pass. As for the reports, fixed shares keep a pass's
# cost the same on every seed: 40 cheap verdicts, then the median inside the
# 2x2 SSE class (~18 ms), the p95 tail inside the 3x3 SSE class (~55 ms), and
# two exhaustive 3x3 searches (~0.7 s each).
PAIR_SCHEDULE = (
    (lambda rng: conjugate_pair(rng, 2, rng.randint(1, 2), "short"), 8),
    (lambda rng: conjugate_pair(rng, 2, 32, "long"), 6),
    (lambda rng: conjugate_pair(rng, 3, rng.randint(1, 2), "short"), 6),
    (lambda rng: kdiff_pair(rng, 2), 3),
    (lambda rng: kdiff_pair(rng, 3), 3),
    (lambda rng: inverse_pair(rng, False), 6),
    (bf_pair, 8),
    (lambda rng: sse_pair(rng, 2, 3), 40),
    (lambda rng: sse_pair(rng, 3, 1), 18),
    (lambda rng: conjugate_pair(rng, 3, 24, "long"), 2),
)

COMPARE_DEPTH = 4
SE_MAX_LAG = 3
# Pairs that compare_bundles answers wrongly at this commit (M vs M^-1 with
# opposite trace signs is called Distinct). They are kept out of the timed
# passes and checked on their own after them, with the same check, so a run
# reports the defect without counting it as a failed op.
KNOWN_DEFECT_PAIRS = 3


class PairWorkload:
    """One op: a compare_bundles verdict at depth 4, or search_se_witness
    followed by se_obstruction (the order the se-search subcommand uses)."""

    def generate(self, rng) -> list[PairInput]:
        inputs = [make(rng) for make, count in PAIR_SCHEDULE for _ in range(count)]
        rng.shuffle(inputs)
        return inputs

    def prepare(self, lib, inputs, workdir):
        for item in inputs:
            a, b = lib.intmat.IntMatrix(item.a), lib.intmat.IntMatrix(item.b)
            if item.kind in ("sse", "bf"):
                lib.ck.make_descriptor(a)
                lib.ck.make_descriptor(b)
                item.lhs, item.rhs = a, b
            else:
                item.lhs, item.rhs = lib.bundle.make_bundle(a), lib.bundle.make_bundle(b)
        return inputs

    def known_defect(self, lib, seed) -> str:
        """Check the seed's inverse-flip pairs and say how many fail."""
        rng = random.Random(f"{seed}-inverse-flip")
        items = self.prepare(lib, [inverse_pair(rng, True) for _ in range(KNOWN_DEFECT_PAIRS)], None)
        wrong = []
        for item in items:
            try:
                self.check(lib, item, self.run(lib, item))
            except CheckFailed as exc:
                wrong.append(str(exc))
        return (
            f"known defect (M vs M^-1 with opposite trace signs; not timed, not counted in "
            f"failed): {len(wrong)}/{len(items)} pairs fail their check"
            + (f"; first: {wrong[0]}" if wrong else "")
        )

    def run(self, lib, item, tracer=None, clock=None):
        if item.kind in ("sse", "bf"):
            witness = lib.sft.search_se_witness(
                item.lhs, item.rhs, max_lag=SE_MAX_LAG, entry_bound=item.entry_bound
            )
            return witness, lib.sft.se_obstruction(item.lhs, item.rhs)
        return lib.bundle.compare_bundles(item.lhs, item.rhs, search_depth=COMPARE_DEPTH)

    def check(self, lib, item, output) -> bool:
        if item.kind in ("sse", "bf"):
            witness, obstruction = output
            if witness is not None:
                require(
                    lib.sft.verify_se_witness(item.lhs, item.rhs, witness),
                    "SE witness does not verify",
                )
            if item.kind == "sse":
                require(obstruction is None, f"SSE pair reported obstructed: {obstruction}")
                require(witness is not None, "no witness although one lies in the box")
            else:
                require(witness is None, "witness for a Bowen-Franks-obstructed pair")
                require(obstruction is not None, "Bowen-Franks obstruction missed")
            return True
        verdict = output
        outcome = verdict.outcome.value
        require(outcome in ("Distinct", "Homeomorphic", "Inconclusive"), f"outcome {outcome}")
        if item.homeomorphic:
            require(outcome != "Distinct", f"homeomorphic pair called Distinct: {verdict.witness}")
        else:  # kdiff: |det(I - C)| differs by construction, and K0 is compared first
            require(
                outcome == "Distinct" and verdict.witness.startswith("K0:"),
                f"pair with different K0 not called Distinct by K0: {outcome} {verdict.witness}",
            )
        if outcome == "Homeomorphic":
            u = verdict.certificate
            require(u is not None, "Homeomorphic without a certificate")
            u = u.to_lists()
            require(small_det(u) in (1, -1), "certificate is not unimodular")
            require(mat_mul(u, item.a) == mat_mul(item.b, u), "certificate does not conjugate")
        return outcome != "Inconclusive"


# --- cold CLI processes ------------------------------------------------------

README_A = [[5, 2], [2, 1]]
README_B = [[5, 1], [4, 1]]
CLI_COMMANDS = ("invariants", "compare", "snf", "dilate", "se-search", "conj-search")
CLI_EXIT = {"compare": 1}  # Distinct; every other subcommand exits 0 here
CLI_FLAGS = {"compare": ["--depth", "4"], "se-search": ["--entry-bound", "2"]}


@dataclass
class CliInput:
    command: str
    fmt: str  # text or json
    stdin_mode: bool  # last matrix fed as JSON on stdin instead of a text file
    swapped: bool  # README's b first
    argv: list[str] = field(default_factory=list)
    stdin: str = ""

    @property
    def first(self):
        return README_B if self.swapped else README_A

    @property
    def second(self):
        return README_A if self.swapped else README_B


# The CLI's rendering is under test, so these mirror its documented formats
# instead of calling abelian.format_group.
def _group_dict(group: tuple[int, tuple[int, ...]]) -> dict:
    return {"free_rank": group[0], "invariant_factors": list(group[1])}


def _format_group(group: tuple[int, tuple[int, ...]]) -> str:
    rank, factors = group
    parts = ([] if rank == 0 else ["Z" if rank == 1 else f"Z^{rank}"]) + [f"Z_{f}" for f in factors]
    return " + ".join(parts) or "0"


def _text_rows(text: str) -> list[list[int]]:
    return [[int(x) for x in line.split()] for line in text.strip().splitlines()]


class CliWorkload:
    """One op: a fresh `python -m ckbundle.cli` process on README's inputs."""

    def generate(self, rng) -> list[CliInput]:
        inputs = [
            CliInput(cmd, fmt, stdin_mode, swapped)
            for cmd in CLI_COMMANDS
            for fmt in ("text", "json")
            for stdin_mode in (False, True)
            for swapped in (False, True)
        ]
        rng.shuffle(inputs)
        return inputs

    def prepare(self, lib, inputs, workdir):
        os.makedirs(workdir, exist_ok=True)
        files = {}
        for name, rows in (("a", README_A), ("b", README_B)):
            path = os.path.join(workdir, f"{name}.txt")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("\n".join(" ".join(map(str, row)) for row in rows) + "\n")
            with open(path, encoding="utf-8") as handle:
                if lib.cli.parse_matrix(handle.read()).to_lists() != rows:
                    raise ValueError(f"{path} does not parse back")
            files[name] = path
        for item in inputs:
            single = item.command in ("invariants", "snf", "dilate")
            names = ("b", "a") if item.swapped else ("a", "b")
            paths = [files[names[0]]] if single else [files[names[0]], files[names[1]]]
            if item.stdin_mode:
                rows = item.first if single else item.second
                item.stdin = json.dumps({"rows": rows})
                if lib.cli.parse_matrix(item.stdin).to_lists() != rows:
                    raise ValueError("JSON input does not parse back")
                paths[-1] = "-"
            args = ["--input", *paths] if single else paths
            item.argv = [item.command, *args, *CLI_FLAGS.get(item.command, []), "--format", item.fmt]
        return inputs

    def run(self, lib, item, tracer=None, clock=None):
        env = dict(os.environ)
        src = os.path.abspath("src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        if tracer is not None:
            proc = tracer.run_child(item.argv, item.stdin, env)
            return proc.returncode, proc.stdout
        cmd = [sys.executable, "-m", "ckbundle.cli", *item.argv]
        proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env
        )
        stdin = item.stdin
        try:
            while True:  # like subprocess.run, but sampling the host's speed while waiting
                try:
                    stdout, _ = proc.communicate(stdin, timeout=hostspeed.WAIT_TICK_S)
                    break
                except subprocess.TimeoutExpired:
                    stdin = None  # already sent
                    if clock is not None:
                        clock.sample_while_waiting()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        return proc.returncode, stdout

    def check(self, lib, item, output) -> bool:
        code, stdout = output
        cmd, first = item.command, item.first
        require(code == CLI_EXIT.get(cmd, 0), f"{cmd} exited {code}")
        as_json = item.fmt == "json"
        obj = json.loads(stdout) if as_json else None
        if cmd == "invariants":
            k0 = group_2x2(i_minus([list(r) for r in zip(*first)]))
            h1 = (k0[0] + 1, k0[1])
            trace = first[0][0] + first[1][1]
            alexander = [small_det(first), -trace, 1]
            if as_json:
                require(obj["k0"] == _group_dict(k0) == obj["bowen_franks"], "k0 / bowen_franks")
                require(obj["h1"] == _group_dict(h1), "h1")
                require(obj["alexander"] == alexander and obj["det"] == small_det(first), "alexander / det")
            else:
                require(f"k0:             {_format_group(k0)}\n" in stdout, "k0 line")
                require(f"h1:             {_format_group(h1)}\n" in stdout, "h1 line")
                require(f"alexander:      t^2 - {trace}t + 1\n" in stdout, "alexander line")
        elif cmd == "compare":
            if as_json:
                require(obj["verdict"] == "Distinct" and obj["witness"].startswith("K0:"), "verdict")
            else:
                require(stdout.startswith("verdict: Distinct\nwitness: K0:"), "verdict")
        elif cmd == "snf":
            if as_json:
                u, d, v = obj["u"], obj["d"], obj["v"]
                require(mat_mul(mat_mul(u, first), v) == d, "u @ a @ v != d")
                require(small_det(u) in (1, -1) and small_det(v) in (1, -1), "u or v not unimodular")
                require(obj["diagonal"] == [1, 1], "diagonal")
            else:
                require(stdout.startswith("diagonal: [1, 1]\n"), "diagonal")
        elif cmd == "dilate":
            rows = obj["rows"] if as_json else _text_rows(stdout)
            size = sum(map(sum, first))
            require(len(rows) == size and all(len(r) == size for r in rows), "dilation shape")
            require(all(x in (0, 1) for r in rows for x in r), "dilation is not 0/1")
            ones = sum(first[i][j] * sum(first[j]) for i in range(2) for j in range(2))
            require(sum(map(sum, rows)) == ones, "dilation arc count")
        elif cmd == "se-search":
            if as_json:
                require(obj["witness"] is None, "witness for a Bowen-Franks-obstructed pair")
                require("Bowen-Franks" in (obj["obstruction"] or "") and obj["definitive"], "obstruction")
            else:
                require(stdout.startswith("not shift equivalent (definitive): Bowen-Franks"), "obstruction")
        elif cmd == "conj-search":
            if as_json:
                require(obj["status"] == "not_conjugate" and "K0" in obj["obstruction"], "status")
            else:
                require(stdout.startswith("not conjugate (definitive): K0"), "status")
        return True


WORKLOADS = {
    "report-unimodular": ReportWorkload(UNIMODULAR_SCHEDULE),
    "report-nonnegative": ReportWorkload(NONNEGATIVE_SCHEDULE),
    "compare-search": PairWorkload(),
    "cli-cold": CliWorkload(),
}
