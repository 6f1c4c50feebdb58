"""The four benchmark workloads: seeded inputs, the timed call, the check.

Each workload is a closed loop with one caller.  `rounds(seed)` yields the
requests in rounds; `call` is one operation as a user of the command line
would trigger it; `check` compares a result with a reference from `refs`,
which the layer under test did not compute, and returns a description of
the wrong answer or None.  Why each workload exists is in README.md next to
this file.

The library is reached through its module objects (`classifier.classify`,
not a name imported from it) so that a traced run sees every call.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import random
from contextlib import redirect_stdout
from itertools import count
from pathlib import Path

from nmsflow import cli, expressions, homology, manifolds

import refs

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "data" / "golden_classify.tsv"


def _log_int(rng: random.Random, digits: int) -> int:
    """A positive int whose number of decimal digits is uniform in 1..digits."""
    d = rng.randint(1, digits)
    return rng.randrange(10 ** (d - 1), 10 ** d)


def _coprime_to(rng: random.Random, l: int, digits: int) -> int:
    """A signed int m with gcd(l, m) = 1 (so m = +/-1 when l = 0)."""
    if l == 0:
        return rng.choice((-1, 1))
    while True:
        m = rng.choice((-1, 1)) * _log_int(rng, digits)
        if math.gcd(l, m) == 1:
            return m


# --------------------------------------------------------------------------
# classify_stream


def _golden_rows():
    rows = []
    for line in GOLDEN.read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        quad, case, canonical = line.split("\t")
        rows.append((tuple(int(v) for v in quad.split()), int(case), canonical))
    return rows


class ClassifyStream:
    """`classify --json` on a seeded stream of admissible quadruples.

    Cases 1..7 are drawn uniformly; entries have 1 to 12 decimal digits,
    uniformly, so values range from single digits to about 10^12 and almost
    never repeat.  Every GOLDEN_EVERY-th request is the next row of the
    frozen golden table, checked against its exact expected output.
    """

    name = "classify_stream"
    # Short rounds: a host stall then spoils few of them, and the median over
    # rounds ignores those.
    ROUND = 100
    GOLDEN_EVERY = 50
    DIGITS = 12
    DEADLINE_S = 1.0  # successful requests take well under 10 ms

    def __init__(self):
        self.golden = _golden_rows()

    def _side(self, rng, kind):
        """One (l, m) side: kind 'zero' (l = 0), 'unit' (|l| = 1), 'big'."""
        if kind == "zero":
            return 0, rng.choice((-1, 1))
        if kind == "unit":
            return rng.choice((-1, 1)), rng.choice((-1, 1)) * _log_int(rng, self.DIGITS)
        l = rng.choice((-1, 1)) * (1 + _log_int(rng, self.DIGITS))
        return l, _coprime_to(rng, l, self.DIGITS)

    def _quadruple(self, rng):
        sides = {1: ("zero", "big"), 2: ("big", "zero"), 3: ("zero", "zero"),
                 4: ("unit", "big"), 5: ("big", "unit"), 6: ("unit", "unit"),
                 7: ("big", "big")}[rng.randint(1, 7)]
        l1, m1 = self._side(rng, sides[0])
        if l1 == 0 and rng.random() < 0.5:
            m1 = 2  # the inessential marker (0, 2)
        l2, m2 = self._side(rng, sides[1])
        return (l1, m1, l2, m2)

    def rounds(self, seed):
        rng = random.Random(seed)
        golden = count()
        while True:
            batch = []
            for i in range(self.ROUND):
                if i % self.GOLDEN_EVERY == self.GOLDEN_EVERY // 2:
                    quad, case, canonical = self.golden[next(golden) % len(self.golden)]
                    batch.append((quad, (case, canonical)))
                else:
                    batch.append((self._quadruple(rng), None))
            yield batch

    def deadline_s(self, request):
        return self.DEADLINE_S

    def call(self, request):
        l1, m1, l2, m2 = request[0]
        return _run_cli(cli._cmd_classify,
                        argparse.Namespace(l1=l1, m1=m1, l2=l2, m2=m2, json=True))

    def check(self, request, result):
        quad, golden = request
        rc, text = result
        if rc != 0:
            return f"{quad}: classify --json exited {rc}"
        out = json.loads(text)
        case = refs.case_of(quad[0], quad[2])
        if out["case"] != case:
            return f"{quad}: case {out['case']}, table says {case}"
        free, order, torsion = refs.classify_h1(*quad)
        got = out["h1"]
        got_order = 0 if got["free_rank"] else math.prod(got["torsion"])
        if (got["free_rank"], got_order) != (free, order) or (
                torsion is not None and tuple(got["torsion"]) != torsion):
            return f"{quad}: h1 {got}, closed form rank {free} order {order}"
        canonical = out["canonical"]
        if expressions.render_manifold(expressions.parse_manifold(canonical)) != canonical:
            return f"{quad}: {canonical!r} does not parse back to itself"
        if golden is not None and (out["case"], out["canonical"]) != golden:
            return f"{quad}: {out['case']} {out['canonical']!r}, golden {golden}"
        return None


# --------------------------------------------------------------------------
# enumerate_sweep and selfcheck_battery: one command per operation


def _run_cli(command, args):
    """Run a command function of `cli`; return its exit code and stdout."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = command(args)
    return rc, buf.getvalue()


class EnumerateSweep:
    """`nmsflow enumerate --bound 10`: 65,792 quadruples in 571 classes."""

    name = "enumerate_sweep"
    BOUND = 10
    # sha256 of the command's stdout, frozen at the commit that added it.
    DIGEST = "52e8699ebddfa4bc8b26634fdb6412c38ea4dc96b65d414bfb5caa0d2469b1b1"
    DEADLINE_S = 60.0  # one sweep takes about 4 s

    def rounds(self, seed):
        while True:
            yield [self.BOUND]

    def deadline_s(self, request):
        return self.DEADLINE_S

    def call(self, request):
        return _run_cli(cli.main, ["enumerate", "--bound", str(request)])

    def check(self, request, result):
        rc, text = result
        if rc != 0:
            return f"enumerate --bound {request} exited {rc}"
        members = sum(int(line.split("count=")[1].split()[0])
                      for line in text.splitlines())
        expected = refs.admissible_count(request)
        if members != expected:
            return f"enumerate --bound {request}: {members} members, {expected} admissible"
        digest = hashlib.sha256(text.encode()).hexdigest()
        if digest != self.DIGEST:
            return f"enumerate --bound {request}: output digest {digest}"
        return None


class SelfcheckBattery:
    """`nmsflow selfcheck --bound 6`, the only caller of surgery and selfcheck."""

    name = "selfcheck_battery"
    BOUND = 6
    DEADLINE_S = 60.0  # one battery takes about 2 s

    def rounds(self, seed):
        while True:
            yield [self.BOUND]

    def deadline_s(self, request):
        return self.DEADLINE_S

    def call(self, request):
        return _run_cli(cli.main, ["selfcheck", "--bound", str(request)])

    def check(self, request, result):
        rc, text = result
        if rc != 0:
            tail = text.strip().splitlines()[-1:] or [""]
            return f"selfcheck --bound {request} exited {rc}: {tail[0]}"
        return None


# --------------------------------------------------------------------------
# expr_mix


def render(summands) -> str:
    """Expression text of a structure: a list of summand tuples."""
    parts = []
    for s in summands:
        if s[0] == "L":
            parts.append(f"L({s[1]},{s[2]})")
        elif s[0] == "SFS":
            parts.append("SFS(S2; " + ",".join(f"({a},{b})" for a, b in s[1]) + ")")
        else:
            parts.append(s[0])
    return " # ".join(parts)


def exceptional(summand) -> int:
    """Number of exceptional fibers (alpha >= 2) of a Seifert summand."""
    return sum(1 for alpha, _ in summand[1] if alpha >= 2)


class ExprMix:
    """Interleaved `h1` and `homeo` requests on seeded expression text.

    An expression is a connected sum of 1 to MAX_SUMMANDS summands (count
    log-uniform, stratified within each round).  Exactly one summand is the
    request's large Seifert fibration over S2; the others are atoms, lens
    spaces L(p, q) with |p| up to 10^4, or small Seifert fibrations with 1
    to 3 exceptional fibers.
    Exceptional fibers have alpha in 2..12; a Seifert summand may also carry
    an ordinary fiber (1, b).

    The composition of each round is fixed and only the values are seeded:
    requests alternate h1 and homeo; the large summand's fiber count steps
    through 1..H1_MAX_FIBERS in h1 requests and 1..MAX_FIBERS in homeo
    requests, where each count gets one true and one false pair.  The cost
    of the 2^k key search is then the same in every run, which keeps the
    run-to-run spread small.

    A `homeo` pair is true by construction (the right side is the left side
    rewritten by moves that keep the manifold) or false by construction (one
    beta perturbed so that the H1 order, computed by `refs`, changes; the
    same moves are then applied so the text differs throughout).

    No operation of this workload fails at the commit that added it.  Two
    known defects are kept out, and `defects.py` measures them apart:
    - h1 of a Seifert summand with 5 or more fibers can stall the Smith
      normal form, so h1 requests stop at H1_MAX_FIBERS;
    - the lens conversion of a summand with exactly two exceptional fibers
      (ROADMAP item 3) can call a false pair true, so a false pair never
      perturbs such a summand.
    """

    name = "expr_mix"
    MAX_SUMMANDS = 40
    MAX_FIBERS = 12
    H1_MAX_FIBERS = 4
    SMALL_FIBERS = 3
    ROUND = 4 * MAX_FIBERS  # 24 h1 requests, 24 homeo requests
    KINDS = (("atom", 0.25), ("L", 0.5), ("SFS", 0.25))
    # Successful h1 requests take under 20 ms and homeo requests at most
    # about 0.5 s (two 12-fiber keys); see README.md.
    DEADLINE_S = 5.0

    def _fibers(self, rng, k):
        fibers = []
        for _ in range(k):
            alpha = rng.randint(2, 12)
            while True:
                beta = rng.randint(-2 * alpha, 2 * alpha)
                if math.gcd(alpha, beta) == 1:
                    break
            fibers.append((alpha, beta))
        if rng.random() < 0.5:
            fibers.insert(rng.randrange(len(fibers) + 1), (1, rng.randint(-2, 2)))
        return fibers

    def _summand(self, rng):
        r = rng.random()
        if r < self.KINDS[0][1]:
            return (rng.choice(("S3", "S2xS1", "RP3")),)
        if r < self.KINDS[0][1] + self.KINDS[1][1]:
            p = rng.choice((-1, 1)) * int(10 ** rng.uniform(0, 4))
            return ("L", p, _coprime_to(rng, p, 4))
        return ("SFS", self._fibers(rng, rng.randint(1, self.SMALL_FIBERS)))

    def _sizes(self, rng, count):
        """`count` summand counts, log-uniform in 1..MAX_SUMMANDS, stratified
        so that every round holds the same spread of sizes."""
        top = math.log(self.MAX_SUMMANDS + 1)
        sizes = [min(self.MAX_SUMMANDS, int(math.exp(top * (j + rng.random()) / count)))
                 for j in range(count)]
        rng.shuffle(sizes)
        return sizes

    def _expression(self, rng, k, n):
        summands = [self._summand(rng) for _ in range(n - 1)]
        summands.insert(rng.randrange(n), ("SFS", self._fibers(rng, k)))
        return summands

    def _moved(self, rng, summands):
        """The same manifold, rewritten by homeomorphism-preserving moves."""
        out = []
        for s in summands:
            if s[0] == "L":
                p, q = s[1], s[2]
                out.append(("L", p, rng.choice((-q, q + p, q))))
            elif s[0] == "SFS":
                fibers = list(s[1])
                i = rng.randrange(len(fibers))
                alpha, beta = fibers[i]
                if alpha >= 2 and rng.random() < 0.5:
                    t = rng.choice((-2, -1, 1, 2))
                    fibers[i] = (alpha, beta + t * alpha)
                    fibers.append((1, -t))
                if rng.random() < 0.3:
                    fibers.append((1, 0))
                rng.shuffle(fibers)
                out.append(("SFS", fibers))
            else:
                out.append(s)
        if rng.random() < 0.3:
            out.append(("S3",))
        rng.shuffle(out)
        return out

    def _perturbed(self, rng, summands, two_fiber=False):
        """A copy with one beta changed so that the H1 order changes, or None.

        The beta is that of a Seifert summand with exactly two exceptional
        fibers when `two_fiber` is true, and with any other number otherwise.
        """
        order = refs.expression_order(summands)
        sites = [(i, j) for i, s in enumerate(summands)
                 if s[0] == "SFS" and (exceptional(s) == 2) == two_fiber
                 for j, (alpha, _) in enumerate(s[1]) if alpha >= 2]
        rng.shuffle(sites)
        for i, j in sites:
            fibers = list(summands[i][1])
            alpha, beta = fibers[j]
            for delta in rng.sample((-3, -2, -1, 1, 2, 3), 6):
                if math.gcd(alpha, beta + delta) != 1:
                    continue
                fibers[j] = (alpha, beta + delta)
                other = summands[:i] + [("SFS", fibers)] + summands[i + 1:]
                if refs.expression_order(other) != order:
                    return other
        return None

    def h1_request(self, rng, k, n):
        left = self._expression(rng, k, n)
        return ("h1", render(left), refs.expression_order(left))

    def homeo_request(self, rng, k, n, same, two_fiber=False):
        left = self._expression(rng, k, n)
        if same:
            return ("homeo", render(left), render(self._moved(rng, left)), True)
        # When the large summand cannot take the change, another must.
        n = max(n, 2) if (k == 2) != two_fiber else n
        while True:
            other = self._perturbed(rng, left, two_fiber)
            if other is not None:
                return ("homeo", render(left), render(self._moved(rng, other)), False)
            left = self._expression(rng, k, n)

    def rounds(self, seed):
        rng = random.Random(seed)
        half = self.ROUND // 2
        while True:
            h1_sizes, homeo_sizes = self._sizes(rng, half), self._sizes(rng, half)
            batch = []
            for j in range(half):
                batch.append(self.h1_request(rng, 1 + j % self.H1_MAX_FIBERS, h1_sizes[j]))
                batch.append(self.homeo_request(rng, 1 + j % self.MAX_FIBERS, homeo_sizes[j],
                                                same=j < self.MAX_FIBERS))
            yield batch

    def deadline_s(self, request):
        return self.DEADLINE_S

    def call(self, request):
        if request[0] == "h1":
            m = expressions.parse_manifold(request[1])
            return m, expressions.render_manifold(m), homology.h1(m)
        left = expressions.parse_manifold(request[1])
        right = expressions.parse_manifold(request[2])
        return manifolds.homeomorphic(left, right)

    def check(self, request, result):
        if request[0] == "h1":
            m, text, group = result
            if group.order() != request[2]:
                return f"h1 {request[1]!r}: {group}, order should be {request[2]}"
            if expressions.parse_manifold(text) != m:
                return f"h1 {request[1]!r}: canonical {text!r} does not parse back"
            return None
        if result is not request[3]:
            return (f"homeo {request[1]!r} {request[2]!r}: {result}, "
                    f"{'same manifold' if request[3] else 'H1 orders differ'}")
        return None


WORKLOADS = {w.name: w for w in (ClassifyStream, EnumerateSweep, ExprMix, SelfcheckBattery)}
