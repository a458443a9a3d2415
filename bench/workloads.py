"""The four benchmark workloads.

Each workload is a closed loop over a seeded stream of ops, grouped in
cycles with a fixed mix of op classes, so that every seed sees the same mix
and only the concrete inputs change.  A workload object is built inside the
timed set-up (it receives the freshly imported ``amplecones`` package);
``op`` is the timed call into the library, ``check`` validates its answer
with the independent code in :mod:`oracles` and returns a verdict token for
the run digest, and ``probe`` adds untimed spans in traced cycles.

Ops call the library through the package namespace (``ac.name``) so that the
tracer's wrappers on those names see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import oracles as orc


class CheckFailed(Exception):
    """An answer disagreed with its independent check."""


def require(condition, what: str) -> None:
    if not condition:
        raise CheckFailed(what)


def stream(name: str, seed: int, cycle: int) -> random.Random:
    return random.Random(f"{name}:{seed}:{cycle}")


class Workload:
    name = ""

    def probe(self, tracer, inp, result) -> None:
        """Untimed extra calls in traced cycles."""


SMALL_D = [d for d in range(2, 31) if orc.is_squarefree(d)]
# large squarefree d whose squared units have 500 to 1700 bits; 100003 twice
# so that op_ms_p90 falls inside one class of large-d ops
LARGE_D = [100043, 100019, 250007, 100003, 100003, 1000003]
MAX_WORD = 12


def small_ray(rng: random.Random, d: int, height: int = 12) -> tuple[int, int]:
    """A rational ray of height <= height inside x1^2 > d x2^2."""
    x = rng.randint(1, height)
    ymax = math.isqrt((x * x - 1) // d)
    return (x, rng.randint(-ymax, ymax))


def large_ray(rng: random.Random, d: int) -> tuple[int, int]:
    y = rng.randint(-2, 2)
    return (math.isqrt(d * y * y) + rng.randint(1, 1000), y)


class Domains(Workload):
    """real_mult_fundamental_domain(d, ray) then verify_fundamental_domain.

    A cycle runs every squarefree d <= 30 once (100 samples) and six ops
    on large d (10 samples).  Six candidates per cycle are wrong on
    purpose, cone{g^a R, g^b R} with b - a = 2, and must fail disjointness.
    """

    name = "domains"
    SMALL_SAMPLES = 100
    LARGE_SAMPLES = 10

    def __init__(self, ac, seed: int, workdir: Path) -> None:
        self.ac, self.seed = ac, seed
        self.first_cycle = self.cycle(0)

    def cycle(self, c: int) -> list:
        rng = stream(self.name, self.seed, c)
        order = SMALL_D[:]
        rng.shuffle(order)
        wrong = set(rng.sample(order, 5))
        ops = []
        for d in order:
            a, b = (0, 1) if d not in wrong else rng.choice([(0, 2), (-1, 1)])
            ops.append(("small", d, small_ray(rng, d), a, b, self.SMALL_SAMPLES, rng.randrange(2**31)))
        for d in LARGE_D:
            a, b = (0, 2) if d == LARGE_D[0] else (0, 1)
            ops.append(("large", d, large_ray(rng, d), a, b, self.LARGE_SAMPLES, rng.randrange(2**31)))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def label(inp) -> str:
        return inp[0]

    def op(self, inp):
        ac = self.ac
        _, d, ray, a, b, samples, vseed = inp
        pi, g = ac.real_mult_fundamental_domain(d, ray)
        if (a, b) == (0, 1):
            cand = pi
        elif a == 0:
            cand = ac.PolyhedralCone(2, [pi.rays[0], g.ray_image(pi.rays[1], b - 1)])
        else:
            cand = ac.PolyhedralCone(2, [g.ray_image(pi.rays[0], a), pi.rays[1]])
        report = ac.verify_fundamental_domain(cand, g, samples=samples, max_word=MAX_WORD, seed=vseed)
        return pi, g, cand, report

    def check(self, inp, result) -> str:
        _, d, ray, a, b, _, _ = inp
        pi, g, cand, report = result
        G = orc.squared_unit_generator(d)
        require(
            tuple(tuple(c for c in row) for row in g.generator) == G,
            f"d={d}: generator {g.generator} is not the squared unit {G}",
        )
        R = orc.primitive(ray)
        require(tuple(pi.rays) == (R, orc.mat2_apply(G, R)), f"d={d}: domain rays {pi.rays}")
        lo, hi = orc.mat2_apply(orc.mat2_pow(G, a), R), orc.mat2_apply(orc.mat2_pow(G, b), R)
        require(tuple(cand.rays) == (lo, hi), f"d={d}: candidate rays {cand.rays}")
        fundamental = b - a == 1
        require(report.covering_ok is True, f"d={d}: covering failed")
        require(report.disjoint_ok is fundamental, f"d={d}: disjoint_ok={report.disjoint_ok}")
        require(report.ok is fundamental, f"d={d}: verdict {report.ok}")
        overlaps = [w for w in report.witnesses if w.get("kind") == "overlap"]
        require(len(overlaps) == len(report.witnesses), f"d={d}: unexpected witness kinds")
        require(bool(overlaps) is not fundamental, f"d={d}: overlap witnesses {overlaps}")
        for w in overlaps:
            k, point = w["k"], tuple(w["point"])
            require(0 < abs(k) < b - a, f"d={d}: overlap at k={k}")
            Gk = orc.mat2_pow(G, k)
            require(
                orc.in_open_sector(point, lo, hi)
                and orc.in_open_sector(point, orc.mat2_apply(Gk, lo), orc.mat2_apply(Gk, hi)),
                f"d={d}: witness {point} is not interior to both translates",
            )
        return f"{d}:{ray}:{a}:{b}:{report.covering_ok}:{report.disjoint_ok}:{len(overlaps)}"

    def probe(self, tracer, inp, result) -> None:
        """Time the covering half and the disjointness half of a verify call
        through the public functions it is built from, and check the
        located translates."""
        ac = self.ac
        _, d, _, _, _, _, vseed = inp
        _, g, cand, _ = result
        rng = random.Random(vseed)
        points = []
        while len(points) < 6:
            x, y = rng.randint(1, 1200), rng.randint(-1200, 1200)
            if x * x > d * y * y:
                points.append((x, y))
        G = orc.squared_unit_generator(d)
        lo, hi = cand.rays
        for p in points:
            k = ac.translate_locate(p, cand, g, max_word=MAX_WORD)
            back = orc.mat2_apply(orc.mat2_pow(G, -k), p)
            require(abs(k) <= MAX_WORD and orc.in_closed_sector(back, lo, hi), f"d={d}: {p} located at k={k}")
        with tracer.span("reduction.disjointness"):
            for step in range(1, MAX_WORD + 1):
                for k in (step, -step):
                    ac.cone_intersection(cand, g.translate_cone(cand, k))


# --- matrix cones -------------------------------------------------------------------

KINDS = ("R", "C", "H")
# inputs per op, so that each op takes a millisecond or more
MATRIX_BATCH = {
    ("R", 1): 8, ("R", 2): 4, ("R", 3): 2, ("R", 4): 1,
    ("C", 1): 6, ("C", 2): 2, ("C", 3): 1, ("C", 4): 1,
    ("H", 1): 4, ("H", 2): 1, ("H", 3): 1, ("H", 4): 1,
}


def rand_scalar(rng, width: int, span: int = 2) -> tuple:
    return tuple(Fraction(rng.randint(-span, span)) for _ in range(width))


def rand_nonzero(rng, width: int) -> tuple:
    while True:
        s = rand_scalar(rng, width)
        if any(s):
            return s


class MatrixCones(Workload):
    """Criterion-5 bundles over R, C, H in sizes 1-4: PD test, LDL* witness,
    trace pairing, negative certificate with a separating dual, and action
    composition.  A cycle holds one op per (kind, size)."""

    name = "matrix-cones"

    def __init__(self, ac, seed: int, workdir: Path) -> None:
        self.ac, self.seed = ac, seed
        self.first_cycle = self.cycle(0)

    def to_lib(self, kind: str, rows, hermitian: bool):
        ac = self.ac
        conv = {
            "R": lambda t: t[0],
            "C": lambda t: ac.GaussianRational(*t),
            "H": lambda t: ac.RationalQuaternion(*t),
        }[kind]
        cls = ac.HermitianMatrix if hermitian else ac.AlgebraMatrix
        return cls(ac.ScalarKind(kind), [[conv(e) for e in row] for row in rows])

    def make_input(self, rng, kind: str, n: int):
        w = orc.KIND_WIDTH[kind]
        zero, one = orc.sreal(0, w), orc.sreal(1, w)

        def pd():
            a = [[rand_scalar(rng, w) for _ in range(n)] for _ in range(n)]
            m = orc.mat_mul(orc.mat_star(a), a)
            return [[orc.sadd(m[i][j], one) if i == j else m[i][j] for j in range(n)] for i in range(n)]

        def invertible():
            # unit lower times upper triangular with nonzero diagonal
            low = [[one if i == j else (rand_scalar(rng, w) if i > j else zero) for j in range(n)] for i in range(n)]
            up = [[rand_nonzero(rng, w) if i == j else (rand_scalar(rng, w) if i < j else zero) for j in range(n)] for i in range(n)]
            return orc.mat_mul(low, up)

        x = [[None] * n for _ in range(n)]
        for i in range(n):
            x[i][i] = orc.sreal(rng.randint(-4, 4), w)
            for j in range(i + 1, n):
                x[i][j] = rand_scalar(rng, w, 3)
                x[j][i] = orc.sconj(x[i][j])
        bad = rng.randrange(n)
        x[bad][bad] = orc.sreal(-rng.randint(1, 4), w)  # not semidefinite
        rows = {"D": pd(), "D2": pd(), "X": x, "M1": invertible(), "M2": invertible()}
        return rows, self.to_lib_inputs(kind, rows)

    def to_lib_inputs(self, kind: str, rows: dict) -> dict:
        return {k: self.to_lib(kind, v, hermitian=k in ("D", "D2", "X")) for k, v in rows.items()}

    def cycle(self, c: int) -> list:
        rng = stream(self.name, self.seed, c)
        classes = [(k, n) for k in KINDS for n in (1, 2, 3, 4)]
        rng.shuffle(classes)
        return [
            (kind, n, [self.make_input(rng, kind, n) for _ in range(MATRIX_BATCH[(kind, n)])])
            for kind, n in classes
        ]

    @staticmethod
    def label(inp) -> str:
        return f"{inp[0]}{inp[1]}"

    def op(self, inp):
        ac = self.ac
        kind, n, batch = inp
        identity = ac.HermitianMatrix.identity(ac.ScalarKind(kind), n)
        out = []
        for _, m in batch:
            D, X, M1, M2 = m["D"], m["X"], m["M1"], m["M2"]
            pd = ac.is_positive_definite(D)
            lower, delta = ac.ldl_witness(D)
            pairing = ac.trace_inner_product(D, m["D2"])
            v = ac.negative_certificate(X)
            value = ac.quadratic_value(X, v)
            shift = -value / (2 * (abs(ac.trace_inner_product(X, identity)) + 1))
            Y = ac.HermitianMatrix(
                ac.ScalarKind(kind),
                [[v[i] * v[j].conjugate() + (shift if i == j else 0) for j in range(n)] for i in range(n)],
            )
            dual_pd = ac.is_positive_definite(Y)
            separation = ac.trace_inner_product(X, Y)
            A1 = ac.act(M1, D)
            A12 = ac.act(M1 * M2, D)
            A2 = ac.act(M2, A1)
            out.append((pd, lower, delta, pairing, v, Y, dual_pd, separation, A1, A12, A2, ac.is_positive_definite(A1)))
        return out

    def check(self, inp, result) -> str:
        kind, n, batch = inp
        w = orc.KIND_WIDTH[kind]
        tokens = []
        for (rows, _), res in zip(batch, result):
            pd, lower, delta, pairing, v, Y, dual_pd, separation, A1, A12, A2, act_pd = res
            D, X = rows["D"], rows["X"]
            require(pd is True, f"{kind}{n}: PD input reported not PD")
            L = orc.as_rows(lower)
            one, zero = orc.sreal(1, w), orc.sreal(0, w)
            require(
                all(L[i][j] == (one if i == j else zero) for i in range(n) for j in range(i, n)),
                f"{kind}{n}: LDL* factor is not unit lower triangular",
            )
            require(len(delta) == n and all(p > 0 for p in delta), f"{kind}{n}: LDL* pivots {delta}")
            diag = [[orc.sreal(delta[i], w) if i == j else zero for j in range(n)] for i in range(n)]
            require(orc.mat_mul(orc.mat_mul(L, diag), orc.mat_star(L)) == D, f"{kind}{n}: LDL* does not recompose")
            require(pairing == orc.trace_pairing(D, rows["D2"]) and pairing > 0, f"{kind}{n}: trace pairing {pairing}")
            vv = [orc.components(c) for c in v]
            value = orc.quadratic(X, vv)
            require(value < 0, f"{kind}{n}: certificate value {value} is not negative")
            trace_x = sum((X[i][i][0] for i in range(n)), Fraction(0))
            shift = -value / (2 * (abs(trace_x) + 1))
            y = [
                [orc.sadd(orc.smul(vv[i], orc.sconj(vv[j])), orc.sreal(shift if i == j else 0, w)) for j in range(n)]
                for i in range(n)
            ]
            require(orc.as_rows(Y) == y, f"{kind}{n}: dual matrix differs")
            require(dual_pd is True and orc.is_pd(y), f"{kind}{n}: separating dual is not PD")
            require(separation == orc.trace_pairing(X, y) and separation < 0, f"{kind}{n}: dual does not separate")
            m1, m2 = rows["M1"], rows["M2"]
            a1 = orc.congruence(m1, D)
            require(orc.as_rows(A1) == a1, f"{kind}{n}: act(M1, D) differs")
            require(orc.as_rows(A12) == orc.congruence(orc.mat_mul(m1, m2), D), f"{kind}{n}: act(M1 M2, D) differs")
            require(orc.as_rows(A2) == orc.congruence(m2, a1), f"{kind}{n}: act(M2, act(M1, D)) differs")
            require(act_pd is True, f"{kind}{n}: image of a PD matrix reported not PD")
            tokens.append(f"{pd}:{pairing}:{value}:{dual_pd}:{separation}:{act_pd}")
        return f"{kind}{n}|" + "|".join(tokens)


# --- polyhedral cones ----------------------------------------------------------------

POOL_PER_DIM = 24
# the pairs of one cycle, the same in every cycle and for every seed
_pairs = random.Random("poly-cones:schedule")
SCHEDULE = [(dim, *_pairs.sample(range(POOL_PER_DIM), 2)) for dim in [3] * 24 + [4] * 8]


class PolyCones(Workload):
    """Pairs of 3-d and 4-d pool cones (dim to dim + 3 generators, built
    once in set-up): closed and interior membership on both, then their
    intersection, which is queried once.  Each pool cone is queried with four
    points, closed and interior, whenever one of its pairs comes up; a cycle
    holds 24 3-d pairs and 8 4-d pairs.

    Double-description cost varies tenfold between pairs, so the pool's
    combinatorial types and the pairs of a cycle are fixed; the seed picks a
    signed coordinate permutation per dimension, the query points and the
    order of the pairs.  Every seed and every cycle thus does the same
    polyhedral work, in other coordinates.
    """

    name = "poly-cones"

    def __init__(self, ac, seed: int, workdir: Path) -> None:
        self.ac, self.seed = ac, seed
        types = random.Random("poly-cones:pool")
        rng = stream(self.name, seed, -1)
        self.pool = {3: [], 4: []}
        for dim in (3, 4):
            perm, signs = rng.sample(range(dim), dim), [rng.choice((1, -1)) for _ in range(dim)]
            for index in range(POOL_PER_DIM):
                rays = [
                    tuple(signs[k] * r[perm[k]] for k in range(dim))
                    for r in self.random_rays(types, dim, dim + index % 4)
                ]
                self.pool[dim].append((rays, ac.PolyhedralCone(dim, rays)))
        self.facet_cache = {}
        self.first_cycle = self.cycle(0)

    @staticmethod
    def random_rays(rng, dim: int, m: int) -> list:
        """m pairwise non-proportional integer rays spanning the space, all
        in one open half-space (so the cone is pointed)."""
        c = [rng.randint(1, 3) for _ in range(dim)]
        while True:
            rays, keys = [], set()
            while len(rays) < m:
                v = [rng.randint(-4, 4) for _ in range(dim)]
                s = orc.dot(c, v)
                if s == 0:
                    continue
                v = orc.primitive(v if s > 0 else [-x for x in v])
                if v not in keys:
                    keys.add(v)
                    rays.append(v)
            if orc.rank(rays) == dim:
                return rays

    def points(self, rng, rays, dim: int) -> list:
        inside = [
            tuple(sum(rng.randint(1, 3) * r[i] for r in rays) for i in range(dim)) for _ in range(2)
        ]
        return inside + [rng.choice(rays), tuple(rng.randint(-5, 5) for _ in range(dim))]

    def cycle(self, c: int) -> list:
        rng = stream(self.name, self.seed, c)
        ops = []
        for dim, i, j in SCHEDULE:
            pa, pb = self.pool[dim][i][0], self.pool[dim][j][0]
            ops.append((dim, i, j, self.points(rng, pa, dim), self.points(rng, pb, dim), rng.random() < 0.5))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def label(inp) -> str:
        return f"d{inp[0]}"

    def op(self, inp):
        ac = self.ac
        dim, i, j, pts_a, pts_b, interior_last = inp
        A, B = self.pool[dim][i][1], self.pool[dim][j][1]
        verdicts = []
        for cone, pts in ((A, pts_a), (B, pts_b)):
            for p in pts:
                verdicts.append(ac.poly_member(cone, p))
                verdicts.append(ac.poly_member(cone, p, interior=True))
        C = ac.cone_intersection(A, B)
        last = None
        if C is not None:
            point = tuple(sum(r[k] for r in C.rays) for k in range(dim))
            last = ac.poly_member(C, point, interior=interior_last)
        return verdicts, C, last

    def facets(self, dim: int, index: int) -> list:
        key = (dim, index)
        if key not in self.facet_cache:
            self.facet_cache[key] = orc.facets(self.pool[dim][index][0], dim)
        return self.facet_cache[key]

    def check(self, inp, result) -> str:
        dim, i, j, pts_a, pts_b, interior_last = inp
        verdicts, C, last = result
        expected = []
        for index, pts in ((i, pts_a), (j, pts_b)):
            rays, normals = self.pool[dim][index][0], self.facets(dim, index)
            for p in pts:
                closed = orc.caratheodory_member(rays, p, dim)
                if closed != all(orc.dot(n, p) >= 0 for n in normals):
                    raise RuntimeError("closed-membership oracles disagree")
                expected += [closed, all(orc.dot(n, p) > 0 for n in normals)]
        require(verdicts == expected, f"d{dim} pair ({i},{j}): membership {verdicts} != {expected}")
        normals = self.facets(dim, i) + self.facets(dim, j)
        rays = orc.intersection_rays(normals, dim)
        got = set() if C is None else set(C.rays)
        require(got == rays and (C is None) == (not rays), f"d{dim} pair ({i},{j}): intersection {got} != {rays}")
        if C is not None:
            point = tuple(sum(r[k] for r in C.rays) for k in range(dim))
            strict = interior_last
            want = all((orc.dot(n, point) > 0) if strict else (orc.dot(n, point) >= 0) for n in normals)
            require(last is want, f"d{dim} pair ({i},{j}): query on the intersection")
        return f"{dim}:{i}:{j}:{''.join('1' if v else '0' for v in verdicts)}:{sorted(got)}:{last}"



# --- command line --------------------------------------------------------------------

FORMS = list(orc.FORM_RULES)
MALFORMED_ARGV = [
    ["reduce"],
    ["nosuch-command"],
    ["funddomain", "--d", "x"],
    ["picard"],
    ["surface", "--a", "2"],
]


def sl2z_word(rng, length: int, big: int):
    """A product of shears T^k (|k| <= big) and rotations S."""
    u = ((1, 0), (0, 1))
    for _ in range(length):
        k = rng.randint(-big, big)
        for step in (((1, k), (0, 1)), ((0, -1), (1, 0))):
            u = (
                (u[0][0] * step[0][0] + u[0][1] * step[1][0], u[0][0] * step[0][1] + u[0][1] * step[1][1]),
                (u[1][0] * step[0][0] + u[1][1] * step[1][0], u[1][0] * step[0][1] + u[1][1] * step[1][1]),
            )
    return u


def reduced_form(rng, span: int):
    while True:
        g11 = rng.randint(1, span)
        g22 = rng.randint(g11, span + g11)
        g12 = rng.randint(-(g11 // 2), g11 // 2)
        if orc.is_reduced_form(g11, g12, g22):
            return (g11, g12, g22)


class CliQueries(Workload):
    """Every subcommand through cli.main(argv) in process, stdout captured in
    memory.  A cycle holds the four model subcommands, two surfaces, two
    reductions, funddomain, two verifies (one domain, one wrong candidate),
    render and two malformed command lines."""

    name = "cli-queries"
    SAMPLES = 15
    MODELS = 12

    def __init__(self, ac, seed: int, workdir: Path) -> None:
        import amplecones.cli as cli

        self.ac, self.cli, self.seed = ac, cli, seed
        rng = stream(self.name, seed, -1)
        workdir.mkdir(parents=True, exist_ok=True)
        self.models = []
        for index in range(self.MODELS):
            model = {
                "factors": [
                    {"id": f"X{k}", "albert": {"form": rng.choice(FORMS), "m": rng.randint(1, 3)}, "n": rng.randint(1, 3)}
                    for k in range(rng.randint(1, 3))
                ]
            }
            if index % 4 == 0:  # keep some models rationally polyhedral
                for f in model["factors"]:
                    f.update(albert={"form": "RealSplit", "m": 1}, n=1)
            path = workdir / f"model{index}.json"
            path.write_text(json.dumps(model), encoding="utf-8")
            self.models.append((str(path), model))
        broken = workdir / "broken.json"
        broken.write_text('{"factors": [', encoding="utf-8")
        unknown = workdir / "unknown.json"
        unknown.write_text(json.dumps({"factors": [{"id": "E", "albert": {"form": "Octo", "m": 1}, "n": 1}]}), encoding="utf-8")
        self.bad_models = [str(broken), str(unknown)]
        self.primes = orc.primes_between(30000, 34000)
        self.first_cycle = self.cycle(0)

    def cycle(self, c: int) -> list:
        rng = stream(self.name, self.seed, c)
        ops = []
        for command in ("decompose", "picard", "amplecone", "bauer"):
            path, model = rng.choice(self.models)
            ops.append((command, [command, "--model", path], ("model", model)))
        # irrational boundary: a = s1^2 p1, b = s2^2 p2 with large primes
        p1, p2 = rng.sample(self.primes, 2)
        s1, s2 = rng.choice([(1, 1), (2, 3), (5, 1), (1, 7), (3, 4)])
        a, b = s1 * s1 * p1, s2 * s2 * p2
        ops.append(("surface", ["surface", "--a", str(a), "--b", str(b)], ("surface", a, b)))
        m, s1, s2 = rng.choice([2, 3, 5, 7, 11]), rng.randint(1, 400), rng.randint(1, 400)
        ops.append(("surface", ["surface", "--a", str(m * s1 * s1), "--b", str(m * s2 * s2)], ("surface", m * s1 * s1, m * s2 * s2)))
        for length, big in ((8, 30), (2, 10**6)):
            g0 = reduced_form(rng, 10**4)
            g = orc.form_transform(g0, sl2z_word(rng, length, big))
            ops.append(("reduce", ["reduce", "--form", ",".join(map(str, g))], ("reduce", g, g0)))
        d = rng.choice(SMALL_D)
        ray = small_ray(rng, d)
        seed = str(rng.randrange(10**6))
        ops.append((
            "funddomain",
            ["funddomain", "--d", str(d), "--ray", f"{ray[0]},{ray[1]}", "--samples", str(self.SAMPLES), "--seed", seed],
            ("funddomain", d, ray),
        ))
        for power in (1, 2):
            d = rng.choice(SMALL_D)
            R = orc.primitive(small_ray(rng, d))
            top = orc.mat2_apply(orc.mat2_pow(orc.squared_unit_generator(d), power), R)
            pi = f"{R[0]},{R[1]};{top[0]},{top[1]}"
            ops.append((
                "verify",
                ["verify", "--d", str(d), "--pi", pi, "--samples", str(self.SAMPLES), "--seed", str(rng.randrange(10**6))],
                ("verify", power == 1),
            ))
        d, k_range = rng.choice(SMALL_D), rng.randint(2, 4)
        ray = small_ray(rng, d)
        ops.append(("render", ["render", "--d", str(d), "--ray", f"{ray[0]},{ray[1]}", "--k-range", str(k_range)], ("render", d, ray, k_range)))
        semantic = [
            ["reduce", "--form", f"{rng.randint(1, 9)},{rng.randint(10, 20)},{rng.randint(1, 9)}"],
            ["funddomain", "--d", str(rng.choice([4, 8, 12, 18, 20, 24, 27, 28])), "--samples", "5"],
            ["verify", "--d", "2", "--pi", ";"],
            ["decompose", "--model", rng.choice(self.bad_models)],
            ["surface", "--a", "0", "--b", str(rng.randint(1, 9))],
        ]
        for argv in (rng.choice(MALFORMED_ARGV), rng.choice(semantic)):
            ops.append(("malformed", argv, ("malformed",)))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def label(inp) -> str:
        return inp[0]

    def op(self, inp):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(list(inp[1]))
        return code, out.getvalue(), err.getvalue()

    def check(self, inp, result) -> str:
        command, argv, spec = inp
        code, out, err = result
        what = " ".join(argv)
        if spec[0] == "malformed":
            require(code == 2 and out == "" and "Traceback" not in err, f"{what}: exit {code}")
            return f"{command}:{code}"
        if spec[0] == "render":
            require(code == 0, f"{what}: exit {code}")
            self.check_svg(out, *spec[1:], what)
            return f"{command}:{code}:{len(out)}"
        payload = json.loads(out)
        expected, want_code = self.expected(command, spec)
        require(code == want_code, f"{what}: exit {code}")
        require(orc.json_subset(expected, payload), f"{what}: {payload} does not contain {expected}")
        if command == "reduce":
            u = payload["u"]
            require(
                u[0][0] * u[1][1] - u[0][1] * u[1][0] == 1 and orc.form_transform(spec[1], u) == spec[2],
                f"{what}: U^T G U != Gred for U = {u}",
            )
        return f"{command}:{code}:{json.dumps(expected, sort_keys=True)}"

    def expected(self, command: str, spec):
        kind = spec[0]
        if kind == "model":
            return orc.model_expected(command, spec[1]), 0
        if kind == "surface":
            _, a, b = spec
            ratio = Fraction(a, b)
            num, den = ratio.numerator, ratio.denominator
            rn, rd = math.isqrt(num), math.isqrt(den)
            if rn * rn == num and rd * rd == den:
                return {"rational_polyhedral": True, "rays": [[rd, rn], [rd, -rn]]}, 0
            return {"rational_polyhedral": False, "rays": f"v1 ± ({sqrt_text(num)}/{sqrt_text(den)}) v2"}, 0
        if kind == "reduce":
            _, g, g0 = spec
            return {"gred": list(g0)}, 0
        if kind == "funddomain":
            _, d, ray = spec
            G = orc.squared_unit_generator(d)
            R = orc.primitive(ray)
            report = {"covering_ok": True, "disjoint_ok": True, "witnesses": []}
            return {"pi": [list(R), list(orc.mat2_apply(G, R))], "g": [list(r) for r in G], "report": report}, 0
        _, fundamental = spec
        if fundamental:
            return {"covering_ok": True, "disjoint_ok": True, "witnesses": []}, 0
        return {"covering_ok": True, "disjoint_ok": False}, 1

    def check_svg(self, svg: str, d: int, ray, k_range: int, what: str) -> None:
        require(svg.startswith('<svg xmlns="http://www.w3.org/2000/svg"') and svg.endswith("</svg>\n"), f"{what}: not an SVG document")
        paths = [line for line in svg.splitlines() if line.startswith("<path ")]
        lines = [line for line in svg.splitlines() if line.startswith("<line ")]
        require(len(paths) == 2 * k_range + 1 and len(lines) == 2, f"{what}: {len(paths)} wedges, {len(lines)} lines")
        G = orc.squared_unit_generator(d)
        R = orc.primitive(ray)
        base = (R, orc.mat2_apply(G, R))
        for k, path in zip(range(-k_range, k_range + 1), paths):
            coords = path.split('d="M ')[1].split(' Z"')[0].replace("L ", "").split()
            points = [tuple(map(float, c.split(","))) for c in coords]
            require(points[0] == (30.0, 210.0), f"{what}: wedge apex {points[0]}")
            for r, (x, y) in zip((orc.mat2_apply(orc.mat2_pow(G, k), b) for b in base), points[1:]):
                h = math.hypot(float(r[0]), float(r[1]))
                ex, ey = 30.0 + 360.0 * float(r[0]) / h, 210.0 - 360.0 * float(r[1]) / h
                require(abs(x - ex) < 2e-3 and abs(y - ey) < 2e-3, f"{what}: wedge {k} vertex ({x}, {y})")

    def probe(self, tracer, inp, result) -> None:
        """The direct library call on the same input, for cli.overhead."""
        command, argv, spec = inp
        if command == "malformed":
            return
        ac, cli = self.ac, self.cli
        with tracer.span(f"cli.direct.{command}"):
            if spec[0] == "model":
                with open(argv[2], encoding="utf-8") as handle:
                    model = ac.model_from_json_dict(json.load(handle))
                {
                    "decompose": ac.endo_real_decomposition,
                    "picard": ac.picard_number,
                    "amplecone": ac.ample_cone,
                    "bauer": ac.bauer_rational_polyhedral,
                }[command](model)
            elif command == "surface":
                ac.surface_nef_data(Fraction(argv[2]), Fraction(argv[4]))
            elif command == "reduce":
                ac.minkowski_reduce(ac.IntegralForm(*map(int, argv[2].split(","))))
            elif command == "funddomain":
                pi, g = ac.real_mult_fundamental_domain(int(argv[2]), tuple(map(Fraction, argv[4].split(","))))
                ac.verify_fundamental_domain(pi, g, samples=int(argv[6]), max_word=MAX_WORD, seed=int(argv[8]))
            elif command == "verify":
                rays = [tuple(map(Fraction, r.split(","))) for r in argv[4].split(";")]
                pi = ac.PolyhedralCone(2, rays)
                _, g = ac.real_mult_fundamental_domain(int(argv[2]), pi.rays[0])
                ac.verify_fundamental_domain(pi, g, samples=int(argv[6]), max_word=MAX_WORD, seed=int(argv[8]))
            else:
                pi, g = ac.real_mult_fundamental_domain(int(argv[2]), tuple(map(Fraction, argv[4].split(","))))
                cli.render_svg(pi, g, int(argv[6]))


def sqrt_text(n: int) -> str:
    root = math.isqrt(n)
    if root * root == n:
        return str(root)
    s, d = orc.squarefree_split(n)
    return f"{'' if s == 1 else s}√{d}"


WORKLOADS = {w.name: w for w in (Domains, MatrixCones, PolyCones, CliQueries)}
