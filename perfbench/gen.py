"""Seeded input generator for the nambu benchmark; it does not import nambu.

    python3 perfbench/gen.py --workload query --seed 1 --out jobs.json

Writes the jobs of one round of a workload, in the order they run. Each job
carries the CLI arguments and stdin text the program receives, plus an
"expect" record with what the construction knows about the answer; only the
checker reads "expect". Pass inputs are built to pass (normal forms moved by
coordinate changes, products h * dg_1 ^ ... ^ dg_p with h(0) != 0) and fail
inputs are built to fail (sums of two decomposable forms whose factors are
independent at the origin), so no verdict is taken from the program itself.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
from fractions import Fraction

import algebra as A

# (n, q, N) of the linearize jobs; see README.md for the costs behind the mix.
# (4, 3, 4) and (5, 4, 3) cost about the same and sit in the middle of the
# job costs, so four draws of each keep the median job time on a cluster. The
# list runs twice, so that one draw of a support weighs less in a round.
TYPE1_CONFIGS = [(4, 3, 3), (4, 3, 4), (4, 3, 4), (5, 3, 3), (5, 3, 4), (6, 3, 3),
                 (5, 4, 3), (5, 4, 3)] * 2
# remove_multiplier calls: (n, q) with N = 4
MULTIPLIER_CONFIGS = [(4, 3), (5, 3)]
# A perturbation x_i -> x_i + a x_{i+u} x_{i+v} + b x_{i+u'} x_{i+v'} (indices
# mod n) has a support of two of these quadratic monomials (u, v).
MONOMIALS = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
SUPPORTS = list(itertools.combinations(MONOMIALS, 2))
# the support of the linearize --type2 jobs outside the (4, 3, 3) grid; at
# (5, 4, 3) other supports cost up to 27 s a job, and four of them crash the
# program (README.md)
TYPE2_FIXED_SUPPORT = ((0, 1), (1, 1))
# x_i -> x_i + a x_{i+1}^2 + b x_i x_{i+2}: linearize --type2 exits 3 on it at
# (5, 4, 3) (a fault of the program, see CHANGES.md)
TYPE2_CRASH_SUPPORT = ((1, 1), (0, 2))
# diagonal linear parts, nonresonant through order 5. For q = n - 1 the
# program reports the map for the input but the multiplier and field matrix
# for the input divided by -trace(B) (a fault, see CHANGES.md); with trace -1
# the two agree, so the output can be checked. One fixed job per round has
# trace 5 and shows the fault.
NONRESONANT_DIAGONALS = [(-3, 2), (2, -3)]
DET_FAULT_DIAGONAL = (2, 3)
# resonant at order N (one eigenvalue N times the other); no map is reported
RESONANT_DIAGONALS = {3: (1, 3), 4: (4, 1)}
COEFFS = [Fraction(v) for v in (-2, -1, 1, 2)]


def rand_gl(rng, n):
    """Random element of GL(n, Q): unit lower times unit upper times a diagonal."""
    lower = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    upper = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            lower[i][j] = Fraction(rng.randint(-1, 1))
            upper[j][i] = Fraction(rng.randint(-1, 1))
    diag = [[Fraction(rng.choice((1, -1, 2))) if i == j else Fraction(0)
             for j in range(n)] for i in range(n)]
    return A.mat_mul(A.mat_mul(lower, upper), diag)


def quadratic_map(rng, n, support):
    comps = []
    for i in range(n):
        comp = A.pvar(n, i)
        for a, b in support:
            e = [0] * n
            e[(i + a) % n] += 1
            e[(i + b) % n] += 1
            comp = A.padd(comp, A.pmono(n, e, rng.choice(COEFFS)))
        comps.append(comp)
    return comps


def independent_functions(rng, n, k, quadratic=True):
    """k polynomials with independent linear parts x_{r_i} + c_i x_{r_{i+1}} (a unit
    triangular set), each plus d_i x_{r_i} x_{r_{i+1}} when `quadratic`."""
    rows = rng.sample(range(n), k)
    rest = [j for j in range(n) if j not in rows]
    out = []
    for i, r in enumerate(rows):
        nxt = rows[i + 1] if i + 1 < k else (rng.choice(rest) if rest else r)
        g = A.pvar(n, r)
        if nxt != r:
            g = A.padd(g, A.pvar(n, nxt, rng.choice(COEFFS)))
        if quadratic:
            e = [0] * n
            e[r] += 1
            e[nxt] += 1
            g = A.padd(g, A.pmono(n, e, rng.choice(COEFFS)))
        out.append(g)
    return out


def exact_product(fs, n):
    """dg_1 ^ ... ^ dg_k."""
    out = {(): A.pconst(n, 1)}
    for g in fs:
        out = A.wedge(out, A.differential(g, n))
    return out


def random_type2_matrix(rng, m):
    """Nondegenerate m x m matrix with nonzero trace; irrational eigenvalues when
    a quadratic block is drawn."""
    while True:
        B = [[Fraction(0)] * m for _ in range(m)]
        for i in range(m):
            B[i][i] = Fraction(rng.choice((1, 2, 3, -1, -2)))
            for j in range(i + 1, m):
                B[i][j] = Fraction(rng.randint(-1, 1))
        if m >= 2 and rng.random() < 0.5:
            # irreducible quadratic block t^2 - d t - c on the first two slots
            while True:
                c, d = rng.randint(-3, 3), rng.randint(-2, 2)
                disc = d * d + 4 * c
                if c != 0 and not _is_square(disc):
                    break
            B[0][0], B[0][1], B[1][0], B[1][1] = Fraction(0), Fraction(1), Fraction(c), Fraction(d)
        # trace 0 would make the dual form closed, and for q = n - 1 that is Type 1
        if A.mat_det(B) != 0 and sum(B[i][i] for i in range(m)) != 0:
            return B


def _is_square(k):
    if k < 0:
        return False
    r = int(k ** 0.5)
    return any((r + t) ** 2 == k for t in (-1, 0, 1))


def move_linear(form, n, G):
    return A.pullback(form, A.linear_map(G, n), n)


def graded(obj, n, kind):
    grade = len(next(iter(obj))) if obj else 0
    return A.graded_json(obj, n, grade, kind)


def cli_job(argv, payload, expect):
    return {"kind": "cli", "argv": argv, "stdin": json.dumps(payload), "expect": expect}


def _as_input(form, n, as_tensor):
    """The form itself, or its dual tensor; returns (payload, argv flags)."""
    if as_tensor:
        return graded(A.form_to_tensor(form, n), n, "vector"), []
    return graded(form, n, "form"), ["--form"]


# -- query ---------------------------------------------------------------------------------

def verify_jobs(rng):
    jobs = []
    for n in (4, 5, 6):
        for p in range(1, n - 2):
            q = n - p
            for as_tensor in (False, True):
                # linear pass: a normal form moved by GL(n, Q)
                if rng.random() < 0.5:
                    signs = [rng.choice((1, -1)) for _ in range(q + 1)]
                    form = A.type1_form(n, q, q, 0, signs)
                else:
                    m = p + 1
                    tensor = A.type2_tensor(n, q, random_type2_matrix(rng, m))
                    form = A.tensor_to_form(tensor, n)
                form = move_linear(form, n, rand_gl(rng, n))
                jobs.append(_verify_job(form, n, as_tensor, True, "linear"))
                # nonlinear pass: h * dg_1 ^ ... ^ dg_p with h(0) != 0
                h = A.padd(A.pconst(n, rng.choice((1, -1, 2))),
                           A.pvar(n, rng.randrange(n), rng.choice(COEFFS)))
                form = A.ascale(exact_product(independent_functions(rng, n, p), n), h)
                jobs.append(_verify_job(form, n, as_tensor, True, "nonlinear"))
                # linear fail: x_a theta_1 + x_b theta_2, theta_i decomposable with
                # independent factors (p = 1: fails integrability; p >= 2: not
                # decomposable at x_a = x_b = 1)
                if p == 1:
                    a, b, fs = _independent_pair(rng, n)
                else:
                    fs = independent_functions(rng, n, 2 * p, quadratic=False)
                    a, b = rng.sample(range(n), 2)
                form = A.acombine(A.ascale(exact_product(fs[:p], n), A.pvar(n, a)),
                                  A.ascale(exact_product(fs[p:2 * p], n), A.pvar(n, b)))
                jobs.append(_verify_job(form, n, as_tensor, False, "linear"))
                # nonlinear fail
                if p == 1:
                    g1, g2, xj = _integrability_breaker(rng, n)
                    form = A.acombine(A.differential(g1, n),
                                      A.ascale(A.differential(g2, n), A.pvar(n, xj)))
                else:
                    fs = independent_functions(rng, n, 2 * p)
                    form = A.acombine(exact_product(fs[:p], n), exact_product(fs[p:], n))
                jobs.append(_verify_job(form, n, as_tensor, False, "nonlinear"))
    return jobs


def _independent_pair(rng, n):
    """x_a, x_b and two linear forms l_1, l_2 that are jointly independent."""
    while True:
        a, b = rng.sample(range(n), 2)
        fs = independent_functions(rng, n, 2, quadratic=False)
        rows = [A.plinear(A.pvar(n, a), n), A.plinear(A.pvar(n, b), n),
                A.plinear(fs[0], n), A.plinear(fs[1], n)]
        if _rank(rows) == 4:
            return a, b, fs


def _integrability_breaker(rng, n):
    """g1, g2, j with dg1, dx_j, dg2 independent at the origin."""
    while True:
        g1, g2 = independent_functions(rng, n, 2)
        j = rng.randrange(n)
        rows = [A.plinear(g1, n), A.plinear(A.pvar(n, j), n), A.plinear(g2, n)]
        if _rank(rows) == 3:
            return g1, g2, j


def _rank(rows):
    M = [list(r) for r in rows]
    rank, col, ncols = 0, 0, len(M[0])
    while rank < len(M) and col < ncols:
        piv = next((i for i in range(rank, len(M)) if M[i][col]), None)
        if piv is None:
            col += 1
            continue
        M[rank], M[piv] = M[piv], M[rank]
        for i in range(len(M)):
            if i != rank and M[i][col]:
                f = M[i][col] / M[rank][col]
                M[i] = [x - f * y for x, y in zip(M[i], M[rank])]
        rank += 1
        col += 1
    return rank


def _verify_job(form, n, as_tensor, passed, degree):
    payload, flags = _as_input(form, n, as_tensor)
    return cli_job(["verify", "-"] + flags, payload,
                   {"check": "verify", "passed": passed, "degree": degree})


def classify_jobs(rng):
    jobs = []
    for n in (4, 5, 6):
        for q in range(3, n):
            p = n - q
            for as_tensor in (False, True):
                # Type 1 with random (r, s) and sign pattern; for p >= 2, r = 0 is
                # the same form as r = -1, s = 1 (swap z_1 and z_p), so r >= 1
                r = rng.randint(0 if p == 1 else 1, q)
                s = rng.randint(0, min(p - 1, q - r))
                signs = [rng.choice((1, -1)) for _ in range(r + 1)]
                form = move_linear(A.type1_form(n, q, r, s, signs), n, rand_gl(rng, n))
                payload, flags = _as_input(form, n, as_tensor)
                jobs.append(cli_job(
                    ["classify", "-"] + flags, payload,
                    {"check": "classify", "type": "1", "q": q, "p": p, "r": r, "s": s,
                     "n_plus": signs.count(1), "n_minus": signs.count(-1)}))
                # Type 2, rational or irrational eigenvalues
                B = random_type2_matrix(rng, p + 1)
                form = A.tensor_to_form(A.type2_tensor(n, q, B), n)
                form = move_linear(form, n, rand_gl(rng, n))
                payload, flags = _as_input(form, n, as_tensor)
                jobs.append(cli_job(
                    ["classify", "-"] + flags, payload,
                    {"check": "classify", "type": "2", "q": q, "p": p,
                     "char_poly": [str(c) for c in A.char_poly(B)]}))
    return jobs


def resonance_jobs(rng, count):
    """Sizes 2..4, max orders 2..12 and rational or irrational spectra on a fixed
    grid; the seed draws the eigenvalues and the change of basis."""
    jobs = []
    for k in range(count):
        size = 2 + k % 3
        max_order = 2 + (k // 3) % 11
        eig, J = _eigen_blocks(rng, size, irrational=k % 2 == 1)
        G = rand_gl(rng, size)
        B = A.mat_mul(A.mat_mul(G, J), mat_inv(G))
        payload = {"matrix": [[str(v) for v in row] for row in B]}
        jobs.append(cli_job(["resonance", "-", "--max-order", str(max_order)], payload,
                            {"check": "resonance", "eigen": eig["values"], "d": eig["d"],
                             "max_order": max_order}))
    return jobs


RATIONAL_EIGENVALUES = [Fraction(v) for v in (1, 2, 3, 4, -1, -2)] + [Fraction(1, 2), Fraction(3, 2)]


def _eigen_blocks(rng, size, irrational):
    """Block matrix with known eigenvalues a + b*sqrt(d): one irrational pair or none."""
    J = [[Fraction(0)] * size for _ in range(size)]
    values = []
    d = 0
    start = 0
    if irrational:
        while True:
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            d = a * a - 4 * b
            if d != 0 and not _is_square(d):
                break
        # companion block of t^2 + a t + b
        J[0][1] = Fraction(1)
        J[1][0], J[1][1] = Fraction(-b), Fraction(-a)
        values += [[str(Fraction(-a, 2)), "1/2"], [str(Fraction(-a, 2)), "-1/2"]]
        start = 2
    for i in range(start, size):
        lam = rng.choice(RATIONAL_EIGENVALUES)
        J[i][i] = lam
        values.append([str(lam), "0"])
        if i > start and J[i - 1][i - 1] == lam and rng.random() < 0.5:
            J[i - 1][i] = Fraction(1)
    return {"values": values, "d": d}, J


def mat_inv(G):
    size = len(G)
    M = [list(row) + [Fraction(int(i == j)) for j in range(size)] for i, row in enumerate(G)]
    for c in range(size):
        piv = next(r for r in range(c, size) if M[r][c])
        M[c], M[piv] = M[piv], M[c]
        pv = M[c][c]
        M[c] = [x / pv for x in M[c]]
        for r in range(size):
            if r != c and M[r][c]:
                f = M[r][c]
                M[r] = [x - f * y for x, y in zip(M[r], M[c])]
    return [row[size:] for row in M]


# -- type1 and type2 ------------------------------------------------------------------------


def type1_jobs(rng):
    jobs = []
    for n, q, N in TYPE1_CONFIGS:
        signs = [rng.choice((1, -1)) for _ in range(q + 1)]
        lin = A.type1_tensor_convention_form(n, q, signs)
        form = A.pullback(lin, quadratic_map(rng, n, rng.choice(SUPPORTS)), n, N)
        jobs.append(cli_job(["linearize", "-", "--form", "--type1", "--order", str(N)],
                            graded(form, n, "form"),
                            {"check": "type1", "N": N}))
    for n, q in MULTIPLIER_CONFIGS:
        signs = [rng.choice((1, -1)) for _ in range(q + 1)]
        f = A.pconst(n, 1)
        for i in range(n):
            f = A.padd(f, A.pvar(n, i, rng.choice(COEFFS)))
            e = [0] * n
            e[i] += 1
            e[(i + 1) % n] += 1
            f = A.padd(f, A.pmono(n, e, rng.choice(COEFFS)))
        jobs.append({"kind": "remove_multiplier", "f": A.poly_text(f, n), "signs": signs,
                     "N": 4, "nvars": n, "expect": {"check": "remove_multiplier"}})
    return jobs


def type2_jobs(rng):
    """One round: every support at (4, 3, 3); an upper and a lower triangular
    linear part; (4, 3, 4); two resonant linear parts; (5, 4, 3) and
    (5, 4, 4); and last the two fixed inputs on which the program fails. The
    shape of each linear part is fixed by the job's place, so a round's mix of
    costs is the same for every seed; the seed draws the order of the
    eigenvalues, the off-diagonal entries and the coefficients."""
    def diagonal():
        return _diagonal(rng.choice(NONRESONANT_DIAGONALS))

    jobs = [_type2_job(rng, 4, 3, 3, diagonal(), support) for support in SUPPORTS]
    for lower in (False, True):
        B = diagonal()
        B[int(lower)][1 - int(lower)] = Fraction(rng.choice((-1, 1)))
        jobs.append(_type2_job(rng, 4, 3, 3, B, TYPE2_FIXED_SUPPORT))
    jobs.append(_type2_job(rng, 4, 3, 4, diagonal(), TYPE2_FIXED_SUPPORT))
    for N in (3, 4):
        jobs.append(_type2_job(rng, 4, 3, N, _diagonal(RESONANT_DIAGONALS[N]),
                               TYPE2_FIXED_SUPPORT, resonant=True))
    for N in (3, 4):
        jobs.append(_type2_job(rng, 5, 4, N, diagonal(), TYPE2_FIXED_SUPPORT))
    # the same inputs for every seed, so each fails in every run
    jobs.append(_type2_job(random.Random("type2:det-fault"), 4, 3, 3,
                           _diagonal(DET_FAULT_DIAGONAL), TYPE2_FIXED_SUPPORT,
                           known_fault="multiplier off by -trace(B)"))
    jobs.append(_type2_job(random.Random("type2:crash"), 5, 4, 3,
                           _diagonal(NONRESONANT_DIAGONALS[0]), TYPE2_CRASH_SUPPORT,
                           known_fault="exit 3 in prelinearize_type2"))
    return jobs


def _diagonal(values):
    return [[Fraction(v) if i == j else Fraction(0) for j in range(len(values))]
            for i, v in enumerate(values)]


def _type2_job(rng, n, q, N, B, support, resonant=False, known_fault=None):
    lin = A.tensor_to_form(A.type2_tensor(n, q, B), n)
    form = A.pullback(lin, quadratic_map(rng, n, support), n)
    # B is triangular, so its eigenvalues are its diagonal
    expect = {"check": "type2", "N": N, "q": q, "resonant": resonant,
              "eigen": [[str(B[i][i]), "0"] for i in range(len(B))], "d": 0}
    if known_fault:
        expect["known_fault"] = known_fault
    return cli_job(["linearize", "-", "--type2", "--order", str(N)],
                   graded(A.form_to_tensor(form, n), n, "vector"), expect)


# Fixed warm-up jobs, one per subcommand (both linearize pipelines): they
# finish lazy imports (mpmath in the eigenvalue search) and fill the program's
# caches before anything is timed.
def warmup_jobs():
    n, q = 4, 3
    t1 = A.form_to_tensor(A.type1_tensor_convention_form(n, q, [1, 1, -1, 1]), n)
    t2 = A.type2_tensor(n, q, [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(3)]])
    t1_json = json.dumps(graded(t1, n, "vector"))
    t2_json = json.dumps(graded(t2, n, "vector"))
    return [
        {"kind": "cli", "argv": ["verify", "-"], "stdin": t1_json},
        {"kind": "cli", "argv": ["classify", "-"], "stdin": t2_json},
        {"kind": "cli", "argv": ["resonance", "-", "--max-order", "3"],
         "stdin": json.dumps({"matrix": [["1", "1"], ["1", "0"]]})},
        {"kind": "cli", "argv": ["linearize", "-", "--type1", "--order", "2"], "stdin": t1_json},
        {"kind": "cli", "argv": ["linearize", "-", "--type2", "--order", "2"], "stdin": t2_json},
        {"kind": "cli", "argv": ["generate", "type1", "--n", "4", "--q", "3", "--r", "3",
                                 "--s", "0", "--signs", "++-+"], "stdin": ""},
    ]


def generate(workload, seed):
    rng = random.Random(f"{workload}:{seed}")
    if workload == "query":
        # four draws of each verify and classify grid, so that one draw's cost
        # weighs little in a round
        jobs = [job for make in [verify_jobs] * 4 + [classify_jobs] * 4 for job in make(rng)]
        jobs += resonance_jobs(rng, 144)
    elif workload == "type1":
        jobs = type1_jobs(rng)
    elif workload == "type2":
        jobs = type2_jobs(rng)
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    for i, job in enumerate(jobs):
        job["id"] = i
    return {"workload": workload, "seed": seed, "warmup": warmup_jobs(), "jobs": jobs}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    data = generate(args.workload, args.seed)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


if __name__ == "__main__":
    main()
