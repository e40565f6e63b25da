"""Top-level acceptance gate.

Each test realizes one numbered criterion end to end, against
independent oracles or frozen fixtures, and prints a single
``ACCEPTANCE n: PASS`` line on success (visible with ``pytest -s`` or
``-rA``).  Tolerances are zero unless a criterion is statistical, in
which case the bound and seed are pinned here.
"""

import bisect
import itertools
import json
import math
import random
import time
from fractions import Fraction as F

from dsegraphon.trees import Forest, ForestSum, all_forests_up_to, ladder, leaf
from dsegraphon.hopf import (TensorSum, antipode, convolve, coproduct,
                             counit, graft, reduced_coproduct)
from dsegraphon.dse import (Cocycle, DSESpec, rescale, solve, structural_sum,
                            subalgebra_witness)
from dsegraphon.renorm import (LaurentSeries, ScalePoly, ToyRules, birkhoff,
                               bogoliubov, counterterm, counterterm_character,
                               renormalized_value, rules_character,
                               toy_feynman_rules)
from dsegraphon.graphon import (StepGraphon, SimpleGraph, connected_graphs_up_to,
                                convergence_trace, cut_distance, cut_norm,
                                direction, feynman_graphon,
                                gateaux_density_derivative, graphon_from_graph,
                                hom_density, perturb)
from dsegraphon.graphpoly import (MultiGraph, MultiPoly,
                                  generate_connected_multigraphs,
                                  loop_number, spanning_tree_count, symanzik_det,
                                  symanzik_psi, tutte)
from dsegraphon.haar import (SolutionPoint, VertexUniverse, ball_measure_mc,
                             distance, group_op, ks_critical_value, norm,
                             norm_uniformity_statistic, sample_haar)
from dsegraphon.cli import main as cli_main
from graph_oracles import hom_density_graph, psi_deletion_contraction, tutte_rank_nullity


SPEC_ONE = DSESpec((Cocycle("g", F(1)),), order=5)
SPEC_TWO = DSESpec((Cocycle("g1", F(1)), Cocycle("g2", F(1))), order=5)


def test_criterion_01_hopf_axioms():
    domains = [(("g",), 6), (("a", "b"), 4)]
    cases = 0
    for labels, top in domains:
        for f in all_forests_up_to(top, labels):
            x = ForestSum.of(f)
            d = coproduct(x)
            # coassociativity, with the triple tensor kept as a dict so
            # no slots collapse
            left: dict = {}
            for (l, r), c in d.terms.items():
                for (a, b), c2 in coproduct(ForestSum.of(l)).terms.items():
                    key = (a, b, r)
                    left[key] = left.get(key, F(0)) + c * c2
            right: dict = {}
            for (l, r), c in d.terms.items():
                for (b, w), c2 in coproduct(ForestSum.of(r)).terms.items():
                    key = (l, b, w)
                    right[key] = right.get(key, F(0)) + c * c2
            assert {k: v for k, v in left.items() if v} == \
                {k: v for k, v in right.items() if v}
            # counit on both tensor legs
            lhs = ForestSum.zero()
            rhs = ForestSum.zero()
            for (l, r), c in d.terms.items():
                lhs = lhs + c * counit(ForestSum.of(l)) * ForestSum.of(r)
                rhs = rhs + c * counit(ForestSum.of(r)) * ForestSum.of(l)
            assert lhs == x and rhs == x
            # antipode convolution identities S*id = eta.eps = id*S
            sl = ForestSum.zero()
            sr = ForestSum.zero()
            for (l, r), c in d.terms.items():
                sl = sl + c * (antipode(ForestSum.of(l)) * ForestSum.of(r))
                sr = sr + c * (ForestSum.of(l) * antipode(ForestSum.of(r)))
            eta = counit(x) * ForestSum.unit()
            assert sl == eta and sr == eta
            cases += 3
    print(f"ACCEPTANCE 1: PASS — coassociativity, counit, and antipode "
          f"identities exact on {cases // 3} forests "
          f"(grade <= 6 single-decoration, grade <= 4 two-decoration)")


def test_criterion_02_cocycle_identity():
    checked = 0
    for labels, top in [(("g",), 5), (("a", "b"), 4)]:
        for f in all_forests_up_to(top, labels):
            x = ForestSum.of(f)
            lab = labels[0]
            grafted = graft(lab, x)
            lhs = coproduct(grafted)
            rhs = coproduct(x).map_left(lambda s: graft(lab, ForestSum.of(s))) \
                + TensorSum.of(Forest([]), _single(grafted))
            assert lhs == rhs
            checked += 1
    print(f"ACCEPTANCE 2: PASS — Delta(B+) cocycle identity exact on "
          f"{checked} basis forests (grade <= 5), trunk-left orientation")


def _single(s: ForestSum) -> Forest:
    ((f, c),) = s.terms.items()
    assert c == 1
    return f


def _gmul(a, b, cap):
    out = [ForestSum.zero() for _ in range(cap + 1)]
    for i in range(min(len(a), cap + 1)):
        if not a[i]:
            continue
        for k in range(min(len(b), cap + 1 - i)):
            if b[k]:
                out[i + k] = out[i + k] + a[i] * b[k]
    return out


def _gpow(a, p, cap):
    out = [ForestSum.unit()] + [ForestSum.zero() for _ in range(cap)]
    for _ in range(p):
        out = _gmul(out, a, cap)
    return out


def _fixed_point_expansion(spec: DSESpec, n_max: int) -> list[ForestSum]:
    ys = [ForestSum.unit()] + [ForestSum.zero() for _ in range(n_max)]
    for _ in range(n_max + 1):
        new = [ForestSum.unit()] + [ForestSum.zero() for _ in range(n_max)]
        for j, coc in enumerate(spec.cocycles, start=1):
            if j > n_max:
                continue
            power = _gpow(ys, j + 1, n_max - j)
            for m, part in enumerate(power):
                if part:
                    new[m + j] = new[m + j] + coc.omega * graft(coc.decoration, part)
        if new == ys:
            break
        ys = new
    return ys


def test_criterion_03_solver_vs_oracle():
    for spec, name in [(SPEC_ONE, "one cocycle"), (SPEC_TWO, "two cocycles")]:
        sol = solve(spec)
        assert list(sol.coefficients) == _fixed_point_expansion(spec, 5)
    print("ACCEPTANCE 3: PASS — solver matches independent fixed-point "
          "expansion coefficient-by-coefficient, N <= 5, one- and "
          "two-cocycle specs, exact")


WITNESS_FIXTURES = {
    1: {((), (1,)): F(1), ((1,), ()): F(1)},
    2: {((), (2,)): F(1), ((1,), (1,)): F(2), ((2,), ()): F(1)},
    3: {((), (3,)): F(1), ((1,), (1, 1)): F(1), ((1,), (2,)): F(2),
        ((2,), (1,)): F(3), ((3,), ()): F(1)},
    4: {((), (4,)): F(1), ((1,), (2, 1)): F(2), ((1,), (3,)): F(2),
        ((2,), (1, 1)): F(3), ((2,), (2,)): F(3), ((3,), (1,)): F(4),
        ((4,), ()): F(1)},
}


def test_criterion_04_coproduct_stays_in_subalgebra():
    for spec in (SPEC_ONE, SPEC_TWO):
        sol = solve(spec)
        for n in range(1, 5):
            # exact closed-form decomposition of Delta(X_n)
            xs = list(sol.coefficients)
            want = TensorSum.zero()
            for k in range(n + 1):
                rgt = _gpow(xs, k + 1, n - k)[n - k]
                for fl, cl in xs[k].terms.items():
                    for fr, cr in rgt.terms.items():
                        want = want + TensorSum.of(fl, fr, cl * cr)
            assert coproduct(sol.coefficients[n]) == want
            rep = subalgebra_witness(sol, n)
            assert rep.ok and rep.coefficients == WITNESS_FIXTURES[n]
    print("ACCEPTANCE 4: PASS — Delta(X_n) decomposes over X_k (x) powers "
          "for n <= 4 on both specs; witness coefficients match frozen "
          "fixtures")


def test_criterion_05_bphz():
    sym = ToyRules(residues={"g": F(1)}, scale=None)
    # pole-freeness on every forest of grade <= 5
    pole_free = 0
    for f in all_forests_up_to(5):
        if renormalized_value(sym, ForestSum.of(f)).is_pole_free():
            pole_free += 1
        else:
            raise AssertionError(f"pole survived renormalization: {f.code}")
    # Birkhoff reconstruction (phi- o S) * phi+ = phi at grade <= 4, with
    # phi+ itself rebuilt from the convolution phi- * phi; the factors that
    # birkhoff reports are those two characters, and the Bogoliubov
    # preparation is their difference.  On a nonempty forest the
    # preparation is phi(x) + sum' S(x') phi(x'') over the reduced
    # coproduct; the counterterm is minus its pole part and the
    # renormalized value the rest
    phi = rules_character(sym)
    sr = counterterm_character(sym)
    prepared = 0
    for f in all_forests_up_to(4):
        x = ForestSum.of(f)
        pair = birkhoff(sym, x)
        assert pair.negative == sr(x) and pair.positive == convolve(sr, phi, x)
        assert bogoliubov(sym, x) == pair.positive - pair.negative
        if f.trees:
            prep = phi(x) + sum(sr(l) * phi(r) * c
                                for (l, r), c in reduced_coproduct(x).terms.items())
            assert prep == bogoliubov(sym, x)
            assert counterterm(sym, x) == -prep.pole_part()
            assert renormalized_value(sym, x) == prep - prep.pole_part()
            prepared += 1
        total = LaurentSeries.zero(sym.window)
        for (l, r), c in coproduct(x).terms.items():
            left = sr(antipode(ForestSum.of(l)))
            right = convolve(sr, phi, ForestSum.of(r))
            assert right == renormalized_value(sym, r)
            total = total + left * right * c
        assert total == toy_feynman_rules(sym, x) == phi(x)
    # ladder values at L = 0: phi(l_n) = 1/(n! eps^n)
    zero = ToyRules(residues={"g": F(1)}, scale=F(0))
    for n in range(1, 6):
        val = toy_feynman_rules(zero, ForestSum.of(ladder(n)))
        want = LaurentSeries({-n: ScalePoly({0: F(1, math.factorial(n))})},
                             val.window)
        assert val == want
    # hand-derived finite parts at symbolic L
    r1 = renormalized_value(sym, ForestSum.of(leaf("g")))
    assert r1.coeff(0) == ScalePoly({1: F(-1)})          # -L
    r2 = renormalized_value(sym, ForestSum.of(ladder(2)))
    assert r2.coeff(0) == ScalePoly({2: F(1, 2)})        # L^2/2
    print(f"ACCEPTANCE 5: PASS — {pole_free} forests of grade <= 5 pole-free; "
          "Birkhoff factors and reconstruction exact at grade <= 4; Bogoliubov "
          f"preparation over the reduced coproduct on {prepared} forests; ladder values "
          "1/(n! eps^n); finite parts -L and L^2/2")


def _random_multigraph(rng: random.Random) -> MultiGraph:
    n = rng.randint(2, 6)
    m = rng.randint(1, 12)
    edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(m)]
    return MultiGraph(n, edges)


def test_criterion_06_tutte():
    corpus = generate_connected_multigraphs(6)
    assert len(corpus) == 471
    for g in corpus:
        assert tutte(g) == tutte_rank_nullity(g)
    rng = random.Random(20260814)
    for _ in range(200):
        g = _random_multigraph(rng)
        assert tutte(g) == tutte_rank_nullity(g)
    ones = {"x": F(1), "y": F(1)}
    for g in generate_connected_multigraphs(4):
        assert tutte(g).eval(ones) == spanning_tree_count(g)
    k4 = MultiGraph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert tutte(k4).eval(ones) == 16 == spanning_tree_count(k4)
    print("ACCEPTANCE 6: PASS — recursive Tutte equals rank-nullity sum on "
          "471 corpus graphs (<= 6 edges) and 200 random graphs (<= 12 "
          "edges); T(1,1) = matrix-tree count; K4 has 16 spanning trees")


def test_criterion_07_symanzik():
    corpus = generate_connected_multigraphs(4)
    rng = random.Random(4242)
    checked = 0
    for g in corpus:
        psi = symanzik_psi(g)
        assert psi.is_homogeneous(loop_number(g))
        for _ in range(50):
            assignment = {i: F(rng.randint(1, 9), rng.randint(1, 9))
                          for i in g.evars}
            want = psi.eval({f"w{i}": v for i, v in assignment.items()})
            assert symanzik_det(g, assignment) == want
            checked += 1
    splits = 0
    for g in generate_connected_multigraphs(3):
        psi = symanzik_psi(g)
        for pos, (u, v) in enumerate(g.edges):
            if u == v or g.is_bridge(pos):
                continue
            rep = psi_deletion_contraction(g, pos)
            assert rep.degenerate is None and rep.identity_holds
            assert psi == MultiPoly.var(rep.variable) * rep.deleted \
                + rep.contracted
            splits += 1
    print(f"ACCEPTANCE 7: PASS — Psi equals circuit determinant at {checked} "
          f"random weight assignments (50 per corpus graph); homogeneity "
          f"degree = loop number; deletion-contraction split exact on "
          f"{splits} ordinary edges")


def _all_graphs_up_to_five() -> list[SimpleGraph]:
    seen = {}
    for n in range(1, 6):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for r in range(len(pairs) + 1):
            for subset in itertools.combinations(pairs, r):
                g = SimpleGraph(n, subset)
                seen.setdefault(g.canonical_code(), g)
    return list(seen.values())


def test_criterion_08_graphon_densities():
    hosts = _all_graphs_up_to_five()
    patterns = connected_graphs_up_to(4)
    pairs = 0
    for g in hosts:
        w = graphon_from_graph(g)
        for h in patterns:
            assert hom_density(h, w) == hom_density_graph(h, g)
            pairs += 1
    # multiplicativity over disjoint unions
    rng = random.Random(808)
    parts = [g for g in connected_graphs_up_to(3) if g.m]
    for _ in range(20):
        h1, h2 = rng.choice(parts), rng.choice(parts)
        mu = [F(1, 3)] * 3
        vals = [[F(rng.randint(0, 4), 4) for _ in range(3)] for _ in range(3)]
        for i in range(3):
            for j in range(i, 3):
                vals[j][i] = vals[i][j]
        w = StepGraphon(mu, vals)
        assert hom_density(h1.disjoint_union(h2), w) == \
            hom_density(h1, w) * hom_density(h2, w)
    # heuristic cut norm is a certified lower bound for the exact one, on
    # mixed-sign directions: there exact mode enumerates block subsets and
    # heuristic mode searches (a graphon, of one sign, takes the closed
    # form |total mass| in both)
    rng = random.Random(2718)
    mixed = 0
    for trial in range(60):
        k = rng.randint(1, 6)
        raw = [rng.randint(1, 9) for _ in range(k)]
        mu = [F(r, sum(raw)) for r in raw]
        vals = [[F(0)] * k for _ in range(k)]
        for i in range(k):
            for j in range(i, k):
                vals[i][j] = vals[j][i] = F(rng.randint(-8, 8), 8)
        w = direction(mu, vals)
        mixed += min(map(min, vals)) < 0 < max(map(max, vals))
        assert cut_norm(w, "heuristic", seed=trial, restarts=6) <= \
            cut_norm(w, "exact")
    # the cut distance is a metric on graphons up to relabeling: a graph
    # and a random relabeling of it are at distance 0, which exact mode
    # finds by enumerating the relabelings when the identity alignment is
    # not already certified
    rng = random.Random(1808)
    for _ in range(15):
        n = rng.randint(4, 6)
        g = SimpleGraph(n, [e for e in itertools.combinations(range(n), 2)
                            if rng.random() < 0.5])
        sigma = rng.sample(range(n), n)
        moved = SimpleGraph(n, [(sigma[u], sigma[v]) for u, v in g.edges])
        assert cut_distance(graphon_from_graph(g), graphon_from_graph(moved)) == 0
    # Gateaux derivative vs exact central finite difference
    rng = random.Random(99)
    pats = [g for g in connected_graphs_up_to(3) if g.m]
    eps = F(1, 10 ** 4)
    worst = F(0)
    for _ in range(100):
        h = rng.choice(pats)
        k = rng.choice([2, 3])
        mu = [F(1, k)] * k
        wv = [[F(0)] * k for _ in range(k)]
        dv = [[F(0)] * k for _ in range(k)]
        for i in range(k):
            for j in range(i, k):
                wv[i][j] = wv[j][i] = F(rng.randint(1, 3), 4)
                dv[i][j] = dv[j][i] = F(rng.randint(-1, 1), 4)
        w = StepGraphon(mu, wv)
        d = direction(mu, dv)
        analytic = gateaux_density_derivative(h, w, d)
        fd = (hom_density(h, perturb(w, d, eps)) -
              hom_density(h, perturb(w, d, -eps))) / (2 * eps)
        rel = abs(fd - analytic) / (abs(analytic) if analytic else F(1))
        worst = max(worst, rel)
        assert rel <= F(1, 10 ** 6)
    print(f"ACCEPTANCE 8: PASS — t(H, W_G) = t(H, G) on {pairs} exhaustive "
          f"pattern/host pairs; union multiplicativity exact; heuristic cut "
          f"norm <= exact on 60 directions ({mixed} of mixed sign); cut "
          f"distance 0 between 15 graphs and their relabelings; Gateaux vs central difference "
          f"worst relative error {float(worst):.2e} <= 1e-6")


def test_criterion_09_haar_measure():
    t0 = time.time()
    radii = (F(1, 10), F(1, 4), F(1, 2), F(3, 4), F(9, 10))
    for r in radii:
        est = ball_measure_mc(r, depth=24, samples=100_000, seed=0)
        assert est.within_tolerance(), (r, float(est.estimate))
    ks = norm_uniformity_statistic(depth=24, samples=100_000, seed=0)
    crit = ks_critical_value(100_000, alpha=0.01)
    assert ks < crit
    # the group model, exactly: d(x, x + y) = norm(y), so every ball
    # around a Haar-sampled centre x has the measure of the ball around
    # the identity, counted over all 2^10 points at depth 10; at base 2
    # the norms are k / 2^10, so a ball of radius r holds
    # min(floor(r 2^10) + 1, 2^10) of them
    depth = 10
    points = [SolutionPoint(VertexUniverse(depth), mask) for mask in range(1 << depth)]
    for g, eps in ((1, 1), (2, 1)):
        norms = [norm(y, g, eps) for y in points]
        for seed in range(4):
            x = sample_haar(depth, seed)
            assert [distance(x, group_op(x, y), g, eps) for y in points] == norms
            dists = sorted(distance(x, y, g, eps) for y in points)
            assert dists == sorted(norms)
            if g + eps == 2:
                for r in radii:
                    assert bisect.bisect_right(dists, r) == \
                        min(math.floor(r * 2 ** depth) + 1, 2 ** depth)
    elapsed = time.time() - t0
    assert elapsed <= 30
    print(f"ACCEPTANCE 9: PASS — ball measure within 3 sigma + 2^-24 of r "
          f"for five radii (m=24, N=1e5); KS statistic {ks:.5f} < 1% "
          f"critical {crit:.5f}; distances from four Haar centres equal the "
          f"norms over all 2^10 points at bases 2 and 3, ball counts exact; "
          f"runtime {elapsed:.1f}s <= 30s")


def test_criterion_10_coupling_rescaling():
    sol = solve(DSESpec((Cocycle("g", F(1)),), order=4, coupling=F(1, 2)))
    for a, b in [(F(1, 2), F(3, 2)), (F(1, 3), F(3, 5)), (F(2), F(1, 2))]:
        two_step = rescale(rescale(sol, a), b)
        assert two_step.coupling == sol.coupling * a * b
        assert two_step.coefficients == rescale(sol, a * b).coefficients
        assert two_step.coefficients is sol.coefficients
    assert convergence_trace(sol, 3, "heuristic", seed=3) == \
        [F(1, 25), F(53, 1600)]
    base_sol = solve(DSESpec((Cocycle("g", F(1)),), order=3, coupling=F(1)))
    y3 = structural_sum(base_sol, 3)
    base = feynman_graphon(y3, base_sol.coupling)
    dists = [cut_distance(feynman_graphon(y3, F(n, n + 1)), base)
             for n in range(1, 7)]
    assert dists == [F(41, 800), F(11, 270), F(213, 6400), F(7, 250),
                     F(521, 21600), F(363, 17150)]
    assert all(x >= y for x, y in zip(dists, dists[1:]))
    print("ACCEPTANCE 10: PASS — rescaling is an exact semigroup; trace at "
          "coupling 1/2 reproduces the frozen fixture; cut distance to the "
          "unrescaled graphon is non-increasing along n/(n+1), n = 1..6")


def test_criterion_11_cli_reproducibility(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "cocycles": [{"decoration": "g", "omega": "1"}],
        "order": 3, "coupling": "1/2"}))
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps({"residues": {"g": "1"}, "scale": "1/2"}))
    runs = [
        ["solve", "--spec", str(spec)],
        ["renorm", "--spec", str(spec), "--rules", str(rules)],
        ["graphon", "--spec", str(spec), "--order", "2"],
        ["tutte", "--max-edges", "2"],
        ["symanzik", "--max-edges", "2"],
        ["haar", "--samples", "50000", "--depth", "24"],
        ["trace", "--spec", str(spec)],
    ]
    for fmt in ("json", "csv"):
        for argv in runs:
            blobs = []
            for tag in ("first", "second"):
                out = tmp_path / f"{argv[0]}-{fmt}-{tag}"
                assert cli_main(argv + ["--format", fmt,
                                        "--out", str(out)]) == 0
                blobs.append(out.read_bytes())
            assert blobs[0] == blobs[1], (argv, fmt)
            assert blobs[0]
    print("ACCEPTANCE 11: PASS — all seven subcommands byte-identical "
          "across repeated runs in both output formats")
