"""Exact oracles for benchmark task outputs.

Standard library only, so the driver can check a document without
importing the package it measures.  Every comparison is exact, with
``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction


def series_coefficient_sums(omegas, order: int) -> list[Fraction]:
    """Coefficient sums a_0..a_order of the solution series.

    Evaluating every forest at 1 turns X = 1 + sum_j omega_j B+_j(X^(j+1)),
    with cocycle j at grade offset j, into the scalar recurrence
    a_n = sum_j omega_j [x^(n-j)] A(x)^(j+1), A = sum a_k x^k.  With one
    cocycle of weight 1 these are the Catalan numbers C(2n,n)/(n+1).
    """
    a = [Fraction(1)]
    for n in range(1, order + 1):
        total = Fraction(0)
        for j, w in enumerate(omegas, start=1):
            if j > n:
                break
            deg = n - j
            power = [Fraction(1)] + [Fraction(0)] * deg
            for _ in range(j + 1):
                power = [sum(power[i] * a[k - i] for i in range(k + 1)
                             if k - i < len(a)) for k in range(deg + 1)]
            total += w * power[deg]
        a.append(total)
    return a


def check_solve(doc: dict) -> str | None:
    """Grade-n coefficients of a ``solve`` document sum to a_n."""
    spec = doc["config"]["spec"]
    omegas = [Fraction(c["omega"]) for c in spec["cocycles"]]
    coefficients = doc["results"]["coefficients"]
    expected = series_coefficient_sums(omegas, len(coefficients) - 1)
    for n in range(1, len(coefficients)):
        got = sum((Fraction(t["coef"]) for t in coefficients[n]), Fraction(0))
        summary = Fraction(doc["results"]["summary"][n - 1]["coefficient_sum"])
        if got != expected[n] or summary != expected[n]:
            return f"grade {n}: coefficient sum {got} (summary {summary}), " \
                   f"expected {expected[n]}"
    return None


def check_graphon(doc: dict) -> str | None:
    """For W >= 0 the cut norm is the total mass sum_ij mu_i mu_j W_ij."""
    graphon = doc["results"]["graphon"]
    mu = [Fraction(m) for m in graphon["measures"]]
    mass = Fraction(0)
    for mi, row in zip(mu, graphon["values"]):
        inner = sum((mj * Fraction(v) for mj, v in zip(mu, row) if v != "0"),
                    Fraction(0))
        if inner < 0:
            return "graphon has a negative value"
        mass += mi * inner
    norm = Fraction(doc["results"]["cut_norm"]["value"])
    if norm != mass:
        return f"cut norm {norm} differs from total mass {mass}"
    return None


def check_named_checks(doc: dict) -> str | None:
    """Every named check in the document is PASS."""
    failed = [c["name"] for c in doc.get("checks", []) if c["status"] != "PASS"]
    return f"checks failed: {', '.join(failed)}" if failed else None


def counit_identities(delta, x) -> bool:
    """(eps (x) id) delta(x) = x = (id (x) eps) delta(x), on plain dicts.

    ``delta`` maps (left, right) forest pairs to coefficients and ``x``
    maps forests to coefficients; a forest is empty when it has no trees.
    """
    left, right = {}, {}
    for (l, r), c in delta.items():
        if not r.trees:
            left[l] = left.get(l, Fraction(0)) + c
        if not l.trees:
            right[r] = right.get(r, Fraction(0)) + c
    return left == x == right
