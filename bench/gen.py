"""Seeded input text and independent oracles for the benchmark.

Everything here is standard library only and never imports weilkit: the
generators write maps, algebras and command lines as text in weilkit's own
grammars, and the oracles recompute expected jets with plain Fraction
arithmetic on coefficient dictionaries.

A polynomial is a dict mapping an exponent tuple to a nonzero Fraction.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

# ----- rationals and text -----------------------------------------------------


def rat(rng: random.Random, num: int = 9, den: int = 5) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def nonzero_rat(rng: random.Random, num: int = 9, den: int = 5) -> Fraction:
    while True:
        q = rat(rng, num, den)
        if q:
            return q


def qtext(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


# ----- polynomial arithmetic ---------------------------------------------------


def p_add(p: dict, q: dict, sign: int = 1) -> dict:
    out = dict(p)
    for e, c in q.items():
        v = out.get(e, 0) + sign * c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def p_mul(p: dict, q: dict, keep=None) -> dict:
    """Product; keep(e) -> False drops a monomial (truncated rings)."""
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            if keep is not None and not keep(e):
                continue
            v = out.get(e, 0) + c1 * c2
            if v:
                out[e] = v
            else:
                del out[e]
    return out


def p_pow(p: dict, k: int, nvars: int, keep=None) -> dict:
    out = {(0,) * nvars: Fraction(1)}
    for _ in range(k):
        out = p_mul(out, p, keep)
    return out


def p_var(i: int, nvars: int) -> dict:
    return {tuple(1 if j == i else 0 for j in range(nvars)): Fraction(1)}


def p_const(c, nvars: int) -> dict:
    return {(0,) * nvars: Fraction(c)} if c else {}


def monomial_text(e, names) -> str:
    parts = []
    for name, k in zip(names, e):
        if k == 1:
            parts.append(name)
        elif k > 1:
            parts.append(f"{name}^{k}")
    return "*".join(parts)


def p_text(p: dict, names) -> str:
    """Expanded sum, graded order, binary signs between terms."""
    if not p:
        return "0"
    out = []
    for e in sorted(p, key=lambda e: (sum(e), e)):
        c = p[e]
        mono = monomial_text(e, names)
        mag = qtext(abs(c))
        term = mag if not mono else (mono if mag == "1" else f"{mag}*{mono}")
        if not out:
            out.append(term if c > 0 else f"-{term}")
        else:
            out.append(("+ " if c > 0 else "- ") + term)
    return " ".join(out)


def taylor_shift(p: dict, at, orders) -> dict:
    """Coefficients of t^e in p(at + t) for every e with e_i <= orders[i].

    Per monomial c*x^m this expands prod_i (a_i + t_i)^(m_i) binomially.
    """
    out = {}
    for m, c in p.items():
        per_var = []
        for a, mi, oi in zip(at, m, orders):
            per_var.append(
                [(e, comb(mi, e) * Fraction(a) ** (mi - e)) for e in range(min(mi, oi) + 1)]
            )
        stack = [((), c)]
        for choices in per_var:
            stack = [(e + (k,), v * w) for e, v in stack for k, w in choices]
        for e, v in stack:
            out[e] = out.get(e, 0) + v
    return out


# ----- jets workload maps --------------------------------------------------------


FORMS = ("expanded", "horner", "factored", "powers")


def univariate_poly(rng: random.Random, degree: int, form: str):
    """(body text in u, coefficient dict) in one of the written FORMS."""
    u = p_var(0, 1)
    if form == "expanded":
        p = {}
        while not p:
            p = {(k,): rat(rng) for k in range(degree + 1)}
            p = {e: c for e, c in p.items() if c}
        return p_text(p, ("u",)), p
    if form == "horner":
        cs = [rat(rng) for _ in range(degree)] + [nonzero_rat(rng)]
        text = qtext(cs[-1])
        p = p_const(cs[-1], 1)
        for c in reversed(cs[:-1]):
            sign = "-" if c < 0 else "+"
            text = f"({text})*u {sign} {qtext(abs(c))}"
            p = p_add(p_mul(p, u), p_const(c, 1))
        return text, p
    if form == "factored":
        lead = nonzero_rat(rng)
        text = qtext(lead) if lead > 0 else f"({qtext(lead)})"
        p = p_const(lead, 1)
        for _ in range(degree):
            r = rat(rng, 5, 3)
            sign = "-" if r >= 0 else "+"
            text += f"*(u {sign} {qtext(abs(r))})"
            p = p_mul(p, p_add(u, p_const(r, 1), -1))
        return text, p
    k = max(2, degree - rng.randint(0, 2))
    a, b, c, d = nonzero_rat(rng, 4, 3), rat(rng, 4, 3), nonzero_rat(rng, 4, 3), rat(rng, 4, 3)
    lin = p_add(p_mul(p_const(a, 1), u), p_const(b, 1))
    quad = p_add(p_mul(p_const(c, 1), p_mul(u, u)), p_const(d, 1))
    p = p_add(p_pow(lin, k, 1), p_pow(quad, 2, 1), -1)
    text = f"({p_text(lin, ('u',))})^{k} - ({p_text(quad, ('u',))})^2"
    return text, p


def multivariate_poly(rng: random.Random, names, terms: int, max_degree: int, product: bool):
    """(body text, coefficient dict): a monomial sum, times a linear-form
    power when `product` is set."""
    n = len(names)
    p = {}
    while len(p) < terms:
        e = [0] * n
        for _ in range(rng.randint(0, max_degree)):
            e[rng.randrange(n)] += 1
        p[tuple(e)] = nonzero_rat(rng)
    if not product:
        return p_text(p, names), p
    lin = p_const(rat(rng, 3, 2), n)
    for i in range(n):
        lin = p_add(lin, p_mul(p_const(nonzero_rat(rng, 3, 2), n), p_var(i, n)))
    k = rng.randint(2, 3)
    whole = p_mul(p, p_pow(lin, k, n))
    return f"({p_text(p, names)})*({p_text(lin, names)})^{k}", whole


def float_map_text(rng: random.Random) -> str:
    """A one-input transcendental map for float-mode jets; sqrt sees a
    strictly positive argument."""
    names = ("u",)
    bodies = []
    for call in rng.sample(("sin", "exp", "sqrt"), 2):
        inner, _ = univariate_poly(rng, rng.randint(1, 3), rng.choice(FORMS))
        if call == "sqrt":
            inner = f"({inner})^2 + {rng.randint(1, 3)}"
        scale = qtext(nonzero_rat(rng, 3, 2))
        bodies.append(f"{scale}*{call}({inner})" if not scale.startswith("-") else f"({scale})*{call}({inner})")
    tail, _ = univariate_poly(rng, 2, rng.choice(FORMS))
    return f"f({', '.join(names)}) -> ({bodies[0]} + {bodies[1]} + {tail})"


# ----- commands workload ------------------------------------------------------------

def box_algebra_text(gens, bounds, mixed=()) -> str:
    """Q[gens]/(g^bound for each generator, plus the mixed monomials)."""
    rels = [f"{g}^{b}" for g, b in zip(gens, bounds)] + list(mixed)
    return f"Q[{','.join(gens)}]/({', '.join(rels)})"


def jacobian_rank(rows) -> int:
    """Exact rank of a small Fraction matrix."""
    m = [list(r) for r in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c] / m[rank][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def p_eval(p: dict, point) -> Fraction:
    total = Fraction(0)
    for e, c in p.items():
        term = c
        for x, k in zip(point, e):
            term *= Fraction(x) ** k
        total += term
    return total


def p_diff(p: dict, i: int) -> dict:
    out = {}
    for e, c in p.items():
        if e[i]:
            d = list(e)
            d[i] -= 1
            out[tuple(d)] = c * e[i]
    return out


def morphism_images(rng, source_gens, source_bounds, source_mixed, target_gen, target_bound):
    """Images 'g -> c*t^j; ...' of a map Q[gens]/rels -> Q[t]/(t^m).

    Each image is one monomial c*t^j, so a relation monomial r maps to zero
    exactly when sum_i r_i * j_i >= m; exponents are raised until every
    relation does.
    """
    js = [max(1, -(-target_bound // b)) + rng.randint(0, 1) for b in source_bounds]
    for mixed in source_mixed:
        while sum(js[i] for i in mixed) < target_bound:
            js[mixed[0]] += 1
    parts = []
    for g, j in zip(source_gens, js):
        if j >= target_bound:
            parts.append(f"{g} -> 0")
            continue
        c = nonzero_rat(rng, 4, 3)
        mono = target_gen if j == 1 else f"{target_gen}^{j}"
        parts.append(f"{g} -> {qtext(c)}*{mono}" if c > 0 else f"{g} -> -{qtext(-c)}*{mono}")
    return "; ".join(parts)
