"""Test-side reference for ``d``: the Leibniz rule on index tuples.

This is the rule as the engine once computed it, by slicing each monomial's
index tuples and sorting every Leibniz term.  It takes its reordering sign
from a count of out-of-order pairs and conjugates by swapping the tuples, so
it shares no code with the mask routine or the compiled differentials under
test; it reads only the structure's ``d_omega`` (or a real algebra's
``d_of_e``) and builds monomials and forms.  The tests take sums, multiples
and conjugates of forms here too, since ``Form`` defines none.
"""

from itertools import combinations

from nilcohom.algebra import BasisElement, Form


def oracle_wedge(x: BasisElement, y: BasisElement):
    """``x /\\ y`` as (element, sign), or None if a factor repeats."""
    holo, anti = x.holo + y.holo, x.anti + y.anti
    if len(set(holo)) < len(holo) or len(set(anti)) < len(anti):
        return None
    inversions = len(y.holo) * len(x.anti)
    for block in (holo, anti):
        inversions += sum(1 for a, b in combinations(block, 2) if a > b)
    return BasisElement(tuple(sorted(holo)), tuple(sorted(anti))), (-1) ** inversions


def oracle_conjugate(f: Form) -> Form:
    """``conj(c w^H wbar^A) = conj(c) (-1)^(|H| |A|) w^A wbar^H``."""
    return Form((BasisElement(e.anti, e.holo),
                 c.conjugate() if len(e.holo) * len(e.anti) % 2 == 0 else -c.conjugate())
                for e, c in f.terms.items())


def combination(*pairs) -> Form:
    """``sum c f`` over ``(c, f)`` pairs, for an int, Fraction or Gaussian
    ``c``: sums, differences and multiples of forms, read off their terms
    by ``Form``'s accumulating constructor."""
    return Form((e, a * c) for c, f in pairs for e, a in f.terms.items())


def oracle_d(f: Form, d_holo: list, d_anti: list) -> Form:
    """``sum_k (-1)^k dx_k /\\ (x_0 .. x_k omitted .. x_m)`` over every term of ``f``.

    ``d_holo[j - 1]`` and ``d_anti[j - 1]`` are ``d w^j`` and ``d wbar^j``.
    """
    terms = []
    for elem, coeff in f.terms.items():
        p = len(elem.holo)
        for k, j in enumerate(elem.holo + elem.anti):
            df = d_holo[j - 1] if k < p else d_anti[j - 1]
            if k < p:
                rest = BasisElement(elem.holo[:k] + elem.holo[k + 1:], elem.anti)
            else:
                rest = BasisElement(elem.holo, elem.anti[:k - p] + elem.anti[k - p + 1:])
            for d_elem, d_coeff in df.terms.items():
                merged = oracle_wedge(d_elem, rest)
                if merged is not None:
                    out, sign = merged
                    terms.append((out, coeff * d_coeff * ((-1) ** k * sign)))
    return Form(terms)


def oracle_cs_d(cs, f: Form) -> Form:
    """The oracle's ``d`` on a complex structure."""
    return oracle_d(f, cs.d_omega, [oracle_conjugate(df) for df in cs.d_omega])
