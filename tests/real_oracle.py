"""Test-side reference constructions on complex structures: the underlying
real algebra by substitution, and the product with a torus.

``realify`` writes each ``w^j`` as ``e^{2j-1} + i e^{2j}`` and wedges the
images of every monomial's factors with ``Form.wedge``, so it shares no code
with the structure's compiled differentials.  Tests compare the structure's
own nilpotency check, Betti numbers and real ``d`` against the real algebra
it gives, and read the 8d catalog rows as torus products of the 6d ones.
"""

from d_oracle import combination
from nilcohom.algebra import BasisElement, Form, Gaussian, ONE
from nilcohom.model import ComplexStructure, RealAlgebra


def substitute(f: Form, holo_images: list[Form], anti_images: list[Form]) -> Form:
    """Apply the algebra map ``w^j -> holo_images[j-1]``, ``wbar^j -> anti_images[j-1]``.

    Each monomial goes to the wedge of the images of its factors, in order.
    """
    pieces = []
    for elem, coeff in f.terms.items():
        piece = Form.single(BasisElement((), ()), coeff)
        for j in elem.holo:
            piece = piece.wedge(holo_images[j - 1])
        for j in elem.anti:
            piece = piece.wedge(anti_images[j - 1])
        pieces.append((1, piece))
    return combination(*pieces)


def realify(cs: ComplexStructure) -> RealAlgebra:
    """The underlying real algebra on ``e^{2j-1} = Re w^j``, ``e^{2j} = Im w^j``.

    Its ``d^2 = 0`` is inherited from ``cs``: the substitution is an
    isomorphism of the complexified differential algebras.
    """
    n, m = cs.n, 2 * cs.n
    i = Gaussian.of(0, 1)
    subs_holo = [
        Form([(BasisElement((2 * j - 1,), ()), ONE), (BasisElement((2 * j,), ()), i)])
        for j in range(1, n + 1)
    ]
    # wbar^j = e^{2j-1} - i e^{2j}: conjugate coefficients, keep real slots
    subs_anti = [
        Form([(e, c.conjugate()) for e, c in f.terms.items()])
        for f in subs_holo
    ]

    d_of_e: list[Form] = []
    for j in range(1, n + 1):
        x = substitute(cs.d_omega[j - 1], subs_holo, subs_anti)
        real_part = Form([(e, Gaussian.of(c.re)) for e, c in x.terms.items()])
        imag_part = Form([(e, Gaussian.of(c.im)) for e, c in x.terms.items()])
        d_of_e.append(real_part)
        d_of_e.append(imag_part)
    return RealAlgebra(m, d_of_e)


def product_with_torus(cs: ComplexStructure) -> ComplexStructure:
    """Append one closed coframe generator (complex dimension n+1)."""
    return ComplexStructure(cs.n + 1, [*cs.d_omega, Form()])
