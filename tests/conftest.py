"""Shared hypothesis strategies for the symbolic-state tests."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import strategies as st

from zstates import BlockProduct, RegisterId, ZBlock, block_sum, distill_step, z_state


def linear_combination(*scaled):
    """Sum of c * s over the (c, s) pairs: one block_sum over all their terms."""
    return block_sum([(Fraction(c) * coeff, prod)
                      for c, s in scaled for coeff, prod in s.terms])


def unit_state(ref):
    """The unit Z_k(n) on a plan state's own id: every plan state's state."""
    return z_state(ref.k, ref.n, RegisterId(ref.id, ref.n))


def fresh_outcome(k, n1, n2):
    """The outcome of one distillation step on fresh Z_k(n1), Z_k(n2)."""
    return distill_step(z_state(k, n1, RegisterId("A", n1)),
                        z_state(k, n2, RegisterId("B", n2)))


@st.composite
def block_sums(draw, max_registers: int = 2, max_width: int = 4,
               max_terms: int = 3, registers=None):
    """Random small block sums over a shared register set.

    Coefficients are small fractions (possibly negative, so terms may cancel
    to the zero sum); every term uses the same registers, as the canonical
    form requires.  `registers` fixes that set; by default it is drawn.
    """
    if registers is not None:
        regs = list(registers)
    else:
        n_regs = draw(st.integers(1, max_registers))
        regs = [RegisterId(f"r{i}", draw(st.integers(1, max_width)))
                for i in range(n_regs)]
    pairs = []
    for _ in range(draw(st.integers(1, max_terms))):
        coeff = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 4)))
        blocks = [ZBlock(r, draw(st.integers(0, r.width))) for r in regs]
        pairs.append((coeff, BlockProduct.of(blocks)))
    return block_sum(pairs)
