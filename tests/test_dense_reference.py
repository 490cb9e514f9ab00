"""The integer dense oracle against a string-keyed, Fraction-valued one.

`Ref` below is a plain copy of the oracle in its earlier form: basis
strings as keys, one `Fraction` per amplitude.  The oracle under test must
give the same exact values key by key, with its bitmask keys written as
`format(key, f"0{width}b")` and its amplitudes multiplied by its scale.
"""

import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import block_sums
from zstates import (
    DENSE_CAP,
    DenseState,
    RegisterId,
    dense_inner,
    dense_project,
    dense_z,
    inner_product,
    permute_qubits,
    proportionality,
    registers_of,
    success_probability,
    tensor,
    to_dense,
    x0_state,
    z_state,
)


class Ref:
    """The string/Fraction oracle: to_dense, dense_project, permute_qubits,
    dense_inner and proportionality, as they were."""

    @staticmethod
    def weight_strings(n, k):
        out = []
        for ones in combinations(range(n), k):
            chars = ["0"] * n
            for i in ones:
                chars[i] = "1"
            out.append("".join(chars))
        return out

    @staticmethod
    def to_dense(a):
        amps = {}
        for coeff, prod in a.terms:
            per_register = [Ref.weight_strings(b.register.width, b.excitations)
                            for b in prod.blocks]
            for parts in product(*per_register):
                s = "".join(parts)
                amps[s] = amps.get(s, Fraction(0)) + coeff
        return {s: v for s, v in amps.items() if v}

    @staticmethod
    def norm_sq(amps):
        return sum((v * v for v in amps.values()), Fraction(0))

    @staticmethod
    def dense_project(state, idx, target):
        chosen = set(idx)
        width = len(next(iter(state)))
        keep = [i for i in range(width) if i not in chosen]
        rem = {}
        for s, amp in state.items():
            overlap = target.get("".join(s[i] for i in idx))
            if overlap is None:
                continue
            y = "".join(s[i] for i in keep)
            rem[y] = rem.get(y, Fraction(0)) + overlap * amp
        rem = {y: v for y, v in rem.items() if v}
        weight = Ref.norm_sq(rem) / (Ref.norm_sq(state) * Ref.norm_sq(target))
        return rem, weight

    @staticmethod
    def permute_qubits(state, perm):
        amps = {}
        for s, v in state.items():
            chars = ["0"] * len(s)
            for i, c in enumerate(s):
                chars[perm[i]] = c
            amps["".join(chars)] = v
        return amps

    @staticmethod
    def dense_inner(a, b):
        return sum((v * b[s] for s, v in a.items() if s in b), Fraction(0))

    @staticmethod
    def proportionality(a, b):
        if not b:
            return None
        if not a:
            return Fraction(0)
        if set(a) != set(b):
            return None
        ratios = {v / b[s] for s, v in a.items()}
        return ratios.pop() if len(ratios) == 1 else None


def values(d: DenseState) -> dict[str, Fraction]:
    """The exact value on every basis string, as the reference keys it (a
    state on no qubits has the one key 0, written as the empty string)."""
    return {format(key, f"0{d.width}b") if d.width else "": d.scale * v
            for key, v in d.amplitudes.items()}


# ------------------------------------------------------------------ to_dense

@settings(max_examples=80)
@given(a=block_sums(max_registers=3))
def test_to_dense_matches_reference(a):
    """Fractional and negative coefficients, cancelling terms included."""
    assert values(to_dense(a)) == Ref.to_dense(a)


@pytest.mark.parametrize("k", range(1, 6))
@pytest.mark.parametrize("alpha", ["default", "unit", "skewed"])
def test_x0_targets_match_reference(k, alpha):
    weights = {"default": None, "unit": [1] * (k + 1),
               "skewed": [Fraction(-j - 1, j + 2) for j in range(k + 1)]}[alpha]
    target = x0_state(k, RegisterId("XA", k), RegisterId("XB", k), weights)
    d = to_dense(target)
    assert values(d) == Ref.to_dense(target)
    assert all(key.bit_count() == k for key in d.amplitudes)


def test_dense_z_matches_reference():
    for n in range(DENSE_CAP - 4, DENSE_CAP + 1):
        for k in (0, 1, 2, n - 1, n):
            assert values(dense_z(k, n)) == Ref.to_dense(z_state(k, n, "q"))


# ------------------------------------------- inner products and proportionality

@settings(max_examples=60)
@given(data=st.data())
def test_inner_and_proportionality_match_reference(data):
    a = data.draw(block_sums(), label="a")
    assume(not a.is_zero())
    b = data.draw(block_sums(registers=registers_of(a)), label="b")
    da, db = to_dense(a), to_dense(b)
    ra, rb = Ref.to_dense(a), Ref.to_dense(b)
    if not b.is_zero():
        assert dense_inner(da, db) == Ref.dense_inner(ra, rb) == inner_product(a, b)
    assert proportionality(da, db) == Ref.proportionality(ra, rb)
    scaled = DenseState(da.width, da.amplitudes, da.scale * Fraction(-2, 3))
    assert proportionality(scaled, da) == Ref.proportionality(
        {s: Fraction(-2, 3) * v for s, v in ra.items()}, ra) == Fraction(-2, 3)


# ------------------------------------------------------------------ projection

@settings(max_examples=60)
@given(data=st.data())
def test_projection_matches_reference_on_block_sums(data):
    a = data.draw(block_sums(max_registers=3), label="a")
    assume(not a.is_zero())
    d = to_dense(a)
    width = d.width
    qubits = data.draw(st.lists(st.integers(0, width - 1), min_size=1,
                                max_size=width, unique=True), label="qubits")
    target = data.draw(block_sums(registers=[RegisterId("m", len(qubits))]),
                       label="target")
    assume(not target.is_zero())
    remainder, weight = dense_project(d, qubits, to_dense(target))
    ref_rem, ref_weight = Ref.dense_project(Ref.to_dense(a), qubits,
                                            Ref.to_dense(target))
    assert values(remainder) == ref_rem
    assert weight == ref_weight


def joint_cells():
    """Distillation joints up to the cap, each with random selections."""
    rng = random.Random(12)
    cells = [(1, 11, 11), (2, 10, 12), (1, 2, 20), (3, 8, 8), (2, 4, 5)]
    for k, n1, n2 in cells:
        for _ in range(3):
            yield k, n1, n2, rng.sample(range(n1), k), rng.sample(range(n2), k)


@pytest.mark.parametrize("k, n1, n2, sel_a, sel_b", list(joint_cells()))
def test_random_selections_on_joints_match_reference(k, n1, n2, sel_a, sel_b):
    joint_sum = tensor(z_state(k, n1, RegisterId("A", n1)),
                       z_state(k, n2, RegisterId("B", n2)))
    target_sum = x0_state(k, RegisterId("XA", k), RegisterId("XB", k))
    qubits = [*sel_a, *(n1 + i for i in sel_b)]
    remainder, weight = dense_project(to_dense(joint_sum), qubits,
                                      to_dense(target_sum))
    ref_rem, ref_weight = Ref.dense_project(Ref.to_dense(joint_sum), qubits,
                                            Ref.to_dense(target_sum))
    assert values(remainder) == ref_rem
    assert weight == ref_weight == success_probability(k, n1, n2)
    z_out = dense_z(k, n1 + n2 - 2 * k)
    assert (proportionality(remainder, z_out)
            == Ref.proportionality(ref_rem, values(z_out)))


# ------------------------------------------------------------------ permutation

@settings(max_examples=60)
@given(a=block_sums(max_registers=3), seed=st.integers(0, 2 ** 16))
def test_permutation_matches_reference(a, seed):
    d = to_dense(a)
    perm = list(range(d.width))
    random.Random(seed).shuffle(perm)
    permuted = permute_qubits(d, perm)
    assert values(permuted) == Ref.permute_qubits(values(d), perm)


# ------------------------------------------------------------ negative control

def test_an_amplitude_or_scale_off_flips_the_verdicts():
    """The comparisons above can fail: one amplitude off by one unit, or a
    scale off by a factor of 2, changes what the oracle says."""
    k, n1, n2 = 2, 5, 6
    joint = to_dense(tensor(z_state(k, n1, RegisterId("A", n1)),
                            z_state(k, n2, RegisterId("B", n2))))
    target = to_dense(x0_state(k, RegisterId("XA", k), RegisterId("XB", k)))
    qubits = [0, 1, n1, n1 + 1]
    z_out = dense_z(k, n1 + n2 - 2 * k)
    remainder, weight = dense_project(joint, qubits, target)
    ratio = proportionality(remainder, z_out)
    assert ratio is not None and weight == success_probability(k, n1, n2)

    amps = dict(joint.amplitudes)
    amps[int("11000" + "000011", 2)] += 1  # measured bits 1100, in the target
    off_by_one = DenseState(joint.width, amps, joint.scale)
    assert values(off_by_one) != values(joint)
    bad_remainder, bad_weight = dense_project(off_by_one, qubits, target)
    assert proportionality(bad_remainder, z_out) is None
    assert bad_weight != weight

    halved = DenseState(target.width, target.amplitudes, target.scale / 2)
    assert values(halved) != values(target)
    halved_remainder, _ = dense_project(joint, qubits, halved)
    assert proportionality(halved_remainder, z_out) == ratio / 2
    assert halved_remainder != remainder
