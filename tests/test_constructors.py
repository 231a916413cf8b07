import pytest

from pentagon import (
    SolutionTable,
    ValidationError,
    canonical_solution,
    check_bijective,
    check_involutive,
    check_pentagon,
    check_reversed_pentagon,
    cycle_solution,
    cyclic_group,
    decomposition_solution,
    derive_tables,
    direct_product_group,
    endo_solution,
    ext_solution,
    group_from_cayley,
    group_solution,
    identity_solution,
    idempotent_pair_solution,
    irretractable_solution,
    order_of,
    product_solution,
    sigma_search,
    symmetric_group,
    trivial_group,
    xor_group,
)
from pentagon.analysis import classify, find_isomorphism, retract
from pentagon.constructors import (
    Decomposition,
    SigmaMap,
    sigma_condition_witness,
    trivial_sigma,
)
from pentagon.core import perm_order, perm_power

import oracles


# ---------------------------------------------------------------------------
# groups


def test_group_rejects_missing_identity():
    with pytest.raises(ValidationError, match="identity"):
        group_from_cayley([[0, 0], [1, 1]])


def test_group_rejects_non_associative():
    with pytest.raises(ValidationError, match="associativity"):
        group_from_cayley([[0, 1, 2], [1, 2, 0], [2, 1, 0]])


def test_group_rejects_missing_inverse():
    with pytest.raises(ValidationError, match="inverse"):
        group_from_cayley([[0, 1], [1, 1]])


def test_group_exponents():
    assert cyclic_group(6).exponent == 6
    assert xor_group(0).exponent == 1
    assert xor_group(3).exponent == 2
    assert symmetric_group(3).exponent == 6
    assert direct_product_group(cyclic_group(2), cyclic_group(4)).exponent == 4


def _dihedral_4():
    # (i1, j1) (i2, j2) = (i1 + (-1)^j1 i2 mod 4, j1 + j2 mod 2), index i*2+j
    def mul(a, b):
        i1, j1 = divmod(a, 2)
        i2, j2 = divmod(b, 2)
        i = (i1 + (i2 if j1 == 0 else -i2)) % 4
        return i * 2 + (j1 + j2) % 2

    return group_from_cayley([[mul(a, b) for b in range(8)] for a in range(8)])


def _quaternion_8():
    # indices: axis in (1, i, j, k) paired with sign, element = axis*2 + (sign<0)
    table = {(1, 2): (3, 1), (2, 3): (1, 1), (3, 1): (2, 1),
             (2, 1): (3, -1), (3, 2): (1, -1), (1, 3): (2, -1)}

    def mul(a, b):
        ax1, neg1 = divmod(a, 2)
        ax2, neg2 = divmod(b, 2)
        sign = -1 if neg1 != neg2 else 1
        if ax1 == 0:
            ax, s = ax2, 1
        elif ax2 == 0:
            ax, s = ax1, 1
        elif ax1 == ax2:
            ax, s = 0, -1
        else:
            ax, s = table[(ax1, ax2)]
        sign *= s
        return ax * 2 + (1 if sign < 0 else 0)

    return group_from_cayley([[mul(a, b) for b in range(8)] for a in range(8)])


def test_order_of_group_solution_equals_exponent():
    # all groups of order at most 8, up to isomorphism
    groups = [cyclic_group(n) for n in range(1, 9)]
    groups += [xor_group(2), xor_group(3)]
    groups += [
        direct_product_group(cyclic_group(2), cyclic_group(4)),
        symmetric_group(3),
        _dihedral_4(),
        _quaternion_8(),
    ]
    for g in groups:
        assert g.size <= 8
        s = group_solution(g)
        assert check_pentagon(s)
        assert order_of(s, g.exponent) == g.exponent


def test_group_solution_entries():
    s = group_solution(cyclic_group(2))
    assert s.apply(1, 1) == (0, 1)
    assert group_solution(trivial_group()) == identity_solution(1)


def test_group_solution_c4():
    s = group_solution(cyclic_group(4))
    assert check_pentagon(s)
    assert not check_involutive(s)
    assert order_of(s, 8) == 4


# ---------------------------------------------------------------------------
# involutive families


def test_irretractable_solution_entries():
    assert irretractable_solution(0) == identity_solution(1)
    t = irretractable_solution(1)
    assert t.apply(1, 1) == (1, 0)
    assert t.apply(1, 0) == (1, 1)
    assert t.apply(0, 0) == (0, 0)
    assert t.apply(0, 1) == (0, 1)


def test_irretractable_solution_classify():
    triple = classify(irretractable_solution(2))
    assert (triple.x_size, triple.a_dim, triple.g_dim) == (1, 2, 0)


def test_ext_trivial_sigma_on_one_point_is_bitmask_solution():
    assert ext_solution(Decomposition(1, 1, 0)) == irretractable_solution(1)


def test_ext_with_twist():
    sigma = SigmaMap(2, 1, ((0, 1), (1, 0)))
    s = ext_solution(Decomposition(2, 1, 0, sigma))
    assert check_pentagon(s)
    assert check_involutive(s)
    assert retract(s).quotient.size == 2


def test_ext_twisted_is_isomorphic_to_untwisted():
    sigma = SigmaMap(2, 1, ((0, 1), (1, 0)))
    twisted = ext_solution(Decomposition(2, 1, 0, sigma))
    plain = ext_solution(Decomposition(2, 1, 0))
    assert find_isomorphism(twisted, plain) is not None


def test_ext_rejects_bad_dimensions():
    with pytest.raises(ValidationError):
        Decomposition(2, 1, 0, SigmaMap(3, 1, ((0, 1, 2), (0, 1, 2))))
    with pytest.raises(ValidationError):
        ext_solution(Decomposition(2, 1, 1))


def test_ext_equals_product_with_identity_block():
    for x_size in (1, 2, 3):
        for a_dim in (0, 1, 2):
            plain = ext_solution(Decomposition(x_size, a_dim, 0))
            via_product = product_solution(
                identity_solution(x_size), irretractable_solution(a_dim)
            )
            assert plain == via_product


def test_canonical_solution_identity_cases():
    assert canonical_solution(12, 0, 0) == identity_solution(12)
    assert canonical_solution(1, 0, 0) == identity_solution(1)


def test_canonical_equals_triple_product():
    for x, a, g in [(3, 1, 1), (2, 1, 0), (1, 2, 0), (1, 0, 2), (2, 0, 1)]:
        built = canonical_solution(x, a, g)
        via_product = product_solution(
            identity_solution(x),
            product_solution(irretractable_solution(a), group_solution(xor_group(g))),
        )
        assert built == via_product


def test_canonical_rejects_empty_x():
    with pytest.raises(ValidationError):
        canonical_solution(0, 1, 0)


def test_decomposition_solution_general_form():
    sigma = SigmaMap(2, 1, ((0, 1), (1, 0)))
    s = decomposition_solution(Decomposition(2, 1, 1, sigma))
    assert check_pentagon(s)
    assert check_involutive(s)
    triple = classify(s)
    assert (triple.x_size, triple.a_dim, triple.g_dim) == (2, 1, 1)
    assert decomposition_solution(Decomposition(3, 1, 1)) == canonical_solution(3, 1, 1)


def test_decomposition_solution_matches_the_formula(rng):
    # every shape with |S| <= 16 and |G| <= 4, under a random sigma each,
    # against the theorem's formula written out in oracles
    shapes = [
        (x, a, g)
        for x in range(1, 17)
        for a in range(5)
        for g in range(3)
        if x << (a + g) <= 16
    ]
    for x, a, g in shapes:
        perms = []
        for _ in range(1 << a):
            p = list(range(x))
            rng.shuffle(p)
            perms.append(tuple(p))
        sigma = SigmaMap(x, a, tuple(perms))
        want = oracles.decomposition_oracle(x, a, g, perms)
        assert decomposition_solution(Decomposition(x, a, g, sigma)) == want
        if g == 0:
            assert ext_solution(Decomposition(x, a, 0, sigma)) == want
        identity = [tuple(range(x))] * (1 << a)
        assert canonical_solution(x, a, g) == oracles.decomposition_oracle(
            x, a, g, identity
        )


def test_construct_then_verify_all_shapes_up_to_16(rng):
    shapes = [
        (x, a, g)
        for x in range(1, 17)
        for a in range(5)
        for g in range(5)
        if x << (a + g) <= 16
    ]
    for x, a, g in shapes:
        s = canonical_solution(x, a, g)
        assert check_pentagon(s)
        assert check_involutive(s)
    for r in range(5):
        s = irretractable_solution(r)
        assert check_pentagon(s)
        assert check_involutive(s)
    for x, a in [(x, a) for x in range(1, 17) for a in range(5) if x << a <= 16]:
        s = ext_solution(Decomposition(x, a, 0))
        assert check_pentagon(s)
        assert check_involutive(s)
    for x, a in [(2, 1), (3, 1), (2, 2), (4, 1), (1, 3)]:
        perms = []
        for _ in range(1 << a):
            p = list(range(x))
            rng.shuffle(p)
            perms.append(tuple(p))
        s = ext_solution(Decomposition(x, a, 0, SigmaMap(x, a, tuple(perms))))
        assert check_pentagon(s)
        assert check_involutive(s)


# ---------------------------------------------------------------------------
# endomorphism and idempotent-pair families


def _c2_mult():
    return derive_tables(group_solution(cyclic_group(2)))[0]


def test_endo_solution_constant_at_identity():
    s = endo_solution(_c2_mult(), (0, 0))
    assert s.apply(0, 1) == (1, 0)
    assert s.apply(1, 1) == (0, 0)
    assert check_pentagon(s)
    assert not check_bijective(s)


def test_endo_solution_identity_map_is_group_solution():
    assert endo_solution(_c2_mult(), (0, 1)) == group_solution(cyclic_group(2))


def test_endo_solution_left_zero_carrier():
    from pentagon import MultTable

    left_zero = MultTable(2, ((0, 0), (1, 1)))
    assert endo_solution(left_zero, (0, 1)) == identity_solution(2)


def test_endo_solution_rejects_bad_input():
    from pentagon import MultTable

    with pytest.raises(ValidationError, match="associative"):
        endo_solution(MultTable(3, ((0, 1, 2), (1, 2, 0), (2, 1, 0))), (0, 1, 2))
    with pytest.raises(ValidationError, match="idempotent"):
        endo_solution(_c2_mult(), (1, 0))
    with pytest.raises(ValidationError, match="endomorphism"):
        endo_solution(_c2_mult(), (1, 1))


def test_idempotent_pair_identity_maps():
    assert idempotent_pair_solution(3, (0, 1, 2), (0, 1, 2)) == identity_solution(3)


def test_idempotent_pair_examples_satisfy_both_axioms():
    for f, g in [((0, 0), (0, 1)), ((0, 1), (1, 1))]:
        s = idempotent_pair_solution(2, f, g)
        assert oracles.pentagon_oracle(s)
        assert oracles.reversed_pentagon_oracle(s)
        assert check_pentagon(s)
        assert check_reversed_pentagon(s)


def test_idempotent_pair_rejects_bad_maps():
    with pytest.raises(ValidationError, match="idempotent"):
        idempotent_pair_solution(2, (1, 0), (0, 1))
    with pytest.raises(ValidationError, match="commute"):
        idempotent_pair_solution(3, (0, 0, 2), (1, 1, 2))


# ---------------------------------------------------------------------------
# the cycle family


def test_cycle_solution_concrete():
    s = cycle_solution((3, 0, 1, 2), cyclic_group(2))
    assert s.size == 8
    assert check_pentagon(s)
    assert order_of(s, 8) == 4


def test_cycle_solution_trivial():
    assert cycle_solution((0,), trivial_group()) == identity_solution(1)


def test_cycle_solution_involution_case():
    s = cycle_solution((1, 0, 3, 2), trivial_group())
    assert check_pentagon(s)
    assert check_involutive(s)
    assert check_reversed_pentagon(s)


def test_cycle_solution_rejects_bad_sigma():
    with pytest.raises(ValidationError, match="i=1"):
        cycle_solution((1, 2, 3, 0), cyclic_group(2))
    with pytest.raises(ValidationError, match="permutation"):
        cycle_solution((0, 0, 1, 2), cyclic_group(2))


def test_cycle_order_formula():
    for n in (1, 2, 3, 4):
        for sigma in sigma_search(n):
            for g in (trivial_group(), cyclic_group(2), cyclic_group(4)):
                s = cycle_solution(sigma, g)
                expected = _lcm(perm_order(sigma), g.exponent)
                assert order_of(s, expected) == expected


def _lcm(a, b):
    from math import gcd

    return a * b // gcd(a, b)


def test_cycle_rpe_iff_involution_and_exponent_two():
    # the solution is involutive (hence RPE) exactly when sigma squares to
    # the identity and the group has exponent at most 2, so the group
    # being trivial is sufficient but not necessary
    for n in (1, 2, 3, 4, 5):
        for sigma in sigma_search(n):
            sigma_involutive = perm_power(sigma, 2) == tuple(range(n))
            for g in (trivial_group(), cyclic_group(2), cyclic_group(4)):
                s = cycle_solution(sigma, g)
                expected = sigma_involutive and g.exponent <= 2
                assert check_reversed_pentagon(s) == expected
                assert check_involutive(s) == expected


def test_sigma_search_four():
    assert sigma_search(4) == [
        (0, 1, 2, 3),  # identity
        (1, 0, 3, 2),  # (1 2)(3 4)
        (3, 0, 1, 2),  # (1 4 3 2)
        (3, 2, 1, 0),  # (1 4)(2 3)
    ]


def test_sigma_search_small():
    assert sigma_search(1) == [(0,)]
    assert sigma_search(2) == [(0, 1), (1, 0)]
    assert sigma_search(3) == [(0, 1, 2), (2, 0, 1)]


def test_sigma_search_lex_order():
    for n in (3, 4, 5):
        found = sigma_search(n)
        assert found == sorted(found)


def test_sigma_condition_members_give_pe_and_rest_fail(rng):
    # members validated by the constructor; non-members must break the
    # pentagon when forced into the same formula with a trivial group
    from itertools import permutations as all_perms

    for n in (3, 4):
        good = set(sigma_search(n))
        for sigma in good:
            assert check_pentagon(cycle_solution(sigma, trivial_group()))
        bad = [p for p in all_perms(range(n)) if p not in good]
        rng.shuffle(bad)
        for sigma in bad[:6]:
            powers = [perm_power(sigma, i + 1) for i in range(n)]
            table = SolutionTable.from_function(
                n, lambda i, j, powers=powers: (i, powers[i][j])
            )
            assert sigma_condition_witness(sigma) is not None
            assert not check_pentagon(table)


def test_trivial_sigma_shape():
    sig = trivial_sigma(3, 2)
    assert len(sig.perms) == 4
    assert all(p == (0, 1, 2) for p in sig.perms)
