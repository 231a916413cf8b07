from itertools import permutations as all_perms, product
from math import factorial

import pytest

from pentagon import (
    MultTable,
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
    flip_conjugate,
    group_from_cayley,
    group_solution,
    identity_solution,
    idempotent_pair_solution,
    irretractable_solution,
    order_of,
    product_solution,
    sigma_search,
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
from pentagon.core import perm_order

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
    assert oracles.symmetric_group(3).exponent == 6
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
        oracles.symmetric_group(3),
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
    # every shape with |S| <= 64 and |G| <= 8, under a random sigma each,
    # against the theorem's formula written out in oracles
    shapes = [
        (x, a, g)
        for x in range(1, 65)
        for a in range(7)
        for g in range(4)
        if x << (a + g) <= 64
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


def _table(n, fn):
    """The table with s(i, j) = fn(i, j), one call per cell."""
    return SolutionTable(n, tuple(fn(i, j) for i in range(n) for j in range(n)))


def _idempotents(n):
    return [
        f
        for f in product(range(n), repeat=n)
        if all(f[f[x]] == f[x] for x in range(n))
    ]


def _endo_panel():
    """(semigroup, idempotent endomorphism) pairs on groups, left- and
    right-zero semigroups and a non-monoid, up to 4 elements."""
    rows = [
        derive_tables(group_solution(g))[0]
        for g in (cyclic_group(1), cyclic_group(2), cyclic_group(3),
                  cyclic_group(4), xor_group(2))
    ]
    rows += [
        tuple(tuple(range(n)) for _ in range(n)) for n in (2, 3)  # right zero
    ]
    rows += [tuple((x,) * n for x in range(n)) for n in (2, 3)]  # left zero
    rows.append(((0, 0, 0), (0, 0, 0), (0, 0, 2)))
    panel = []
    for r in rows:
        n = len(r)
        for f in _idempotents(n):
            if all(f[r[x][y]] == r[f[x]][f[y]] for x in range(n) for y in range(n)):
                panel.append((MultTable(n, r), f))
    return panel


def test_every_family_matches_its_formula_cell_by_cell(rng):
    # each builder against its defining formula evaluated one cell at a time
    for n in range(1, 10):
        assert identity_solution(n) == _table(n, lambda i, j: (i, j))
    for r in range(5):
        assert irretractable_solution(r) == _table(1 << r, lambda x, y: (x, x ^ y))
    groups = [oracles.symmetric_group(3)]
    groups += [cyclic_group(n) for n in range(1, 7)]
    groups += [xor_group(r) for r in range(4)]
    for g in groups:
        assert group_solution(g) == _table(g.size, lambda x, y: (g.cayley[x][y], y))
    for m, f in _endo_panel():
        want = _table(m.size, lambda x, y: (m.rows[x][y], f[y]))
        assert endo_solution(m, f) == want
    for n in (1, 2, 3):
        idempotents = _idempotents(n)
        for f in idempotents:
            for g in idempotents:
                if all(f[g[x]] == g[f[x]] for x in range(n)):
                    want = _table(n, lambda x, y: (f[x], g[y]))
                    assert idempotent_pair_solution(n, f, g) == want
    for n in range(1, 7):
        for sigma in sigma_search(n):
            powers = [oracles.perm_power(sigma, i + 1) for i in range(n)]
            for g in (trivial_group(), cyclic_group(2), xor_group(1)):
                ng = g.size

                def cell(i, j):
                    i0, a = divmod(i, ng)
                    j0, b = divmod(j, ng)
                    return (i0 * ng + g.cayley[a][b], powers[i0][j0] * ng + b)

                assert cycle_solution(sigma, g) == _table(n * ng, cell)
    for _ in range(60):
        s1 = oracles.random_table(rng.randint(1, 5), rng)
        s2 = oracles.random_table(rng.randint(1, 5), rng)
        n2 = s2.size

        def cell(i, j):
            i1, i2 = divmod(i, n2)
            j1, j2 = divmod(j, n2)
            k1, l1 = s1.apply(i1, j1)
            k2, l2 = s2.apply(i2, j2)
            return (k1 * n2 + k2, l1 * n2 + l2)

        assert product_solution(s1, s2) == _table(s1.size * n2, cell)
        flipped = _table(s1.size, lambda i, j: s1.apply(j, i)[::-1])
        assert flip_conjugate(s1) == flipped


# ---------------------------------------------------------------------------
# endomorphism and idempotent-pair families


def _c2_mult():
    return MultTable(2, derive_tables(group_solution(cyclic_group(2)))[0])


def test_endo_solution_constant_at_identity():
    s = endo_solution(_c2_mult(), (0, 0))
    assert s.apply(0, 1) == (1, 0)
    assert s.apply(1, 1) == (0, 0)
    assert check_pentagon(s)
    assert not check_bijective(s)


def test_endo_solution_identity_map_is_group_solution():
    assert endo_solution(_c2_mult(), (0, 1)) == group_solution(cyclic_group(2))


def test_endo_solution_left_zero_carrier():
    left_zero = MultTable(2, ((0, 0), (1, 1)))
    assert endo_solution(left_zero, (0, 1)) == identity_solution(2)


def test_endo_solution_rejects_bad_input():
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
    for bad in [(0, 0), (1, 2), (0, 1, 1)]:
        with pytest.raises(ValidationError, match="not a permutation"):
            sigma_condition_witness(bad)


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
            sigma_involutive = oracles.perm_power(sigma, 2) == tuple(range(n))
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
    for n in (3, 4):
        good = set(sigma_search(n))
        for sigma in good:
            assert check_pentagon(cycle_solution(sigma, trivial_group()))
        bad = [p for p in all_perms(range(n)) if p not in good]
        rng.shuffle(bad)
        for sigma in bad[:6]:
            powers = [oracles.perm_power(sigma, i + 1) for i in range(n)]
            table = SolutionTable(
                n, tuple((i, powers[i][j]) for i in range(n) for j in range(n))
            )
            assert sigma_condition_witness(sigma) is not None
            assert not check_pentagon(table)


def test_sigma_condition_witness_matches_the_literal_powers(rng):
    # the congruence against sigma^(sigma(i)+1) and sigma^i composed out
    checked = 0
    for n in range(1, 8):
        for sigma in all_perms(range(n)):
            assert sigma_condition_witness(sigma) == oracles.sigma_condition_oracle(sigma)
            checked += 1
    assert checked == 5913
    for n in range(9, 13):
        for _ in range(200):
            sigma = tuple(rng.sample(range(n), n))
            assert sigma_condition_witness(sigma) == oracles.sigma_condition_oracle(sigma)


def test_sigma_search_counts():
    # with d the order of sigma, sigma maps each residue class mod d onto
    # the previous one, so d divides n and d - 1 of those bijections
    # between classes of n/d labels are free: 1 + sum over d | n, d >= 2,
    # of ((n/d)!)^(d-1)
    for n in range(1, 9):
        want = 1 + sum(
            factorial(n // d) ** (d - 1) for d in range(2, n + 1) if n % d == 0
        )
        assert len(sigma_search(n)) == want


def test_trivial_sigma_shape():
    sig = trivial_sigma(3, 2)
    assert len(sig.perms) == 4
    assert all(p == (0, 1, 2) for p in sig.perms)
