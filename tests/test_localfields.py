"""Field-pair invariants and the additive-character conductor calculus."""

import pytest

from asaiperiods.localfields import (
    AddCharData,
    FieldPair,
    conductor_zero_shift,
    is_prime_power,
    trace_conductor,
    trace_zero_element_kind,
)


def test_field_pair_derived_quantities():
    u = FieldPair(3, False)
    assert u.q_E == 9 and u.e == 1 and u.f == 2
    r = FieldPair(3, True, 1)
    assert r.q_E == 3 and r.e == 2 and r.f == 1


def test_field_pair_validation():
    with pytest.raises(ValueError):
        FieldPair(6, False)  # not a prime power
    with pytest.raises(ValueError):
        FieldPair(1, False)
    with pytest.raises(ValueError):
        FieldPair(4, False, ext_conductor=1)  # unramified forbids it
    with pytest.raises(ValueError):
        FieldPair(5, True, ext_conductor=0)


def test_field_pair_ramified_default_conductor():
    assert FieldPair(5, True).ext_conductor == 1


def test_prime_powers_accepted():
    for q in (2, 4, 8, 9, 25, 27, 121):
        assert FieldPair(q, False).q_E == q * q


def test_is_prime_power_matches_trial_division():
    def trial(n):
        p = next(d for d in range(2, n + 1) if n % d == 0)
        while n % p == 0:
            n //= p
        return n == 1

    assert not any(is_prime_power(n) for n in (-4, 0, 1))
    assert all(is_prime_power(n) == trial(n) for n in range(2, 5000))


def test_is_prime_power_large():
    for q in (2**61 - 1, (2**31 - 1) ** 2, 2**63, 3**40, 10**18 + 3):
        assert is_prime_power(q) and FieldPair(q, False).q_F == q
    # 2^31 - 1 and 2^31 - 19 are both prime
    assert is_prime_power(2**31 - 19)
    assert not is_prime_power((2**31 - 1) * (2**31 - 19))
    assert not is_prime_power((2**31 - 1) ** 2 * 3)


def test_q_F_bounded_below_2_64():
    with pytest.raises(ValueError, match="2\\^64"):
        FieldPair(2**64, False)
    with pytest.raises(ValueError, match="2\\^64"):
        is_prime_power(2**64 + 13)


def test_trace_conductor_pinned_values():
    assert trace_conductor(FieldPair(3, False), 0) == 0
    assert trace_conductor(FieldPair(3, True, 1), 0) == 1
    assert trace_conductor(FieldPair(3, True, 2), 3) == 8


def test_trace_conductor_grid():
    for n_psi in range(-5, 6):
        assert trace_conductor(FieldPair(7, False), n_psi) == n_psi
        for f_ext in (1, 2, 3):
            got = trace_conductor(FieldPair(7, True, f_ext), n_psi)
            assert got == 2 * n_psi + f_ext


def test_trace_conductor_even_parity_when_ext_even():
    for n_psi in range(-5, 6):
        assert trace_conductor(FieldPair(5, True, 2), n_psi) % 2 == 0


def test_conductor_zero_shift_values():
    u = FieldPair(2, False)
    assert conductor_zero_shift(u, AddCharData(3, True)) == 3
    r = FieldPair(2, True, 2)
    assert conductor_zero_shift(r, AddCharData(4, True)) == 2


def test_conductor_zero_shift_re_derives_zero():
    # shifting by m multiplies the conductor by -m uniformizer valuations:
    # unramified subtracts m, ramified subtracts 2m
    for k in (-4, -2, 0, 2, 6):
        u = FieldPair(3, False)
        m = conductor_zero_shift(u, AddCharData(k, True))
        assert k - m == 0
        r = FieldPair(3, True, 2)
        m = conductor_zero_shift(r, AddCharData(k, True))
        assert k - 2 * m == 0


def test_conductor_zero_shift_rejects_odd_ramified():
    r = FieldPair(2, True, 1)
    with pytest.raises(ValueError, match="even conductor"):
        conductor_zero_shift(r, AddCharData(5, True))


def test_conductor_zero_shift_requires_trivial_on_F():
    with pytest.raises(ValueError, match="trivial on F"):
        conductor_zero_shift(FieldPair(2, False), AddCharData(3, False))


def test_trace_zero_element_kind():
    assert trace_zero_element_kind(FieldPair(5, False)) == "any"
    assert trace_zero_element_kind(FieldPair(5, True, 1)) == "uniformizer"
    assert trace_zero_element_kind(FieldPair(5, True, 2)) == "unit"
