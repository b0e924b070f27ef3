from fractions import Fraction

import pytest

from selsolve.errors import NotFirstIntegralError
from selsolve.linsys import KIND_A, KIND_C, AffineForm, UnknownId
from selsolve.ncalgebra import (EMPTY_WORD, U, U_INV, V, V_INV, Derivation,
                                NCPoly, Word)
from selsolve.solver import ZeroRegistry, lsss_solve
from selsolve.symmetry import (COMMUTATOR_UV, SymmetryAnsatz,
                               ansatz_term_count, build_ansatz,
                               build_symmetry_system, complete_split,
                               enumerate_words, find_first_integrals,
                               formulate_nc, formulate_symcon,
                               kontsevich_system, prune_ncpoly,
                               selective_split, side_condition_k0,
                               system_stats)

C = [UnknownId(KIND_C, i) for i in range(8)]


def test_enumerate_words_matches_recursion():
    for n in range(0, 7):
        words = enumerate_words(n)
        assert len(words) == ansatz_term_count(n)
        assert len(set(words)) == len(words)
        # deglex order
        keys = [(len(w), tuple(w)) for w in words]
        assert keys == sorted(keys)


def test_build_ansatz_degree_one():
    ans = build_ansatz(1)
    assert ans.unknown_count == 10
    assert set(ans.dtau.image_u.terms) == {
        EMPTY_WORD, Word((U,)), Word((V,)), Word((U_INV,)), Word((V_INV,))}


def test_build_ansatz_counts():
    assert build_ansatz(3).unknown_count == 106
    assert build_ansatz(4).unknown_count == 322


def test_trivial_symmetry_commutes():
    # with Q := P the flow is the system itself, so the commutator vanishes
    sysm = kontsevich_system()
    ans = build_ansatz(2)
    trivial = Derivation(sysm.dt.image_u, sysm.dt.image_v)
    probe = SymmetryAnsatz(2, trivial, ans.words, ())
    for which in ("u", "v"):
        assert formulate_symcon(sysm, probe, which).is_zero


def test_complete_split_combines_like_words():
    p = NCPoly({Word((U, V)): AffineForm.unknown(C[1])
                + AffineForm.unknown(C[2]),
                Word((V, U)): AffineForm.unknown(C[3])})
    sys_ = complete_split(p)
    assert len(sys_.equations) == 2
    forms = [eq.lhs for eq in sys_.equations]
    assert AffineForm(0, {C[1]: 1, C[2]: 1}) in forms
    assert AffineForm(0, {C[3]: 1}) in forms
    assert complete_split(NCPoly.zero()).equations == []


def test_selective_split_registers_single_unknown_coefficients():
    p = NCPoly({Word((U, V)): AffineForm.unknown(C[1]),
                Word((V, U)): AffineForm.unknown(C[2])
                + AffineForm.unknown(C[3])})
    reg = ZeroRegistry()
    assert selective_split(p, reg) == 1
    assert set(reg) == {C[1]}
    # with c3 already zero the second coefficient prunes to a single term
    reg2 = ZeroRegistry([C[3]])
    assert selective_split(p, reg2) == 2
    assert set(reg2) == {C[1], C[2], C[3]}


def test_prune_ncpoly():
    p = NCPoly({Word((U, V)): AffineForm.unknown(C[1]),
                Word((V, U)): AffineForm.unknown(C[1])
                + AffineForm.unknown(C[2])})
    reg = ZeroRegistry([C[1]])
    out = prune_ncpoly(p, reg)
    assert out == NCPoly({Word((V, U)): AffineForm.unknown(C[2])})
    assert prune_ncpoly(p, ZeroRegistry()) is p


def test_formulate_nc_checks_first_integral():
    sysm = kontsevich_system()
    ans = build_ansatz(1)
    with pytest.raises(NotFirstIntegralError):
        formulate_nc(sysm, ans, Word((U,)))


def test_side_condition_k0_follows_the_degree():
    # D_tau(I) reaches word degree n + 5 and I^k has degree 4|k|
    assert [side_condition_k0(n) for n in (1, 3, 10, 11, 14, 15)] \
        == [3, 3, 3, 4, 4, 5]
    # without an explicit k0 the side condition spans I^-4 .. I^4 at n = 11;
    # the probe flow Q = P keeps the ansatz itself empty
    sysm = kontsevich_system()
    trivial = Derivation(sysm.dt.image_u, sysm.dt.image_v)
    probe = SymmetryAnsatz(11, trivial, (), ())
    assert len(formulate_nc(sysm, probe, COMMUTATOR_UV).aux) == 9


def test_formulate_nc_aux_unknowns():
    sysm = kontsevich_system()
    ans = build_ansatz(3)
    nc = formulate_nc(sysm, ans, COMMUTATOR_UV, 3)
    assert len(nc.aux) == 7
    assert all(uid.kind == KIND_A for uid in nc.aux)
    assert nc.residual.unknowns() >= set(nc.aux)
    # solving the split side condition alone forces every auxiliary to zero
    state = lsss_solve(complete_split(nc.residual))
    for uid in nc.aux:
        gone = uid in state.zeros or (
            uid in state.pivots and state.pivots[uid].is_zero)
        assert gone


def test_selective_split_on_degree3_side_condition_finds_zeros():
    # brute-force oracle: every unknown standing alone as a coefficient must
    # get registered; the in-pass cascade may only add to that
    sysm = kontsevich_system()
    ans = build_ansatz(3)
    nc = formulate_nc(sysm, ans, COMMUTATOR_UV, 3)
    singles = {uid for coeff in nc.residual.terms.values()
               if coeff.term_count == 1 for uid in coeff.coeffs}
    reg = ZeroRegistry()
    found = selective_split(nc.residual, reg)
    assert found >= len(singles) > 0
    assert singles <= set(reg)


def test_split_complete_reproduces_polynomial():
    # equations are canonical (rescaled), so each one is a nonzero rational
    # multiple of the word coefficient it came from: no information is lost
    sysm = kontsevich_system()
    ans = build_ansatz(2)
    poly = formulate_symcon(sysm, ans, "u")
    split = complete_split(poly)
    words = poly.sorted_words()
    assert len(split.equations) == len(words)
    for word, eq in zip(words, split.equations):
        coeff = poly.terms[word]
        assert set(eq.lhs.coeffs) == set(coeff.coeffs)
        uid = next(iter(coeff.coeffs))
        ratio = Fraction(coeff.coeffs[uid]) / Fraction(eq.lhs.coeffs[uid])
        assert ratio != 0
        scaled = eq.lhs.scaled(ratio)
        assert scaled == coeff


def test_selective_split_zero_soundness_against_oracle():
    # an unknown registered by selective splitting is zero in every vector
    # the dense oracle allows for the full system
    from selsolve.linsys import dense_nullspace_oracle

    for n in (3, 4, 5):
        sysm = kontsevich_system()
        ans = build_ansatz(n)
        reg = ZeroRegistry()
        residual = formulate_nc(sysm, ans, COMMUTATOR_UV, 3).residual
        while selective_split(residual, reg):
            residual = prune_ncpoly(residual, reg)
        sym_u = formulate_symcon(sysm, ans, "u", registry=reg)
        selective_split(sym_u, reg)

        full = build_symmetry_system(n, include_nc=True)
        _, basis = dense_nullspace_oracle(full)
        for vec in basis:
            for zero in reg:
                assert vec.get(zero, 0) == 0


def test_stats_degree_3_and_4_match_reference():
    s3 = system_stats(3)
    assert (s3.k, s3.e1, s3.t1, s3.e2, s3.t2, s3.p) \
        == (106, 142, 192, 448, 1034, 1)
    s4 = system_stats(4)
    assert (s4.k, s4.e1, s4.t1, s4.e2, s4.t2, s4.p) \
        == (322, 430, 616, 1412, 3706, 2)


def test_first_integral_dimensions():
    sysm = kontsevich_system()
    assert find_first_integrals(sysm, 3).free_count == 1
    assert find_first_integrals(sysm, 4).free_count == 3


def test_build_symmetry_system_shapes():
    sys_plain = build_symmetry_system(3)
    assert len(sys_plain.universe) == 106
    assert len(sys_plain.equations) == 448
    sys_nc = build_symmetry_system(3, include_nc=True)
    assert len(sys_nc.universe) == 113
    assert len(sys_nc.equations) == 448 + 147
    assert [eq.id for eq in sys_nc.equations] == list(range(448 + 147))
    assert lsss_solve(sys_nc).free_count == 1
