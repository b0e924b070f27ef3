from fractions import Fraction
from itertools import compress

from selsolve.linsys import KIND_A, KIND_C, AffineForm, UnknownId
from selsolve.ncalgebra import (EMPTY_WORD, U, U_INV, V, V_INV, NCPoly, Word,
                                key_word, word_key)
from selsolve.pipeline import default_strategy, run_strategy
from selsolve.solver import lsss_solve, prune_zeros
from selsolve.symmetry import (SortedCondition, SymmetryAnsatz,
                               ansatz_term_count, build_ansatz,
                               build_symmetry_system, complete_split,
                               first_integral_basis, formulate_nc,
                               formulate_symcon, kontsevich_system,
                               prune_ncpoly, relabelled, selective_split,
                               side_condition_k0, system_stats)

from test_words import enumerate_words, sorted_terms

C = [UnknownId(KIND_C, i) for i in range(8)]


def unknowns_of(p):
    return {u for c in p.terms.values() for u in c.coeffs}


def harvest(p, dead):
    return selective_split(SortedCondition(sorted_terms(p)), dead)


def slots_of(dead):
    return {s for s, d in enumerate(dead) if d}


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
    assert set(ans.derivation().image_u.terms) == {
        EMPTY_WORD, Word((U,)), Word((V,)), Word((U_INV,)), Word((V_INV,))}


def test_build_ansatz_counts():
    assert build_ansatz(3).unknown_count == 106
    assert build_ansatz(4).unknown_count == 322


def test_trivial_symmetry_commutes():
    # with Q := P the flow is the system itself, so the commutator vanishes:
    # the coefficients of D_t lie in the degree-2 solution space, staged or
    # solved in full
    sysm = kontsevich_system()
    ans = build_ansatz(2)
    unknowns = ans.slot_unknowns()
    vec = {}
    for image, offset in ((sysm.image_u, 0), (sysm.image_v, len(ans.keys))):
        for word, coeff in image.terms.items():
            vec[unknowns[offset + ans.keys.index(word_key(word))]] \
                = coeff.const
    full = lsss_solve(build_symmetry_system(2))
    staged, _ = run_strategy(2, default_strategy(2))
    for state in (full, staged):
        assert state.free_count == 1
        assert state.contains_vector(vec)


def test_complete_split_combines_like_words():
    p = NCPoly({Word((U, V)): AffineForm.unknown(C[1])
                + AffineForm.unknown(C[2]),
                Word((V, U)): AffineForm.unknown(C[3])})
    sys_ = complete_split([sorted_terms(p)], unknowns_of(p))
    assert len(sys_.equations) == 2
    forms = [eq.lhs for eq in sys_.equations]
    assert AffineForm(0, {C[1]: 1, C[2]: 1}) in forms
    assert AffineForm(0, {C[3]: 1}) in forms
    assert complete_split([sorted_terms(NCPoly.zero())], ()) \
        .equations == []


def test_complete_split_prunes_and_numbers_across_conditions():
    # ids run on across the conditions; a coefficient pruned to zero
    # makes no equation and takes no id, a nonzero constant stays
    first = [(word_key(Word((U,))), AffineForm(0, {C[1]: 2, C[2]: 4})),
             (word_key(Word((V,))), AffineForm.unknown(C[3]))]
    second = [(word_key(EMPTY_WORD), AffineForm(5, {C[3]: 1})),
              (word_key(Word((U, V))), AffineForm(0, {C[2]: -3, C[4]: 6}))]
    sys_ = complete_split([[(k, prune_zeros(c, {C[3]})) for k, c in terms]
                           for terms in (first, second)], C[1:5])
    assert [eq.id for eq in sys_.equations] == [0, 1, 2]
    assert [eq.lhs for eq in sys_.equations] == [
        AffineForm(0, {C[1]: 1, C[2]: 2}), AffineForm.constant(1),
        AffineForm(0, {C[2]: 1, C[4]: -2})]
    assert sys_.universe == frozenset(C[1:5])


def test_selective_split_registers_single_unknown_coefficients():
    # coefficients over slots 1..3 of a four-slot mask
    p = NCPoly({Word((U, V)): AffineForm.unknown(1),
                Word((V, U)): AffineForm.unknown(2) + AffineForm.unknown(3)})
    dead = bytearray(4)
    assert harvest(p, dead) == 1
    assert slots_of(dead) == {1}
    # with slot 3 already dead the second coefficient prunes to one term
    dead = bytearray((0, 0, 0, 1))
    assert harvest(p, dead) == 2
    assert slots_of(dead) == {1, 2, 3}


def test_prune_ncpoly():
    p = NCPoly({Word((U, V)): AffineForm.unknown(C[1]),
                Word((V, U)): AffineForm.unknown(C[1])
                + AffineForm.unknown(C[2])})
    out = prune_ncpoly(p, {C[1]})
    assert out == NCPoly({Word((V, U)): AffineForm.unknown(C[2])})
    assert prune_ncpoly(p, set()) is p


def test_side_condition_k0_follows_the_degree():
    # D_tau(I) reaches word degree n + 5 and I^k has degree 4|k|
    assert [side_condition_k0(n) for n in (1, 3, 10, 11, 14, 15)] \
        == [3, 3, 3, 4, 4, 5]
    # the side condition spans I^-4 .. I^4 at n = 11; an ansatz with no
    # words keeps the formulation itself empty
    probe = SymmetryAnsatz(11, ())
    nc = formulate_nc(probe)
    assert len(nc.aux) == 9


def test_formulate_nc_aux_unknowns():
    ans = build_ansatz(3)
    nc = formulate_nc(ans)
    assert len(nc.aux) == 7
    assert all(uid.kind == KIND_A for uid in nc.aux)
    assert unknowns_of(nc.residual) >= set(nc.aux)
    # solving the split side condition alone forces every auxiliary to zero
    ids = dict(enumerate(ans.slot_unknowns()))
    state = lsss_solve(complete_split([relabelled(nc.keyed_terms(), ids)],
                                      unknowns_of(nc.residual)))
    for uid in nc.aux:
        gone = uid in state.zeros or (
            uid in state.pivots and state.pivots[uid].is_zero)
        assert gone


def test_selective_split_on_degree3_side_condition_finds_zeros():
    # brute-force oracle: every unknown standing alone as a coefficient must
    # get registered; the in-pass cascade may only add to that
    ans = build_ansatz(3)
    nc = formulate_nc(ans)
    singles = {uid for coeff in nc.residual.terms.values()
               if coeff.term_count == 1 for uid in coeff.coeffs}
    dead = bytearray(ans.slot_count)
    found = selective_split(SortedCondition(nc.keyed_terms()), dead)
    assert found >= len(singles) > 0
    assert singles <= set(compress(ans.slot_unknowns(), dead))


def test_unharvested_condition_is_the_formulated_polynomial():
    # the formulated condition's terms, in deglex order
    formulated = formulate_symcon(kontsevich_system(), build_ansatz(2), "u")
    condition = SortedCondition(list(formulated.keyed_terms()))
    assert [key_word(k) for k, _ in condition.terms] \
        == sorted(map(key_word, formulated.terms),
                  key=lambda w: (len(w), tuple(w)))
    assert dict(condition.terms) == formulated.terms


def test_split_complete_reproduces_polynomial():
    # equations are canonical (rescaled), so each one is a nonzero rational
    # multiple of the word coefficient it came from: no information is lost
    sysm = kontsevich_system()
    ans = build_ansatz(2)
    formulated = formulate_symcon(sysm, ans, "u")
    split = complete_split([formulated.keyed_terms()],
                           unknowns_of(formulated))
    keys = sorted(formulated.terms)
    assert len(split.equations) == len(keys)
    for key, eq in zip(keys, split.equations):
        coeff = formulated.terms[key]
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
        dead = bytearray(ans.slot_count)
        condition = SortedCondition(formulate_nc(ans).keyed_terms())
        while selective_split(condition, dead):
            pass
        selective_split(SortedCondition(
            formulate_symcon(sysm, ans, "u", dead).keyed_terms()), dead)
        zeros = set(compress(ans.slot_unknowns(), dead))

        full = build_symmetry_system(n, include_nc=True)
        _, basis = dense_nullspace_oracle(full)
        for vec in basis:
            for zero in zeros:
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
    assert len(first_integral_basis(sysm, 3)) == 1
    assert len(first_integral_basis(sysm, 4)) == 3


def test_build_symmetry_system_shapes():
    sys_plain = build_symmetry_system(3)
    assert len(sys_plain.universe) == 106
    assert len(sys_plain.equations) == 448
    sys_nc = build_symmetry_system(3, include_nc=True)
    assert len(sys_nc.universe) == 113
    assert len(sys_nc.equations) == 448 + 147
    assert [eq.id for eq in sys_nc.equations] == list(range(448 + 147))
    assert lsss_solve(sys_nc).free_count == 1


def test_side_condition_keeps_the_solution_space():
    # N holds for every symmetry: adding it changes no free count, and
    # every auxiliary unknown it brings in is forced to zero
    for n, free in zip(range(3, 7), (1, 2, 4, 5)):
        plain = lsss_solve(build_symmetry_system(n))
        with_nc = lsss_solve(build_symmetry_system(n, include_nc=True))
        assert plain.free_count == with_nc.free_count == free
        aux = {u for u in with_nc.universe if u.kind == KIND_A}
        assert aux == with_nc.universe - plain.universe
        assert aux and all(u in with_nc.zeros for u in aux)
