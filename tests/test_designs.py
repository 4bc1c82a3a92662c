import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dscodes import designs, errors
from dscodes.designs import (
    AdditiveGroup,
    AlmostDifferenceSet,
    CyclicGroup,
    DifferenceSet,
    FuncSpec,
    IrregularDesign,
)
from dscodes.gf import Field, default_field


def test_paley_gf7_is_the_quadratic_residues():
    F = default_field(7, 1)
    D = designs.paley_set(F)
    assert D.elems.tolist() == [1, 2, 4]
    assert designs.classify_design(AdditiveGroup(F), D.elems) == DifferenceSet(7, 3, 1)
    assert designs.is_skew_set(F, D)


def test_paley_gf13_is_an_almost_difference_set():
    F = default_field(13, 1)
    D = designs.paley_set(F)
    assert D.elems.tolist() == [1, 3, 4, 9, 10, 12]
    cls = designs.classify_design(AdditiveGroup(F), D.elems)
    assert cls == AlmostDifferenceSet(13, 6, 2, 6)
    assert not designs.is_skew_set(F, D)  # -1 is a square when q = 1 (mod 4)


def test_skew_rejects_sets_meeting_their_negation():
    F = default_field(7, 1)
    assert not designs.is_skew_set(F, [1, 2, 5])  # -2 = 5 collides
    assert not designs.is_skew_set(F, [0, 1, 2])  # contains zero
    assert designs.is_skew_set(F, [4, 1, 2, 1])  # a repeated element counts once


@pytest.mark.parametrize("pm", [(3, 1), (3, 5), (5, 3), (7, 2), (131, 2)])
def test_paley_set_is_the_sorted_even_powers(pm):
    F = default_field(*pm)
    D = designs.paley_set(F)
    assert np.array_equal(D.elems, np.sort(F.exp_table[::2]))


def test_set_constructions_read_no_log_table():
    # the sets come off the exp and trace tables; the log table stays unbuilt
    sets = [designs.paley_set(Field(p, m)) for p, m in ((3, 5), (7, 3), (131, 2), (13, 1))]
    sets += [designs.maschietti_set(Field(2, 7), case) for case in designs.MASCHIETTI_CASES]
    sets.append(designs.hkm_set(Field(3, 6)))
    for i, D in enumerate(sets):
        assert D.field._exp is not None and D.field._log is None, i


def test_paley_needs_odd_characteristic():
    with pytest.raises(errors.ToolkitError, match="^Paley sets need odd characteristic$"):
        designs.paley_set(default_field(2, 3))


def test_classify_irregular_spectrum():
    cls = designs.classify_design(CyclicGroup(7), [1, 2, 4, 6])
    assert cls == IrregularDesign(7, 4, ((1, 2), (2, 2), (3, 2)))
    # D is taken as a set: order and repeats do not matter
    assert designs.classify_design(CyclicGroup(7), [6, 4, 1, 2, 4]) == cls


def difference_function(G, D, x):
    """diff_D(x) = |D cap (D+x)| by a Python set loop: the brute-force oracle."""
    add = G.field.add if isinstance(G, AdditiveGroup) else lambda a, b: (a + b) % G.order
    G.check(x)
    dset = set(D)
    for d in dset:
        G.check(d)
    return sum(1 for d in dset if add(d, x) in dset)


def test_difference_function_counts_pairs():
    G = CyclicGroup(7)
    D = [1, 2, 4]
    for x in range(1, 7):
        assert difference_function(G, D, x) == 1  # planar: every shift hits once
    assert difference_function(G, D, 0) == 3
    # the Paley set of GF(7) is the same (7, 3, 1) set in the additive group
    A = AdditiveGroup(default_field(7, 1))
    assert [difference_function(A, D, x) for x in range(7)] == [3] + [1] * 6


def test_classify_rejects_empty_and_foreign_elements():
    G = CyclicGroup(7)
    with pytest.raises(errors.ToolkitError, match="^cannot classify an empty set$"):
        designs.classify_design(G, [])
    with pytest.raises(errors.ToolkitError, match="^9 not in Z_7$"):
        designs.classify_design(G, [1, 9])


@pytest.mark.parametrize("G", [AdditiveGroup(default_field(3, 4)), CyclicGroup(80)])
def test_classify_refuses_more_than_the_work_budget_before_counting(monkeypatch, G):
    monkeypatch.setattr(designs, "DEFAULT_MAX_WORK", 25)
    assert designs.classify_design(G, range(1, 6)).k == 5  # k*k = 25 is within it

    def count(elems):
        raise AssertionError("counted past the budget")

    monkeypatch.setattr(G, "_difference_counts", count)
    with pytest.raises(errors.SizeLimitError, match="work budget 25"):
        designs.classify_design(G, [1, 2, 3, 4, 5, 6, 6])


@pytest.mark.parametrize("elems", [[1.5, 2.7], np.array([1.0, 2.0]), np.array([False, True]),
                                   [True, False]])
def test_non_integer_elements_are_refused_not_truncated(elems):
    F = default_field(3, 2)
    with pytest.raises(ValueError, match="integers"):
        designs.defining_set(F, elems)
    with pytest.raises(ValueError, match="integers"):
        designs.classify_design(AdditiveGroup(F), elems)


class Counted(Exception):
    pass


def test_one_work_budget_serves_codes_and_designs(monkeypatch):
    from dscodes import codes

    # one definition: a second 1 << 34 would be an equal but distinct int
    assert codes.DEFAULT_MAX_WORK is designs.DEFAULT_MAX_WORK == 1 << 34
    # Paley GF(3^10), k*k about 8.7e8, gets past the budget to the count
    G = AdditiveGroup(default_field(3, 10))

    def count(elems):
        raise Counted

    monkeypatch.setattr(G, "_difference_counts", count)
    with pytest.raises(Counted):
        designs.classify_design(G, designs.paley_set(G.field))


def test_defining_set_validation():
    F = default_field(3, 2)
    with pytest.raises(ValueError, match="^defining set has duplicate elements$"):
        designs.defining_set(F, [1, 1, 2])
    with pytest.raises(errors.ToolkitError, match="^defining set is empty$"):
        designs.defining_set(F, [])
    with pytest.raises(errors.ToolkitError, match=r"^99 outside GF\(9\)$"):
        designs.defining_set(F, [4, 99])
    # the first offender in sorted order is named: a negative one before a large one
    with pytest.raises(errors.ToolkitError, match=r"^-1 outside GF\(9\)$"):
        designs.defining_set(F, [9, 4, -1, 12])
    with pytest.raises(errors.ToolkitError, match=r"^9 outside GF\(9\)$"):
        designs.defining_set(F, [12, 9, 0])
    # duplicates are reported before a bad element
    with pytest.raises(ValueError, match="duplicate"):
        designs.defining_set(F, [99, 99, 1])
    # unsorted input with duplicates, and in-range duplicates after a sort
    with pytest.raises(ValueError, match="^defining set has duplicate elements$"):
        designs.defining_set(F, [5, 2, 5, 1])
    with pytest.raises(ValueError, match="duplicate"):
        designs.defining_set(F, np.array([3, 1, 2, 1]))
    # increasing input skips the sort and still names the first offender
    with pytest.raises(errors.ToolkitError, match=r"^-3 outside GF\(9\)$"):
        designs.defining_set(F, [-3, 1, 9, 12])
    with pytest.raises(errors.ToolkitError, match=r"^9 outside GF\(9\)$"):
        designs.defining_set(F, np.array([1, 2, 9, 10]))
    D = designs.defining_set(F, [5, 1, 3])
    assert D.elems.tolist() == [1, 3, 5] and len(D) == 3
    # the set owns its array: a sorted input array is copied, not frozen
    given = np.array([1, 3, 5], dtype=np.int64)
    assert designs.defining_set(F, given) == D and given.flags.writeable
    # an integer array or a set gives an equal set
    E = designs.defining_set(F, np.array([5, 1, 3], dtype=np.int64))
    assert E == D and designs.defining_set(F, {3, 5, 1}) == D
    assert D != designs.defining_set(F, [1, 3, 6])


def test_sets_are_read_only_int64_arrays():
    F = default_field(3, 3)
    D = designs.paley_set(F)
    residues = designs.to_cyclic_residues(D)
    for arr in (D.elems, residues):
        assert isinstance(arr, np.ndarray) and arr.dtype == np.int64
    with pytest.raises(ValueError):
        D.elems[0] = 0
    assert residues.tolist() == sorted(residues.tolist())
    # the dataclass keeps the order it is given (prop-enumerator-invariance's
    # "shuffled" instance relies on it); only defining_set sorts
    shuffled = designs.DefiningSet(F, D.elems[::-1])
    assert shuffled.elems.tolist() == D.elems.tolist()[::-1]
    with pytest.raises(ValueError):
        shuffled.elems[0] = 0


def test_complement_and_residues():
    G = CyclicGroup(7)
    assert designs.complement_in_group(G, [1, 2, 4]) == [0, 3, 5, 6]
    assert designs.complement_in_group(G, []) == list(range(7))
    F = default_field(3, 3)
    D = designs.defining_set(F, [F.pow(F.alpha, t) for t in (0, 5, 11)])
    assert designs.to_cyclic_residues(D).tolist() == [0, 5, 11]
    assert designs.to_cyclic_residues(D, v=13).tolist() == [0, 5, 11]
    assert designs.to_cyclic_residues(D, v=5).tolist() == [0, 0, 1]
    with pytest.raises(errors.ToolkitError, match=r"^dlog\(0\) is undefined$"):
        designs.to_cyclic_residues(designs.defining_set(F, [0, 1]))


@given(st.data())
def test_complement_in_group_matches_a_set_reference(data):
    F = default_field(3, 3)
    G = data.draw(st.sampled_from([CyclicGroup(data.draw(st.integers(1, 60))), AdditiveGroup(F)]))
    # duplicates and values outside the group, which are ignored
    elems = data.draw(st.lists(st.integers(-5, G.order + 5), max_size=40))
    dset = set(elems)
    kind = data.draw(st.sampled_from(["list", "array", "defining-set"]))
    if kind == "array":
        elems = np.array(elems, dtype=np.int64)
    elif kind == "defining-set":
        G = AdditiveGroup(F)
        dset = {x % F.q for x in elems} | {1}
        elems = designs.defining_set(F, dset)
    got = designs.complement_in_group(G, elems)
    assert got == [x for x in range(G.order) if x not in dset]
    assert all(type(x) is int for x in got)


def scalar_eval(F, f, x, traced=False):
    """sum c*x^e (then Tr if traced) with scalar field ops: the reference oracle."""
    acc = 0
    for c, e in f.terms:
        acc = F.add(acc, F.mul(c, F.pow(x, e)))
    return F.trace(acc) if traced else acc


def evaluate(F, f, xs, traced):
    """f(x), or Tr(f(x)), for each x in the 1-D array xs, by one evaluate_rows call."""
    return designs.evaluate_rows(F, *designs.coefficient_rows([f]), xs, traced)[0]


@pytest.mark.parametrize("block", [1, 5, 1 << 16])
def test_func_spec_table_blocks_match_one_evaluate(monkeypatch, block):
    monkeypatch.setattr(designs, "TABLE_BLOCK", block)
    for pm, terms, traced in (((2, 6), ((1, 3), (5, 9)), True), ((3, 3), ((2, 3), (1, 2)), False)):
        F = default_field(*pm)
        f = FuncSpec(terms)
        want = evaluate(F, f, np.arange(F.q, dtype=np.int64), traced)
        got = f.table(F, traced)
        assert want.dtype == np.int64 and got.dtype == np.int32
        assert got.tolist() == want.tolist()


def test_func_spec_table_matches_scalar_evaluate():
    F = default_field(3, 3)
    for terms, traced in ((((1, 4),), False), (((2, 3), (1, 2)), True)):
        f = FuncSpec(terms)
        tbl = f.table(F, traced)
        for x in range(F.q):
            assert tbl[x] == scalar_eval(F, f, x, traced)
        xs = np.array([5, 0, 26, 5])
        assert evaluate(F, f, xs, traced).tolist() == [scalar_eval(F, f, int(x), traced) for x in xs]


def test_parse_func_spec_grammar():
    F = default_field(3, 3)
    assert designs.parse_func_spec(F, "1@3").terms == ((1, 3),)
    assert designs.parse_func_spec(F, "2@4,1@2").terms == ((2, 4), (1, 2))
    u = F.alpha
    f = designs.parse_func_spec(F, "1@10,-1*u@6,-1*u^2@2")
    assert f.terms == ((1, 10), (F.neg(u), 6), (F.neg(F.mul(u, u)), 2))
    g = designs.parse_func_spec(F, "1*alpha@2")
    assert g.terms == ((u, 2),)
    for bad in ("3", "x@2", "1@0", "1@-3", "1*w@2"):
        with pytest.raises(ValueError):
            designs.parse_func_spec(F, bad)


def test_image_set_of_squares_is_paley():
    F = default_field(7, 1)
    f = FuncSpec(((1, 2),))
    assert np.array_equal(designs.image_set(F, f.table(F)).elems, designs.paley_set(F).elems)


def test_eto1_check():
    F = default_field(7, 1)
    assert designs.eto1_check(FuncSpec(((1, 2),)).table(F)) == 2
    assert designs.eto1_check(FuncSpec(((1, 3),)).table(F)) == 3
    assert designs.eto1_check(FuncSpec(((1, 2), (1, 1))).table(F)) is None
    # x + x^3 is nonzero off 0 but has fibres of sizes 1 and 2
    assert designs.eto1_check(FuncSpec(((1, 1), (1, 3))).table(F)) is None


def test_maschietti_exponents():
    assert designs.maschietti_rho(5, "singer") == 2
    assert designs.maschietti_rho(5, "segre") == 6
    assert designs.maschietti_rho(5, "glynn1") == 24
    assert designs.maschietti_rho(5, "glynn2") == 28
    assert designs.maschietti_rho(7, "glynn1") == 20
    assert designs.maschietti_rho(7, "glynn2") == 52
    with pytest.raises(errors.ToolkitError, match="^hyperoval exponents need odd m$"):
        designs.maschietti_rho(4, "segre")
    with pytest.raises(errors.ToolkitError, match="^unknown hyperoval case 'nope'$"):
        designs.maschietti_rho(5, "nope")


def test_maschietti_sets_have_half_size_minus_one():
    for m in (5, 7):
        F = default_field(2, m)
        for case in designs.MASCHIETTI_CASES:
            D = designs.maschietti_set(F, case)
            assert len(D) == 2 ** (m - 1) - 1
            assert 0 not in D.elems


@pytest.mark.parametrize("block", [1, 7, 64, 1 << 16])
def test_maschietti_walk_blocks_match_the_direct_exponents(monkeypatch, block):
    monkeypatch.setattr(designs, "WALK_BLOCK", block)
    for m in (5, 7):
        F = default_field(2, m)
        exp, n = F.exp_table.astype(np.int64), F.q - 1
        for case in designs.MASCHIETTI_CASES:
            rho = designs.maschietti_rho(m, case)
            images = exp[np.arange(n) * rho % n] ^ exp
            want = np.flatnonzero(np.bincount(images, minlength=F.q))
            assert designs.maschietti_set(F, case).elems.tolist() == want[want != 0].tolist()


@pytest.mark.parametrize("m", [1, 3, 5, 7])
def test_maschietti_two_to_one_check_matches_the_fiber_counts(monkeypatch, m):
    # every exponent, two-to-one or not: refused exactly when a fiber of
    # x -> x^rho + x (x = 0 included) is not of size 0 or 2
    F = default_field(2, m)
    x = np.arange(F.q)
    for rho in range(2, 3 * F.q):
        monkeypatch.setattr(designs, "maschietti_rho", lambda m, case, rho=rho: rho)
        images = F.add(F.pow(x, rho), x)
        fibers = np.bincount(images, minlength=F.q)
        if np.all((fibers == 0) | (fibers == 2)):
            want = np.flatnonzero(fibers[1:]) + 1
            if want.size:
                assert designs.maschietti_set(F, "segre").elems.tolist() == want.tolist()
        else:
            with pytest.raises(errors.ToolkitError,
                               match=re.escape(f"x^{rho}+x is not two-to-one on GF(2^{m})")):
                designs.maschietti_set(F, "segre")


def test_maschietti_refuses_a_fiber_of_four(monkeypatch):
    # a crafted table whose images x^7 + x = exp[0] ^ exp[t] are 0 once, 5
    # four times and 6 twice: with x = 0 every fiber is even, yet one has four
    F = Field(2, 3)
    F._exp = np.array([1, 4, 4, 4, 4, 7, 7], dtype=np.int32)
    monkeypatch.setattr(designs, "maschietti_rho", lambda m, case: 7)
    with pytest.raises(errors.ToolkitError, match=r"^x\^7\+x is not two-to-one on GF\(2\^3\)$"):
        designs.maschietti_set(F, "segre")


def test_maschietti_image_is_two_to_one():
    # every element of the image set has exactly two preimages under x^rho + x
    F = default_field(2, 5)
    rho = designs.maschietti_rho(5, "segre")
    D = designs.maschietti_set(F, "segre")
    img = {}
    for x in range(F.q):
        y = F.add(F.pow(x, rho), x)
        img[y] = img.get(y, 0) + 1
    assert set(D.elems) == {y for y, c in img.items() if y != 0 and c == 2}


def test_hkm_set_frozen_h1():
    D = designs.hkm_set(default_field(3, 3))
    assert D.elems.tolist() == [1, 14, 17, 20]
    assert designs.to_cyclic_residues(D, v=13).tolist() == [0, 7, 8, 11]
    cls = designs.classify_design(CyclicGroup(13), designs.to_cyclic_residues(D, v=13))
    assert cls == DifferenceSet(13, 4, 1)


@pytest.mark.parametrize("pm", [(3, 4), (2, 3), (5, 3)])
def test_hkm_set_needs_gf_3_to_3h(pm):
    with pytest.raises(errors.ToolkitError,
                       match=re.escape(f"HKM sets live in GF(3^(3h)), not GF({pm[0]}^{pm[1]})")):
        designs.hkm_set(default_field(*pm))


def test_boolean_support_size():
    F = default_field(2, 5)
    f = FuncSpec(((1, 3),))
    D = designs.boolean_support(F, f.table(F))
    assert len(D) == 16
    # the support of Tr(f): f's table is traced before thresholding
    assert D.elems.tolist() == np.flatnonzero(f.table(F, traced=True) == 1).tolist()


def test_joint_counts_matches_brute_force():
    F = default_field(3, 3)
    ell = 7
    f = FuncSpec(((1, 1), (1, ell)))
    bs = (1, 5, 14, 0)
    wants = []
    for b in bs:
        want = [0, 0, 0]
        for x in range(F.q):
            if scalar_eval(F, f, x, traced=True) == 0:
                want[F.trace(F.mul(b, x))] += 1
        wants.append(tuple(want))
    assert designs.joint_counts(F, f, bs) == wants


def test_additive_group_difference_counts_match_brute_force():
    F = default_field(3, 2)
    G = AdditiveGroup(F)
    D = [1, 3, 4, 7]
    counts = G._difference_counts(sorted(D))
    for x in range(F.q):
        brute = sum(1 for a in D for b in D if F.sub(a, b) == x)
        assert counts[x] == brute


@given(st.sets(st.integers(0, 30), min_size=2, max_size=12))
def test_cyclic_difference_counts_match_brute_force(D):
    G = CyclicGroup(31)
    elems = sorted(D)
    counts = G._difference_counts(elems)
    for x in (0, 1, 7, 30):
        brute = sum(1 for a in elems for b in elems if (a - b) % 31 == x)
        assert counts[x] == brute


@pytest.mark.parametrize("block", [1, 7, 40, 1 << 22])
def test_blocked_difference_counts_match_the_full_matrix(monkeypatch, block):
    monkeypatch.setattr(designs, "DIFF_BLOCK", block)
    F = default_field(3, 4)
    arr = np.asarray(designs.paley_set(F).elems, dtype=np.int64)
    full = np.bincount(F.sub(arr[:, None], arr[None, :]).ravel(), minlength=F.q)
    assert np.array_equal(AdditiveGroup(F)._difference_counts(arr), full)
    G = CyclicGroup(31)
    elems = np.array([0, 1, 3, 8, 12, 18, 29])
    full = np.bincount(((elems[:, None] - elems[None, :]) % 31).ravel(), minlength=31)
    assert np.array_equal(G._difference_counts(elems), full)
