import itertools
from collections import Counter

import numpy as np
import pytest

from grammate.gram import convertibility, is_gram_pair, is_realizable_witness
from grammate.matrix_core import (
    BinaryMatrix,
    Permutation,
    SignedMatrix,
    apply_perms,
)
from grammate.oracle import enumerate_gram_pairs
from grammate.rank_forms import (
    M_INDEX_NAMES,
    FormMatchError,
    NotRealizableError,
    Rank1Form,
    Rank2Form,
    canonical_rank1_E,
    canonical_rank2_E,
    classify_rank1,
    classify_rank2,
    rank1_complete,
    rank1_gram_data,
    rank2_complete,
    rank2_gram_data,
    rank2_realizable,
    reconstruct_E,
    _core,
    _ZERO_SUMS,
)


def form_of(mtype, **idx):
    e = canonical_rank2_E(mtype, idx)
    f = classify_rank2(e)
    assert f is not None and f.mtype == mtype
    return f


def J(m, n):
    return np.ones((m, n), dtype=np.int8)


def Z(m, n):
    return np.zeros((m, n), dtype=np.int8)


# one zero-sum rank-2 index tuple per form
ZERO_SUM_FORMS = {
    "M1": dict(k=1, l=2, a=1, b=2),
    "M2": dict(k=1, l=2, e=1, f=1, g=2, h=2),
    "M3": dict(k=1, l=2, a=1, b=1, c=1, d=1, e=2, f=2),
    "M4": dict(k=1, l=2, a=1, b=0, c=0, d=1, e=1, f=1, g=1, h=1),
    "M5": dict(k=2, l=1, p=0, q=1, r=1, s=2, a=2, b=1, c=0, d=1, e=1, f=2),
}


def _assert_gram_data(E, rep):
    """rep holds the top singular values of E/2 (to 1e-12 of numpy's SVD) with
    orthonormal vector columns, (-E/2) v = sigma u and (-E/2)^T u = sigma v."""
    half = E.int64() * -0.5
    s = np.array(rep.values)
    assert np.abs(s - np.linalg.svd(half, compute_uv=False)[: len(s)]).max() < 1e-12
    U, V = rep.left_vectors, rep.right_vectors
    assert np.abs(half @ V - U * s).max() < 1e-9
    assert np.abs(half.T @ U - V * s).max() < 1e-9
    for W in (U, V):
        assert np.abs(W.T @ W - np.eye(len(s))).max() < 1e-12


def _gram_sweep():
    """(E, form) for the canonical E of every zero-sum index tuple that
    classifies as a rank-2 form, with M1 and M2 indices at most 3 and M3-M5
    indices at most 2: 2,630 forms, 191 of them with a repeated value."""
    out = []
    for mtype, names in M_INDEX_NAMES.items():
        top = 3 if mtype in ("M1", "M2") else 2
        grid = np.indices((top + 1,) * len(names)).reshape(len(names), -1).T
        sums = np.array([[dict(rel).get(n, 0) for n in names] for rel in _ZERO_SUMS[mtype]],
                        dtype=np.int64).reshape(-1, len(names))
        for vals in grid[~(grid @ sums.T).any(axis=1)]:
            idx = dict(zip(names, vals.tolist()))
            core = _core(mtype, idx)
            if not core.any():
                continue
            E = SignedMatrix(core)
            try:
                form = classify_rank2(E)
            except FormMatchError:
                continue
            if form is not None:
                out.append((E, form))
    return out


class TestClassifyRank1:
    def test_smallest(self):
        f = classify_rank1(SignedMatrix(np.array([[1, -1], [-1, 1]])))
        assert (f.k1, f.k2) == (1, 1)

    def test_paper_example(self, rank1_example):
        _, _, E = rank1_example
        f = classify_rank1(E)
        assert (f.k1, f.k2) == (2, 2)
        assert apply_perms(E, f.row_perm, f.col_perm) == canonical_rank1_E(2, 2, 3, 3)

    def test_nonzero_column_sums(self):
        assert classify_rank1(SignedMatrix(np.array([[1, -1], [1, -1]]))) is None

    def test_zero_raises(self):
        with pytest.raises(ValueError):
            classify_rank1(SignedMatrix.zeros(2, 2))

    def test_rank_two_rejected(self):
        e = canonical_rank2_E("M1", {"k": 1, "l": 1, "a": 1, "b": 1})
        assert classify_rank1(e) is None

    def test_permuted_with_padding(self):
        e = canonical_rank1_E(1, 2, 2, 1)
        shuffled = apply_perms(e, Permutation((3, 0, 1, 2)), Permutation((4, 2, 0, 1, 3)))
        f = classify_rank1(shuffled)
        assert (f.k1, f.k2) == (1, 2)
        assert apply_perms(shuffled, f.row_perm, f.col_perm) == e


class TestRank1Form:
    def test_has_the_rank2_interface(self):
        # the fields a Rank2Form holds per form, fixed for rank 1
        f = classify_rank1(canonical_rank1_E(1, 2, 1, 0))
        assert (f.mtype, f.transposed, f.as_dict()) == ("R1", False, {"k1": 1, "k2": 2})

    @pytest.mark.parametrize("k1, k2", [(0, 1), (1, 0), (-1, 2)])
    def test_nonpositive_indices_rejected(self, k1, k2):
        with pytest.raises(ValueError, match="k1 and k2 must be positive"):
            Rank1Form(k1, k2, Permutation.identity(2), Permutation.identity(2))
        with pytest.raises(ValueError, match="k1 and k2 must be positive"):
            canonical_rank1_E(k1, k2)

    @pytest.mark.parametrize("pad_rows, pad_cols", [(-1, 0), (0, -1)])
    def test_negative_pads_rejected(self, pad_rows, pad_cols):
        match = "pad_rows and pad_cols must be nonnegative"
        with pytest.raises(ValueError, match=match):
            canonical_rank1_E(2, 2, pad_rows, pad_cols)
        with pytest.raises(ValueError, match=match):
            canonical_rank2_E("M1", {"k": 1, "l": 1, "a": 1, "b": 1}, pad_rows, pad_cols)


class TestRank1Witness:
    def test_canonical_core_zero_borders(self):
        assert is_realizable_witness(canonical_rank1_E(1, 1), BinaryMatrix(np.array([[0, 1], [1, 0]])))

    def test_paper_witness(self, rank1_example):
        A, _, E = rank1_example
        assert is_realizable_witness(E, A)

    def test_broken_border_sum(self, rank1_example):
        A, _, E = rank1_example
        a = A.int64().copy()
        a[0, 5] ^= 1  # breaks the column-sum equality of the right border
        assert not is_realizable_witness(E, BinaryMatrix(a.astype(np.int8)))

    def test_layout_mismatch(self):
        with pytest.raises(ValueError):
            is_realizable_witness(canonical_rank1_E(1, 1), BinaryMatrix.zeros(3, 3))


class TestRank1Complete:
    def test_smallest(self):
        f = classify_rank1(canonical_rank1_E(1, 1))
        assert (rank1_complete(f).data == np.array([[0, 1], [1, 0]])).all()

    def test_rectangular(self):
        f = classify_rank1(canonical_rank1_E(1, 2))
        assert (rank1_complete(f).data == np.array([[0, 0, 1, 1], [1, 1, 0, 0]])).all()

    def test_with_border_dims(self):
        # the zero borders come from the classified E's own size
        f = classify_rank1(canonical_rank1_E(2, 2, 3, 3))
        A = rank1_complete(f)
        assert A.shape == (7, 7)
        e = canonical_rank1_E(2, 2, 3, 3).int64()
        b = A.int64() + e
        assert is_gram_pair(A, BinaryMatrix(b.astype(np.int8))) is not None

    def test_witness_is_minus_cells_of_E(self):
        rng = np.random.default_rng(11)
        for k1, k2, pad_r, pad_c in itertools.product(range(1, 4), range(1, 4), range(3), range(3)):
            e = canonical_rank1_E(k1, k2, pad_r, pad_c).data
            E = SignedMatrix(e[rng.permutation(e.shape[0])][:, rng.permutation(e.shape[1])])
            A = rank1_complete(classify_rank1(E))
            assert ((A.data == (E.data == -1)) | (E.data == 0)).all()
            assert not A.data[E.data == 0].any()  # zero borders
            assert is_realizable_witness(E, A)

    def test_unpermutes(self, rank1_example):
        _, _, E = rank1_example
        f = classify_rank1(E)
        A = rank1_complete(f)
        b = A.int64() + E.int64()
        assert is_gram_pair(A, BinaryMatrix(b.astype(np.int8))) is not None

    def test_unverified_witness_raises(self, unverified_fill):
        # rank 1 checks its witness as rank 2 does; this E has a zero column
        with pytest.raises(RuntimeError, match="failed Gram verification"):
            rank1_complete(classify_rank1(canonical_rank1_E(1, 1, 0, 1)))


class TestRank1GramData:
    def test_smallest_value(self):
        rep = rank1_gram_data(classify_rank1(canonical_rank1_E(1, 1)))
        assert rep.values == (1.0,)
        assert rep.source == "closed_form_rank1"

    def test_paper_value_and_vector(self, rank1_example):
        _, _, E = rank1_example
        rep = rank1_gram_data(classify_rank1(E))
        assert abs(rep.values[0] - 2.0) < 1e-12
        target = np.array([1, 1, -1, -1, 0, 0, 0]) / 2.0
        assert np.abs(np.abs(rep.right_vectors[:, 0]) - np.abs(target)).max() < 1e-12

    def test_matches_numeric_svd(self):
        e = canonical_rank1_E(2, 3)
        rep = rank1_gram_data(classify_rank1(e))
        sv = np.linalg.svd(e.int64() * 0.5, compute_uv=False)
        assert abs(rep.values[0] - np.sqrt(6)) < 1e-12
        assert abs(rep.values[0] - sv[0]) < 1e-9
        for k1, k2 in itertools.product(range(1, 7), repeat=2):
            e = canonical_rank1_E(k1, k2, 1, 2)
            _assert_gram_data(e, rank1_gram_data(classify_rank1(e)))

    def test_indices_past_int64_squares(self):
        # tr M^2 = 2 (2 k1 k2)^2 passes 2^63 here; E itself is never built
        k = 200_000
        ident = Permutation(tuple(range(2 * k)))
        rep = rank1_gram_data(Rank1Form(k, k, ident, ident))
        assert rep.values == (float(k),)
        assert abs(rep.right_vectors[0, 0] - 1 / np.sqrt(2 * k)) < 1e-15


class TestClassifyRank2:
    def test_disjoint_rank1_blocks_are_m2(self):
        f = form_of("M2", k=1, l=1, e=1, f=1, g=1, h=1)
        assert f.as_dict() == {"k": 1, "l": 1, "e": 1, "f": 1, "g": 1, "h": 1}

    def test_m4_round_trip(self):
        idx = {"k": 1, "l": 1, "a": 1, "b": 0, "c": 0, "d": 1, "e": 1, "f": 1, "g": 1, "h": 1}
        f = form_of("M4", **idx)
        assert f.as_dict() == idx

    def test_type1_example_indices(self):
        # the displayed family with n=1
        idx = dict(k=2, l=1, p=0, q=1, r=1, s=2, a=2, b=1, c=0, d=1, e=1, f=2)
        f = form_of("M5", **idx)
        assert f.as_dict() == idx

    def test_zero_raises(self):
        with pytest.raises(ValueError):
            classify_rank2(SignedMatrix.zeros(3, 3))

    def test_wrong_rank_rejected(self):
        assert classify_rank2(canonical_rank1_E(1, 1)) is None
        e4 = SignedMatrix(
            np.array(
                [[1, -1, 0, 0], [0, 1, -1, 0], [0, 0, 1, -1], [-1, 0, 0, 1]]
            )
        )
        assert classify_rank2(e4) is None

    def test_nonzero_sums_rejected(self):
        e = SignedMatrix(np.array([[1, -1], [1, -1], [-1, 1]]))
        assert classify_rank2(e) is None

    def test_transpose_orientation(self):
        idx = {"k": 1, "l": 1, "a": 1, "b": 1, "c": 1, "d": 1, "e": 1, "f": 1}
        et = SignedMatrix(canonical_rank2_E("M3", idx).data.T)
        f = classify_rank2(et)
        assert f.mtype == "M3" and f.transposed and f.as_dict() == idx

    @pytest.mark.parametrize("mtype", sorted(ZERO_SUM_FORMS))
    def test_padded_and_permuted(self, mtype):
        core = canonical_rank2_E(mtype, ZERO_SUM_FORMS[mtype]).data
        full = np.zeros((core.shape[0] + 2, core.shape[1] + 1), dtype=np.int8)
        full[: core.shape[0], : core.shape[1]] = core
        rng = np.random.default_rng(3)
        p = Permutation(tuple(rng.permutation(full.shape[0]).tolist()))
        q = Permutation(tuple(rng.permutation(full.shape[1]).tolist()))
        shuffled = apply_perms(SignedMatrix(full), p, q)
        f = classify_rank2(shuffled)
        # the labeling may differ from the tuple by a symmetry of the form, but it
        # must describe the shuffled matrix exactly
        assert f.mtype == mtype
        assert reconstruct_E(f) == shuffled

    def test_classification_idempotent(self):
        # re-classifying a form's own canonical matrix reproduces it
        sweeps = [
            ("M1", dict(k=2, l=1, a=1, b=2)),
            ("M2", dict(k=1, l=2, e=2, f=2, g=1, h=1)),
            ("M3", dict(k=1, l=1, a=1, b=1, c=1, d=1, e=2, f=2)),
            ("M5", dict(k=1, l=1, p=1, q=1, r=1, s=1, a=1, b=1, c=1, d=1, e=1, f=1)),
        ]
        for mtype, idx in sweeps:
            f = form_of(mtype, **idx)
            f2 = classify_rank2(canonical_rank2_E(f.mtype, f.as_dict()))
            assert (f2.mtype, f2.as_dict()) == (f.mtype, f.as_dict())

    def test_index_names_validated(self):
        with pytest.raises(ValueError):
            Rank2Form(
                mtype="M1",
                indices=(("k", 1), ("l", 1), ("x", 1), ("b", 1)),
                row_perm=Permutation.identity(4),
                col_perm=Permutation.identity(4),
                transposed=False,
            )

    @pytest.mark.parametrize("indices", [
        (("k", 1), ("l", 1), ("a", -1), ("b", -1)),
        (("k", 2), ("l", 2), ("a", -1), ("b", 2)),
    ])
    def test_negative_indices_rejected(self, indices):
        # both keep E's zero sums, so only the sign check turns them away
        with pytest.raises(ValueError, match="nonnegative"):
            Rank2Form("M1", indices, Permutation.identity(4), Permutation.identity(4), False)

    @pytest.mark.parametrize("idx, match", [
        (dict(k=1), "index names"),
        (dict(k=1, l=1, e=1, f=1, g=1, h=1, x=1), "index names"),
        (dict(k=1, l=1, e=-1, f=-1, g=1, h=1), "nonnegative"),
    ])
    def test_canonical_rank2_E_validates_indices(self, idx, match):
        with pytest.raises(ValueError, match=match):
            canonical_rank2_E("M2", idx)

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError, match="unknown form tag M6"):
            Rank2Form("M6", (), Permutation.identity(2), Permutation.identity(2), False)
        with pytest.raises(ValueError, match="unknown form tag R1"):
            canonical_rank2_E("R1", {"k1": 1, "k2": 1})

    def test_zero_sum_relations_validated(self):
        # M2's zero row sums need e = f and g = h
        idx = dict(k=1, l=1, e=1, f=2, g=1, h=1)
        with pytest.raises(ValueError, match="zero row and column sums"):
            Rank2Form(
                mtype="M2",
                indices=tuple(idx.items()),
                row_perm=Permutation.identity(4),
                col_perm=Permutation.identity(5),
                transposed=False,
            )


# every rank-2 difference of a Gram pair at these shapes: 3,528 pairs
GRAM_PAIR_SHAPES = ((3, 3), (3, 4), (4, 3), (4, 4), (2, 5), (3, 5), (5, 3))


def test_form_counts_over_gram_pair_differences():
    counts = dict.fromkeys(M_INDEX_NAMES, 0)
    for m, n in GRAM_PAIR_SHAPES:
        for pair in enumerate_gram_pairs(m, n):
            if pair.diff_rank != 2:
                continue
            E = pair.diff()
            form = classify_rank2(E)
            assert reconstruct_E(form) == E
            counts[form.mtype] += 1
    assert counts == {"M1": 36, "M2": 216, "M3": 576, "M4": 0, "M5": 2700}


def _zero_sum_inputs():
    """Nonzero zero-sum {-1,0,1} matrices: all of shapes 2x2 to 3x4/4x3, the
    M1-M3 forms of ZERO_SUM_FORMS padded, permuted and transposed, and
    seeded sums of +-1 2x2 cycles up to 7x7, whose ranks run from 1 to 5."""
    for m, n in itertools.product(range(2, 5), repeat=2):
        if m * n <= 12:
            v = (np.arange(3 ** (m * n))[:, None] // 3 ** np.arange(m * n) % 3 - 1).reshape(-1, m, n)
            yield from v[(v.sum(axis=2) == 0).all(1) & (v.sum(axis=1) == 0).all(1) & v.any(axis=(1, 2))]
    rng = np.random.default_rng(5)
    for mtype in ("M1", "M2", "M3"):
        core = canonical_rank2_E(mtype, ZERO_SUM_FORMS[mtype]).data
        full = np.zeros((core.shape[0] + 1, core.shape[1] + 2), dtype=np.int8)
        full[: core.shape[0], : core.shape[1]] = core
        for _ in range(3):
            e = full[rng.permutation(full.shape[0])][:, rng.permutation(full.shape[1])]
            yield from (e, e.T)
    for _ in range(2000):
        m, n = rng.integers(2, 8, 2)
        e = np.zeros((m, n), dtype=np.int64)
        for _ in range(rng.integers(1, 7)):
            (r0, r1), (c0, c1) = rng.choice(m, 2, replace=False), rng.choice(n, 2, replace=False)
            f = e.copy()
            f[[r0, r1], [c0, c1]] += 1
            f[[r0, r1], [c1, c0]] -= 1
            if np.abs(f).max() <= 1:
                e = f
        if e.any():
            yield e


def test_classify_rank2_against_a_rank_reference():
    # the rank is computed only when no form matches: a match must still
    # mean rank 2, and every other input must come out None by its rank
    outcomes = Counter()
    for e in _zero_sum_inputs():
        E = SignedMatrix(e)
        rank = int(np.linalg.matrix_rank(e))
        try:
            form = classify_rank2(E)
        except FormMatchError:
            form = "no form"
        if rank != 2:
            assert form is None, e
        elif form != "no form":
            assert reconstruct_E(form) == E
        outcomes[rank, getattr(form, "mtype", form)] += 1
    # the outcomes of classifying with the rank computed first
    assert outcomes == {
        (1, None): 1236, (2, "M1"): 6, (2, "M2"): 50, (2, "M3"): 25, (2, "M4"): 445,
        (2, "M5"): 323, (3, None): 265, (4, None): 46, (5, None): 6,
    }


class TestRank2Realizable:
    def test_m1_m2_always(self):
        assert rank2_realizable(form_of("M1", k=1, l=1, a=1, b=2))
        assert rank2_realizable(form_of("M2", k=1, l=1, e=2, f=2, g=1, h=1))

    def test_m3_always_realizable(self):
        # zero row sums force e-f even, so every classifiable M3 qualifies
        assert rank2_realizable(form_of("M3", k=1, l=1, a=1, b=1, c=1, d=1, e=1, f=1))
        assert rank2_realizable(form_of("M3", k=1, l=2, a=2, b=1, c=2, d=3, e=3, f=1))

    def test_m4_parity(self):
        assert rank2_realizable(
            form_of("M4", k=1, l=1, a=1, b=0, c=1, d=2, e=2, f=0, g=1, h=1)
        )
        assert not rank2_realizable(
            form_of("M4", k=1, l=1, a=1, b=0, c=0, d=0, e=0, f=1, g=0, h=1)
        )

    def test_m5_even(self):
        assert rank2_realizable(
            form_of("M5", k=1, l=1, p=1, q=1, r=1, s=1, a=1, b=1, c=1, d=1, e=1, f=1)
        )

    def test_m5_odd_proportional_type1(self):
        f = form_of("M5", k=2, l=1, p=0, q=1, r=1, s=2, a=2, b=1, c=0, d=1, e=1, f=2)
        assert rank2_realizable(f)

    def test_m5_row_and_column_sums_share_a_parity(self):
        # why rank2_realizable's M5 rule needs no mixed-parity branch: over
        # every index tuple in 0..3 with E's zero sums, the three row sums
        # k+l, p+q, r+s share a parity, and so do a+b, c+d, e+f
        names = M_INDEX_NAMES["M5"]
        rels = _ZERO_SUMS["M5"]

        def meets(idx, among):
            return all(sum(x * idx[n] for n, x in rel) == 0
                       for rel in rels if all(n in among for n, _ in rel))

        halves = [[dict(zip(part, vals)) for vals in itertools.product(range(4), repeat=6)
                   if meets(dict(zip(part, vals)), part)]
                  for part in (names[:6], names[6:])]
        tuples = [{**r, **c} for r in halves[0] for c in halves[1]]
        tuples = [idx for idx in tuples if meets(idx, names)]
        assert len(tuples) == 18496
        for idx in tuples:
            rows = {(idx["k"] + idx["l"]) % 2, (idx["p"] + idx["q"]) % 2, (idx["r"] + idx["s"]) % 2}
            cols = {(idx["a"] + idx["b"]) % 2, (idx["c"] + idx["d"]) % 2, (idx["e"] + idx["f"]) % 2}
            assert len(rows) == len(cols) == 1, idx

    def test_m5_odd_not_proportional(self):
        # all pair sums odd but the ratios differ
        f = form_of("M5", k=2, l=1, p=0, q=1, r=1, s=2, a=1, b=0, c=0, d=1, e=0, f=1)
        assert not rank2_realizable(f)


class TestRank2Complete:
    def test_m1_is_half_j_minus_e(self):
        f = form_of("M1", k=1, l=2, a=2, b=1)
        e = canonical_rank2_E("M1", f.as_dict()).int64()
        assert (rank2_complete(f).int64() == (1 - e) // 2).all()

    def test_not_realizable_raises(self):
        f = form_of("M4", k=1, l=1, a=1, b=0, c=0, d=0, e=0, f=1, g=0, h=1)
        with pytest.raises(NotRealizableError):
            rank2_complete(f)

    def test_small_sweep_all_types(self):
        forms = [
            form_of("M2", k=2, l=1, e=1, f=1, g=2, h=2),
            form_of("M3", k=1, l=2, a=1, b=1, c=1, d=1, e=2, f=2),
            form_of("M4", k=1, l=1, a=1, b=0, c=0, d=1, e=1, f=1, g=1, h=1),
            form_of("M5", k=1, l=1, p=1, q=1, r=1, s=1, a=2, b=2, c=1, d=1, e=1, f=1),
            form_of("M5", k=2, l=1, p=0, q=1, r=1, s=2, a=2, b=1, c=0, d=1, e=1, f=2),
        ]
        for f in forms:
            A = rank2_complete(f)  # verified internally against is_gram_pair
            E = reconstruct_E(f)
            assert is_realizable_witness(E, A)
            # A + E in {0,1} fixes A off the zero cells of E
            assert ((A.data == (E.data == -1)) | (E.data == 0)).all()

    def test_m5_odd_needs_larger_partner_blocks(self):
        # odd pair sums, with fewer rows in X than in Y and Z
        f = form_of("M5", k=2, l=1, p=3, q=4, r=3, s=4, a=4, b=3, c=3, d=4, e=1, f=2)
        rank2_complete(f)

    def test_transposed_form_completes(self):
        idx = {"k": 1, "l": 1, "a": 1, "b": 1, "c": 1, "d": 1, "e": 1, "f": 1}
        et = SignedMatrix(canonical_rank2_E("M3", idx).data.T)
        f = classify_rank2(et)
        A = rank2_complete(f)
        b = A.int64() + et.int64()
        assert is_gram_pair(A, BinaryMatrix(b.astype(np.int8))) is not None


class TestRank2WitnessCheck:
    def test_perturbed_free_block_fails(self):
        f = form_of("M4", k=1, l=1, a=1, b=0, c=0, d=1, e=1, f=1, g=1, h=1)
        A = rank2_complete(f)
        a = A.int64().copy()
        # flip an entry of the X block (rows of band 1, the g/h columns)
        a[0, -1] ^= 1
        assert not is_realizable_witness(reconstruct_E(f), BinaryMatrix(a.astype(np.int8)))

    def test_type1_displayed_family(self):
        # the example's 5-block display with n=1, m=0, both free blocks equal
        M = np.array([[1, 0, 1], [0, 1, 1], [1, 1, 1]], dtype=np.int8)
        e = np.block(
            [
                [J(2, 2), -J(2, 1), -J(2, 1), Z(2, 2), Z(2, 1)],
                [-J(1, 2), J(1, 1), J(1, 1), Z(1, 2), Z(1, 1)],
                [-J(1, 2), J(1, 1), Z(1, 1), J(1, 2), -J(1, 1)],
                [Z(2, 2), Z(2, 1), J(2, 1), -J(2, 2), J(2, 1)],
                [Z(1, 2), Z(1, 1), -J(1, 1), J(1, 2), -J(1, 1)],
            ]
        )
        a = np.block(
            [
                [Z(2, 2), J(2, 1), J(2, 1), M[:2, :2], M[:2, 2:]],
                [J(1, 2), Z(1, 1), Z(1, 1), M[2:, :2], M[2:, 2:]],
                [J(1, 2), Z(1, 1), Z(1, 1), Z(1, 2), J(1, 1)],
                [M[:2, :2], M[:2, 2:], Z(2, 1), J(2, 2), Z(2, 1)],
                [M[2:, :2], M[2:, 2:], J(1, 1), Z(1, 2), J(1, 1)],
            ]
        )
        form = classify_rank2(SignedMatrix(e))
        assert form.mtype == "M5"
        assert is_realizable_witness(SignedMatrix(e), BinaryMatrix(a))

    def test_nonconstant_sums_fail_without_profile(self):
        f = form_of("M5", k=1, l=1, p=1, q=1, r=1, s=1, a=2, b=2, c=1, d=1, e=1, f=1)
        A = rank2_complete(f)
        a = A.int64().copy()
        a[-1, 0] ^= 1
        a[-1, 1] ^= 1  # keeps z2 row sums but breaks the gamma column sums
        assert not is_realizable_witness(reconstruct_E(f), BinaryMatrix(a.astype(np.int8)))

    def test_padded_border_conditions(self):
        idx = {"k": 1, "l": 2, "a": 1, "b": 0, "c": 0, "d": 1, "e": 1, "f": 1, "g": 1, "h": 1}
        core = canonical_rank2_E("M4", idx).data
        full = np.zeros((core.shape[0] + 1, core.shape[1] + 1), dtype=np.int8)
        full[:-1, :-1] = core
        f = classify_rank2(SignedMatrix(full))
        A = rank2_complete(f)
        a = A.int64().copy()
        a[-1, 0] ^= 1  # padding row entry against a signed column
        assert not is_realizable_witness(reconstruct_E(f), BinaryMatrix(a.astype(np.int8)))

    def test_m2_free_blocks_with_opposite_signed_sums(self):
        # a witness whose free blocks do not have the fixed block sums of
        # the completed witness
        f = form_of("M2", k=1, l=1, e=1, f=1, g=1, h=1)
        A = BinaryMatrix([[0, 1, 0, 1], [1, 0, 1, 0], [1, 0, 0, 1], [0, 1, 1, 0]])
        assert is_realizable_witness(reconstruct_E(f), A)


class TestRank2GramData:
    def test_m1_balanced(self):
        rep = rank2_gram_data(form_of("M1", k=1, l=1, a=1, b=1))
        assert np.abs(np.array(rep.values) - np.sqrt(2)).max() < 1e-12
        assert rep.source == "closed_form_rank2"

    def test_closed_form_matches_numeric(self):
        sweeps = [
            ("M1", dict(k=2, l=1, a=1, b=2)),
            ("M2", dict(k=1, l=2, e=2, f=2, g=1, h=1)),
            ("M3", dict(k=1, l=1, a=1, b=1, c=1, d=1, e=1, f=1)),
            ("M4", dict(k=1, l=1, a=1, b=0, c=0, d=1, e=1, f=1, g=1, h=1)),
            ("M5", dict(k=1, l=1, p=1, q=1, r=1, s=1, a=1, b=1, c=1, d=1, e=1, f=1)),
            ("M5", dict(k=2, l=1, p=0, q=1, r=1, s=2, a=2, b=1, c=0, d=1, e=1, f=2)),
            ("M5", dict(k=2, l=1, p=3, q=4, r=3, s=4, a=4, b=3, c=3, d=4, e=1, f=2)),
        ]
        for mtype, idx in sweeps:
            f = form_of(mtype, **idx)
            rep = rank2_gram_data(f)
            sv = np.linalg.svd(canonical_rank2_E(mtype, idx).int64() * 0.5, compute_uv=False)[:2]
            assert np.abs(np.array(rep.values) - sv).max() < 1e-9, (mtype, idx)
        forms = _gram_sweep()
        assert len(forms) == 2630
        repeated = 0
        for E, f in forms:
            rep = rank2_gram_data(f)
            _assert_gram_data(E, rep)
            repeated += abs(rep.values[0] - rep.values[1]) < 1e-9
        assert repeated == 191

    def test_m2_closed_form_describes_the_completed_pair(self):
        f = form_of("M2", k=1, l=1, e=1, f=1, g=1, h=1)
        e = reconstruct_E(f).int64()
        completed = rank2_complete(f)
        pair = is_gram_pair(completed, BinaryMatrix((completed.int64() + e).astype(np.int8)))
        rep = convertibility(pair)
        assert rep.convertible
        closed = rank2_gram_data(f).values
        assert np.abs(np.array(closed) - 1.0).max() < 1e-12
        assert np.abs(np.array(rep.gram_singular.values) - closed).max() < 1e-9
        # another witness of the same form gives a Gram pair that is not convertible
        other = BinaryMatrix([[0, 1, 0, 1], [1, 0, 1, 0], [1, 0, 0, 1], [0, 1, 1, 0]])
        pair = is_gram_pair(other, BinaryMatrix((other.int64() + e).astype(np.int8)))
        assert pair is not None and not convertibility(pair).convertible

    def test_vectors_are_singular_vectors(self):
        f = form_of("M4", k=1, l=1, a=1, b=0, c=0, d=1, e=1, f=1, g=1, h=1)
        rep = rank2_gram_data(f)
        half = canonical_rank2_E("M4", f.as_dict()).int64() * -0.5
        for sv, u, v in zip(rep.values, rep.left_vectors.T, rep.right_vectors.T):
            assert np.abs(half @ v - sv * u).max() < 1e-9
            assert np.abs(half.T @ u - sv * v).max() < 1e-9

    def test_m5_convertible_even_witness(self):
        f = form_of("M5", k=1, l=1, p=1, q=1, r=1, s=1, a=1, b=1, c=1, d=1, e=1, f=1)
        A = rank2_complete(f)
        rep = convertibility(is_gram_pair(A, BinaryMatrix(A.int64() + reconstruct_E(f).int64())))
        assert rep.convertible
        closed = rank2_gram_data(f).values
        assert np.abs(np.array(rep.gram_singular.values) - closed).max() < 1e-9

    def test_m5_odd_witness_not_convertible(self):
        f = form_of("M5", k=2, l=1, p=0, q=1, r=1, s=2, a=2, b=1, c=0, d=1, e=1, f=2)
        A = rank2_complete(f)
        pair = is_gram_pair(A, BinaryMatrix(A.int64() + reconstruct_E(f).int64()))
        assert pair is not None and not convertibility(pair).convertible

    def test_transposed_swaps_vector_roles(self):
        idx = {"k": 1, "l": 1, "a": 1, "b": 1, "c": 1, "d": 1, "e": 1, "f": 1}
        et = SignedMatrix(canonical_rank2_E("M3", idx).data.T)
        f = classify_rank2(et)
        rep = rank2_gram_data(f)
        half = et.int64() * -0.5
        for sv, u, v in zip(rep.values, rep.left_vectors.T, rep.right_vectors.T):
            assert np.abs(half @ v - sv * u).max() < 1e-9
