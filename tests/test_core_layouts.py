"""GroupBy/OrderBy blocks, sugar, slicing, ExpandBy, injective and CuTe comparison."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Col,
    ExpandBy,
    GenP,
    GroupBy,
    InjectiveLayout,
    OrderBy,
    RegP,
    Row,
    StrideLayout,
    TileBy,
    TileOrderBy,
    antidiagonal,
    broadcast_cols,
    broadcast_rows,
    equivalent,
    even_mapping,
    expanded_shape,
    morton,
    reverse_permutation,
    strides_from_layout,
)
from repro.core.sugar import interleave_sigma
from repro.symbolic import Var


# -- the paper's worked examples ------------------------------------------------------


def figure2_layout() -> GroupBy:
    return GroupBy([6, 4]).OrderBy(RegP([2, 2], [2, 1]), reverse_permutation(3, 2))


def figure6_layout() -> GroupBy:
    return (
        GroupBy([6, 6])
        .OrderBy(RegP([2, 3, 2, 3], [1, 3, 2, 4]))
        .OrderBy(RegP([2, 2], [2, 1]), antidiagonal(3))
    )


def test_figure2_apply_and_inv_match_paper():
    layout = figure2_layout()
    assert layout.apply(4, 1) == 6
    assert layout.inv(6) == (4, 1)


def test_figure2_is_bijective():
    assert figure2_layout().verify()


def test_figure2_physical_table_is_consistent_with_apply():
    layout = figure2_layout()
    table = layout.physical_table()
    # the element whose logical flat index is 17 (logical position (4, 1))
    # is stored at physical position 6, as in the paper's walkthrough
    assert table[6] == 17
    for i in range(6):
        for j in range(4):
            assert table[layout.apply(i, j)] == i * 4 + j
    matrix = layout.physical_matrix(6, 4)
    assert matrix.shape == (6, 4)
    assert sorted(matrix.reshape(-1).tolist()) == list(range(24))


def test_figure6_intermediate_and_final_indices():
    middle = GroupBy([6, 6]).OrderBy(RegP([2, 3, 2, 3], [1, 3, 2, 4]))
    assert middle.apply(4, 2) == 23
    final = figure6_layout()
    assert final.apply(4, 2) == 15
    assert final.inv(15) == (4, 2)


def test_figure6_is_bijective():
    assert figure6_layout().verify()


# -- GroupBy / OrderBy mechanics -------------------------------------------------------


def test_groupby_requires_shape():
    with pytest.raises(ValueError):
        GroupBy([])


def test_groupby_size_mismatch_rejected():
    with pytest.raises(ValueError):
        GroupBy([4, 4]).OrderBy(RegP([3, 3]))


def test_orderby_requires_perms():
    with pytest.raises(ValueError):
        OrderBy()


def test_orderby_rejects_non_perm():
    with pytest.raises(TypeError):
        OrderBy([2, 2])


def test_groupby_without_orderby_is_row_major():
    layout = GroupBy([3, 5])
    for i in range(3):
        for j in range(5):
            assert layout.apply(i, j) == i * 5 + j


def test_groupby_accepts_multiple_shape_parts():
    layout = GroupBy([2, 2], [3, 3])
    assert layout.dims() == (2, 2, 3, 3)
    assert layout.size() == 36


def test_groupby_apply_accepts_sequence_or_varargs():
    layout = figure2_layout()
    assert layout.apply([4, 1]) == layout.apply(4, 1)


def test_groupby_rejects_out_of_range_index():
    with pytest.raises(IndexError):
        figure2_layout().apply(6, 0)


def test_chained_orderbys_compose_in_listed_order():
    # a transpose followed by a transpose is the identity
    layout = GroupBy([3, 4]).OrderBy(RegP([3, 4], [2, 1])).OrderBy(RegP([4, 3], [2, 1]))
    for i in range(3):
        for j in range(4):
            assert layout.apply(i, j) == i * 4 + j


def test_permutation_vector_and_physical_table_are_inverse():
    layout = figure6_layout()
    perm = layout.permutation_vector()
    table = layout.physical_table()
    assert np.array_equal(table[perm], np.arange(36))


def test_permutation_vector_is_memoised_and_read_only():
    layout = figure6_layout()
    perm = layout.permutation_vector()
    assert layout.permutation_vector() is perm
    with pytest.raises(ValueError, match="read-only"):
        perm[0] = 1


def test_verify_requires_concrete_layout():
    symbolic = GroupBy([Var("N"), 4])
    with pytest.raises(TypeError):
        symbolic.verify()


@given(st.integers(min_value=2, max_value=4), st.integers(min_value=2, max_value=4),
       st.permutations([1, 2, 3, 4]))
@settings(max_examples=40, deadline=None)
def test_random_two_level_layouts_are_bijective(outer, inner, sigma):
    layout = GroupBy([outer * inner, outer * inner]).OrderBy(
        RegP([outer, inner, outer, inner], list(sigma))
    )
    assert layout.verify()


@given(st.integers(min_value=2, max_value=5), st.integers(min_value=2, max_value=5))
@settings(max_examples=30, deadline=None)
def test_apply_inv_roundtrip_property(rows, cols):
    layout = GroupBy([rows, cols]).OrderBy(RegP([rows, cols], [2, 1]))
    for flat in range(rows * cols):
        assert layout.apply(*layout.inv(flat)) == flat


# -- sugar -----------------------------------------------------------------------------


def test_row_and_col_are_regp():
    assert Row(3, 4).sigma == (1, 2)
    assert Col(3, 4).sigma == (2, 1)
    assert Row([3, 4]).dims() == (3, 4)


def test_interleave_sigma_matches_paper():
    assert interleave_sigma(2, 3) == [1, 3, 5, 2, 4, 6]
    assert interleave_sigma(3, 2) == [1, 4, 2, 5, 3, 6]


def test_tileby_matches_blocked_row_major():
    layout = TileBy([2, 2], [3, 3])
    # logical (block_i, block_j, i, j) of a 6x6 matrix tiled 3x3, stored so the
    # interleaved physical space is (2x3) x (2x3), i.e. the original row-major
    for bi in range(2):
        for bj in range(2):
            for i in range(3):
                for j in range(3):
                    expected = (bi * 3 + i) * 6 + (bj * 3 + j)
                    assert layout.apply(bi, bj, i, j) == expected


def test_tileby_requires_consistent_rank():
    with pytest.raises(ValueError):
        TileBy([2, 2], [3])
    with pytest.raises(ValueError):
        TileBy()


def test_tileorderby_requires_consistent_rank():
    with pytest.raises(ValueError):
        TileOrderBy(Row(2, 2), Row(3))
    with pytest.raises(ValueError):
        TileOrderBy()


def test_tileorderby_is_bijective():
    layout = TileOrderBy(Col(2, 2), Row(3, 3))
    assert layout.verify()


# -- slicing -----------------------------------------------------------------------------


def test_slice_produces_atoms_and_offset():
    m, k, bm, bk = Var("M"), Var("K"), Var("BM"), Var("BK")
    layout = TileBy([m // bm, k // bk], [bm, bk]).OrderBy(Row(m, k))
    sl = layout[Var("pid_m"), Var("k"), :, :]
    assert len(sl.atoms) == 2
    assert sl.atoms[0].extent == bm
    assert sl.atoms[1].extent == bk
    assert sl.atoms[0].broadcast_suffix() == "[:, None]"
    assert sl.atoms[1].broadcast_suffix() == "[None, :]"
    assert "tl.arange" in sl.atoms[0].triton_render()


def test_slice_wrong_arity_raises():
    layout = GroupBy([4, 4])
    with pytest.raises(ValueError):
        layout[1]


def test_slice_with_stop_overrides_extent():
    layout = GroupBy([8, 8])
    sl = layout[0, slice(None, 4)]
    assert sl.atoms[0].extent == 4


def test_slice_rejects_step():
    layout = GroupBy([8, 8])
    with pytest.raises(ValueError):
        layout[0, slice(0, 8, 2)]


def test_slice_concrete_offset_evaluates():
    layout = GroupBy([4, 4])
    sl = layout[2, :]
    env = {sl.atoms[0].name: 3}
    assert sl.offset.evaluate(env) == 11


# -- ExpandBy (partial tiles) ----------------------------------------------------------------


def test_expanded_shape_rounds_up():
    assert expanded_shape((10, 7), (4, 4)) == (12, 8)
    assert expanded_shape((8, 8), (4, 4)) == (8, 8)
    with pytest.raises(ValueError):
        expanded_shape((10,), (0,))


def test_expandby_masks_padding():
    original = (5, 5)
    expanded = expanded_shape(original, (3, 3))
    layout = TileBy([2, 2], [3, 3])
    adapter = ExpandBy(original, expanded, layout)
    seen = set()
    padded = 0
    for bi in range(2):
        for bj in range(2):
            for i in range(3):
                for j in range(3):
                    flat = adapter.apply(bi, bj, i, j)
                    if flat == -1:
                        padded += 1
                    else:
                        assert 0 <= flat < 25
                        seen.add(flat)
    assert len(seen) == 25
    assert padded == 36 - 25


def test_expandby_inv_roundtrip():
    original = (5, 5)
    layout = TileBy([2, 2], [3, 3])
    adapter = ExpandBy(original, expanded_shape(original, (3, 3)), layout)
    for flat in range(25):
        coords = adapter.inv(flat)
        assert adapter.apply(*coords) == flat


def test_expandby_apply_masked_predicate():
    layout = TileBy([2, 2], [3, 3])
    adapter = ExpandBy((5, 5), (6, 6), layout)
    offset, in_bounds = adapter.apply_masked(Var("bi"), Var("bj"), Var("i"), Var("j"))
    assert offset is not None
    assert in_bounds.evaluate({"bi": 1, "bj": 1, "i": 2, "j": 2}) is False
    assert in_bounds.evaluate({"bi": 0, "bj": 0, "i": 0, "j": 0}) is True


def test_expandby_validates_shapes():
    layout = TileBy([2, 2], [3, 3])
    with pytest.raises(ValueError):
        ExpandBy((7, 7), (6, 6), layout)
    with pytest.raises(ValueError):
        ExpandBy((5, 5), (6, 6, 6), layout)
    with pytest.raises(ValueError):
        ExpandBy((5, 5), (7, 6), layout)  # 42 != 36


# -- injective layouts -------------------------------------------------------------------------


def test_broadcast_rows_and_cols():
    rows = broadcast_rows(3, 4)
    cols = broadcast_cols(3, 4)
    assert rows.apply(2, 3) == 2
    assert cols.apply(2, 3) == 3
    with pytest.raises(TypeError):
        rows.inv(0)


def test_even_mapping_is_injective():
    layout = even_mapping(8)
    assert layout.apply(3) == 6
    assert layout.check_injective()


def test_broadcast_is_not_injective():
    assert not broadcast_rows(3, 4).check_injective()


def test_injective_layout_validates_index():
    with pytest.raises(IndexError):
        even_mapping(4).apply(5)
    with pytest.raises(ValueError):
        InjectiveLayout((), lambda: 0)


# -- CuTe / Graphene comparison -------------------------------------------------------------------


def test_stride_layout_row_and_column_major():
    row = StrideLayout.row_major(3, 4)
    col = StrideLayout.column_major(3, 4)
    assert row.apply(1, 2) == 6
    assert col.apply(1, 2) == 7
    assert row.size() == 12


def test_stride_layout_nested_modes_flatten():
    nested = StrideLayout(((2, 2), (3, 3)), ((18, 9), (3, 1)))
    assert nested.rank == 4
    assert nested.apply(1, 0, 2, 1) == 18 + 7


def test_stride_layout_validation():
    with pytest.raises(ValueError):
        StrideLayout((2, 2), (1,))
    with pytest.raises(IndexError):
        StrideLayout.row_major(2, 2).apply(2, 0)
    with pytest.raises(ValueError):
        StrideLayout.row_major(2, 2).apply(0, 0, 0)


def test_strides_recovered_for_affine_layout():
    layout = GroupBy([4, 4]).OrderBy(RegP([4, 4], [2, 1]))
    recovered = strides_from_layout(layout)
    assert recovered is not None
    assert recovered.stride == (1, 4)


def test_strides_not_recoverable_for_antidiagonal():
    layout = GroupBy([4, 4]).OrderBy(antidiagonal(4))
    assert strides_from_layout(layout) is None


def test_strides_not_recoverable_for_morton():
    layout = GroupBy([4, 4]).OrderBy(morton(4))
    assert strides_from_layout(layout) is None


def test_equivalent_checks_every_coordinate():
    layout = GroupBy([3, 4])
    assert equivalent(layout, StrideLayout.row_major(3, 4))
    assert not equivalent(layout, StrideLayout.column_major(3, 4))
