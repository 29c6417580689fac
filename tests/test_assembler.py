"""Assembled generator: conservation, sign structure, event placement."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings

from standbymmap import assembler
from standbymmap.assembler import (ARRIVAL_LABELS, EVENT_LABELS,
                                   AssemblyError, _Assembly, assemble_all,
                                   label_matrices)
from standbymmap.config import vacation_from_params
from standbymmap.ph import PhDistribution
from standbymmap.statespace import enumerate_states
from standbymmap.unit import build_unit_blocks

from example_model import example_fleet_config
from random_models import small_models


def small(n=2, R=1, pm=True, family="exponential"):
    params = [1.0] if family == "exponential" else [1.0, 1.0]
    return example_fleet_config(units=n, vacation_threshold=R, pm_enabled=pm,
                                vacation=vacation_from_params(family, params))


@pytest.mark.parametrize("n,R,pm", [(4, 3, True), (3, 2, False), (2, 2, True)])
def test_conservation(n, R, pm):
    gens = assemble_all(example_fleet_config(n, R, pm), validate=True)
    residual = np.max(np.abs(gens.total.sum(axis=1)))
    assert residual < 1e-10


def test_labels_sum_to_total(optimal_gens, optimal_labels):
    acc = sum(optimal_labels[label] for label in EVENT_LABELS)
    diff = (acc - optimal_gens.total)
    assert abs(diff).max() < 1e-12


@pytest.mark.parametrize("pm", [True, False])
def test_total_is_the_label_sum_bit_for_bit(pm):
    """The one-pass total equals the sum of the nine label matrices added
    one after another, entry for entry and in the same sparse structure."""
    config = example_fleet_config(pm_enabled=pm)
    gens = assemble_all(config)
    shape = gens.total.shape
    added = sum(label_matrices(config).values(), sp.csr_matrix(shape))
    total = gens.total.copy()
    for mat in (added, total):
        mat.sort_indices()
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(total, part), getattr(added, part)), part


def test_sign_structure(optimal_labels):
    for label in ARRIVAL_LABELS:
        assert optimal_labels[label].min() >= 0.0
    O = optimal_labels["O"].toarray()
    assert np.all(np.diag(O) < 0)
    assert np.min(O - np.diag(np.diag(O))) >= 0.0


def test_single_unit_fleet_structure():
    """With one unit there is nothing to discard or interrupt."""
    assemble_all(small(n=1, R=1), validate=True)
    labels = label_matrices(small(n=1, R=1))
    assert labels["C"].nnz == 0
    assert labels["CD"].nnz == 0
    for label in ("O", "A", "B", "NS"):
        assert labels[label].nnz > 0


def test_interrupted_vacations_only_at_the_threshold_level():
    config = example_fleet_config(units=4, vacation_threshold=3)
    lay = enumerate_states(config)
    rows = label_matrices(config, lay)["CD"].tocoo().row
    lo, hi = lay.k_span(3)
    assert rows.size > 0
    assert np.all((rows >= lo) & (rows < hi))
    # no interruptions possible when the threshold is one unit
    assert label_matrices(small(n=3, R=1))["CD"].nnz == 0


def test_fleet_renewal_targets_the_fresh_vacation_block(optimal_gens,
                                                        optimal_labels):
    lay = optimal_gens.layout
    cols = optimal_labels["NS"].tocoo().col
    lo, hi = lay.span(lay.n, 0, "v")
    assert cols.size > 0
    assert np.all((cols >= lo) & (cols < hi))


def test_post_repair_vacations_enter_the_threshold_block(optimal_gens,
                                                         optimal_labels):
    lay = optimal_gens.layout
    coo = optimal_labels["F"].tocoo()
    R = 3
    for row, col in zip(coo.row, coo.col):
        key = lay.key_of(int(row))
        assert key.k >= R and key.x == "nv"
        lo, hi = lay.span(key.k, key.k - R, "v")
        assert lo <= col < hi


def test_pm_off_empties_the_inspection_generator():
    config = example_fleet_config(pm_enabled=False)
    assemble_all(config, validate=True)
    assert label_matrices(config)["B"].nnz == 0


def test_loss_events_decrease_the_level(optimal_gens, optimal_labels):
    lay = optimal_gens.layout
    for label in ("C", "CD"):
        coo = optimal_labels[label].tocoo()
        for row, col in zip(coo.row, coo.col):
            assert lay.key_of(int(row)).k == lay.key_of(int(col)).k + 1


def test_arrivals_keep_the_level(optimal_gens, optimal_labels):
    lay = optimal_gens.layout
    for label in ("A", "B", "D", "E", "F"):
        coo = optimal_labels[label].tocoo()
        kr = np.array([lay.key_of(int(r)).k for r in coo.row[:200]])
        kc = np.array([lay.key_of(int(c)).k for c in coo.col[:200]])
        assert np.array_equal(kr, kc)


@pytest.mark.parametrize("pm", [True, False])
@pytest.mark.parametrize("n,R", [(n, R) for n in range(1, 5)
                                 for R in range(1, n + 1)])
def test_labels_follow_the_vacation_threshold(n, R, pm):
    """Each label joins the macro-states that the repairperson's rule
    gives, with N = k - R + 1 worked out here from the state table and not
    from the layout's blocks: below N waiting units a vacation ends in a
    new one (E), else service starts (D); the repair that leaves N - 1
    waiting starts a vacation (F); a loss at k = R recalls the
    repairperson (CD), a loss above R keeps the regime (C); and the
    renewal leaves the one block at k = 1."""
    config = example_fleet_config(units=n, vacation_threshold=R,
                                  pm_enabled=pm)
    states = enumerate_states(config).states
    labels = label_matrices(config)

    def moves(label):
        coo = labels[label].tocoo()
        src, dst = states[coo.row], states[coo.col]
        return (src["k"].astype(int), src["s"].astype(int), src["vacation"],
                dst["k"].astype(int), dst["s"].astype(int), dst["vacation"])

    k, s, v, k2, s2, v2 = moves("E")
    assert k.size and (v & (s < k - R + 1)).all()
    assert ((k2 == k) & (s2 == s) & v2).all()
    k, s, v, k2, s2, v2 = moves("D")
    assert k.size and (v & (s >= k - R + 1)).all()
    assert ((k2 == k) & (s2 == s) & ~v2).all()
    k, s, v, k2, s2, v2 = moves("F")
    assert k.size and (~v & (s == k - R + 1)).all()
    assert ((k2 == k) & (s2 == k - R) & v2).all()
    k, s, v, k2, s2, v2 = moves("CD")
    assert bool(k.size) == (R > 1) and (v & (k == R)).all()
    assert ((k2 == R - 1) & (s2 == s) & ~v2).all()
    k, s, v, k2, s2, v2 = moves("C")
    assert ((k > R) | ~v).all()
    assert ((k2 == k - 1) & (s2 == s) & (v2 == v)).all()
    k, s, v, k2, s2, v2 = moves("NS")
    assert k.size and ((k == 1) & (s == 0) & (v == (R == 1))).all()
    assert ((k2 == n) & (s2 == 0) & v2).all()


# (n, R, PM[, preventive init]) -> label -> (nnz, entry sum) of the bundled
# model.  The PM-off layout holds the queues without a preventive mark and
# no inspection phase: each of its rows is a row of the chain that carries
# the phase, with the targets summed over it (see the label oracle).  So a
# label placed only from states with a unit online, such as A, C or NS,
# sums to half its value on that chain (the inspection has two phases).
PINNED = {
    (4, 3, True): {
        "O": (22292, -2265.7178448), "A": (4240, 561.376), "B": (2544, 190.8),
        "C": (4368, 582.4), "D": (624, 517.7389776), "CD": (672, 89.6),
        "E": (128, 106.2028672), "F": (576, 211.2), "NS": (48, 6.4)},
    # the bundled repairs both start in phase 1; a preventive repair that
    # starts elsewhere shows a builder that starts the wrong head's service
    (4, 3, True, (0.0, 0.6, 0.4)): {
        "O": (22952, -2265.7178448), "A": (4240, 561.376), "B": (2592, 190.8),
        "C": (4368, 582.4), "D": (936, 517.7389776), "CD": (960, 89.6),
        "E": (128, 106.2028672), "F": (576, 211.2), "NS": (48, 6.4)},
    (4, 3, False): {
        "O": (2612, -290.3343484), "A": (620, 82.088), "B": (0, 0.0),
        "C": (576, 76.8), "D": (68, 56.4202732), "CD": (144, 19.2),
        "E": (48, 39.8260752), "F": (96, 12.8), "NS": (24, 3.2)},
    (6, 3, False): {
        "O": (5252, -651.3141304), "A": (1300, 172.12), "B": (0, 0.0),
        "C": (1392, 185.6), "D": (136, 112.8405464), "CD": (144, 19.2),
        "E": (160, 132.753584), "F": (192, 25.6), "NS": (24, 3.2)},
}


@pytest.mark.parametrize("policy", list(PINNED))
def test_label_structure_is_pinned(policy):
    """Every row of the layout, each of them reached (see the label
    oracle)."""
    config = example_fleet_config(*policy[:3])
    if len(policy) > 3:
        config = replace(config, preventive=PhDistribution(
            np.array(policy[3]), config.preventive.subgen))
    labels = label_matrices(config)
    for label, (nnz, total) in PINNED[policy].items():
        assert labels[label].nnz == nnz, label
        assert labels[label].sum() == pytest.approx(total, rel=1e-12, abs=0.0), label


def _assembly(config):
    return _Assembly(config, enumerate_states(config), build_unit_blocks(config))


def _share(asm, src, dst):
    """(reps, rows, cols) of the block that one queue of src places."""
    (r0, r1), (c0, c1) = asm.lay.span(*src), asm.lay.span(*dst)
    reps = len(asm.lay.marks) ** (src[1] - len(src[3]))
    return reps, (r1 - r0) // reps, (c1 - c0) // reps


# (src, dst) as (k, s, x, prefix) on the (4, 3, PM on) layout: a phase move
# over two queues, an arrival into the longer queues, a loss to a level
# below and a completion into one queue
PLACEMENTS = [((3, 1, "v", ()), (3, 1, "v", ())),
              ((4, 2, "nv", (1,)), (4, 3, "nv", (1,))),
              ((4, 2, "nv", (2,)), (3, 2, "nv", (2,))),
              ((4, 3, "nv", (2, 1, 2)), (4, 2, "nv", (1, 2)))]


@pytest.mark.parametrize("src,dst", PLACEMENTS)
def test_place_repeats_the_block_like_kron_of_the_identity(src, dst):
    asm = _assembly(example_fleet_config())
    reps, h, w = _share(asm, src, dst)
    rng = np.random.default_rng(7)
    inner = rng.random((h, w)) * (rng.random((h, w)) < 0.3)
    assert 0 < np.count_nonzero(inner) < inner.size
    asm.place("A", src, dst, inner)

    expected = sp.kron(sp.identity(reps), sp.coo_matrix(inner), format="coo")
    r0, c0 = asm.lay.span(*src)[0], asm.lay.span(*dst)[0]
    (rows, cols, data), = asm.entries["A"]
    assert np.array_equal(rows, expected.row + r0)
    assert np.array_equal(cols, expected.col + c0)
    assert data.tobytes() == expected.data.tobytes()
    all_rows, all_cols, values, parts = asm.triplets()
    assert parts["A"] == slice(0, expected.nnz)
    assert np.array_equal(all_rows, rows) and np.array_equal(all_cols, cols)
    assert values.tobytes() == expected.data.tobytes()


def test_place_skips_an_empty_block():
    asm = _assembly(example_fleet_config())
    src, dst = PLACEMENTS[0]
    _, h, w = _share(asm, src, dst)
    asm.place("O", src, dst, np.zeros((h, w)))
    assert asm.entries["O"] == []
    assert asm.triplets()[2].size == 0


@pytest.mark.parametrize("extra_rows,extra_cols", [(1, 0), (0, 1)])
def test_place_rejects_a_block_that_does_not_tile(extra_rows, extra_cols):
    asm = _assembly(example_fleet_config())
    src, dst = PLACEMENTS[1]
    _, h, w = _share(asm, src, dst)
    with pytest.raises(AssemblyError, match="does not tile"):
        asm.place("A", src, dst, np.ones((h + extra_rows, w + extra_cols)))


def _formed_afresh(asm, op, factors):
    """`_Assembly._block` with a block cache that misses on every call."""
    return assembler._nonzeros(op(*factors))


def _generators(config) -> tuple:
    """The nine label matrices and the total, by name, and the flows."""
    gens = assemble_all(config, validate=False)
    return ({**label_matrices(config, gens.layout), "total": gens.total},
            gens.flows)


def _assert_same_generators(gens, other):
    (mats, flows), (other_mats, other_flows) = gens, other
    for name, a in mats.items():
        b = other_mats[name]
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(a, part), getattr(b, part)), \
                (name, part)
    assert np.array_equal(flows, other_flows)


@pytest.mark.parametrize("n,R,pm", [(4, 3, True), (4, 3, False),
                                    (6, 3, True)])
def test_block_cache_gives_the_blocks_formed_afresh(n, R, pm, monkeypatch):
    """Every label and the total, structure and entries, are those of an
    assembly that forms each block at every placement."""
    config = example_fleet_config(n, R, pm)
    cached = _generators(config)
    monkeypatch.setattr(_Assembly, "_block", _formed_afresh)
    _assert_same_generators(_generators(config), cached)


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_models())
def test_block_cache_gives_the_blocks_formed_afresh_on_random_models(config):
    cached = _generators(config)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Assembly, "_block", _formed_afresh)
        _assert_same_generators(_generators(config), cached)


@pytest.mark.parametrize("n,R,pm", [(4, 3, True), (4, 3, False),
                                    (6, 3, True), (1, 1, True)])
def test_one_assembly_forms_each_distinct_block_once(n, R, pm, monkeypatch):
    """The dense blocks formed in one assembly are as many as the distinct
    blocks among them, and fewer than the placements."""
    formed, placed = [], []
    nonzeros, place = assembler._nonzeros, _Assembly.place

    def recording(block):
        formed.append((block.shape, block.tobytes()))
        return nonzeros(block)

    def counting(asm, *args, **kwargs):
        placed.append(args[0])
        return place(asm, *args, **kwargs)

    monkeypatch.setattr(assembler, "_nonzeros", recording)
    monkeypatch.setattr(_Assembly, "place", counting)
    assemble_all(example_fleet_config(n, R, pm))
    assert len(formed) == len(set(formed))
    assert len(formed) < len(placed)


def _emitting(monkeypatch, *entries):
    """Make the fleet-renewal builder also emit each (label, row, col,
    value) triplet."""
    renewal = _Assembly.fleet_renewal

    def builder(asm):
        renewal(asm)
        for label, *triplet in entries:
            asm.entries[label].append(tuple(map(np.atleast_1d, triplet)))
    monkeypatch.setattr(_Assembly, "fleet_renewal", builder)


def test_validate_rejects_a_non_conservative_row(monkeypatch):
    _emitting(monkeypatch, ("O", 5, 5, 1e-6))
    with pytest.raises(AssemblyError,
                       match=r"generator row 5 .* residual 1\.000e-06"):
        assemble_all(small(n=2, R=1))


def test_validate_rejects_a_negative_off_diagonal_entry_of_O(monkeypatch):
    # the row still sums to zero
    _emitting(monkeypatch, ("O", 5, 6, -0.5), ("O", 5, 5, 0.5))
    with pytest.raises(AssemblyError, match="negative off-diagonal"):
        assemble_all(small(n=2, R=1))


@pytest.mark.parametrize("label", ARRIVAL_LABELS)
def test_validate_rejects_a_negative_event_entry(label, monkeypatch):
    # the row still sums to zero
    _emitting(monkeypatch, (label, 5, 6, -0.5), ("O", 5, 5, 0.5))
    with pytest.raises(AssemblyError, match=f"negative entry in {label} "):
        assemble_all(small(n=2, R=1))


def test_the_untampered_small_model_validates():
    assemble_all(small(n=2, R=1), validate=True)


def _assert_flows_are_label_row_sums(config):
    gens = assemble_all(config, validate=False)
    labels = label_matrices(config, gens.layout)
    sums = np.column_stack([np.asarray(labels[label].sum(axis=1)).ravel()
                            for label in ARRIVAL_LABELS])
    assert np.array_equal(gens.flows, sums)


@pytest.mark.parametrize("n,R,pm", [(4, 3, True), (4, 3, False), (6, 3, True),
                                    (2, 1, True), (5, 2, False)])
def test_flows_are_the_label_row_sums_bit_for_bit(n, R, pm):
    _assert_flows_are_label_row_sums(example_fleet_config(n, R, pm))


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_models())
def test_flows_are_the_label_row_sums_on_random_models(config):
    _assert_flows_are_label_row_sums(config)


def test_assembly_builds_one_sparse_matrix(monkeypatch):
    """Of the sparse constructors, assemble_all calls one, once: the CSR
    of the total.  No label becomes a matrix."""
    made, kinds = [], {name: getattr(sp, name)
                       for name in ("csr_matrix", "csc_matrix", "coo_matrix")}
    for name, kind in kinds.items():
        monkeypatch.setattr(sp, name, lambda *a, kind=kind, **kw:
                            made.append(kind) or kind(*a, **kw))
    assemble_all(example_fleet_config())
    assert made == [kinds["csr_matrix"]]
