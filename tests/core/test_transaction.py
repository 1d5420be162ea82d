"""Unit + property tests for transactions and page prediction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    MM_APPEND_ONLY,
    MM_LOCAL,
    MM_READ_ONLY,
    MM_READ_WRITE,
    MM_WRITE_ONLY,
    RandTx,
    SeqTx,
    StrideTx,
    Transaction,
    TransactionError,
    TxFlags,
)
from repro.core.coherence import CoherencePolicy, policy_for


class FakeVector:
    """Just enough geometry for page prediction."""

    def __init__(self, itemsize=4, elems_per_page=8):
        self.itemsize = itemsize
        self.elems_per_page = elems_per_page


def bound(tx, itemsize=4, epp=8):
    tx.bind(FakeVector(itemsize, epp))
    return tx


def test_flags_require_intent():
    with pytest.raises(TransactionError):
        SeqTx(0, 10, TxFlags.GLOBAL)  # no read/write/append


def test_default_locality_is_global():
    tx = SeqTx(0, 10, MM_READ_ONLY)
    assert not tx.is_local
    assert tx.is_read_only


def test_read_write_predicates():
    assert SeqTx(0, 1, MM_WRITE_ONLY).writes
    assert SeqTx(0, 1, MM_APPEND_ONLY).writes
    assert not SeqTx(0, 1, MM_READ_ONLY).writes
    assert SeqTx(0, 1, MM_READ_WRITE).writes


def test_seq_tx_pages_coalesced():
    tx = bound(SeqTx(0, 24, MM_READ_ONLY))  # 3 pages of 8 elems
    pages = tx.get_pages(0, 24)
    assert [(r.page_idx, r.off, r.size) for r in pages] == [
        (0, 0, 32), (1, 0, 32), (2, 0, 32)]


def test_seq_tx_unaligned_start():
    tx = bound(SeqTx(5, 10, MM_READ_ONLY))
    pages = tx.get_pages(0, 10)
    # elements 5..14: page0 elems 5-7 (off 20, 12 bytes), page1 elems 8-14.
    assert [(r.page_idx, r.off, r.size) for r in pages] == [
        (0, 20, 12), (1, 0, 28)]


def test_touched_and_future_pages():
    tx = bound(SeqTx(0, 32, MM_READ_ONLY))
    tx.advance(10)
    touched = tx.get_touched_pages()
    assert [r.page_idx for r in touched] == [0, 1]
    future = tx.get_future_pages(8)
    assert [r.page_idx for r in future] == [1, 2]


def test_modified_flag_follows_intent():
    rtx = bound(SeqTx(0, 8, MM_READ_ONLY))
    wtx = bound(SeqTx(0, 8, MM_WRITE_ONLY))
    assert not rtx.get_pages(0, 8)[0].modified
    assert wtx.get_pages(0, 8)[0].modified


def test_advance_past_count_rejected():
    tx = SeqTx(0, 5, MM_READ_ONLY)
    tx.advance(5)
    with pytest.raises(TransactionError):
        tx.advance(1)


def test_stride_tx_pages():
    tx = bound(StrideTx(0, 4, 8, MM_READ_ONLY))  # elems 0, 8, 16, 24
    pages = tx.get_pages(0, 4)
    assert [(r.page_idx, r.off, r.size) for r in pages] == [
        (0, 0, 4), (1, 0, 4), (2, 0, 4), (3, 0, 4)]


def test_stride_zero_rejected():
    with pytest.raises(TransactionError):
        StrideTx(0, 4, 0, MM_READ_ONLY)


def test_rand_tx_is_seed_deterministic():
    t1 = bound(RandTx(0, 64, seed=42, flags=MM_READ_ONLY))
    t2 = bound(RandTx(0, 64, seed=42, flags=MM_READ_ONLY))
    t3 = bound(RandTx(0, 64, seed=43, flags=MM_READ_ONLY))
    e1 = [t1.element(i) for i in range(64)]
    e2 = [t2.element(i) for i in range(64)]
    e3 = [t3.element(i) for i in range(64)]
    assert e1 == e2
    assert e1 != e3


def test_rand_tx_is_a_permutation():
    tx = bound(RandTx(8, 48, seed=7, flags=MM_READ_ONLY))
    elems = sorted(tx.element(i) for i in range(48))
    assert elems == list(range(8, 56))


def test_rand_tx_unbound_rejected():
    tx = RandTx(0, 8, 1, MM_READ_ONLY)
    with pytest.raises(TransactionError):
        tx.element(0)


def test_policy_derivation():
    assert policy_for(SeqTx(0, 1, MM_READ_ONLY)) \
        is CoherencePolicy.READ_ONLY_GLOBAL
    assert policy_for(SeqTx(0, 1, MM_WRITE_ONLY)) \
        is CoherencePolicy.WRITE_ONLY_GLOBAL
    assert policy_for(SeqTx(0, 1, MM_READ_WRITE)) \
        is CoherencePolicy.READ_WRITE_GLOBAL
    assert policy_for(SeqTx(0, 1, MM_APPEND_ONLY)) \
        is CoherencePolicy.APPEND_ONLY_GLOBAL
    assert policy_for(SeqTx(0, 1, MM_READ_WRITE | MM_LOCAL)) \
        is CoherencePolicy.READ_WRITE_LOCAL


def test_policy_properties():
    assert CoherencePolicy.READ_ONLY_GLOBAL.allows_replication
    assert not CoherencePolicy.READ_WRITE_GLOBAL.allows_replication
    assert CoherencePolicy.READ_WRITE_LOCAL.local_affinity


@settings(max_examples=100, deadline=None)
@given(off=st.integers(0, 100), size=st.integers(0, 200),
       epp=st.integers(1, 16), itemsize=st.sampled_from([1, 4, 12]))
def test_seq_pages_cover_exactly_the_declared_bytes(off, size, epp,
                                                    itemsize):
    tx = SeqTx(off, size, MM_READ_ONLY)
    tx.bind(FakeVector(itemsize, epp))
    pages = tx.get_pages(0, size)
    assert sum(r.size for r in pages) == size * itemsize
    # Regions must be page-local and in access order.
    for r in pages:
        assert 0 <= r.off and r.off + r.size <= epp * itemsize * 2
        assert r.size > 0
    elems = []
    for r in pages:
        start = r.page_idx * epp + r.off // itemsize
        elems.extend(range(start, start + r.size // itemsize))
    assert elems == list(range(off, off + size))


@settings(max_examples=50, deadline=None)
@given(size=st.integers(1, 120), seed=st.integers(0, 10),
       epp=st.integers(1, 16))
def test_rand_pages_cover_exactly_the_declared_elements(size, seed, epp):
    tx = RandTx(0, size, seed, MM_READ_ONLY)
    tx.bind(FakeVector(4, epp))
    pages = tx.get_pages(0, size)
    elems = []
    for r in pages:
        start = r.page_idx * epp + r.off // 4
        elems.extend(range(start, start + r.size // 4))
    assert sorted(elems) == list(range(size))
