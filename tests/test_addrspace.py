"""Unit tests for paged address spaces and transactional access."""

import pytest

from repro.paging import (AddressSpace, MemoryError_, MemoryTxn, PageFault)


def space(words_per_page=8):
    return AddressSpace(words_per_page)


def test_declare_layout_is_sequential():
    s = space()
    a = s.declare("a", 3)
    b = s.declare("b", 2)
    assert a.base == 0 and b.base == 3


def test_duplicate_declare_rejected():
    s = space()
    s.declare("x")
    with pytest.raises(MemoryError_):
        s.declare("x")


def test_declare_requires_positive_size():
    with pytest.raises(MemoryError_):
        space().declare("x", 0)


def test_address_of_bounds_checked():
    s = space()
    s.declare("arr", 4)
    assert s.address_of("arr", 3) == 3
    with pytest.raises(MemoryError_):
        s.address_of("arr", 4)


def test_undeclared_variable_rejected():
    with pytest.raises(MemoryError_):
        space().address_of("ghost")


def test_read_defaults_to_zero():
    s = space()
    s.declare("x")
    s.make_fully_resident()
    assert s.read_word(0) == 0


def test_write_read_roundtrip():
    s = space()
    s.declare("x", 20)
    s.make_fully_resident()
    s.write_word(13, 99)
    assert s.read_word(13) == 99


def test_write_marks_page_dirty():
    s = space(words_per_page=4)
    s.declare("arr", 12)
    s.make_fully_resident()
    s.write_word(5, 1)   # page 1
    s.write_word(9, 1)   # page 2
    assert s.dirty_pages() == [1, 2]
    s.clear_dirty()
    assert s.dirty_pages() == []


def test_non_resident_access_faults():
    s = space()
    s.declare("x")
    with pytest.raises(PageFault) as info:
        s.read_word(0)
    assert info.value.page_no == 0


def test_evict_all_drops_content_and_residency():
    s = space()
    s.declare("x")
    s.make_fully_resident()
    s.write_word(0, 5)
    s.evict_all()
    with pytest.raises(PageFault):
        s.read_word(0)


def test_install_page_restores_content():
    s = space(words_per_page=4)
    s.declare("arr", 4)
    s.make_fully_resident()
    for i in range(4):
        s.write_word(i, i * 10)
    snapshot = s.snapshot_page(0)
    s.evict_all()
    s.install_page(0, snapshot)
    assert s.read_word(2) == 20


def test_install_none_zero_fills():
    s = space(words_per_page=4)
    s.declare("arr", 4)
    s.evict_all()
    s.install_page(0, None)
    assert s.read_word(1) == 0


def test_install_wrong_size_rejected():
    s = space(words_per_page=4)
    with pytest.raises(MemoryError_):
        s.install_page(0, (1, 2))


def test_snapshot_is_immutable_copy():
    s = space(words_per_page=4)
    s.declare("arr", 4)
    s.make_fully_resident()
    s.write_word(0, 7)
    snap = s.snapshot_page(0)
    s.write_word(0, 8)
    assert snap[0] == 7


def test_total_declared_pages():
    s = space(words_per_page=4)
    assert s.total_declared_pages() == 0
    s.declare("a", 5)
    assert s.total_declared_pages() == 2


# -- MemoryTxn ----------------------------------------------------------------

def test_txn_buffers_until_commit():
    s = space()
    s.declare("x")
    s.make_fully_resident()
    txn = MemoryTxn(s)
    txn.set("x", 42)
    assert s.read_word(0) == 0        # not yet visible
    assert txn.get("x") == 42         # read-your-writes
    txn.commit()
    assert s.read_word(0) == 42


def test_txn_abandon_leaves_memory_untouched():
    s = space()
    s.declare("x")
    s.make_fully_resident()
    txn = MemoryTxn(s)
    txn.set("x", 42)
    del txn
    assert s.read_word(0) == 0


def test_txn_add_is_read_modify_write():
    s = space()
    s.declare("x")
    s.make_fully_resident()
    txn = MemoryTxn(s)
    txn.set("x", 10)
    assert txn.add("x", 5) == 15
    txn.commit()
    assert s.read_word(0) == 15


def test_txn_fault_on_nonresident_write():
    s = space()
    s.declare("x")
    txn = MemoryTxn(s)
    with pytest.raises(PageFault):
        txn.set("x", 1)


def test_txn_commit_returns_word_count():
    s = space()
    s.declare("arr", 4)
    s.make_fully_resident()
    txn = MemoryTxn(s)
    txn.set("arr", 1, index=0)
    txn.set("arr", 2, index=3)
    assert txn.commit() == 2


def test_txn_faults_name_the_page_touched():
    """A promoted backup's step faults on exactly the page it touches;
    resident pages on either side keep working and the aborted step
    leaves memory untouched."""
    s = space(words_per_page=2)
    s.declare("arr", 6)
    s.install_page(0, (1, 2))
    s.install_page(2, None)
    txn = MemoryTxn(s)
    assert txn.get("arr", 1) == 2
    txn.set("arr", 9, index=5)
    assert txn.get("arr", 5) == 9
    for access in (lambda: txn.get("arr", 2),
                   lambda: txn.set("arr", 7, index=3)):
        with pytest.raises(PageFault) as fault:
            access()
        assert fault.value.page_no == 1
    assert s.snapshot_page(2) == (0, 0)
    assert s.dirty_pages() == []
