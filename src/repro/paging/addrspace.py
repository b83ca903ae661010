"""Paged address spaces with transactional access.

The determinism contract of section 4 becomes concrete here: *all* process
state lives either in the paged address space (this module) or in the small
register file carried by sync messages.  That is what makes
rollforward-from-last-sync genuine — the backup restores the page account
and the synced registers and simply continues executing.

Access is transactional at step granularity: reads and writes made during a
program step are buffered in a :class:`MemoryTxn` and committed only when
the step completes.  If the step touches a non-resident page (a promoted
backup demand-faulting its address space back in, section 7.10.2), a
:class:`PageFault` aborts the attempt with no side effects; the kernel
fetches the page from the page server and re-runs the step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

Cell = Any  # one memory word; must be immutable
PageData = Tuple[Cell, ...]


class MemoryError_(Exception):
    """Raised on invalid variable or address access."""


class PageFault(Exception):
    """A step touched a page that is not resident.

    Carries the faulting page number; the kernel turns it into a page-in
    request to the page server and re-runs the step once the page arrives.
    """

    def __init__(self, page_no: int) -> None:
        super().__init__(f"page fault on page {page_no}")
        self.page_no = page_no


@dataclass(frozen=True)
class Variable:
    """A named region of the address space (base word address + length)."""

    name: str
    base: int
    n_words: int


class AddressSpace:
    """A process's data space: a sparse array of fixed-size pages.

    Pages hold ``words_per_page`` cells.  Writes set the page's dirty bit;
    the set of dirty-since-last-sync pages is exactly what a sync ships to
    the page server (section 7.8, first half of the sync operation).
    """

    def __init__(self, words_per_page: int) -> None:
        if words_per_page < 1:
            raise MemoryError_("words_per_page must be positive")
        self.words_per_page = words_per_page
        self._pages: Dict[int, List[Cell]] = {}
        self._resident: Set[int] = set()
        self._dirty: Set[int] = set()
        self._variables: Dict[str, Variable] = {}
        self._next_free_word = 0

    # -- layout -------------------------------------------------------------

    def declare(self, name: str, n_words: int = 1) -> Variable:
        """Allocate a named variable region.

        Declaration order defines the layout, so re-declaring the same
        program's variables after promotion reproduces identical addresses.
        Declaration does not touch page contents.
        """
        if name in self._variables:
            raise MemoryError_(f"variable {name!r} already declared")
        if n_words < 1:
            raise MemoryError_(f"variable {name!r} needs >= 1 word")
        var = Variable(name=name, base=self._next_free_word, n_words=n_words)
        self._next_free_word += n_words
        self._variables[name] = var
        return var

    def variable(self, name: str) -> Variable:
        var = self._variables.get(name)
        if var is None:
            raise MemoryError_(f"undeclared variable {name!r}")
        return var

    def address_of(self, name: str, index: int = 0) -> int:
        var = self.variable(name)
        if not 0 <= index < var.n_words:
            raise MemoryError_(
                f"index {index} out of range for {name!r} ({var.n_words} words)")
        return var.base + index

    def page_of(self, address: int) -> int:
        return address // self.words_per_page

    # -- raw access (used by MemoryTxn and the kernel) -----------------------

    def read_word(self, address: int) -> Cell:
        page_no = self.page_of(address)
        if page_no not in self._resident:
            raise PageFault(page_no)
        page = self._pages.get(page_no)
        if page is None:
            return 0
        return page[address % self.words_per_page]

    def write_word(self, address: int, value: Cell) -> None:
        page_no = self.page_of(address)
        if page_no not in self._resident:
            raise PageFault(page_no)
        page = self._pages.get(page_no)
        if page is None:
            page = [0] * self.words_per_page
            self._pages[page_no] = page
        page[address % self.words_per_page] = value
        self._dirty.add(page_no)

    # -- residency / paging ---------------------------------------------------

    def make_fully_resident(self) -> None:
        """Mark every page that could ever be touched as resident; pages
        materialize zero-filled on first write.  This is the normal state
        of a primary in our model (no memory-pressure eviction)."""
        total_pages = (self._next_free_word + self.words_per_page - 1
                       ) // self.words_per_page
        self._resident.update(range(max(total_pages, 1)))

    def evict_all(self) -> None:
        """Drop all residency and content: a freshly promoted backup has no
        pages in memory (7.10.2) and faults them in on demand."""
        self._pages.clear()
        self._resident.clear()

    def install_page(self, page_no: int, data: Optional[PageData]) -> None:
        """Install a page fetched from the page server (``None`` means the
        account had no copy: the page was never dirtied, so zero-fill)."""
        if data is None:
            self._pages[page_no] = [0] * self.words_per_page
        else:
            if len(data) != self.words_per_page:
                raise MemoryError_(
                    f"page {page_no}: expected {self.words_per_page} words, "
                    f"got {len(data)}")
            self._pages[page_no] = list(data)
        self._resident.add(page_no)

    def resident_pages(self) -> Set[int]:
        return set(self._resident)

    # -- sync support ---------------------------------------------------------

    def dirty_pages(self) -> List[int]:
        """Pages modified since the dirty set was last cleared, sorted for
        deterministic shipping order."""
        return sorted(self._dirty)

    def snapshot_page(self, page_no: int) -> PageData:
        page = self._pages.get(page_no)
        if page is None:
            return tuple([0] * self.words_per_page)
        return tuple(page)

    def clear_dirty(self) -> None:
        self._dirty.clear()

    def total_declared_pages(self) -> int:
        """Number of pages spanned by declared variables."""
        if self._next_free_word == 0:
            return 0
        return (self._next_free_word + self.words_per_page - 1
                ) // self.words_per_page


class MemoryTxn:
    """Step-scoped transactional view over an :class:`AddressSpace`.

    Writes buffer locally; reads see the buffer first, then the underlying
    pages.  :meth:`commit` applies the buffer; abandoning the transaction
    (after a :class:`PageFault`) leaves memory untouched, which is what
    makes step re-execution safe.
    """

    __slots__ = ("_space", "_writes")

    def __init__(self, space: AddressSpace) -> None:
        self._space = space
        self._writes: Dict[int, Cell] = {}

    # Named-variable API used by programs ------------------------------------
    #
    # ``get``/``set``/``commit`` run per LOAD/STORE on the hottest
    # program-execution path, so each indexes the address space's pages
    # inline (``address_of``, ``read_word``, ``write_word``) for the
    # in-bounds case; error paths fall back to the methods for their
    # messages.

    def get(self, name: str, index: int = 0) -> Cell:
        space = self._space
        var = space._variables.get(name)
        if var is None or not 0 <= index < var.n_words:
            address = space.address_of(name, index)  # raises with detail
        else:
            address = var.base + index
        writes = self._writes
        if address in writes:
            return writes[address]
        words_per_page = space.words_per_page
        page_no = address // words_per_page
        if page_no not in space._resident:
            raise PageFault(page_no)
        page = space._pages.get(page_no)
        if page is None:
            return 0
        return page[address % words_per_page]

    def set(self, name: str, value: Cell, index: int = 0) -> None:
        space = self._space
        var = space._variables.get(name)
        if var is None or not 0 <= index < var.n_words:
            address = space.address_of(name, index)  # raises with detail
        else:
            address = var.base + index
        page_no = address // space.words_per_page
        # Fault now if the page is absent: the write itself needs the page
        # (membership-tested against the live set — copying it per write
        # made every STORE O(resident pages)).
        if page_no not in space._resident:
            raise PageFault(page_no)
        self._writes[address] = value

    def add(self, name: str, delta: int, index: int = 0) -> Cell:
        """Read-modify-write convenience: returns the new value."""
        value = self.get(name, index) + delta
        self.set(name, value, index=index)
        return value

    def commit(self) -> int:
        """Apply buffered writes; returns the number of words written.

        Every written page was resident when ``set`` buffered the word and
        nothing runs between a step and its commit, so no write can fault
        here and the order writes land in is invisible: they are applied
        in buffer order.
        """
        writes = self._writes
        if not writes:
            # Read-only steps (every Compute, Read and most syscalls)
            # commit nothing.
            return 0
        space = self._space
        pages = space._pages
        dirty = space._dirty
        words_per_page = space.words_per_page
        for address, value in writes.items():
            page_no = address // words_per_page
            page = pages.get(page_no)
            if page is None:
                page = pages[page_no] = [0] * words_per_page
            page[address % words_per_page] = value
            dirty.add(page_no)
        count = len(writes)
        writes.clear()
        return count
