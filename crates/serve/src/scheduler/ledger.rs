//! The page ledger: the one place the admission watermark
//! `pinned + reserved + resident + demand <= capacity` is evaluated.
//!
//! `pinned` and `resident` are the [`RadixTree`]'s two disjoint page
//! totals; `reserved` — the worst-case unshared demand of every active
//! stream and sampling group — and the capacity live here, behind
//! private fields, so reservations change only through
//! [`PageLedger::reserve`] / [`PageLedger::release`].

use crate::radix::RadixTree;

/// Capacity and stream reservations of the scheduler's KV page pool.
pub(super) struct PageLedger {
    /// Pool capacity in pages (`None` = unbounded: everything fits).
    capacity: Option<usize>,
    reserved: usize,
}

impl PageLedger {
    pub(super) fn new(capacity: Option<usize>) -> Self {
        PageLedger {
            capacity,
            reserved: 0,
        }
    }

    pub(super) fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Worst-case pages reserved by active streams and sampling groups.
    pub(super) fn reserved(&self) -> usize {
        self.reserved
    }

    pub(super) fn reserve(&mut self, pages: usize) {
        self.reserved += pages;
    }

    pub(super) fn release(&mut self, pages: usize) {
        self.reserved -= pages;
    }

    /// The watermark: pages by which `demand` overshoots what the pool
    /// has left beside the pinned pages and `others` — 0 exactly when
    /// `pinned + others + demand <= capacity` (always, on an unbounded
    /// pool). Saturating: pins stay within the capacity, but a bound
    /// must degrade to "no headroom", never underflow.
    pub(super) fn short_beside(&self, tree: &RadixTree, others: usize, demand: usize) -> usize {
        self.capacity.map_or(0, |capacity| {
            (tree.pinned_pages() + others + demand).saturating_sub(capacity)
        })
    }

    /// [`PageLedger::short_beside`] everything claimed right now: the
    /// eviction (then preemption) request admission makes for `demand`.
    pub(super) fn short_now(&self, tree: &RadixTree, demand: usize) -> usize {
        self.short_beside(tree, self.reserved + tree.resident_pages(), demand)
    }

    /// The invariant behind the watermark, checked in debug builds:
    /// every leased page is covered by a pin, a stream or group
    /// reservation, or the tree's resident span accounting.
    pub(super) fn debug_check(&self, tree: &RadixTree, pages_in_use: usize) {
        debug_assert!(
            pages_in_use <= tree.pinned_pages() + self.reserved + tree.resident_pages(),
            "leased pages {pages_in_use} outgrew pinned {} + reserved {} + resident {}",
            tree.pinned_pages(),
            self.reserved,
            tree.resident_pages()
        );
    }
}
