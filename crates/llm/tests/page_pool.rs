//! Property suite for the KV page allocator: random alloc/free/recycle
//! sequences must respect the pool invariants.
//!
//! - **Capacity**: the pool never creates more pages than `max_pages`,
//!   and an allocation fails exactly when every created page is leased
//!   and the capacity is exhausted.
//! - **Conservation**: `created == in_use + free` at every step (pages
//!   move by value, so a double free cannot even be expressed — the
//!   ledger proves none is synthesized internally either).
//! - **Reuse before growth**: while the free list is non-empty, an
//!   allocation never creates a page.
//! - **Reset integrity**: a recycled page behaves exactly like a fresh
//!   one (rows written after recycling read back identically).
//! - **Refcount ledger**: sharing and forking pages never changes the
//!   in-use count (a page shared N ways is one page), a refcounted page
//!   never re-enters the free list before its last lease drops, only
//!   whole pages are shared, and the partial tail page a fork copies is a
//!   bitwise copy of its parent at fork time.

use anda_llm::kv::{KvPoolConfig, KvStorage, Page, PagePool, SharedPage};
use anda_tensor::Rng;
use proptest::prelude::*;

/// One scripted action against the pool.
#[derive(Debug, Clone, Copy)]
enum Action {
    Alloc,
    /// Free the leased page at `index % leased.len()` (skipped when
    /// nothing is leased).
    Free(usize),
}

fn check_ledger(pool: &PagePool, leased: &[Page], cap: usize) {
    assert!(pool.pages_created() <= cap, "created past capacity");
    assert_eq!(
        pool.pages_created(),
        pool.pages_in_use() + pool.pages_free(),
        "page conservation violated"
    );
    assert_eq!(
        pool.pages_in_use(),
        leased.len(),
        "pool in-use count disagrees with the pages we actually hold"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn alloc_free_recycle_sequences_respect_the_invariants(
        script in prop::collection::vec(
            (any::<bool>(), 0usize..16).prop_map(|(alloc, i)| {
                if alloc { Action::Alloc } else { Action::Free(i) }
            }),
            1..60,
        ),
        cap in 1usize..12,
        page_positions in 1usize..5,
        anda in any::<bool>(),
    ) {
        let storage = if anda {
            KvStorage::Anda { mantissa_bits: 5 }
        } else {
            KvStorage::Fp32
        };
        let pool = PagePool::new(KvPoolConfig {
            storage,
            page_positions,
            max_pages: Some(cap),
        });
        let dim = 64;
        let mut leased: Vec<Page> = Vec::new();
        for action in script {
            match action {
                Action::Alloc => {
                    let free_before = pool.pages_free();
                    let created_before = pool.pages_created();
                    match pool.try_alloc(dim) {
                        Some(page) => {
                            prop_assert_eq!(page.used(), 0, "leased page not clean");
                            prop_assert_eq!(page.capacity(), page_positions);
                            if free_before > 0 {
                                prop_assert_eq!(
                                    pool.pages_created(), created_before,
                                    "grew while the free list was non-empty"
                                );
                            }
                            leased.push(page);
                        }
                        None => {
                            // Refusal is only legal at hard exhaustion.
                            prop_assert_eq!(free_before, 0);
                            prop_assert_eq!(created_before, cap);
                            prop_assert_eq!(leased.len(), cap);
                        }
                    }
                }
                Action::Free(i) => {
                    if !leased.is_empty() {
                        let page = leased.swap_remove(i % leased.len());
                        pool.release(page);
                    }
                }
            }
            check_ledger(&pool, &leased, cap);
        }
        // Drain: everything we still hold goes back and the ledger zeroes.
        for page in leased.drain(..) {
            pool.release(page);
        }
        prop_assert_eq!(pool.pages_in_use(), 0);
        prop_assert_eq!(pool.pages_free(), pool.pages_created());
    }
}

/// A recycled page is indistinguishable from a fresh one: rows written
/// after recycling read back bit-identically to the same rows written to
/// a never-used page.
#[test]
fn recycled_pages_read_like_fresh_pages() {
    let cfg = KvPoolConfig {
        storage: KvStorage::Anda { mantissa_bits: 6 },
        page_positions: 3,
        max_pages: Some(1),
    };
    let dim = 96;
    let row_a: Vec<f32> = (0..dim).map(|i| (i as f32 - 48.0) * 0.17).collect();
    let row_b: Vec<f32> = (0..dim).map(|i| (i as f32).sin()).collect();

    let read = |pool: &PagePool, dirty_first: bool| -> Vec<u32> {
        let mut cache = pool.new_cache(1);
        if dirty_first {
            // Fill with unrelated data, then recycle.
            for _ in 0..3 {
                cache.append_row(0, &row_b, &row_b);
            }
            cache.reset();
        }
        cache.append_row(0, &row_a, &row_b);
        let mut out = cache.layer(0).key(0);
        out.extend(cache.layer(0).value(0));
        out.iter().map(|x| x.to_bits()).collect()
    };

    let pool = PagePool::new(cfg);
    let fresh = read(&pool, false);
    let recycled = read(&pool, true);
    assert_eq!(pool.pages_created(), 1, "one page serves both passes");
    assert_eq!(fresh, recycled);
}

/// One scripted action against the pool's refcount ledger.
#[derive(Debug, Clone, Copy)]
enum ShareAction {
    /// Lease a fresh owned page.
    Alloc,
    /// Convert the owned page at `i % owned.len()` into a shared lease.
    Share(usize),
    /// Duplicate a lease of shared group `i % groups.len()`.
    Fork(usize),
    /// Drop one lease of shared group `i % groups.len()`.
    Release(usize),
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random share/fork/release interleavings: forking never changes
    /// the in-use count (conservation), dropping a non-last lease never
    /// frees the page (no early re-entry to the free list), dropping
    /// the last lease frees exactly one page, and `ref_count` always
    /// equals the number of live leases we actually hold.
    #[test]
    fn fork_release_ledger_conserves_pages(
        script in prop::collection::vec(
            (0usize..4, 0usize..16).prop_map(|(op, i)| match op {
                0 => ShareAction::Alloc,
                1 => ShareAction::Share(i),
                2 => ShareAction::Fork(i),
                _ => ShareAction::Release(i),
            }),
            1..80,
        ),
        cap in 2usize..10,
        anda in any::<bool>(),
    ) {
        let storage = if anda {
            KvStorage::Anda { mantissa_bits: 7 }
        } else {
            KvStorage::Fp16
        };
        let pool = PagePool::new(KvPoolConfig {
            storage,
            page_positions: 2,
            max_pages: Some(cap),
        });
        let dim = 32;
        let mut owned: Vec<Page> = Vec::new();
        // One entry per physical shared page: every live lease of it.
        let mut groups: Vec<Vec<SharedPage>> = Vec::new();
        for action in script {
            match action {
                ShareAction::Alloc => {
                    if let Some(page) = pool.try_alloc(dim) {
                        owned.push(page);
                    }
                }
                ShareAction::Share(i) => {
                    if !owned.is_empty() {
                        let in_use = pool.pages_in_use();
                        let page = owned.swap_remove(i % owned.len());
                        groups.push(vec![pool.share(page)]);
                        prop_assert_eq!(
                            pool.pages_in_use(), in_use,
                            "sharing re-leases nothing"
                        );
                    }
                }
                ShareAction::Fork(i) => {
                    if !groups.is_empty() {
                        let (in_use, free) = (pool.pages_in_use(), pool.pages_free());
                        let g = i % groups.len();
                        let group = &mut groups[g];
                        let lease = pool.fork_page(&group[0]);
                        group.push(lease);
                        prop_assert_eq!(
                            pool.pages_in_use(), in_use,
                            "a forked page is still one page"
                        );
                        prop_assert_eq!(pool.pages_free(), free, "fork touches no free page");
                    }
                }
                ShareAction::Release(i) => {
                    if !groups.is_empty() {
                        let g = i % groups.len();
                        let free = pool.pages_free();
                        let lease = groups[g].pop().expect("groups hold >= 1 lease");
                        let was_last = groups[g].is_empty();
                        pool.release_page(lease);
                        if was_last {
                            groups.swap_remove(g);
                            prop_assert_eq!(
                                pool.pages_free(), free + 1,
                                "last lease frees exactly one page"
                            );
                        } else {
                            prop_assert_eq!(
                                pool.pages_free(), free,
                                "a refcounted page re-entered the free list early"
                            );
                        }
                    }
                }
            }
            // Conservation under sharing: every physical page is owned,
            // grouped, or free — leases alias, pages never do.
            prop_assert_eq!(
                pool.pages_in_use(),
                owned.len() + groups.len(),
                "ledger disagrees with the pages we hold"
            );
            prop_assert_eq!(
                pool.pages_created(),
                pool.pages_in_use() + pool.pages_free()
            );
            prop_assert!(pool.pages_created() <= cap);
            for group in &groups {
                prop_assert_eq!(group[0].ref_count(), group.len());
            }
        }
        for page in owned.drain(..) {
            pool.release(page);
        }
        for group in groups.drain(..) {
            for lease in group {
                pool.release_page(lease);
            }
        }
        prop_assert_eq!(pool.pages_in_use(), 0);
        prop_assert_eq!(pool.pages_free(), pool.pages_created());
    }

    /// Forks through the cache API: whatever prefix length and page
    /// geometry a fork is taken at, it shares the whole pages, copies a
    /// partial tail into one fresh page that is a bitwise copy of the
    /// parent's rows, and leases on its first append only when it ended
    /// on a page boundary — under the float policies and Anda alike.
    #[test]
    fn a_fork_is_a_bitwise_copy_of_its_parent(
        page_positions in 1usize..6,
        fill in 1usize..12,
        fork_at in 1usize..12,
        storage_pick in 0usize..3,
        seed in 0u64..1000,
    ) {
        let fork_at = fork_at.min(fill);
        let storage = match storage_pick {
            0 => KvStorage::Fp32,
            1 => KvStorage::Fp16,
            _ => KvStorage::Anda { mantissa_bits: 6 },
        };
        let pool = PagePool::new(KvPoolConfig {
            storage,
            page_positions,
            max_pages: None,
        });
        let dim = 64;
        let mut rng = Rng::new(seed);
        let rows: Vec<Vec<f32>> = (0..fill + 1)
            .map(|_| (0..dim).map(|_| rng.normal_with(0.0, 1.0)).collect())
            .collect();
        let mut parent = pool.new_cache(1);
        for r in &rows[..fill] {
            parent.append_row(0, r, r);
        }
        let bits = |c: &anda_llm::KvCache, upto: usize| -> Vec<u32> {
            (0..upto)
                .flat_map(|i| {
                    let mut row = c.layer(0).key(i);
                    row.extend(c.layer(0).value(i));
                    row.into_iter().map(|x| x.to_bits()).collect::<Vec<_>>()
                })
                .collect()
        };
        let parent_bits = bits(&parent, fork_at);
        let partial = fork_at % page_positions != 0;
        let in_use = pool.pages_in_use();
        let mut child = parent.fork_prefix(fork_at);
        prop_assert_eq!(
            pool.pages_in_use(), in_use + usize::from(partial),
            "a fork leases one page exactly when it ends mid-page"
        );
        prop_assert_eq!(child.shared_pages(), fork_at / page_positions);
        let in_use = pool.pages_in_use();
        child.append_row(0, &rows[fill], &rows[fill]);
        prop_assert_eq!(
            pool.pages_in_use(), in_use + usize::from(!partial),
            "the first append leases a page exactly when the fork is page-aligned"
        );
        prop_assert_eq!(
            bits(&child, fork_at), parent_bits.clone(),
            "a fork must preserve the parent's bits at fork time"
        );
        prop_assert_eq!(bits(&parent, fork_at), parent_bits, "parent untouched");
    }
}

/// `preallocate` fills the free list up to capacity and subsequent
/// allocations only pop it.
#[test]
fn preallocate_fills_and_binds_to_capacity() {
    let pool = PagePool::new(KvPoolConfig {
        storage: KvStorage::Fp16,
        page_positions: 2,
        max_pages: Some(4),
    });
    pool.preallocate(10, 32);
    assert_eq!(pool.pages_created(), 4, "preallocation respects capacity");
    assert_eq!(pool.pages_free(), 4);
    let pages: Vec<Page> = (0..4).map(|_| pool.try_alloc(32).unwrap()).collect();
    assert!(pool.try_alloc(32).is_none());
    assert_eq!(pool.pages_created(), 4, "allocs only popped the free list");
    for p in pages {
        pool.release(p);
    }
}

/// A fork and its donor appending at once on two threads — a sibling
/// stream and its primary in one step — stay within the two pages they
/// hold after a mid-page fork: each tail is its own, so a pool holding
/// exactly those two pages never runs dry.
#[test]
fn a_fork_and_its_donor_append_concurrently_within_their_pages() {
    let (rows, dim) = (63, 512);
    let pool = PagePool::new(KvPoolConfig {
        storage: KvStorage::Fp32,
        page_positions: rows + 1,
        max_pages: Some(2),
    });
    let row = vec![1.0f32; dim];
    for _ in 0..200 {
        let mut a = pool.new_cache(1);
        for _ in 0..rows {
            a.append_row(0, &row, &row);
        }
        let mut b = a.fork_prefix(rows);
        assert_eq!(pool.pages_in_use(), 2, "the fork copies the donor's tail");
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|sc| {
            for cache in [&mut a, &mut b] {
                let (start, row) = (&start, &row);
                sc.spawn(move || {
                    start.wait();
                    cache.append_row(0, row, row);
                });
            }
        });
        assert_eq!(pool.pages_in_use(), 2);
    }
}
