//! Property suite for the automatic-prefix radix tree
//! ([`anda_serve::RadixTree`]).
//!
//! - **Retrievability**: every inserted sequence's whole-page prefix is
//!   found again by `lookup`, at exactly its page-aligned length.
//! - **Brute-force equivalence**: for arbitrary probes, the tree's
//!   longest-prefix match equals a linear scan over every inserted
//!   sequence (longest common prefix, capped, rounded down to a page).
//! - **Bit-exact forks**: forking a matched node reproduces the donor
//!   rows bit for bit.
//! - **Eviction safety**: eviction never frees a node with live forks
//!   or a pin — held and pinned paths stay retrievable and their forked
//!   pages stay readable through arbitrary pressure, and once every
//!   hold and pin drops the tree drains to zero pages.
//! - **Pins cover paths, not subtrees**: a pin keeps its node and every
//!   ancestor while everything below evicts under pressure, and
//!   `pinned_pages()` always equals a from-scratch recount of the
//!   distinct pages on pinned paths.

use anda_llm::kv::{KvCache, KvPoolConfig, KvStorage, PagePool};
use anda_serve::RadixTree;
use anda_tensor::Rng;
use proptest::prelude::*;

const DIM: usize = 8;

fn pool(page_positions: usize) -> PagePool {
    PagePool::new(KvPoolConfig {
        storage: KvStorage::Fp16,
        page_positions,
        max_pages: None,
    })
}

/// A single-layer cache whose rows are a deterministic function of the
/// token ids, so equal prefixes hold equal bits — the oracle for the
/// fork-exactness checks.
fn cache_for(pool: &PagePool, tokens: &[usize]) -> KvCache {
    let mut cache = pool.new_cache(1);
    for &tok in tokens {
        let mut rng = Rng::new(tok as u64 + 1);
        let row: Vec<f32> = (0..DIM).map(|_| rng.normal_with(0.0, 1.0)).collect();
        cache.append_row(0, &row, &row);
    }
    cache
}

fn key_bits(cache: &KvCache, positions: usize) -> Vec<u32> {
    (0..positions)
        .flat_map(|i| {
            cache
                .layer(0)
                .key(i)
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<_>>()
        })
        .collect()
}

fn lcp(a: &[usize], b: &[usize]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

/// Sequences over a tiny alphabet so random draws collide on real
/// shared prefixes instead of diverging at token 0.
fn seqs_strategy(max_n: usize) -> impl Strategy<Value = Vec<Vec<usize>>> {
    prop::collection::vec(prop::collection::vec(0usize..4, 1..20), 1..max_n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Inserted sequences are retrievable at page granularity, and for
    /// arbitrary probes the tree's match equals the brute-force scan:
    /// the longest common prefix against any inserted sequence's
    /// aligned span, capped at `max_depth`, rounded down to a page.
    #[test]
    fn lookup_equals_brute_force_longest_prefix_scan(
        pp in 1usize..5,
        seqs in seqs_strategy(10),
        probes in seqs_strategy(8),
        cap_last_token in any::<bool>(),
    ) {
        let pool = pool(pp);
        let mut tree = RadixTree::new(pp, 1);
        for s in &seqs {
            let mut cache = cache_for(&pool, s);
            let aligned = s.len() / pp * pp;
            prop_assert_eq!(tree.insert(s, &mut cache).is_some(), aligned > 0);
            // The tree's forks keep the pages alive past the source.
        }
        // Edge-span accounting never exceeds the physical pages the
        // tree retains (duplicates from independent sources are the
        // source's to account, per the module contract).
        prop_assert!(tree.resident_pages() <= pool.pages_in_use());

        // Retrievability: each inserted sequence hits at exactly its
        // aligned length.
        for s in &seqs {
            let aligned = s.len() / pp * pp;
            match tree.lookup(s, s.len()) {
                Some(m) => prop_assert_eq!(m.depth, aligned),
                None => prop_assert_eq!(aligned, 0),
            }
        }

        // Brute-force equivalence on probes the tree has never seen,
        // under both an uncapped and a last-token-capped lookup (the
        // scheduler always passes `prompt_len - 1`).
        for probe in &probes {
            let max_depth = if cap_last_token {
                probe.len() - 1
            } else {
                probe.len()
            };
            let best = seqs
                .iter()
                .map(|s| lcp(probe, &s[..s.len() / pp * pp]))
                .max()
                .unwrap_or(0);
            let expect = best.min(max_depth) / pp * pp;
            match tree.lookup(probe, max_depth) {
                Some(m) => {
                    prop_assert_eq!(m.depth, expect);
                    // The matched node's fork reproduces the donor rows
                    // bit for bit.
                    tree.acquire(m.node);
                    let fork = tree.fork(m.node, m.depth);
                    let reference = cache_for(&pool, &probe[..m.depth]);
                    prop_assert_eq!(
                        key_bits(&fork, m.depth),
                        key_bits(&reference, m.depth),
                        "forked prefix diverged from the donor bits"
                    );
                    tree.release(m.node);
                }
                None => prop_assert_eq!(expect, 0),
            }
        }
    }

    /// Eviction under unbounded pressure never frees a node with live
    /// forks or a pin: held/pinned sequences stay retrievable and their
    /// forked pages stay bit-readable, and once the holds and pins drop,
    /// the tree drains every page.
    #[test]
    fn eviction_never_frees_held_or_pinned_nodes(
        pp in 1usize..4,
        seqs in seqs_strategy(8),
        hold_mask in prop::collection::vec(any::<bool>(), 8),
        pin_mask in prop::collection::vec(any::<bool>(), 8),
    ) {
        let pool = pool(pp);
        let mut tree = RadixTree::new(pp, 1);
        let mut protected = Vec::new();
        for (i, s) in seqs.iter().enumerate() {
            let mut cache = cache_for(&pool, s);
            let Some(node) = tree.insert(s, &mut cache) else {
                continue; // sub-page sequence: nothing cached
            };
            let (hold, pin) = (hold_mask[i], pin_mask[i]);
            if hold {
                tree.acquire(node);
            }
            if pin {
                tree.pin(node);
            }
            if hold || pin {
                protected.push((node, s.clone(), hold, pin));
            }
        }

        // Unbounded pressure: everything unprotected must go...
        tree.evict_lru(usize::MAX);

        // ...while every protected sequence still hits at full aligned
        // depth and its pages still read back the donor bits.
        for (node, s, _, _) in &protected {
            let aligned = s.len() / pp * pp;
            let m = tree.lookup(s, aligned).expect("protected path evicted");
            prop_assert_eq!(m.depth, aligned);
            tree.acquire(*node);
            let fork = tree.fork(*node, aligned);
            let reference = cache_for(&pool, &s[..aligned]);
            prop_assert_eq!(
                key_bits(&fork, aligned),
                key_bits(&reference, aligned),
                "a protected node's pages were freed under pressure"
            );
            tree.release(*node);
        }

        // Dropping the holds and pins makes everything evictable: the
        // tree drains to zero nodes, zero accounted pages, and zero
        // physical pages.
        for (node, _, hold, pin) in &protected {
            if *hold {
                tree.release(*node);
            }
            if *pin {
                tree.unpin(*node);
            }
        }
        tree.evict_all();
        prop_assert_eq!(tree.node_count(), 0);
        prop_assert_eq!(tree.resident_pages(), 0);
        prop_assert_eq!(pool.pages_in_use(), 0);
    }

    /// Random insert (splitting edges as sequences diverge) / pin /
    /// unpin / evict sequences: after every operation `pinned_pages()`
    /// equals the number of distinct page-prefixes of the pinned
    /// sequences — unchanged by splits, nested pins counted once — and
    /// the tree leases exactly what its two totals account. Under
    /// unbounded pressure exactly the pinned paths survive: every
    /// pinned sequence still hits at full depth, everything below or
    /// beside them is gone.
    #[test]
    fn pins_cover_paths_and_pinned_pages_matches_a_recount(
        pp in 1usize..4,
        ops in prop::collection::vec(
            (0usize..4, prop::collection::vec(0usize..3, 1..16), 0usize..8),
            1..24,
        ),
    ) {
        let pool = pool(pp);
        let mut tree = RadixTree::new(pp, 1);
        // (node, page-aligned sequence) per live pin.
        let mut pins: Vec<(usize, Vec<usize>)> = Vec::new();
        let recount = |pins: &[(usize, Vec<usize>)]| {
            let mut pages = std::collections::HashSet::new();
            for (_, s) in pins {
                pages.extend((1..=s.len() / pp).map(|k| s[..k * pp].to_vec()));
            }
            pages.len()
        };
        for (op, s, k) in ops {
            match op {
                // Insert; an odd `k` pins what was inserted.
                0 | 1 => {
                    let mut cache = cache_for(&pool, &s);
                    if let Some(node) = tree.insert(&s, &mut cache) {
                        if k % 2 == 1 {
                            tree.pin(node);
                            pins.push((node, s[..s.len() / pp * pp].to_vec()));
                        }
                    }
                }
                2 if !pins.is_empty() => {
                    let (node, _) = pins.swap_remove(k % pins.len());
                    tree.unpin(node);
                }
                _ => {
                    tree.evict_lru(k);
                }
            }
            prop_assert_eq!(tree.pinned_pages(), recount(&pins));
            prop_assert_eq!(
                tree.pinned_pages() + tree.resident_pages(),
                pool.pages_in_use(),
                "the tree leases what it accounts"
            );
        }

        tree.evict_lru(usize::MAX);
        prop_assert_eq!(tree.resident_pages(), 0, "only pinned paths survive pressure");
        prop_assert_eq!(pool.pages_in_use(), recount(&pins));
        for (_, s) in &pins {
            let m = tree.lookup(s, s.len()).expect("pinned path evicted");
            prop_assert_eq!(m.depth, s.len());
            prop_assert_eq!(tree.pinned_depth(s, s.len()), s.len());
        }

        for (node, _) in pins.drain(..) {
            tree.unpin(node);
        }
        prop_assert_eq!(tree.pinned_pages(), 0);
        tree.evict_all();
        prop_assert_eq!(pool.pages_in_use(), 0);
    }
}
