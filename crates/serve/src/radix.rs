//! Page-granular radix tree over token sequences — the scheduler's one
//! prefix store (the vLLM/SGLang block-trie design).
//!
//! Every prompt the scheduler admits is matched against the tree so its
//! longest already-cached prefix is [`KvCache::fork_prefix`]-forked
//! (refcounted page-table clone, no row copies) and only the uncovered
//! suffix is prefilled. Prefixes get into the tree two ways: *declared*
//! — [`Scheduler::pin_prefix`](crate::Scheduler::pin_prefix) prefills a
//! prefix, inserts it and [`RadixTree::pin`]s its node — or
//! *discovered* — under `auto_prefix` every prompt is inserted the step
//! it finishes prefilling.
//!
//! # Page granularity
//!
//! Everything the tree stores is rounded **down to whole KV pages**
//! (`page_positions` tokens): edges span whole pages, splits happen only
//! at page boundaries, and a lookup's usable depth is the matched length
//! rounded down to a page multiple. Two prompts that diverge inside
//! their first uncached page share nothing — exactly the sharing the KV
//! layer expresses, since it shares whole pages only: a hit or an insert
//! forks on a page boundary and so never copies a partial page, and an
//! admitted stream appends into pages of its own.
//!
//! # Node caches and physical sharing
//!
//! Each node holds a [`KvCache`] covering positions `0..end` of its
//! prefix. The tree charges each node its own edge span, to exactly one
//! of two totals the scheduler adds to its admission watermark —
//! [`RadixTree::pinned_pages`] for edges on a pinned path,
//! [`RadixTree::resident_pages`] for the evictable rest — and the
//! tree's page leases equal their sum whatever cache an insert sources
//! from: a new leaf leases its **parent path's** pages for `0..start`
//! and the source's only for its own edge ([`KvCache::fork_spliced`]),
//! and an edge split forks the child's cache, allocating nothing. A
//! source that prefilled its own copy of an already-cached prefix (two
//! same-prefix prompts admitted before either finished prefilling)
//! keeps that duplicate to itself; it is charged to the stream's
//! reservation and freed when the stream retires. While a source stream
//! is still decoding, its prompt pages past the matched path are
//! counted by both its reservation and the tree (the tree's lease is a
//! refcount on the same physical pages) — conservative, never an
//! undercount of what the tree itself retains.
//!
//! # Eviction and pins
//!
//! Under page pressure the scheduler calls [`RadixTree::evict_lru`]:
//! least-recently-used **leaves** are dropped first (an interior node is
//! never evictable — its children chain-share its pages), and a leaf is
//! skipped while it has live forks ([`RadixTree::acquire`]d by an active
//! stream) or carries a pin. A [`RadixTree::pin`] therefore protects its
//! node and, through the interior rule, every ancestor — the pinned
//! *path* — but nothing below it: prompts that extend a pinned prefix
//! stay ordinary evictable cache. Dropping a node's cache releases its
//! leases; pages nobody else co-owns rejoin the pool's free list.

use anda_llm::KvCache;

/// Identifier of a tree node, stable for the node's lifetime (slots are
/// recycled only after eviction).
pub type NodeId = usize;

const ROOT: NodeId = 0;

/// A successful [`RadixTree::lookup`]: fork `node`'s cache at `depth`
/// positions to reuse the cached prefix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RadixMatch {
    /// The node whose edge contains the last matched page (its cache
    /// covers at least `depth` positions).
    pub node: NodeId,
    /// Matched tokens, rounded down to a whole-page multiple (> 0).
    pub depth: usize,
}

#[derive(Debug, Default)]
struct Node {
    parent: NodeId,
    /// Edge tokens from `start` to `start + edge.len()`; always a whole
    /// number of pages (empty only for the root).
    edge: Vec<usize>,
    /// Token depth where this node's edge begins.
    start: usize,
    /// KV rows for positions `0..start + edge.len()` of the prefix
    /// (`None` only for the root). A fork along the parent chain, so the
    /// path shares physical pages.
    cache: Option<KvCache>,
    children: Vec<NodeId>,
    /// LRU clock stamp of the last lookup/insert touching this node.
    last_used: u64,
    /// Live stream forks of this node's cache (blocks eviction).
    active: usize,
    /// Pins on this node: it cannot be evicted while any remain.
    pins: usize,
    /// Pins on this node or any descendant. Non-zero means the edge lies
    /// on a pinned path and its pages count as pinned, not resident.
    path_pins: usize,
}

impl Node {
    fn end(&self) -> usize {
        self.start + self.edge.len()
    }
}

/// The prefix store: a radix tree over token sequences with
/// per-node [`KvCache`] forks, LRU eviction and page-exact residency
/// accounting. See the module docs for the design.
#[derive(Debug)]
pub struct RadixTree {
    /// KV page size in positions; every edge span and every match depth
    /// is a multiple of this.
    page_positions: usize,
    /// Model layers — each cached position costs one row *per layer*, so
    /// residency accounting multiplies by this.
    n_layers: usize,
    /// Node arena; slot 0 is the root, evicted slots are recycled.
    nodes: Vec<Option<Node>>,
    free: Vec<NodeId>,
    clock: u64,
    /// Σ `n_layers · edge_pages` over all nodes. Path forks share pages,
    /// so each distinct physical page of the tree is counted by exactly
    /// one node's edge.
    tree_pages: usize,
    /// The same sum over the nodes on pinned paths only.
    pinned_pages: usize,
    evictions: u64,
}

impl RadixTree {
    /// An empty tree for a `page_positions`-position page geometry and an
    /// `n_layers`-layer model.
    ///
    /// # Panics
    ///
    /// Panics if `page_positions` or `n_layers` is zero.
    pub fn new(page_positions: usize, n_layers: usize) -> Self {
        assert!(page_positions >= 1, "page_positions must be at least 1");
        assert!(n_layers >= 1, "n_layers must be at least 1");
        RadixTree {
            page_positions,
            n_layers,
            nodes: vec![Some(Node::default())],
            free: Vec::new(),
            clock: 0,
            tree_pages: 0,
            pinned_pages: 0,
            evictions: 0,
        }
    }

    fn node(&self, id: NodeId) -> &Node {
        self.nodes[id].as_ref().expect("live node id")
    }

    fn node_mut(&mut self, id: NodeId) -> &mut Node {
        self.nodes[id].as_mut().expect("live node id")
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Pages charged for a `tokens`-long whole-page span, all layers.
    fn span_pages(&self, tokens: usize) -> usize {
        debug_assert!(tokens.is_multiple_of(self.page_positions));
        self.n_layers * (tokens / self.page_positions)
    }

    /// Physical KV pages, across all layers, of the edges no pin covers
    /// — the evictable part of what the scheduler charges against its
    /// admission watermark.
    pub fn resident_pages(&self) -> usize {
        self.tree_pages - self.pinned_pages
    }

    /// Distinct physical KV pages, across all layers, on pinned paths
    /// (root to every pinned node; nested pins count their shared pages
    /// once). Disjoint from [`RadixTree::resident_pages`].
    pub fn pinned_pages(&self) -> usize {
        self.pinned_pages
    }

    /// Live nodes (the root excluded).
    pub fn node_count(&self) -> usize {
        self.nodes.iter().flatten().count() - 1
    }

    /// Nodes evicted since construction (monotonic).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// The child of `id` sharing the longest token prefix with `t`,
    /// with the shared length. Siblings all diverge from each other
    /// within their first page, so at most one child can match a whole
    /// page or more.
    fn best_child(&self, id: NodeId, t: &[usize]) -> Option<(NodeId, usize)> {
        self.node(id)
            .children
            .iter()
            .map(|&c| {
                let k = self
                    .node(c)
                    .edge
                    .iter()
                    .zip(t)
                    .take_while(|(a, b)| a == b)
                    .count();
                (c, k)
            })
            .max_by_key(|&(_, k)| k)
            .filter(|&(_, k)| k > 0)
    }

    /// Walks from the root along `tokens`: the nodes entered, root first,
    /// and the tokens matched (the last node possibly mid-edge).
    /// `pinned_only` stops before the first edge no pin covers.
    fn descend(&self, tokens: &[usize], pinned_only: bool) -> (Vec<NodeId>, usize) {
        let mut path = vec![ROOT];
        let mut depth = 0usize;
        while let Some((child, k)) =
            self.best_child(*path.last().expect("non-empty"), &tokens[depth..])
        {
            if pinned_only && self.node(child).path_pins == 0 {
                break;
            }
            path.push(child);
            depth += k;
            if k < self.node(child).edge.len() {
                break; // diverged (or ran out of tokens) mid-edge
            }
        }
        (path, depth)
    }

    /// Longest cached prefix of `tokens` usable at page granularity,
    /// capped at `max_depth` tokens (the scheduler passes `prompt_len -
    /// 1` so at least one prompt token is always left to prefill — a
    /// stream's first token comes off the hidden state of its last
    /// prompt position).
    /// Touches the matched path's LRU stamps. Returns `None` when not
    /// even one whole page matches.
    pub fn lookup(&mut self, tokens: &[usize], max_depth: usize) -> Option<RadixMatch> {
        let (path, depth) = self.descend(tokens, false);
        let usable = depth.min(max_depth) / self.page_positions * self.page_positions;
        if usable == 0 {
            return None;
        }
        let stamp = self.tick();
        for &id in &path {
            self.node_mut(id).last_used = stamp;
        }
        // The deepest path node whose edge contains position `usable`
        // holds a cache covering it (every shallower ancestor does too,
        // but the deepest one maximizes physical sharing with siblings).
        let node = *path
            .iter()
            .rev()
            .find(|&&id| self.node(id).start < usable)
            .expect("usable > 0 means some non-root node was matched");
        debug_assert!(usable <= self.node(node).end());
        Some(RadixMatch {
            node,
            depth: usable,
        })
    }

    /// The whole-page prefix of `tokens` cached along **pinned** paths,
    /// capped at `max_depth` like [`RadixTree::lookup`] — the part of a
    /// match that cannot be evicted before the prompt is admitted, so a
    /// demand estimate may discount it. Read-only: no LRU stamp moves.
    pub fn pinned_depth(&self, tokens: &[usize], max_depth: usize) -> usize {
        if self.pinned_pages == 0 {
            return 0; // nothing pinned: skip the walk (every submit asks)
        }
        let (_, depth) = self.descend(tokens, true);
        depth.min(max_depth) / self.page_positions * self.page_positions
    }

    /// Marks `node` as having one more live stream fork, protecting it
    /// (and, transitively, its ancestor chain — interior nodes are never
    /// evicted) from eviction until [`RadixTree::release`].
    pub fn acquire(&mut self, node: NodeId) {
        self.node_mut(node).active += 1;
    }

    /// Drops one live-fork hold acquired with [`RadixTree::acquire`].
    ///
    /// # Panics
    ///
    /// Panics if `node` has no live holds.
    pub fn release(&mut self, node: NodeId) {
        let stamp = self.tick();
        let n = self.node_mut(node);
        assert!(n.active > 0, "release without a matching acquire");
        n.active -= 1;
        n.last_used = stamp;
    }

    /// Forks `node`'s cache at `depth` positions — the admission step
    /// after a successful [`RadixTree::lookup`]. The caller must hold an
    /// [`RadixTree::acquire`] on `node` for the fork's lifetime so
    /// eviction cannot drop the node while the stream decodes on it.
    ///
    /// # Panics
    ///
    /// Panics if `depth` exceeds the node's cached positions.
    pub fn fork(&mut self, node: NodeId, depth: usize) -> KvCache {
        self.node_mut(node)
            .cache
            .as_mut()
            .expect("non-root nodes hold caches")
            .fork_prefix(depth)
    }

    /// Pins `node`: it — and with it every ancestor, since interior
    /// nodes are never evicted — stays cached until the matching
    /// [`RadixTree::unpin`], and the path's pages count as
    /// [`RadixTree::pinned_pages`], not [`RadixTree::resident_pages`].
    /// Descendants stay evictable. Pins nest.
    pub fn pin(&mut self, node: NodeId) {
        self.node_mut(node).pins += 1;
        self.cover_path(node, true);
    }

    /// Drops one pin placed by [`RadixTree::pin`]. Edges no other pin
    /// covers become resident again; nothing is evicted.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not pinned.
    pub fn unpin(&mut self, node: NodeId) {
        let n = self.node_mut(node);
        assert!(n.pins > 0, "unpin without a matching pin");
        n.pins -= 1;
        self.cover_path(node, false);
    }

    /// Adds (`pin`) or removes one pin's coverage along the path from
    /// `node` to the root; an edge whose coverage starts or ends enters
    /// or leaves the pinned total.
    fn cover_path(&mut self, node: NodeId, pin: bool) {
        let mut id = node;
        while id != ROOT {
            let n = self.node_mut(id);
            if pin {
                n.path_pins += 1;
            } else {
                n.path_pins -= 1;
            }
            let (flips, span, parent) = (n.path_pins == usize::from(pin), n.edge.len(), n.parent);
            match (flips, pin) {
                (true, true) => self.pinned_pages += self.span_pages(span),
                (true, false) => self.pinned_pages -= self.span_pages(span),
                (false, _) => {}
            }
            id = parent;
        }
    }

    /// Inserts the whole-page prefix of `tokens` (length rounded down to
    /// a page multiple), sourcing KV rows by forking `source` — the
    /// freshly prefilled cache of the admitting stream, which must cover
    /// at least the aligned length. Shared interior pages are reused via
    /// forks of existing node caches (maximum physical dedup); only a
    /// genuinely new tail becomes a new leaf. Returns the node whose
    /// edge ends exactly at the aligned length (`None` when the aligned
    /// length is zero, or when the sequence diverges from an existing
    /// edge inside its first uncached page — nothing page-granular to
    /// add there... except there always is: the diverging tail itself
    /// becomes a sibling leaf, so the only `None` case is a zero aligned
    /// length).
    ///
    /// # Panics
    ///
    /// Panics if `source` holds fewer positions than the aligned length.
    pub fn insert(&mut self, tokens: &[usize], source: &mut KvCache) -> Option<NodeId> {
        let aligned = tokens.len() / self.page_positions * self.page_positions;
        if aligned == 0 {
            return None;
        }
        assert!(
            source.len() >= aligned,
            "source cache holds {} positions, insert needs {aligned}",
            source.len()
        );
        let t = &tokens[..aligned];
        let stamp = self.tick();
        let mut node = ROOT;
        let mut depth = 0usize;
        loop {
            self.node_mut(node).last_used = stamp;
            if depth == aligned {
                return Some(node);
            }
            let Some((child, k)) = self.best_child(node, &t[depth..]) else {
                return Some(self.new_leaf(node, t, depth, source, stamp));
            };
            if k == self.node(child).edge.len() {
                node = child;
                depth += k;
                continue;
            }
            // Diverged (or tokens exhausted) at offset `k` inside
            // `child`'s edge: split at the last page boundary at or
            // below `k`. Below one page there is nothing shareable —
            // the new tail becomes a plain sibling leaf instead.
            let split = k / self.page_positions * self.page_positions;
            if split == 0 {
                return Some(self.new_leaf(node, t, depth, source, stamp));
            }
            let mid = self.split_edge(node, child, split, stamp);
            node = mid;
            depth += split;
        }
    }

    /// Appends a leaf under `parent` holding `t[depth..]` (whole pages by
    /// construction). Its cache leases the parent path's pages for
    /// `0..depth` and `source`'s for the new edge only, so a source
    /// carrying its own copy of the path adds no hidden residency.
    fn new_leaf(
        &mut self,
        parent: NodeId,
        t: &[usize],
        depth: usize,
        source: &mut KvCache,
        stamp: u64,
    ) -> NodeId {
        debug_assert!(depth < t.len() && depth == self.node(parent).end());
        let cache = match self.node_mut(parent).cache.as_mut() {
            Some(path) => path.fork_spliced(depth, source, t.len()),
            None => source.fork_prefix(t.len()),
        };
        let leaf = self.alloc(Node {
            parent,
            edge: t[depth..].to_vec(),
            start: depth,
            cache: Some(cache),
            last_used: stamp,
            ..Node::default()
        });
        self.node_mut(parent).children.push(leaf);
        self.tree_pages += self.span_pages(t.len() - depth);
        leaf
    }

    /// Splits `child` (a child of `parent`) at `split` tokens into its
    /// edge: a new interior node takes the first `split` tokens (cache
    /// forked from `child`'s, so the pages stay physically shared) and
    /// `child` keeps the remainder, its id, its holds and its pins. Both
    /// page totals are unchanged — the pages move from `child`'s span to
    /// the new node's, which every pinned path through `child` also
    /// crosses.
    fn split_edge(&mut self, parent: NodeId, child: NodeId, split: usize, stamp: u64) -> NodeId {
        let start = self.node(child).start;
        let path_pins = self.node(child).path_pins;
        let head: Vec<usize> = self.node(child).edge[..split].to_vec();
        let cache = self
            .node_mut(child)
            .cache
            .as_mut()
            .expect("non-root nodes hold caches")
            .fork_prefix(start + split);
        let mid = self.alloc(Node {
            parent,
            edge: head,
            start,
            cache: Some(cache),
            children: vec![child],
            last_used: stamp,
            path_pins,
            ..Node::default()
        });
        let c = self.node_mut(child);
        c.edge.drain(..split);
        c.start = start + split;
        c.parent = mid;
        let p = self.node_mut(parent);
        let slot = p
            .children
            .iter()
            .position(|&id| id == child)
            .expect("child is listed under its parent");
        p.children[slot] = mid;
        mid
    }

    fn alloc(&mut self, node: Node) -> NodeId {
        match self.free.pop() {
            Some(id) => {
                self.nodes[id] = Some(node);
                id
            }
            None => {
                self.nodes.push(Some(node));
                self.nodes.len() - 1
            }
        }
    }

    /// A node eviction may drop: a leaf (interior nodes share their
    /// pages with descendants) with no live forks and no pin.
    fn evictable(n: &Node) -> bool {
        n.children.is_empty() && n.active == 0 && n.pins == 0
    }

    /// The least-recently-used evictable node, if any.
    fn lru_candidate(&self) -> Option<NodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(id, slot)| slot.as_ref().map(|n| (id, n)))
            .filter(|&(id, n)| id != ROOT && Self::evictable(n))
            .min_by_key(|&(_, n)| n.last_used)
            .map(|(id, _)| id)
    }

    /// Evicts least-recently-used leaves until at least `want_pages`
    /// accounting pages are freed or nothing evictable remains; returns
    /// the pages actually freed. Dropping a node's cache releases its
    /// page leases — whole pages nobody else co-owns rejoin the pool's
    /// free list immediately. Evicting a leaf can expose its parent as
    /// the next candidate, so sustained pressure drains whole cold
    /// chains.
    pub fn evict_lru(&mut self, want_pages: usize) -> usize {
        let mut freed = 0usize;
        while freed < want_pages {
            let Some(id) = self.lru_candidate() else {
                break;
            };
            freed += self.evict(id);
        }
        freed
    }

    /// Evicts everything evictable (tests, benches, and explicit cache
    /// flushes); returns the pages freed.
    pub fn evict_all(&mut self) -> usize {
        self.evict_lru(usize::MAX)
    }

    /// Evicts `node` and then every ancestor that exposes, each while it
    /// is evictable (a leaf, no live forks, no pin); returns the pages
    /// freed. Unpinning a prefix calls this so its pages rejoin the pool
    /// at once unless a live stream or a longer cached prompt still
    /// reads them — those nodes stay behind as ordinary LRU cache.
    pub fn evict_path(&mut self, mut node: NodeId) -> usize {
        let mut freed = 0usize;
        while node != ROOT && Self::evictable(self.node(node)) {
            let parent = self.node(node).parent;
            freed += self.evict(node);
            node = parent;
        }
        freed
    }

    /// Removes leaf `id`, dropping its cache (and with it, its page
    /// leases). Returns its accounting span.
    fn evict(&mut self, id: NodeId) -> usize {
        let node = self.nodes[id].take().expect("live node id");
        debug_assert!(node.children.is_empty(), "only leaves are evicted");
        debug_assert_eq!(node.active, 0, "a held node must never be evicted");
        debug_assert_eq!(node.path_pins, 0, "a pinned node must never be evicted");
        let span = self.span_pages(node.edge.len());
        self.tree_pages -= span;
        self.evictions += 1;
        let p = self.node_mut(node.parent);
        p.children.retain(|&c| c != id);
        self.free.push(id);
        drop(node); // drops the cache → releases the page leases
        span
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anda_llm::kv::{KvPoolConfig, KvStorage, PagePool};
    use anda_tensor::Rng;

    const PP: usize = 4;
    const DIM: usize = 16;

    fn pool() -> PagePool {
        PagePool::new(KvPoolConfig {
            storage: KvStorage::Fp16,
            page_positions: PP,
            max_pages: None,
        })
    }

    /// A single-layer cache filled with `tokens.len()` deterministic rows
    /// derived from the token ids, so equal prefixes hold equal bits.
    fn cache_for(pool: &PagePool, tokens: &[usize]) -> KvCache {
        let mut cache = pool.new_cache(1);
        for &tok in tokens {
            let mut rng = Rng::new(tok as u64 + 1);
            let row: Vec<f32> = (0..DIM).map(|_| rng.normal_with(0.0, 1.0)).collect();
            cache.append_row(0, &row, &row);
        }
        cache
    }

    fn seq(tag: usize, len: usize) -> Vec<usize> {
        (0..len).map(|i| (i * 31 + tag * 7 + 1) % 97).collect()
    }

    #[test]
    fn insert_then_lookup_round_trips_at_page_granularity() {
        let pool = pool();
        let mut tree = RadixTree::new(PP, 1);
        let tokens = seq(1, 11); // 2 whole pages + 3 spare tokens
        let mut cache = cache_for(&pool, &tokens);
        let node = tree.insert(&tokens, &mut cache).expect("aligned len 8");
        assert_eq!(tree.node(node).end(), 8);
        assert_eq!(tree.resident_pages(), 2);

        let m = tree.lookup(&tokens, tokens.len()).expect("must hit");
        assert_eq!(m.depth, 8, "match is page-rounded");
        assert_eq!(m.node, node);
        // The capped lookup never hands back the whole prompt.
        let m = tree
            .lookup(&tokens[..8], 7)
            .expect("cap still leaves a page");
        assert_eq!(m.depth, 4);
        // Sub-page prompts can never match.
        assert!(tree.lookup(&tokens[..3], 3).is_none());
    }

    #[test]
    fn diverging_sequences_split_on_page_boundaries_only() {
        let pool = pool();
        let mut tree = RadixTree::new(PP, 1);
        let a = seq(1, 12);
        let mut b = a.clone();
        b[6] += 1; // diverge mid-page-1: only page 0 is shareable
        let mut ca = cache_for(&pool, &a);
        let mut cb = cache_for(&pool, &b);
        tree.insert(&a, &mut ca).unwrap();
        assert_eq!(tree.node_count(), 1);
        tree.insert(&b, &mut cb).unwrap();
        // Split at 4 (page boundary below the divergence at 6): an
        // interior node plus two leaves.
        assert_eq!(tree.node_count(), 3);
        assert_eq!(tree.resident_pages(), 1 + 2 + 2);
        let ma = tree.lookup(&a, a.len()).unwrap();
        let mb = tree.lookup(&b, b.len()).unwrap();
        assert_eq!((ma.depth, mb.depth), (12, 12));
        assert_ne!(ma.node, mb.node);
    }

    #[test]
    fn fork_reads_the_inserted_bits() {
        let pool = pool();
        let mut tree = RadixTree::new(PP, 1);
        let tokens = seq(3, 8);
        let mut cache = cache_for(&pool, &tokens);
        let expect: Vec<u32> = (0..8)
            .flat_map(|i| {
                cache
                    .layer(0)
                    .key(i)
                    .iter()
                    .map(|x| x.to_bits())
                    .collect::<Vec<_>>()
            })
            .collect();
        let node = tree.insert(&tokens, &mut cache).unwrap();
        drop(cache); // the tree's fork keeps the pages alive
        tree.acquire(node);
        let fork = tree.fork(node, 8);
        let got: Vec<u32> = (0..8)
            .flat_map(|i| {
                fork.layer(0)
                    .key(i)
                    .iter()
                    .map(|x| x.to_bits())
                    .collect::<Vec<_>>()
            })
            .collect();
        assert_eq!(got, expect, "forked prefix reads the donor's exact bits");
        tree.release(node);
    }

    #[test]
    fn eviction_is_lru_skips_held_and_pinned_and_frees_pages() {
        let pool = pool();
        let mut tree = RadixTree::new(PP, 1);
        let mut caches: Vec<KvCache> = Vec::new();
        let mut nodes = Vec::new();
        for tag in 0..3 {
            let tokens = seq(tag + 10, 8);
            let mut cache = cache_for(&pool, &tokens);
            nodes.push(tree.insert(&tokens, &mut cache).unwrap());
            caches.push(cache);
        }
        drop(caches); // tree leases are now the only owners
        let in_use = pool.pages_in_use();
        assert_eq!(in_use, 6, "three 2-page chains");

        tree.acquire(nodes[0]); // oldest, but held by a live stream
        tree.pin(nodes[1]); // next oldest, but pinned
        assert_eq!(tree.evict_lru(1), 2, "whole leaf spans are freed");
        assert_eq!(pool.pages_in_use(), in_use - 2, "pages really returned");
        assert_eq!(tree.evictions(), 1);
        // Only the unheld, unpinned leaf (the newest) was evictable.
        assert!(tree.lookup(&seq(12, 8), 8).is_none());
        assert!(tree.lookup(&seq(10, 8), 8).is_some());
        assert!(tree.lookup(&seq(11, 8), 8).is_some());

        // Nothing else is evictable until the hold and pin drop.
        assert_eq!(tree.evict_lru(usize::MAX), 0);
        tree.release(nodes[0]);
        tree.unpin(nodes[1]);
        assert_eq!(tree.evict_all(), 4);
        assert_eq!(tree.resident_pages(), 0);
        assert_eq!(pool.pages_in_use(), 0, "a drained tree frees every page");
    }

    #[test]
    fn split_keeps_interior_pages_shared_and_evicts_chains_bottom_up() {
        let pool = pool();
        let mut tree = RadixTree::new(PP, 1);
        let a = seq(5, 16);
        let mut b = a.clone();
        b[9] += 1; // shares pages 0–1, diverges in page 2
        let mut ca = cache_for(&pool, &a);
        tree.insert(&a, &mut ca).unwrap();
        drop(ca);
        assert_eq!(pool.pages_in_use(), 4);
        // The split forks a's leaf cache at the page-aligned divergence:
        // the interior node and a's shortened leaf co-own a's original
        // four pages — the split itself allocates nothing.
        let mut cb = cache_for(&pool, &b);
        tree.insert(&b, &mut cb).unwrap();
        assert_eq!(
            pool.pages_in_use(),
            8,
            "split is allocation-free; only b's own pages were added"
        );
        // b's leaf leases the interior node's pages for the shared span
        // and b's only for its own tail, so b's independently built
        // copies of pages 0–1 die with b's cache and the tree's leases
        // equal its span accounting: 2 (interior) + 2 (a tail) + 2 (b
        // tail).
        drop(cb);
        assert_eq!(pool.pages_in_use(), 6);
        assert_eq!(tree.resident_pages(), 2 + 2 + 2);
        // The interior node is not a leaf: evicting everything drains
        // leaves first, then the exposed interior chain.
        assert_eq!(tree.evict_all(), 6);
        assert_eq!(pool.pages_in_use(), 0);
    }
}
