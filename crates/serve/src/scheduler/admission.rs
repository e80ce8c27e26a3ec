//! Admission: the per-class pending queues and their weighted
//! round-robin cursor, making room for an arrival (eviction, then
//! preemption of an outranked victim), and turning a work item into
//! placed streams.

use std::collections::VecDeque;

use anda_llm::KvCache;
use anda_tensor::Rng;

use super::{GroupState, Scheduler, Sequence, Stream};
use crate::radix::RadixMatch;
use crate::request::{FinishReason, Priority, RequestId, SamplingMode};

/// The weighted-round-robin admission schedule: one entry per grant,
/// interleaved so no class waits longer than it must. `High` appears
/// [`Priority::weight`]` = 4` times, `Normal` 2, `Low` 1 — the 4:2:1
/// share (and the ≤ 6-grant starvation bound) the scheduler property
/// tests pin.
const WRR_SCHEDULE: [Priority; 7] = [
    Priority::High,
    Priority::Normal,
    Priority::High,
    Priority::Low,
    Priority::High,
    Priority::Normal,
    Priority::High,
];

/// One unit of admissible work in a class queue: a [`Sequence`] not
/// holding a slot — a request not yet admitted (nothing generated, RNG
/// freshly seeded), or a suspended stream awaiting resume (parked at
/// the front of its class so it is that class's next grant).
pub(super) struct WorkItem {
    pub(super) seq: Sequence,
    /// Completion multiplicity; `Single` for a resume (groups are never
    /// suspended).
    pub(super) mode: SamplingMode,
    /// A suspended stream: it re-prefills its whole sequence privately,
    /// skipping the radix tree both ways.
    pub(super) resumed: bool,
}

/// Pending work per priority class: FIFO within a class, weighted
/// round-robin between classes. The cursor into [`WRR_SCHEDULE`]
/// advances one entry per admission grant and parks on a blocked entry
/// otherwise (no overtaking).
#[derive(Default)]
pub(super) struct ClassQueues {
    /// [`Priority::index`]-indexed.
    queues: [VecDeque<WorkItem>; 3],
    cursor: usize,
}

impl ClassQueues {
    /// Queues `item` behind its class.
    pub(super) fn push_back(&mut self, item: WorkItem) {
        self.queues[item.seq.priority.index()].push_back(item);
    }

    /// Parks `item` at the front of its class: a blocked head going
    /// back, or a suspended stream (its class's very next grant).
    fn push_front(&mut self, item: WorkItem) {
        self.queues[item.seq.priority.index()].push_front(item);
    }

    /// Pops the head the WRR cursor selects: the first schedule entry at
    /// or after the cursor whose class has pending work (the cursor
    /// parks on that entry). `None` when every queue is empty.
    fn pop_next(&mut self) -> Option<WorkItem> {
        for i in 0..WRR_SCHEDULE.len() {
            let pos = (self.cursor + i) % WRR_SCHEDULE.len();
            if let Some(item) = self.queues[WRR_SCHEDULE[pos].index()].pop_front() {
                self.cursor = pos;
                return Some(item);
            }
        }
        None
    }

    /// The popped head was admitted: the next grant goes to the next
    /// schedule entry.
    fn grant(&mut self) {
        self.cursor = (self.cursor + 1) % WRR_SCHEDULE.len();
    }

    /// Every queued item, most urgent class first.
    pub(super) fn iter(&self) -> impl Iterator<Item = &WorkItem> {
        self.queues.iter().flatten()
    }

    /// Removes and returns the item of request `id`, wherever it waits.
    pub(super) fn remove(&mut self, id: RequestId) -> Option<WorkItem> {
        self.queues.iter_mut().find_map(|queue| {
            let pos = queue.iter().position(|item| item.seq.id == id)?;
            queue.remove(pos)
        })
    }
}

impl Scheduler<'_> {
    /// Weighted-round-robin admission over the per-class queues: the
    /// schedule entry under the cursor names a class; that class's head
    /// work item (new request, or suspended resume — resumes park at
    /// the front) is offered admission. A grant advances the cursor; a
    /// blocked head parks the cursor and stops admission entirely —
    /// within a class there is no overtaking, so class order is exactly
    /// submission order and accepted work is never starved by later,
    /// smaller requests. With single-class traffic this is FIFO.
    ///
    /// Blocked means: not enough free slots for the whole sample group
    /// (the arrival parks — slots turn over every few steps, so waiting
    /// is cheap and keeps the WRR bound intact), or the page watermark
    /// (over *unshared* demand) fails even after LRU eviction of cold
    /// radix leaves. Page pressure is the expensive kind of blocked — a
    /// big incumbent can hold pages for its whole generation — so there,
    /// with [`SchedulerConfig::preemption`](super::SchedulerConfig::preemption)
    /// on, victims the arrival strictly outranks are suspended and the
    /// watermark retried before giving up.
    ///
    /// Returns the work items admitted.
    pub(super) fn admit(&mut self) -> u64 {
        let mut admitted = 0;
        while let Some(item) = self.pending.pop_next() {
            if !self.admit_item(item) {
                break;
            }
            self.pending.grant();
            admitted += 1;
        }
        admitted
    }

    /// Suspends the best preemption victim for a blocked arrival of
    /// class `rank`: an active, not-yet-done, single-sample stream of a
    /// strictly lower class whose (undiscounted) resume demand fits the
    /// pool beside the pinned pages — or suspending it would strand it
    /// forever — lowest class first, most reserved pages among equals,
    /// highest slot as the final deterministic tie-break. Returns
    /// `false` (suspending nothing) when preemption is off or no such
    /// victim exists. Multi-sample groups are never victims: their
    /// shared-page ledger and lockstep sibling decode are not
    /// suspendable.
    fn preempt_for(&mut self, rank: usize) -> bool {
        if !self.cfg.preemption {
            return false;
        }
        let victim = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|s| (i, s)))
            .filter(|(_, s)| s.done.is_none() && !self.groups.contains_key(&s.seq.id.0))
            .filter(|(_, s)| s.seq.priority.index() > rank)
            .filter(|(_, s)| {
                let resume = self.demand(s.seq.prompt_len, s.seq.max_new, 1, 0);
                self.ledger.short_beside(&self.radix, 0, resume) == 0
            })
            .max_by_key(|&(i, s)| (s.seq.priority.index(), s.reserved_pages, i))
            .map(|(i, _)| i);
        let Some(slot) = victim else { return false };
        self.suspend(slot);
        true
    }

    /// Unschedules the stream in `slot`: gives back everything it holds
    /// ([`Scheduler::release`] — resume re-prefills privately, so it no
    /// longer blocks an eviction) and parks its tokens-so-far plus its
    /// *live* RNG at the front of its class queue as a resume item.
    fn suspend(&mut self, slot: usize) {
        let stream = self.slots[slot].take().expect("victim slot is occupied");
        let seq = self.release(stream);
        self.stats.preemptions += 1;
        self.pending.push_front(WorkItem {
            seq,
            mode: SamplingMode::Single,
            resumed: true,
        });
    }

    /// Makes `demand` pages admissible under the watermark: LRU-evicts
    /// cold radix leaves first (only unreferenced ones, so acquired hits
    /// and every active stream's match are safe), then — for an arrival
    /// of class `rank` — suspends strictly-outranked victims until the
    /// demand fits. Returns the pages still short: 0 when it fits.
    fn ensure_headroom(&mut self, rank: Option<usize>, demand: usize) -> usize {
        loop {
            let short = self.ledger.short_now(&self.radix, demand);
            if short == 0 {
                return 0;
            }
            if self.radix.evict_lru(short) == 0 && !rank.is_some_and(|r| self.preempt_for(r)) {
                return short;
            }
        }
    }

    /// Turns a lookup result into a cache with room to grow: holds the
    /// hit (it must survive the eviction pass and whatever the caller
    /// builds on it), makes `demand` pages admissible
    /// ([`Scheduler::ensure_headroom`]) and forks the hit's pages — or
    /// takes a fresh cache on a miss. The hold is the caller's to
    /// release. `Err` carries the pages short; nothing is held then.
    pub(super) fn claim(
        &mut self,
        hit: Option<RadixMatch>,
        rank: Option<usize>,
        demand: usize,
    ) -> Result<KvCache, usize> {
        if let Some(m) = hit {
            self.radix.acquire(m.node);
        }
        let short = self.ensure_headroom(rank, demand);
        if short > 0 {
            if let Some(m) = hit {
                self.radix.release(m.node);
            }
            return Err(short);
        }
        Ok(match hit {
            Some(m) => self.radix.fork(m.node, m.depth),
            None => self.fresh_cache(),
        })
    }

    /// Admits one work item: takes its slots and page reservation and
    /// hands it a cache — nothing is prefilled here;
    /// [`Scheduler::step`] works the prompt off as spans. The prompt is
    /// matched against the radix tree and its longest cached whole-page
    /// prefix — pinned or discovered — arrives as a fork of refcounted
    /// shared pages, and prefill starts past whatever the fork covers. A multi-sample request places its `n - 1` siblings now
    /// (slots held, caches empty) to fork the primary once its prompt
    /// has landed. A `max_new == 0` request finishes right here.
    ///
    /// Resume *is* single-sample admission of a longer prompt: the
    /// parked sequence re-prefills whole (`prefill_target` is its full
    /// length) at undiscounted demand — worst-case length `prompt_len +
    /// max_new` is fixed however much was generated — skips the radix
    /// tree both ways, and keeps its RNG.
    ///
    /// Returns `false` (work item pushed back) when blocked on slots or
    /// pages.
    fn admit_item(&mut self, item: WorkItem) -> bool {
        let n = item.mode.samples();
        if self.active_len() + n > self.cfg.max_batch {
            self.pending.push_front(item);
            return false;
        }
        // The lookup is capped one short of the prompt: a stream's first
        // token comes off the hidden state of its last prompt position,
        // so at least that position must be prefilled. The stream keeps
        // the hold `claim` takes on a hit for as long as it decodes.
        let tokens = &item.seq.tokens;
        let hit = if item.resumed {
            None
        } else {
            self.radix.lookup(tokens, tokens.len() - 1)
        };
        let shared = hit.map_or(0, |m| m.depth);
        let demand = self.demand(item.seq.prompt_len, item.seq.max_new, n, shared);
        let Ok(cache) = self.claim(hit, Some(item.seq.priority.index()), demand) else {
            self.pending.push_front(item);
            return false;
        };
        if hit.is_some() {
            self.stats.prefix_forks += 1;
            self.stats.cache_hit_tokens += shared as u64;
        }
        if item.resumed {
            self.stats.resumes += 1;
            self.stats.resumed_prefill_tokens += item.seq.tokens.len() as u64;
        }
        let best_of = matches!(item.mode, SamplingMode::BestOf { .. });
        let seq = item.seq;
        debug_assert!(
            cache.len() < seq.tokens.len(),
            "the fork leaves at least the last position to prefill"
        );
        self.ledger.reserve(demand);
        let member_reserved = if n > 1 {
            // The prompt's whole pages are charged once, to the group,
            // released when the last sibling retires; each member's own
            // reservation is only its private tail.
            let member_tail = self.member_tail_pages(seq.prompt_len, seq.max_new);
            self.groups.insert(
                seq.id.0,
                GroupState {
                    shared_pages: demand - n * member_tail,
                    remaining: n,
                    best_of,
                    collected: Vec::new(),
                },
            );
            member_tail
        } else {
            demand
        };
        // Nothing to generate: finished before the first sample.
        let done = (seq.max_new == 0).then_some(FinishReason::Length);
        // The primary takes the first free slot, its siblings the next:
        // the primary prefills from whatever its fork covers, a sibling
        // holds an empty cache and waits on the primary's slot.
        let primary_slot = self.free_slot();
        let radix_node = hit.map(|m| m.node);
        let member = |scratch, seq: Sequence, cache, sample_index| Stream {
            prefill_target: seq.tokens.len(),
            seq,
            cache,
            scratch,
            reserved_pages: member_reserved,
            radix_node,
            sample_index,
            cum_logprob: 0.0,
            awaits_primary: (sample_index > 0).then_some(primary_slot),
            done,
        };
        let mut siblings = Vec::with_capacity(n - 1);
        for i in 1..n {
            if let Some(node) = radix_node {
                self.radix.acquire(node);
            }
            let twin = Sequence {
                tokens: seq.tokens.clone(),
                rng: Rng::new(seq.sampling.seed.wrapping_add(i as u64)),
                ..seq
            };
            let empty = self.kv_pool.new_cache(self.model.config().n_layers);
            let scratch = self.spare_scratches.pop().unwrap_or_default();
            siblings.push(member(scratch, twin, empty, i));
        }
        let scratch = self.spare_scratches.pop().unwrap_or_default();
        let primary = member(scratch, seq, cache, 0);
        for stream in std::iter::once(primary).chain(siblings) {
            match done {
                Some(reason) => self.finish(stream, reason),
                None => self.place(stream),
            }
        }
        true
    }

    /// An empty cache for a non-forking admission: a retired one when
    /// available (its pages are already back on the free list).
    fn fresh_cache(&mut self) -> KvCache {
        let cache = self
            .spare_caches
            .pop()
            .unwrap_or_else(|| self.kv_pool.new_cache(self.model.config().n_layers));
        debug_assert!(cache.is_empty(), "spare caches are reset at retirement");
        cache
    }

    /// The slot the next [`Scheduler::place`] fills: the first free one
    /// (one past the end when the slot table must grow).
    fn free_slot(&self) -> usize {
        self.slots
            .iter()
            .position(Option::is_none)
            .unwrap_or(self.slots.len())
    }

    /// Puts `stream` in the first free slot (growing up to `max_batch`).
    fn place(&mut self, stream: Stream) {
        let slot = self.free_slot();
        if slot == self.slots.len() {
            debug_assert!(self.slots.len() < self.cfg.max_batch);
            self.slots.push(None);
        }
        self.slots[slot] = Some(stream);
    }
}
