//! The benchmark's workloads and their seeded generators.
//!
//! Everything here is the harness's own: the library only ever sees the
//! generated [`GenRequest`]s (converted in `api.rs`) and arrival steps.
//!
//! A pass's traffic has a *shape* — how long each prompt and answer is,
//! in which order, which shared prefix, when it arrives — and a
//! *content*: the tokens themselves and each stream's sampling seed. The
//! shape of pass k is drawn from [`shape_seed`]`(k)`, the same on every
//! run; `--seed` draws the content ([`pass_seed`]). A run therefore
//! serves a fixed series of schedules, one per pass, on inputs no other
//! seed has used: the step-domain counts of pass k repeat across seeds,
//! and what moves between two seeds is the machine, not which requests
//! happened to be co-scheduled (with seeded shapes the median gap of
//! `serve_mixed` moved 23% and `kv_peak_mib` 10% between seeds).
//! Lengths are drawn *stratified* — one jittered draw per equal slice of
//! the range, then shuffled — so every pass carries the same length
//! histogram and almost the same token totals.

/// Vocabulary of the serving model `bench-m` (see `api::build_model`).
pub const VOCAB: usize = 512;

/// SplitMix64: the harness's own generator, independent of the library's.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// `len` random in-vocabulary tokens.
    pub fn tokens(&mut self, len: usize) -> Vec<usize> {
        (0..len).map(|_| self.below(VOCAB)).collect()
    }
}

/// Derives the content seed of pass `pass` of a run from the run's `--seed`.
pub fn pass_seed(seed: u64, pass: usize) -> u64 {
    Rng::new(seed ^ (pass as u64).wrapping_mul(0xA076_1D64_78BD_642F)).next_u64()
}

/// The seed of pass `pass`'s traffic shape: the same on every run.
pub fn shape_seed(pass: usize) -> u64 {
    pass_seed(0x5EED_0F5A_9E50, pass)
}

/// `n` draws from `lo..=hi`, one per equal slice of the range (jittered
/// inside its slice), in random order.
pub fn stratified(rng: &mut Rng, n: usize, lo: usize, hi: usize) -> Vec<usize> {
    let width = (hi - lo + 1) as f64;
    let mut out: Vec<usize> = (0..n)
        .map(|i| {
            let x = (i as f64 + rng.unit()) / n as f64;
            (lo + (x * width) as usize).min(hi)
        })
        .collect();
    rng.shuffle(&mut out);
    out
}

/// Admission class of a request (mirrors the library's three classes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    High,
    Normal,
    Low,
}

/// One generated request, in the harness's own vocabulary.
#[derive(Clone, Debug, PartialEq)]
pub struct GenRequest {
    pub prompt: Vec<usize>,
    pub max_new: usize,
    pub temperature: f32,
    /// Sampling seed of the stream.
    pub seed: u64,
    pub class: Class,
}

/// KV page policy of a workload's pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pages {
    Fp16,
    Anda8,
}

/// How requests reach the engine.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Arrival {
    /// `clients` callers, each sending its next request when the
    /// previous one completed.
    Closed { clients: usize },
    /// Poisson arrivals on the engine's step clock at `per_step`
    /// requests per step, whatever the engine's state.
    Open { per_step: f64 },
}

/// Request lengths of a workload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Mix {
    /// Unshared prompts: prompt and output lengths uniform in the ranges.
    Plain {
        prompt: (usize, usize),
        max_new: (usize, usize),
    },
    /// One of `prefixes` shared `prefix_len`-token prefixes, then a
    /// unique suffix.
    SharedPrefix {
        prefixes: usize,
        prefix_len: usize,
        suffix: (usize, usize),
        max_new: (usize, usize),
    },
    /// `chat_share` short chat turns, the rest long prompts with short
    /// answers; classes cycle High/Normal/Low.
    ChatAndLong {
        chat_share: f64,
        chat: ((usize, usize), (usize, usize)),
        long: ((usize, usize), (usize, usize)),
    },
}

/// One serving workload: traffic, engine configuration, and why it is here.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub arrival: Arrival,
    pub mix: Mix,
    pub temperature: f32,
    pub requests_per_pass: usize,
    pub pages: Pages,
    pub max_batch: usize,
    /// Per-step prompt-token budget (`None`: monolithic prefill).
    pub chunk: Option<usize>,
    pub auto_prefix: bool,
    /// Pool bound in pages per model layer (`None`: unbounded).
    pub pool_pages_per_layer: Option<usize>,
    /// Latency objective behind `slo_attainment`: first token within
    /// `.0` ms of being due and mean gap between tokens within `.1` ms.
    pub slo_ms: (f64, f64),
    /// Cached positions per stream at which the layer ladder probes
    /// this workload's kernels (its median decode context).
    pub ladder_context: usize,
}

/// KV positions per page, every workload.
pub const PAGE_POSITIONS: usize = 16;

/// The serving workloads, in report order.
pub const SERVING: [Workload; 4] = [
    Workload {
        name: "decode_steady",
        why: "short prompts, long outputs on FP16 pages: decode GEMVs, LM head, sampling and per-step scheduling do the work; the KV codec is bypassed",
        arrival: Arrival::Closed { clients: 8 },
        mix: Mix::Plain {
            prompt: (8, 24),
            max_new: (128, 256),
        },
        temperature: 0.8,
        requests_per_pass: 16,
        pages: Pages::Fp16,
        max_batch: 8,
        chunk: None,
        auto_prefix: false,
        pool_pages_per_layer: None,
        slo_ms: (500.0, 15.0),
        ladder_context: 112,
    },
    Workload {
        name: "decode_longctx",
        why: "4 streams at 320-768 cached positions on Anda M=8 pages: page decode and attention dominate each step, GEMMs are the minor share",
        arrival: Arrival::Closed { clients: 4 },
        mix: Mix::Plain {
            prompt: (320, 384),
            max_new: (320, 384),
        },
        temperature: 0.0,
        requests_per_pass: 4,
        pages: Pages::Anda8,
        max_batch: 4,
        chunk: Some(64),
        auto_prefix: false,
        pool_pages_per_layer: None,
        slo_ms: (2000.0, 30.0),
        ladder_context: 528,
    },
    Workload {
        name: "prefill_shared",
        why: "4 shared 256-token prefixes plus unique suffixes, few output tokens: chunk GEMMs, Anda row encode and the radix prefix cache do the work",
        arrival: Arrival::Closed { clients: 8 },
        mix: Mix::SharedPrefix {
            prefixes: 4,
            prefix_len: 256,
            suffix: (32, 160),
            max_new: (4, 12),
        },
        temperature: 0.0,
        requests_per_pass: 32,
        pages: Pages::Anda8,
        max_batch: 8,
        chunk: Some(64),
        auto_prefix: true,
        // Unbounded on purpose: see README "Known defect".
        pool_pages_per_layer: None,
        slo_ms: (3000.0, 150.0),
        ladder_context: 352,
    },
    Workload {
        name: "serve_mixed",
        why: "open-loop Poisson arrivals of chat and long-prompt requests in three classes on a bounded Anda pool: the only workload with a queue, admission and preemption",
        arrival: Arrival::Open { per_step: 0.12 },
        mix: Mix::ChatAndLong {
            chat_share: 0.7,
            chat: ((16, 63), (16, 63)),
            long: ((192, 383), (8, 23)),
        },
        temperature: 0.8,
        requests_per_pass: 32,
        pages: Pages::Anda8,
        max_batch: 8,
        chunk: Some(64),
        auto_prefix: false,
        pool_pages_per_layer: Some(80),
        slo_ms: (500.0, 25.0),
        ladder_context: 64,
    },
];

/// Name of the search workload (driven by `search.rs`, not the engine).
pub const PRECISION_SEARCH: &str = "precision_search";

/// Looks a serving workload up by name.
pub fn serving(name: &str) -> Option<&'static Workload> {
    SERVING.iter().find(|w| w.name == name)
}

impl Workload {
    /// The same workload at `requests` requests per pass.
    pub fn scaled(mut self, requests: usize) -> Self {
        self.requests_per_pass = requests.max(1);
        self
    }

    /// The request list of one pass, a pure function of its two seeds:
    /// `shape` draws lengths, their order and the prefix each request
    /// opens with; `content` draws the tokens and the sampling seeds.
    pub fn requests(&self, shape: u64, content: u64) -> Vec<GenRequest> {
        let mut shape = Rng::new(shape);
        let mut rng = Rng::new(content);
        let n = self.requests_per_pass;
        let temperature = self.temperature;
        let build = |rng: &mut Rng, prompt: Vec<usize>, max_new: usize, class: Class| GenRequest {
            prompt,
            max_new,
            temperature,
            seed: rng.next_u64(),
            class,
        };
        match self.mix {
            Mix::Plain { prompt, max_new } => {
                let prompts = stratified(&mut shape, n, prompt.0, prompt.1);
                let news = stratified(&mut shape, n, max_new.0, max_new.1);
                prompts
                    .into_iter()
                    .zip(news)
                    .map(|(p, m)| {
                        let tokens = rng.tokens(p);
                        build(&mut rng, tokens, m, Class::Normal)
                    })
                    .collect()
            }
            Mix::SharedPrefix {
                prefixes,
                prefix_len,
                suffix,
                max_new,
            } => {
                let shared: Vec<Vec<usize>> =
                    (0..prefixes).map(|_| rng.tokens(prefix_len)).collect();
                // Every prefix serves the same number of requests (±1).
                let mut which: Vec<usize> = (0..n).map(|i| i % prefixes).collect();
                shape.shuffle(&mut which);
                let suffixes = stratified(&mut shape, n, suffix.0, suffix.1);
                let news = stratified(&mut shape, n, max_new.0, max_new.1);
                (0..n)
                    .map(|i| {
                        let mut tokens = shared[which[i]].clone();
                        tokens.extend(rng.tokens(suffixes[i]));
                        build(&mut rng, tokens, news[i], Class::Normal)
                    })
                    .collect()
            }
            Mix::ChatAndLong {
                chat_share,
                chat,
                long,
            } => {
                let n_chat = ((n as f64) * chat_share).round() as usize;
                let n_long = n - n_chat;
                let mut lengths: Vec<(usize, usize)> =
                    stratified(&mut shape, n_chat, chat.0 .0, chat.0 .1)
                        .into_iter()
                        .zip(stratified(&mut shape, n_chat, chat.1 .0, chat.1 .1))
                        .collect();
                lengths.extend(
                    stratified(&mut shape, n_long, long.0 .0, long.0 .1)
                        .into_iter()
                        .zip(stratified(&mut shape, n_long, long.1 .0, long.1 .1)),
                );
                shape.shuffle(&mut lengths);
                lengths
                    .into_iter()
                    .enumerate()
                    .map(|(i, (p, m))| {
                        let class = [Class::High, Class::Normal, Class::Low][i % 3];
                        let tokens = rng.tokens(p);
                        build(&mut rng, tokens, m, class)
                    })
                    .collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_requests_other_seed_other_requests() {
        let lengths = |reqs: &[GenRequest]| -> Vec<(usize, usize)> {
            reqs.iter().map(|r| (r.prompt.len(), r.max_new)).collect()
        };
        for w in SERVING {
            let a = w.requests(shape_seed(0), 7);
            assert_eq!(a, w.requests(shape_seed(0), 7), "{}", w.name);
            assert_eq!(a.len(), w.requests_per_pass);
            assert!(a
                .iter()
                .all(|r| !r.prompt.is_empty() && r.prompt.iter().all(|&t| t < VOCAB)));
            // Another seed: other tokens and sampling seeds, the same shape.
            let b = w.requests(shape_seed(0), 8);
            assert_ne!(a, b, "{}", w.name);
            assert!(a.iter().zip(&b).all(|(x, y)| x.seed != y.seed));
            assert_eq!(lengths(&a), lengths(&b), "{}", w.name);
            // Another pass: another shape.
            let c = w.requests(shape_seed(1), 7);
            assert_ne!(lengths(&a), lengths(&c), "{}", w.name);
        }
        assert_ne!(pass_seed(1, 0), pass_seed(1, 1));
        assert_ne!(pass_seed(1, 0), pass_seed(2, 0));
        assert_eq!(pass_seed(5, 3), pass_seed(5, 3));
        assert_ne!(shape_seed(0), shape_seed(1));
    }

    #[test]
    fn stratified_draws_keep_the_histogram_across_seeds() {
        let totals: Vec<usize> = (0..20)
            .map(|seed| stratified(&mut Rng::new(seed), 48, 128, 256).iter().sum())
            .collect();
        let (lo, hi) = (
            *totals.iter().min().unwrap() as f64,
            *totals.iter().max().unwrap() as f64,
        );
        assert!((hi - lo) / lo < 0.02, "totals {lo}..{hi}");
        let draws = stratified(&mut Rng::new(3), 100, 10, 19);
        assert!(draws.iter().all(|&x| (10..=19).contains(&x)));
        for v in 10..=19 {
            assert_eq!(draws.iter().filter(|&&x| x == v).count(), 10);
        }
    }

    #[test]
    fn shared_prefix_requests_share_exactly_the_prefix() {
        let w = serving("prefill_shared").unwrap();
        let reqs = w.requests(shape_seed(0), 11);
        let mut heads: Vec<&[usize]> = reqs.iter().map(|r| &r.prompt[..256]).collect();
        heads.sort();
        heads.dedup();
        assert_eq!(heads.len(), 4);
        assert!(reqs.iter().all(|r| (288..=416).contains(&r.prompt.len())));
    }

    #[test]
    fn mixed_workload_cycles_classes_and_keeps_its_shares() {
        let w = serving("serve_mixed").unwrap();
        let reqs = w.requests(shape_seed(0), 5);
        let long = reqs.iter().filter(|r| r.prompt.len() >= 192).count();
        assert_eq!(long, (reqs.len() as f64 * 0.3).round() as usize);
        for class in [Class::High, Class::Normal, Class::Low] {
            let n = reqs.iter().filter(|r| r.class == class).count();
            assert!(
                n == reqs.len() / 3 || n == reqs.len() / 3 + 1,
                "{class:?}: {n}"
            );
        }
    }
}
