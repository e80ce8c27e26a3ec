//! API tests for the externally-owned paged KV cache and the split
//! decode entry points ([`Model::prefill`] / [`Model::decode_step`] /
//! [`Model::decode_hidden`] + [`Model::lm_head_batch`]).
//!
//! The serving layer's determinism guarantee reduces to these facts
//! checked here at the `f32::to_bits` level:
//!
//! 1. `decode_hidden` (serial kernels) leaves the same hidden state and
//!    KV rows as `decode_step` (auto-dispatching kernels), at any thread
//!    count, on both sides of the head-sharding work threshold, and
//!    under every KV storage policy (in-place float pages and
//!    decoded-on-read Anda pages alike);
//! 2. the batched LM head reproduces the solo LM head row by row, at any
//!    pool size;
//! 3. a `reset` cache behaves exactly like a fresh one, for every policy;
//! 4. page size is pure layout: decoding on pools of page size 1 or 4
//!    (or any other) never moves a bit;
//! 5. [`Model::forward`] under FP16 codecs *is* that decode: row `i` is
//!    `decode_step`'s logits at position `i`, the last row `prefill`'s,
//!    and `eval::perplexity` the teacher-forced NLL of the KV loop.

use std::sync::OnceLock;

use anda_llm::kv::{KvPoolConfig, KvStorage, PagePool};
use anda_llm::model::BatchOutput;
use anda_llm::zoo::{opt_125m_sim, sim_model};
use anda_llm::{perplexity, CodecAssignment, DecodeScratch, KvCache, Model};
use anda_quant::WeightQuantConfig;
use anda_tensor::ops::log_softmax;
use anda_tensor::Rng;
use rayon_lite::ThreadPool;

fn model() -> &'static Model {
    static MODEL: OnceLock<Model> = OnceLock::new();
    MODEL.get_or_init(|| opt_125m_sim().build())
}

fn llama() -> &'static Model {
    static MODEL: OnceLock<Model> = OnceLock::new();
    MODEL.get_or_init(|| sim_model("LLaMA-7B").unwrap().build())
}

fn bits<V: AsRef<[f32]>>(v: V) -> Vec<u32> {
    v.as_ref().iter().map(|x| x.to_bits()).collect()
}

#[test]
fn cache_growth_and_per_layer_indexing() {
    let model = model();
    let d = model.config().d_model;
    let n_layers = model.config().n_layers;

    let mut cache = KvCache::new(n_layers);
    assert_eq!(cache.n_layers(), n_layers);
    assert_eq!(cache.len(), 0);
    assert!(cache.is_empty());

    let mut scratch = DecodeScratch::new();
    let tokens = [3usize, 141, 59, 26, 5];
    model.prefill(&tokens, &mut cache, &mut scratch);
    assert_eq!(cache.len(), tokens.len());
    assert!(!cache.is_empty());
    for l in 0..n_layers {
        let layer = cache.layer(l);
        assert_eq!(layer.len(), tokens.len());
        for pos in 0..tokens.len() {
            assert_eq!(layer.key(pos).len(), d);
            assert_eq!(layer.value(pos).len(), d);
        }
    }

    // Incremental growth: one decode step appends exactly one position.
    model.decode_step(7, cache.len(), &mut cache, &mut scratch);
    assert_eq!(cache.len(), tokens.len() + 1);
    assert_eq!(scratch.logits().len(), model.config().vocab);
    assert_eq!(scratch.hidden_state().len(), d);
}

#[test]
fn reset_cache_matches_fresh_cache_bit_for_bit() {
    let model = model();
    let n_layers = model.config().n_layers;

    // Fill the cache with one sequence, reset, decode another; a reused
    // scratch rides along to prove it carries no stale state either.
    let mut cache = KvCache::new(n_layers);
    let mut scratch = DecodeScratch::new();
    model.prefill(&[9, 8, 7, 6, 5, 4], &mut cache, &mut scratch);
    cache.reset();
    assert_eq!(cache.len(), 0);
    assert!(cache.is_empty());
    let second = [17usize, 400, 3, 77];
    model.prefill(&second, &mut cache, &mut scratch);

    let mut fresh_cache = KvCache::new(n_layers);
    let mut fresh_scratch = DecodeScratch::new();
    model.prefill(&second, &mut fresh_cache, &mut fresh_scratch);

    assert_eq!(bits(scratch.logits()), bits(fresh_scratch.logits()));
    assert_eq!(
        bits(scratch.hidden_state()),
        bits(fresh_scratch.hidden_state())
    );
    assert_eq!(cache.len(), fresh_cache.len());
    for l in 0..n_layers {
        for pos in 0..cache.len() {
            assert_eq!(
                bits(cache.layer(l).key(pos)),
                bits(fresh_cache.layer(l).key(pos))
            );
            assert_eq!(
                bits(cache.layer(l).value(pos)),
                bits(fresh_cache.layer(l).value(pos))
            );
        }
    }
}

#[test]
fn prefill_equals_manual_decode_step_loop() {
    let model = model();
    let tokens = [1usize, 2, 3, 4, 5, 6, 7];

    let mut c1 = KvCache::new(model.config().n_layers);
    let mut s1 = DecodeScratch::new();
    model.prefill(&tokens, &mut c1, &mut s1);

    let mut c2 = KvCache::new(model.config().n_layers);
    let mut s2 = DecodeScratch::new();
    for (pos, &tok) in tokens.iter().enumerate() {
        model.decode_step(tok, pos, &mut c2, &mut s2);
    }
    assert_eq!(bits(s1.logits()), bits(s2.logits()));
}

/// `decode_hidden` (serial kernels) + the batched LM head must reproduce
/// `decode_step`'s logits bit-for-bit for every stream in the batch, at
/// every pool size — the core serving-layer equivalence.
#[test]
fn batched_lm_head_is_bit_identical_to_solo_decode() {
    for model in [model(), llama()] {
        let prompts: [&[usize]; 3] = [&[1, 2, 3], &[400, 5], &[9, 9, 9, 12, 40]];
        let next = [11usize, 250, 77];

        // Solo reference: decode_step per stream.
        let mut solo_logits = Vec::new();
        let mut solo_caches = Vec::new();
        for (p, &tok) in prompts.iter().zip(&next) {
            let mut cache = KvCache::new(model.config().n_layers);
            let mut s = DecodeScratch::new();
            model.prefill(p, &mut cache, &mut s);
            model.decode_step(tok, cache.len(), &mut cache, &mut s);
            solo_logits.push(bits(s.logits()));
            solo_caches.push(cache);
        }

        // Batched path: decode_hidden per stream, one LM-head dispatch.
        for threads in [1, 4] {
            let pool = ThreadPool::new(threads);
            let mut batch = BatchOutput::new();
            let mut caches = Vec::new();
            let mut scratches = Vec::new();
            for (p, &tok) in prompts.iter().zip(&next) {
                let mut cache = KvCache::new(model.config().n_layers);
                let mut s = DecodeScratch::new();
                model.prefill(p, &mut cache, &mut s);
                model.decode_hidden(tok, cache.len(), &mut cache, &mut s);
                batch.push_hidden(s.hidden_state());
                caches.push(cache);
                scratches.push(s);
            }
            assert_eq!(batch.len(), prompts.len());
            model.lm_head_batch_pool(&mut batch, &pool);
            for (i, solo) in solo_logits.iter().enumerate() {
                assert_eq!(
                    &bits(batch.logits_row(i)),
                    solo,
                    "stream {i} logits diverged at {threads} threads"
                );
            }
            // The caches the two paths grew must match too.
            for (a, b) in caches.iter().zip(&solo_caches) {
                for l in 0..model.config().n_layers {
                    for pos in 0..a.len() {
                        assert_eq!(bits(a.layer(l).key(pos)), bits(b.layer(l).key(pos)));
                        assert_eq!(bits(a.layer(l).value(pos)), bits(b.layer(l).value(pos)));
                    }
                }
            }
        }
    }
}

/// Serial vs auto-dispatch decode across a context long enough to cross
/// the attention head-sharding threshold (`2·heads·t·d_head ≥ 16K` means
/// `t ≥ 64` on the sim models). Under the CI `ANDA_THREADS=4` leg the
/// auto path shards heads on the pool; results must not move by a bit.
#[test]
fn head_sharded_attention_is_bit_identical_across_long_context() {
    for model in [model(), llama()] {
        let vocab = model.config().vocab;
        let tokens: Vec<usize> = (0..96).map(|i| (i * 31 + 7) % vocab).collect();

        let mut auto_cache = KvCache::new(model.config().n_layers);
        let mut auto_s = DecodeScratch::new();
        let mut serial_cache = KvCache::new(model.config().n_layers);
        let mut serial_s = DecodeScratch::new();
        for (pos, &tok) in tokens.iter().enumerate() {
            model.decode_step(tok, pos, &mut auto_cache, &mut auto_s);
            model.decode_hidden(tok, pos, &mut serial_cache, &mut serial_s);
            assert_eq!(
                bits(auto_s.hidden_state()),
                bits(serial_s.hidden_state()),
                "hidden state diverged at position {pos}"
            );
        }
        for l in 0..model.config().n_layers {
            for pos in 0..tokens.len() {
                assert_eq!(
                    bits(auto_cache.layer(l).key(pos)),
                    bits(serial_cache.layer(l).key(pos))
                );
                assert_eq!(
                    bits(auto_cache.layer(l).value(pos)),
                    bits(serial_cache.layer(l).value(pos))
                );
            }
        }
    }
}

#[test]
fn batch_output_reuse_across_iterations() {
    let model = model();
    let mut batch = BatchOutput::new();
    assert!(batch.is_empty());

    let mut cache = KvCache::new(model.config().n_layers);
    let mut s = DecodeScratch::new();
    model.prefill(&[5, 6, 7], &mut cache, &mut s);

    model.decode_hidden(8, cache.len(), &mut cache, &mut s);
    batch.push_hidden(s.hidden_state());
    model.lm_head_batch(&mut batch);
    let first = bits(batch.logits_row(0));

    // Clearing empties the batch but keeps it usable; a second identical
    // iteration reproduces the same logits.
    batch.clear();
    assert_eq!(batch.len(), 0);
    let mut cache2 = KvCache::new(model.config().n_layers);
    let mut s2 = DecodeScratch::new();
    model.prefill(&[5, 6, 7], &mut cache2, &mut s2);
    model.decode_hidden(8, cache2.len(), &mut cache2, &mut s2);
    batch.push_hidden(s2.hidden_state());
    model.lm_head_batch(&mut batch);
    assert_eq!(bits(batch.logits_row(0)), first);
}

/// A cache on a pool with the given policy and page size.
fn cache_for(model: &Model, storage: KvStorage, page_positions: usize) -> KvCache {
    PagePool::new(KvPoolConfig {
        storage,
        page_positions,
        max_pages: None,
    })
    .new_cache(model.config().n_layers)
}

/// Every storage policy the paged backend supports, exercised broadly.
const POLICIES: [KvStorage; 4] = [
    KvStorage::Fp32,
    KvStorage::Fp16,
    KvStorage::Anda { mantissa_bits: 6 },
    KvStorage::Anda { mantissa_bits: 12 },
];

/// Page size is pure storage layout: decoding identical tokens on pools
/// of page size 1 and 4 (and the default 16) produces bit-identical
/// logits, hidden states, and cached rows, for every storage policy.
#[test]
fn page_size_never_changes_a_bit() {
    let model = model();
    let tokens = [3usize, 141, 59, 26, 5, 77, 8, 12, 400];
    for storage in POLICIES {
        let mut reference: Option<(Vec<u32>, Vec<Vec<u32>>)> = None;
        for pp in [1usize, 4, 16] {
            let mut cache = cache_for(model, storage, pp);
            let mut s = DecodeScratch::new();
            model.prefill(&tokens, &mut cache, &mut s);
            let rows: Vec<Vec<u32>> = (0..model.config().n_layers)
                .flat_map(|l| (0..cache.len()).map(move |p| (l, p)).collect::<Vec<_>>())
                .map(|(l, p)| bits(cache.layer(l).key(p)))
                .collect();
            let got = (bits(s.logits()), rows);
            match &reference {
                None => reference = Some(got),
                Some(r) => {
                    assert_eq!(&got.0, &r.0, "{storage:?} pp={pp} logits moved");
                    assert_eq!(&got.1, &r.1, "{storage:?} pp={pp} rows moved");
                }
            }
        }
    }
}

/// The FP16 policy at page size 1 reproduces the original `KvStore` row
/// semantics: what comes back is exactly `saturate_to_f16(row)` of the
/// raw row the exact-reference (Fp32) cache retains — checked on the
/// first decoded position, where both caches see identical inputs.
#[test]
fn fp16_policy_rows_are_f16_rounded_fp32_rows() {
    let model = model();
    let mut raw = cache_for(model, KvStorage::Fp32, 1);
    let mut rounded = cache_for(model, KvStorage::Fp16, 1);
    let mut s = DecodeScratch::new();
    model.decode_step(42, 0, &mut raw, &mut s);
    model.decode_step(42, 0, &mut rounded, &mut s);
    for l in 0..model.config().n_layers {
        for (pair, which) in [
            ((raw.layer(l).key(0), rounded.layer(l).key(0)), "key"),
            ((raw.layer(l).value(0), rounded.layer(l).value(0)), "value"),
        ] {
            let (raw_row, rounded_row) = pair;
            let expect: Vec<u32> = raw_row
                .iter()
                .map(|&x| anda_fp::saturate_to_f16(x).to_f32().to_bits())
                .collect();
            assert_eq!(bits(rounded_row), expect, "layer {l} {which}");
        }
    }
}

/// `reset` == fresh, for every storage policy (the original suite pins
/// the default policy; this covers the compressed backends), with the
/// pool's pages recycled rather than recreated.
#[test]
fn reset_matches_fresh_under_every_policy() {
    let model = model();
    for storage in POLICIES {
        let pool = PagePool::new(KvPoolConfig {
            storage,
            page_positions: 4,
            max_pages: None,
        });
        let mut cache = pool.new_cache(model.config().n_layers);
        let mut s = DecodeScratch::new();
        model.prefill(&[9, 8, 7, 6, 5, 4], &mut cache, &mut s);
        let created = pool.pages_created();
        cache.reset();
        assert_eq!(pool.pages_in_use(), 0, "{storage:?} leaked pages");
        let second = [17usize, 400, 3, 77];
        model.prefill(&second, &mut cache, &mut s);
        assert_eq!(
            pool.pages_created(),
            created,
            "{storage:?} grew instead of recycling"
        );

        let mut fresh_cache = cache_for(model, storage, 4);
        let mut fresh_s = DecodeScratch::new();
        model.prefill(&second, &mut fresh_cache, &mut fresh_s);
        assert_eq!(bits(s.logits()), bits(fresh_s.logits()), "{storage:?}");
        for l in 0..model.config().n_layers {
            for pos in 0..cache.len() {
                assert_eq!(
                    bits(cache.layer(l).key(pos)),
                    bits(fresh_cache.layer(l).key(pos)),
                    "{storage:?} layer {l} pos {pos}"
                );
            }
        }
    }
}

/// The compressed (decode-on-read) attention path is bit-identical
/// between the serial kernels and the auto-dispatching head-sharded
/// kernels, across the sharding threshold and on both model families —
/// the same contract the float policies get, now over Anda pages.
#[test]
fn anda_policy_decode_is_thread_and_dispatch_invariant() {
    for model in [model(), llama()] {
        let vocab = model.config().vocab;
        let storage = KvStorage::Anda { mantissa_bits: 8 };
        let tokens: Vec<usize> = (0..96).map(|i| (i * 31 + 7) % vocab).collect();

        let mut auto_cache = cache_for(model, storage, 8);
        let mut auto_s = DecodeScratch::new();
        let mut serial_cache = cache_for(model, storage, 8);
        let mut serial_s = DecodeScratch::new();
        for (pos, &tok) in tokens.iter().enumerate() {
            model.decode_step(tok, pos, &mut auto_cache, &mut auto_s);
            model.decode_hidden(tok, pos, &mut serial_cache, &mut serial_s);
            assert_eq!(
                bits(auto_s.hidden_state()),
                bits(serial_s.hidden_state()),
                "hidden state diverged at position {pos}"
            );
        }
        for l in 0..model.config().n_layers {
            for pos in 0..tokens.len() {
                assert_eq!(
                    bits(auto_cache.layer(l).key(pos)),
                    bits(serial_cache.layer(l).key(pos))
                );
            }
        }
    }
}

/// `generate` delegates to `generate_with_cache` on the default pool:
/// handing it an equivalent external cache reproduces it token for
/// token, and a compressed cache generates a (deterministic) sequence of
/// its own.
#[test]
fn generate_with_cache_matches_generate_on_default_policy() {
    let model = model();
    let prompt = [5usize, 6, 7];
    let mut r1 = Rng::new(9);
    let mut r2 = Rng::new(9);
    let reference = model.generate(&prompt, 8, 0.9, &mut r1);
    let mut cache = KvCache::new(model.config().n_layers);
    let external = model.generate_with_cache(&prompt, 8, 0.9, &mut r2, &mut cache);
    assert_eq!(reference, external);
    assert_eq!(cache.len(), prompt.len() + 8);

    // Compressed generation is deterministic per policy.
    let gen_anda = |seed| {
        let mut rng = Rng::new(seed);
        let mut cache = cache_for(model, KvStorage::Anda { mantissa_bits: 7 }, 8);
        model.generate_with_cache(&prompt, 8, 0.9, &mut rng, &mut cache)
    };
    assert_eq!(gen_anda(9), gen_anda(9));
}

#[test]
#[should_panic(expected = "decode position must match")]
fn decode_at_wrong_position_panics() {
    let model = model();
    let mut cache = KvCache::new(model.config().n_layers);
    let mut s = DecodeScratch::new();
    model.decode_step(1, 3, &mut cache, &mut s);
}

#[test]
#[should_panic(expected = "hidden rows must share one width")]
fn mismatched_hidden_width_panics() {
    let mut batch = BatchOutput::new();
    batch.push_hidden(&[1.0, 2.0]);
    batch.push_hidden(&[1.0, 2.0, 3.0]);
}

/// The prefill-into-forked-cache entry point: prefilling a suffix into
/// a `fork_prefix` cache continues at the fork's positions and leaves
/// logits, hidden state and cached rows bit-identical to prefilling
/// `prefix ++ suffix` contiguously into a fresh same-policy cache —
/// for every storage policy, page sizes that land the fork mid-page
/// and on a boundary, and both model families.
#[test]
fn prefill_into_forked_cache_matches_contiguous_prefill() {
    let prefix = [3usize, 141, 59, 26, 5, 7, 19, 44, 2];
    let suffix = [17usize, 401, 8];
    for m in [model(), llama()] {
        for storage in POLICIES {
            for page_positions in [1usize, 4, 8] {
                // Donor: the prefix prefilled once.
                let mut donor = cache_for(m, storage, page_positions);
                let mut donor_scratch = DecodeScratch::new();
                m.prefill(&prefix, &mut donor, &mut donor_scratch);

                // Fork + suffix prefill.
                let mut fork = donor.fork_prefix(prefix.len());
                assert_eq!(fork.len(), prefix.len());
                let mut fork_scratch = DecodeScratch::new();
                m.prefill(&suffix, &mut fork, &mut fork_scratch);

                // Contiguous reference.
                let mut contiguous = cache_for(m, storage, page_positions);
                let mut ref_scratch = DecodeScratch::new();
                let full: Vec<usize> = prefix.iter().chain(&suffix).copied().collect();
                m.prefill(&full, &mut contiguous, &mut ref_scratch);

                assert_eq!(
                    bits(fork_scratch.logits()),
                    bits(ref_scratch.logits()),
                    "{storage:?} pp={page_positions}: forked prefill logits diverged"
                );
                assert_eq!(
                    bits(fork_scratch.hidden_state()),
                    bits(ref_scratch.hidden_state())
                );
                for l in 0..m.config().n_layers {
                    for pos in 0..full.len() {
                        assert_eq!(
                            bits(fork.layer(l).key(pos)),
                            bits(contiguous.layer(l).key(pos)),
                            "{storage:?} pp={page_positions}: K row {pos} layer {l}"
                        );
                        assert_eq!(
                            bits(fork.layer(l).value(pos)),
                            bits(contiguous.layer(l).value(pos))
                        );
                    }
                }
                // And the donor still reads its original prefix rows.
                for l in 0..m.config().n_layers {
                    for pos in 0..prefix.len() {
                        assert_eq!(
                            bits(donor.layer(l).key(pos)),
                            bits(contiguous.layer(l).key(pos)),
                            "donor rows must survive the fork's writes"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn forward_rows_equal_the_decode_step_loop_and_prefill() {
    let tokens: Vec<usize> = (0..40).map(|i| (i * 61 + 5) % 512).collect();
    for fp16_weights in [model(), llama()] {
        let w4 = fp16_weights.quantize_weights(WeightQuantConfig::w4_g128());
        for m in [fp16_weights, &w4] {
            let name = format!("{} {:?}", m.config().name, m.mode());
            let forward = m.forward(&tokens, &CodecAssignment::fp16());
            assert_eq!(forward.rows(), tokens.len());

            let mut cache = KvCache::new(m.config().n_layers);
            let mut scratch = DecodeScratch::new();
            for (pos, &token) in tokens.iter().enumerate() {
                m.decode_step(token, pos, &mut cache, &mut scratch);
                assert_eq!(
                    bits(scratch.logits()),
                    bits(forward.row(pos)),
                    "{name}: forward row {pos} vs decode_step"
                );
            }

            cache.reset();
            m.prefill(&tokens, &mut cache, &mut scratch);
            assert_eq!(
                bits(scratch.logits()),
                bits(forward.row(tokens.len() - 1)),
                "{name}: forward's last row vs prefill"
            );
        }
    }
}

#[test]
fn perplexity_equals_the_teacher_forced_kv_loop() {
    const WINDOW: usize = 24;
    // Two full windows and a short one.
    let tokens: Vec<usize> = (0..2 * WINDOW + 9).map(|i| (i * 37 + 13) % 512).collect();
    for m in [model(), llama()] {
        let mut cache = KvCache::new(m.config().n_layers);
        let mut scratch = DecodeScratch::new();
        let (mut nll, mut count) = (0.0f64, 0usize);
        for window in tokens.chunks(WINDOW) {
            cache.reset();
            m.prefill(&window[..1], &mut cache, &mut scratch);
            for (pos, &next) in window.iter().enumerate().skip(1) {
                nll -= f64::from(log_softmax(scratch.logits())[next]);
                count += 1;
                m.decode_step(next, pos, &mut cache, &mut scratch);
            }
        }
        let served = (nll / count as f64).exp();
        let evaluated = perplexity(m, &CodecAssignment::fp16(), &tokens, WINDOW);
        assert_eq!(evaluated.to_bits(), served.to_bits(), "{}", m.config().name);
    }
}
