//! Kernel-level benchmarks: FP16 reference dot products versus the Anda
//! bit-serial schedule across mantissa lengths, and full FP-INT GeMMs.
//!
//! These quantify the software model's costs; *hardware* performance claims
//! come from the `anda-sim` crate (the bit-serial schedule is slower in
//! software — it exists to prove functional equivalence and to model the
//! APU, not to accelerate host CPUs).

use anda_format::align::align_group;
use anda_format::bitplane::BitPlaneGroup;
use anda_format::dot::{dot_f16_int_reference, dot_group_bit_serial, dot_group_reference};
use anda_format::rowcodec::{
    decode_row_into_with_leg, encode_row_into_scalar, groups_per_row, plane_words_per_row,
};
use anda_format::{AndaConfig, AndaTensor};
use anda_fp::{available_legs, RoundingMode, F16};
use anda_quant::gemm::{gemm_anda, gemm_fake_quant};
use anda_quant::{ActivationCodec, IntWeightMatrix, WeightQuantConfig};
use anda_tensor::{Matrix, Rng};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn group_inputs(seed: u64) -> (Vec<F16>, Vec<i8>) {
    let mut rng = Rng::new(seed);
    let acts: Vec<F16> = (0..64)
        .map(|_| F16::from_f32(rng.normal_with(0.0, 2.0)))
        .collect();
    let weights: Vec<i8> = (0..64).map(|_| rng.below(15) as i8 - 7).collect();
    (acts, weights)
}

fn bench_group_dot(c: &mut Criterion) {
    let (acts, weights) = group_inputs(1);
    let mut g = c.benchmark_group("group_dot_64");

    g.bench_function("fp16_reference", |b| {
        b.iter(|| dot_f16_int_reference(black_box(&acts), black_box(&weights), 0.01))
    });

    for m in [4u32, 8, 13, 16] {
        let aligned = align_group(&acts, m, RoundingMode::Truncate).unwrap();
        let bp = BitPlaneGroup::from_aligned(&aligned);
        g.bench_with_input(BenchmarkId::new("integer_reference", m), &m, |b, _| {
            b.iter(|| dot_group_reference(black_box(&aligned), black_box(&weights)))
        });
        g.bench_with_input(BenchmarkId::new("bit_serial", m), &m, |b, _| {
            b.iter(|| dot_group_bit_serial(black_box(&bp), black_box(&weights)))
        });
    }
    g.finish();
}

fn bench_conversion(c: &mut Criterion) {
    let mut rng = Rng::new(2);
    let vals: Vec<f32> = (0..4096).map(|_| rng.normal_with(0.0, 2.0)).collect();
    let mut g = c.benchmark_group("anda_conversion_4096");
    for m in [4u32, 8, 16] {
        let cfg = AndaConfig::hardware(m).unwrap();
        g.bench_with_input(BenchmarkId::new("quantize", m), &m, |b, _| {
            b.iter(|| AndaTensor::from_f32(black_box(&vals), cfg))
        });
        let t = AndaTensor::from_f32(&vals, cfg);
        g.bench_with_input(BenchmarkId::new("dequantize", m), &m, |b, _| {
            b.iter(|| black_box(&t).to_f32())
        });
    }
    g.finish();
}

/// The KV read path's inner kernel: one 256-wide row (the serving
/// model's `d_model`) decoded on every dispatch leg, at a byte-lane
/// (`M <= 8`) and a 16-bit-lane (`M > 8`) mantissa width on each side.
fn bench_decode_row(c: &mut Criterion) {
    let mut rng = Rng::new(4);
    let vals: Vec<f32> = (0..256).map(|_| rng.normal_with(0.0, 2.0)).collect();
    let mut g = c.benchmark_group("decode_row_256");
    for m in [5u32, 8, 11] {
        let cfg = AndaConfig::hardware(m).unwrap();
        let mut signs = vec![0u64; groups_per_row(vals.len(), cfg)];
        let mut exps = vec![0u16; signs.len()];
        let mut planes = vec![0u64; plane_words_per_row(vals.len(), cfg)];
        encode_row_into_scalar(&vals, cfg, &mut signs, &mut exps, &mut planes);
        let mut out = vec![0.0f32; vals.len()];
        for leg in available_legs() {
            g.bench_with_input(BenchmarkId::new(leg.name(), m), &m, |b, _| {
                b.iter(|| {
                    decode_row_into_with_leg(
                        leg,
                        cfg,
                        black_box(&signs),
                        &exps,
                        &planes,
                        black_box(&mut out),
                    )
                })
            });
        }
    }
    g.finish();
}

fn bench_gemm(c: &mut Criterion) {
    let mut rng = Rng::new(3);
    let (m, k, n) = (16, 256, 64);
    let mut x = Matrix::zeros(m, k);
    rng.fill_normal(x.as_mut_slice(), 1.0);
    let mut w = Matrix::zeros(k, n);
    rng.fill_normal(w.as_mut_slice(), 0.05);
    let wq = IntWeightMatrix::quantize(&w, WeightQuantConfig::rtn(4, 128));

    let mut g = c.benchmark_group("fp_int_gemm_16x256x64");
    g.bench_function("fp16_path", |b| {
        b.iter(|| gemm_fake_quant(black_box(&x), black_box(&wq), &ActivationCodec::Fp16))
    });
    g.bench_function("fake_quant_anda8", |b| {
        let codec = ActivationCodec::anda(8);
        b.iter(|| gemm_fake_quant(black_box(&x), black_box(&wq), &codec))
    });
    for mbits in [4u32, 8] {
        g.bench_with_input(
            BenchmarkId::new("integer_bit_serial", mbits),
            &mbits,
            |b, &mb| b.iter(|| gemm_anda(black_box(&x), black_box(&wq), mb)),
        );
    }
    g.finish();
}

/// The attention page walk on every SIMD leg at the serving model's
/// shape (256 wide, four heads, 16-position pages), one row per lane set
/// the benchmark's workloads are made of: a solo decode lane deep in a
/// context on float and on Anda pages (`decode_steady` /
/// `decode_longctx`), a 64-token chunk span at position 256 and four
/// forks one token past a shared 256-position prefix (`prefill_shared`).
fn bench_attend(c: &mut Criterion) {
    use anda_llm::kv::{AttendLane, KvPoolConfig, KvStorage};
    use anda_llm::{KvCache, PageDecodeCache, PagePool};
    let (dim, n_heads) = (256, 4);
    let mut rng = Rng::new(13);
    let mut append = |cache: &mut KvCache, positions: usize| {
        let mut row = vec![0.0f32; 2 * dim];
        for _ in 0..positions {
            rng.fill_normal(&mut row, 1.0);
            cache.append_row(0, &row[..dim], &row[dim..]);
        }
    };
    let anda8 = KvStorage::Anda { mantissa_bits: 8 };
    let pool = |storage| PagePool::new(KvPoolConfig::unbounded(storage));
    // `(name, caches, one (cache, window) per lane)`.
    type Scene = (&'static str, Vec<KvCache>, Vec<(usize, usize)>);
    let mut scenes: Vec<Scene> = Vec::new();
    for (name, storage) in [
        ("decode_528_fp16", KvStorage::Fp16),
        ("decode_528_anda8", anda8),
    ] {
        let mut cache = pool(storage).new_cache(1);
        append(&mut cache, 528);
        scenes.push((name, vec![cache], vec![(0, 528)]));
    }
    let mut chunked = pool(anda8).new_cache(1);
    append(&mut chunked, 320);
    scenes.push((
        "chunk_64_at_256_anda8",
        vec![chunked],
        (257..=320).map(|t| (0, t)).collect(),
    ));
    let mut donor = pool(anda8).new_cache(1);
    append(&mut donor, 256);
    let forks: Vec<KvCache> = (0..4)
        .map(|_| {
            let mut fork = donor.fork_prefix(256);
            append(&mut fork, 1);
            fork
        })
        .collect();
    scenes.push((
        "forks_4_past_256_anda8",
        forks,
        (0..4).map(|i| (i, 257)).collect(),
    ));

    let mut g = c.benchmark_group("attend_256x4");
    for (name, caches, views) in &scenes {
        let q: Vec<f32> = (0..dim).map(|_| rng.normal_with(0.0, 1.0)).collect();
        let mut outs = vec![vec![0.0f32; dim]; views.len()];
        let mut scores: Vec<Vec<f32>> =
            views.iter().map(|&(_, t)| vec![0.0; n_heads * t]).collect();
        let mut walk = PageDecodeCache::new();
        for leg in available_legs() {
            g.bench_function(BenchmarkId::new(leg.name(), name), |b| {
                b.iter(|| {
                    let mut lanes: Vec<AttendLane<'_>> = views
                        .iter()
                        .zip(outs.iter_mut().zip(scores.iter_mut()))
                        .map(|(&(cache, t), (out, scores))| AttendLane {
                            layer: caches[cache].layer(0),
                            t,
                            q: black_box(&q),
                            scores,
                            out,
                        })
                        .collect();
                    walk.attend_with_leg(&mut lanes, n_heads, None, leg)
                })
            });
        }
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_group_dot,
    bench_conversion,
    bench_decode_row,
    bench_gemm,
    bench_attend
);
criterion_main!(benches);
