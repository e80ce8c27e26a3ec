//! Cross-crate integration: the numerical contract between the software
//! format path (quantize→dequantize→f32 GeMM) and the hardware path
//! (bit-plane storage → bit-serial integer dots → rescale → FP32
//! accumulation) must hold end to end.

use anda::format::compressor::BitPlaneCompressor;
use anda::format::rowcodec::row_storage_bits;
use anda::format::{AndaConfig, AndaTensor};
use anda::quant::gemm::{gemm_anda, gemm_fake_quant};
use anda::quant::{ActivationCodec, IntWeightMatrix, WeightQuantConfig};
use anda::sim::arch::Accelerator;
use anda::sim::decode::KvPolicy;
use anda::sim::pe::PeKind;
use anda::tensor::{Matrix, Rng};

fn random_case(m: usize, k: usize, n: usize, seed: u64) -> (Matrix, IntWeightMatrix) {
    let mut rng = Rng::new(seed);
    let mut x = Matrix::zeros(m, k);
    rng.fill_normal(x.as_mut_slice(), 1.0);
    // Outlier to exercise wide group exponents.
    x[(0, 3)] = 40.0;
    let mut w = Matrix::zeros(k, n);
    rng.fill_normal(w.as_mut_slice(), 0.05);
    (
        x,
        IntWeightMatrix::quantize(&w, WeightQuantConfig::rtn(4, 128)),
    )
}

#[test]
fn integer_gemm_equals_fake_quant_gemm_across_mantissas() {
    let (x, w) = random_case(4, 256, 6, 42);
    for m in [2u32, 5, 8, 11, 14, 16] {
        let int_path = gemm_anda(&x, &w, m);
        let sw_path = gemm_fake_quant(&x, &w, &ActivationCodec::anda(m));
        for i in 0..x.rows() {
            for j in 0..w.n() {
                let (a, b) = (int_path[(i, j)], sw_path[(i, j)]);
                assert!(
                    (a - b).abs() <= a.abs().max(1.0) * 3e-5,
                    "m={m} ({i},{j}): hardware {a} vs software {b}"
                );
            }
        }
    }
}

#[test]
fn compressor_tensor_dequantizes_identically_to_direct_tensor() {
    let mut rng = Rng::new(9);
    let vals: Vec<f32> = (0..1000).map(|_| rng.normal_with(0.0, 3.0)).collect();
    for m in [1u32, 6, 12, 16] {
        let cfg = AndaConfig::hardware(m).unwrap();
        let direct = AndaTensor::from_f32(&vals, cfg);
        let (compressed, report) = BitPlaneCompressor::new(cfg).compress_f32(&vals);
        assert_eq!(direct, compressed, "m={m}");
        assert_eq!(report.groups, vals.len().div_ceil(64));
        assert_eq!(direct.to_f32(), compressed.to_f32());
    }
}

#[test]
fn wide_mantissa_gemm_converges_to_reference() {
    let (x, w) = random_case(3, 192, 4, 7);
    let exact = gemm_fake_quant(&x, &w, &ActivationCodec::Exact);
    let wide = gemm_anda(&x, &w, 16);
    for i in 0..3 {
        for j in 0..4 {
            let rel = (wide[(i, j)] - exact[(i, j)]).abs() / exact[(i, j)].abs().max(1.0);
            // FP16 rounding + alignment loss only.
            assert!(
                rel < 0.02,
                "({i},{j}): {} vs {}",
                wide[(i, j)],
                exact[(i, j)]
            );
        }
    }
}

#[test]
fn storage_accounting_consistent_across_crates() {
    // Codec-level storage bits must match the tensor-level accounting.
    let vals = vec![1.5f32; 640];
    for m in [4u32, 7, 10] {
        let tensor = AndaTensor::from_f32(&vals, AndaConfig::hardware(m).unwrap());
        let per_elem = tensor.storage_bits() as f64 / vals.len() as f64;
        let codec = ActivationCodec::anda(m).storage_bits_per_element();
        assert!(
            (per_elem - codec).abs() < 1e-9,
            "m={m}: {per_elem} vs {codec}"
        );
    }
    // The codec's cost is the definition: exactly the row codec's bits for
    // a 64-lane group, and the simulator's activation and KV traffic read
    // it bit for bit.
    for m in 1..=16 {
        let codec = ActivationCodec::anda(m).storage_bits_per_element();
        let row = row_storage_bits(64, AndaConfig::hardware(m).unwrap());
        assert_eq!(codec * 64.0, row as f64, "m={m}");
        let act = Accelerator::paper(PeKind::Anda).act_bits_per_element(m);
        assert_eq!(act.to_bits(), codec.to_bits(), "m={m}");
        let kv = KvPolicy::Anda { mantissa_bits: m }.bits_per_element();
        assert_eq!(kv.to_bits(), codec.to_bits(), "m={m}");
    }
}
