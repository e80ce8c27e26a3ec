//! Workspace bootstrap smoke test: every crate the `anda` umbrella
//! re-exports must resolve through its public path, and the cross-crate
//! seams (format → quant → llm → sim) must interoperate on a minimal
//! end-to-end value flow. Compile failure here means a re-export or a
//! crate dependency edge broke.

use anda::format::{AndaConfig, AndaTensor};
use anda::fp::F16;
use anda::llm::modules::PrecisionCombo;
use anda::llm::zoo::sim_models;
use anda::quant::{
    gemm_anda, gemm_fake_quant, ActivationCodec, IntWeightMatrix, WeightQuantConfig,
};
use anda::search::bops::bops_saving;
use anda::sim::pe::PeKind;
use anda::tensor::{Matrix, Rng};

#[test]
fn umbrella_reexports_resolve_and_interoperate() {
    // fp + format: pack activations through the Anda format.
    let acts: Vec<F16> = (0..128)
        .map(|i| F16::from_f32(i as f32 * 0.25 - 16.0))
        .collect();
    let cfg = AndaConfig::hardware(8).expect("valid Anda config");
    let packed = AndaTensor::from_f16(&acts, cfg);
    assert_eq!(packed.to_f32().len(), acts.len());

    // format: the streaming quantiser and bit-plane layers are reachable too.
    let mut streamed = [1.0f32, 2.0, 3.0];
    anda::format::align::fake_quantize_in_place(&mut streamed, 64, 8);
    assert_eq!(streamed, [1.0, 2.0, 3.0]);
    let aligned = anda::format::align::align_group(&acts[..64], 8).unwrap();
    let plane: anda::format::BitPlaneGroup = packed.groups().next().unwrap();
    assert_eq!(plane.to_aligned(), aligned);

    // tensor + quant: the float-path FP-INT GeMM against the integer one.
    let mut rng = Rng::new(7);
    let mut x = Matrix::zeros(2, 64);
    rng.fill_normal(x.as_mut_slice(), 1.0);
    let mut w = Matrix::zeros(64, 3);
    rng.fill_normal(w.as_mut_slice(), 0.05);
    let wq = IntWeightMatrix::quantize(&w, WeightQuantConfig::rtn(4, 64));
    let out = gemm_fake_quant(&x, &wq, &ActivationCodec::anda(8));
    let int_path = gemm_anda(&x, &wq, 8);
    for i in 0..2 {
        for j in 0..3 {
            assert!((out[(i, j)] - int_path[(i, j)]).abs() <= out[(i, j)].abs().max(1.0) * 2e-5);
        }
    }

    // llm + search + sim: the catalog, BOPs model and PE taxonomy resolve.
    let specs = sim_models();
    assert!(!specs.is_empty());
    let cfg = &specs[0].sim;
    // Narrower mantissas must save more bit-operations.
    assert!(
        bops_saving(cfg, PrecisionCombo([4, 4, 4, 4]))
            > bops_saving(cfg, PrecisionCombo([13, 13, 13, 13]))
    );
    assert!(!PeKind::Anda.name().is_empty());
}
