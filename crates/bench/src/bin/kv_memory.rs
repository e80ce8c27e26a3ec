//! KV memory study: decode throughput and resident KV footprint versus
//! storage policy and context length on the paged KV subsystem, plus the
//! §VI long-context admission headroom as an executable fact.
//!
//! Part 1 decodes one stream to each target context under every policy
//! (`Fp32` exact reference, `Fp16` paper baseline, `Anda{8}`, `Anda{5}`)
//! and reports tokens/s, resident KV bits (page-granular, what admission
//! accounts for) and compression vs FP16. Software decode of Anda pages
//! costs time for memory — the hardware does this in the datapath — so
//! the interesting columns are the footprint ones.
//!
//! Part 2 sizes two pools with the *same* memory budget (FP32 vs Anda
//! M=5 pages) and submits a batch of long-context streams whose summed
//! worst-case FP32 KV exceeds the budget: under FP32 accounting the
//! admission watermark serializes the batch (requests too big for the
//! whole pool are rejected at submit), while the Anda pool admits and
//! serves the whole batch concurrently. Under `--smoke` (CI) the
//! admission gap is an assertion, not just a table.
//!
//! Usage: `kv_memory [--smoke] [--contexts A,B,…] [--new T]`

use std::time::Instant;

use anda_bench::{arg_val, workload_prompt, BenchReport, Table};
use anda_llm::kv::{KvPoolConfig, KvStorage, PagePool};
use anda_llm::zoo::opt_125m_sim;
use anda_llm::DecodeScratch;
use anda_serve::{Request, Scheduler, SchedulerConfig, SubmitError};

fn policy_name(storage: KvStorage) -> String {
    match storage {
        KvStorage::Fp32 => "FP32".into(),
        KvStorage::Fp16 => "FP16".into(),
        KvStorage::Bf16 => "BF16".into(),
        KvStorage::Anda { mantissa_bits } => format!("Anda M={mantissa_bits}"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let contexts: Vec<usize> = arg_val(&args, "--contexts")
        .map(|v| v.split(',').filter_map(|t| t.parse().ok()).collect())
        .unwrap_or_else(|| {
            if smoke {
                vec![64, 128]
            } else {
                vec![64, 128, 256, 512]
            }
        });

    let model = opt_125m_sim().build();
    let cfg = model.config().clone();
    let policies = [
        KvStorage::Fp32,
        KvStorage::Fp16,
        KvStorage::Bf16,
        KvStorage::Anda { mantissa_bits: 8 },
        KvStorage::Anda { mantissa_bits: 5 },
    ];

    println!(
        "KV memory — decode on {} (d={}, {} layers), page size {} positions",
        cfg.name,
        cfg.d_model,
        cfg.n_layers,
        anda_llm::kv::DEFAULT_PAGE_POSITIONS
    );
    println!(
        "SIMD dispatch: {} leg (detected: {})\n",
        anda_fp::active_leg().name(),
        anda_fp::cpu_features()
    );
    let mut report = BenchReport::new("kv_memory");
    let mut table = Table::new(&[
        "KV storage",
        "context",
        "tok/s",
        "resident KV Mbit",
        "bits/elem",
        "vs FP16",
    ]);
    // tokens/s at the longest context, per policy (for the ratio below).
    let mut longest = Vec::new();
    for &storage in &policies {
        for &context in &contexts {
            assert!(context < cfg.max_seq, "context {context} exceeds max_seq");
            let pool = PagePool::new(KvPoolConfig::unbounded(storage));
            let mut cache = pool.new_cache(cfg.n_layers);
            cache.reserve(context);
            let mut scratch = DecodeScratch::new();
            scratch.reserve(&cfg, context);
            let prompt: Vec<usize> = (0..8).map(|i| (i * 37 + 3) % cfg.vocab).collect();
            let t0 = Instant::now();
            model.prefill(&prompt, &mut cache, &mut scratch);
            for pos in prompt.len()..context {
                model.decode_hidden((pos * 13 + 1) % cfg.vocab, pos, &mut cache, &mut scratch);
            }
            let elapsed = t0.elapsed().as_secs_f64();
            let elems = (2 * cfg.n_layers * context * cfg.d_model) as f64;
            let fp16_bits = elems * 16.0;
            if context == *contexts.last().expect("nonempty contexts") {
                let key = policy_name(storage).to_lowercase().replace([' ', '='], "_");
                report.metric(
                    &format!("{key}_ctx{context}_tokens_per_s"),
                    context as f64 / elapsed,
                );
                longest.push((storage, context as f64 / elapsed));
            }
            table.row_owned(vec![
                policy_name(storage),
                context.to_string(),
                format!("{:.0}", context as f64 / elapsed),
                format!("{:.2}", cache.resident_bits() as f64 / 1e6),
                format!("{:.2}", cache.storage_bits() as f64 / elems),
                format!("{:.2}x", fp16_bits / cache.storage_bits() as f64),
            ]);
        }
    }
    println!("{}", table.render());
    // What decode-on-read costs end to end: Anda M=8 pages against FP16
    // pages, same model, same (longest) context. 1.0 = free.
    let rate = |want: KvStorage| {
        let found = longest.iter().find(|(storage, _)| *storage == want);
        found.expect("policy benched above").1
    };
    let anda_vs_fp16 = rate(KvStorage::Anda { mantissa_bits: 8 }) / rate(KvStorage::Fp16);
    println!("Anda M=8 vs FP16 tokens/s at the longest context: {anda_vs_fp16:.2}x\n");
    report.metric("anda_m8_vs_fp16_tokens_per_s", anda_vs_fp16);

    // --- Part 2: page-accounted admission at a fixed memory budget ---
    let batch = 4usize;
    let prompt_len = if smoke { 16 } else { 32 };
    let max_new = if smoke { 32 } else { 96 };
    let worst = prompt_len + max_new;
    let page_positions = 8usize;
    let fp32_req_bits = cfg.n_layers * 2 * worst * KvStorage::Fp32.row_bits(cfg.d_model);
    // Budget: 1.5 streams' worth of FP32 KV, shared by a 4-stream batch.
    let budget_bits = fp32_req_bits * 3 / 2;
    let anda = KvStorage::Anda { mantissa_bits: 5 };

    let mk = |storage: KvStorage| {
        KvPoolConfig {
            storage,
            page_positions,
            max_pages: None,
        }
        .with_memory_budget(budget_bits, cfg.d_model)
    };
    let fp32_cfg = mk(KvStorage::Fp32);
    let anda_cfg = mk(anda);
    let pages_per_req = cfg.n_layers * worst.div_ceil(page_positions);
    println!(
        "\nAdmission at a {:.1} Mbit budget — {batch} streams × {worst} worst-case positions \
         ({pages_per_req} pages each):",
        budget_bits as f64 / 1e6
    );

    let reqs: Vec<Request> = (0..batch)
        .map(|i| {
            Request::builder(workload_prompt(i, prompt_len, cfg.vocab))
                .max_new(max_new)
                .temperature(0.8)
                .seed(i as u64)
                .build()
                .unwrap()
        })
        .collect();

    let mut admission = Table::new(&[
        "pool policy",
        "pool pages",
        "accepted",
        "peak active",
        "peak pages",
        "decode tok",
    ]);
    let mut outcomes = Vec::new();
    for kv in [fp32_cfg, anda_cfg] {
        let mut sched = Scheduler::new(
            &model,
            SchedulerConfig {
                max_batch: batch,
                kv,
                ..SchedulerConfig::default()
            },
        );
        let mut accepted = 0usize;
        for r in &reqs {
            match sched.submit(r.clone()) {
                Ok(_) => accepted += 1,
                Err(SubmitError::ExceedsPoolCapacity { .. }) => {}
                Err(e) => panic!("unexpected rejection: {e}"),
            }
        }
        let finished = sched.run_to_completion();
        assert_eq!(finished.len(), accepted);
        let stats = sched.stats();
        admission.row_owned(vec![
            policy_name(kv.storage),
            kv.max_pages.unwrap().to_string(),
            format!("{accepted}/{batch}"),
            stats.peak_active.to_string(),
            stats.peak_pages_in_use.to_string(),
            stats.sampled_tokens.to_string(),
        ]);
        outcomes.push((kv.storage, accepted, stats.peak_active));
    }
    println!("{}", admission.render());

    let (_, fp32_accepted, fp32_peak) = outcomes[0];
    let (_, anda_accepted, anda_peak) = outcomes[1];
    println!(
        "FP32 accounting held at most {fp32_peak} stream(s) in flight \
         ({fp32_accepted}/{batch} accepted); Anda held {anda_peak} \
         ({anda_accepted}/{batch} accepted)."
    );
    // The §VI claim as an exit code: under the same memory budget the
    // FP32 watermark cannot hold the batch concurrently (streams queue
    // behind the pool), while the compressed pool admits and serves all
    // of them at once.
    assert!(
        fp32_peak < batch,
        "scenario too easy: the FP32 pool held the whole batch concurrently"
    );
    assert_eq!(
        anda_accepted, batch,
        "the Anda pool must accept the whole batch at this budget"
    );
    assert_eq!(
        anda_peak, batch,
        "the Anda pool must hold the whole batch concurrently"
    );
    println!("\n(compressed pages turn the same memory budget into admission headroom)");
    report.metric("anda_accepted", anda_accepted as f64);
    report.metric("fp32_accepted", fp32_accepted as f64);
    report.write_and_announce();
}
