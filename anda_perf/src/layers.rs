//! Derives the per-layer metrics of a traced run: span statistics
//! around the calls the driver made, exact counts read at the same
//! boundaries, and the ladder's probe results — plus the residuals that
//! tie them together.

use crate::probes::Probed;
use crate::report::{Measured, Metrics, SERVING_PER_LAYER};
use crate::serving::{Pass, StepRecord};
use crate::stats;
use crate::trace::{self_times_ns, Tracer};

/// What the traced run hands over for derivation.
pub struct Traced<'a> {
    /// The traced passes, pass 0 first.
    pub passes: &'a [&'a Pass],
    pub tracer: &'a Tracer,
    pub ladder: &'a [Probed],
    /// How many times slower than nominal the machine ran the reference
    /// slices (median over passes); the times here are as measured.
    pub reference_slowdown: f64,
    /// How much longer the same steps took traced than untraced, in
    /// percent (median over passes).
    pub trace_overhead_pct: f64,
    pub quantize_weights_ms: f64,
    /// Anda rows decoded during traced pass 0.
    pub rows_decoded: u64,
    pub batch: usize,
}

fn p(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        0.0
    } else {
        stats::percentile(sorted, q)
    }
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    stats::sort(&mut v);
    v
}

/// Streams sampled in the median decode-only step of `pass` — the batch
/// width the ladder probes the model at. `None` when the pass had no
/// decode-only step.
pub fn decode_batch(pass: &Pass) -> Option<usize> {
    let mut sampled: Vec<f64> = pass
        .steps
        .iter()
        .filter(|s| s.prefill_tokens == 0 && s.sampled_tokens > 0)
        .map(|s| s.sampled_tokens as f64)
        .collect();
    if sampled.is_empty() {
        return None;
    }
    Some(stats::median(&mut sampled).round() as usize)
}

/// Every metric of `SERVING_PER_LAYER`, in table order.
pub fn per_layer(t: &Traced<'_>) -> Vec<Measured> {
    let mut m = Metrics::new(&SERVING_PER_LAYER);

    // serve: spans around Engine::step, split by what the step did.
    // Steps that neither prefilled nor sampled are the open loop's idle
    // clock ticks and carry no work to time.
    let busy: Vec<&StepRecord> = t
        .passes
        .iter()
        .flat_map(|pass| pass.steps.iter())
        .filter(|s| s.prefill_tokens + s.sampled_tokens > 0)
        .collect();
    let all = sorted(busy.iter().map(|s| s.ms).collect());
    let decode = sorted(
        busy.iter()
            .filter(|s| s.prefill_tokens == 0)
            .map(|s| s.ms)
            .collect(),
    );
    let prefill = sorted(
        busy.iter()
            .filter(|s| s.prefill_tokens > 0)
            .map(|s| s.ms)
            .collect(),
    );
    m.put("serve.step_ms_p50", p(&all, 50.0), all.len());
    m.put("serve.step_ms_p99", p(&all, 99.0), all.len());
    m.put("serve.step_decode_ms_p50", p(&decode, 50.0), decode.len());
    m.put(
        "serve.step_prefill_ms_p50",
        p(&prefill, 50.0),
        prefill.len(),
    );
    // The tail of time to first token as the clients saw it (wall; its
    // exact step-domain twin is `serve.ttft_steps_p95` below).
    let ttft = sorted(
        t.passes
            .iter()
            .flat_map(|pass| pass.outcomes.iter())
            .filter(|o| !o.tokens.is_empty())
            .map(|o| o.ttft_ms)
            .collect(),
    );
    m.put("serve.ttft_ms_p80", p(&ttft, 80.0), ttft.len());
    for (metric, span) in [
        ("serve.submit_us_p50", "serve.submit"),
        ("serve.poll_us_p50", "serve.poll"),
    ] {
        let us = sorted(
            t.tracer
                .durations_ms(span)
                .into_iter()
                .map(|ms| ms * 1e3)
                .collect(),
        );
        m.put(metric, p(&us, 50.0), us.len());
    }

    // serve: exact counts of pass 0 (the schedule repeats on every run).
    let first = t.passes[0];
    let c = first.counters;
    let busy_steps = first
        .steps
        .iter()
        .filter(|s| s.prefill_tokens + s.sampled_tokens > 0)
        .count();
    m.put("serve.steps_total", c.steps as f64, 1);
    m.put(
        "serve.batch_mean",
        c.sampled_tokens as f64 / busy_steps.max(1) as f64,
        busy_steps,
    );
    let waits = sorted(
        first
            .outcomes
            .iter()
            .map(|o| o.queue_wait_steps as f64)
            .collect(),
    );
    let ttft_steps = sorted(first.outcomes.iter().map(|o| o.ttft_steps as f64).collect());
    m.put("serve.queue_wait_steps_p50", p(&waits, 50.0), waits.len());
    m.put("serve.queue_wait_steps_p95", p(&waits, 95.0), waits.len());
    m.put(
        "serve.ttft_steps_p95",
        p(&ttft_steps, 95.0),
        ttft_steps.len(),
    );
    m.put("serve.preemptions", c.preemptions as f64, 1);
    let ratio = |num: u64, rest: u64| {
        if num + rest == 0 {
            0.0
        } else {
            num as f64 / (num + rest) as f64
        }
    };
    m.put(
        "serve.prefill_useful_ratio",
        ratio(c.prefill_tokens, c.resumed_prefill_tokens),
        1,
    );
    m.put(
        "serve.stalled_prefill_tokens",
        c.stalled_prefill_tokens as f64,
        1,
    );
    m.put(
        "serve.prefix_hit_ratio",
        ratio(c.cache_hit_tokens, c.prefill_tokens),
        1,
    );
    let reserved_vs_used: Vec<f64> = first
        .steps
        .iter()
        .filter(|s| s.pages_used > 0)
        .map(|s| s.pages_reserved as f64 / s.pages_used as f64)
        .collect();
    m.put(
        "serve.pages_reserved_vs_used",
        if reserved_vs_used.is_empty() {
            0.0
        } else {
            stats::mean(&reserved_vs_used)
        },
        reserved_vs_used.len(),
    );
    m.put(
        "llm.kv.pages_decoded_per_step",
        c.pages_decoded as f64 / busy_steps.max(1) as f64,
        busy_steps,
    );
    m.put("format.rows_decoded", t.rows_decoded as f64, 1);

    // The ladder's probes, by name.
    for probe in t.ladder {
        m.put(probe.name, probe.value, probe.calls);
    }
    m.put("quant.quantize_weights_ms", t.quantize_weights_ms, 1);

    // What a decode step costs beyond the kernels it calls.
    let kernels_ms = m.get("llm.decode_hidden_batch_ms").unwrap_or(0.0)
        + m.get("llm.lm_head_batch_ms").unwrap_or(0.0)
        + t.batch as f64 * m.get("llm.sample_us").unwrap_or(0.0) / 1e3;
    m.put(
        "serve.overhead_ms_per_step",
        p(&decode, 50.0) - kernels_ms,
        decode.len(),
    );

    // bench: the machine's speed, and what tracing and the driver cost.
    m.put(
        "bench.reference_slowdown",
        t.reference_slowdown,
        t.passes.len(),
    );
    m.put(
        "bench.trace_overhead_pct",
        t.trace_overhead_pct,
        t.passes.len(),
    );
    let spans = t.tracer.spans();
    let selfs = self_times_ns(spans);
    let (mut pass_ns, mut driver_ns) = (0u64, 0u64);
    for (span, own) in spans.iter().zip(&selfs) {
        if span.name == "bench.pass" {
            pass_ns += span.duration_ns();
            driver_ns += own;
        }
    }
    m.put(
        "bench.driver_share",
        driver_ns as f64 / pass_ns.max(1) as f64,
        t.passes.len(),
    );
    m.finish()
}
