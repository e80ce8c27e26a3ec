//! Decode-count instrumentation for the Anda read path.
//!
//! The whole point of a compressed KV cache is that decode work scales
//! with *distinct* rows read, not with how many consumers read them — a
//! property that silently regressed once before (the serving layer
//! re-decoded every shared prefix page once per attending stream per
//! step). This module keeps that class of bug measurable: every row
//! decoded through [`crate::rowcodec::decode_row_into`] bumps a global
//! counter that tests and benches can snapshot around a workload, and
//! the KV page walk notes each page it decodes through
//! [`crate::rowcodec::decode_rows_into_with_leg`] with one add for all its
//! rows.
//!
//! The counter is process-global and monotonic (there is deliberately no
//! reset: concurrent test threads decode too, so the only robust pattern
//! is delta-over-a-snapshot, and even then only `>=` / `<=` bounds are
//! meaningful under a parallel test runner). For an *exact* decode count
//! scoped to one scheduler, use the per-instance
//! `anda_llm::kv::PageDecodeCache::pages_decoded` counter surfaced via
//! `SchedulerStats` instead; this global hook is the cross-check that no
//! decode path escapes that accounting.
//!
//! Overhead is one relaxed atomic add per row on the single-row path
//! and one per page on the attention path, so the hook is always on, in
//! every build profile.

use std::sync::atomic::{AtomicU64, Ordering};

static ROWS_DECODED: AtomicU64 = AtomicU64::new(0);

/// Records `rows` rows decoded. The row codec calls this itself for
/// every [`crate::rowcodec::decode_row_into`]; a caller of the page-level
/// [`crate::rowcodec::decode_rows_into_with_leg`] notes the page's rows
/// once, however many column slices the page was decoded in.
#[inline]
pub fn note_rows_decoded(rows: u64) {
    ROWS_DECODED.fetch_add(rows, Ordering::Relaxed);
}

/// Total Anda rows decoded by this process so far, across all threads.
///
/// Monotonic; snapshot before and after a workload and compare the delta
/// (with `>=` / `<=` bounds — other threads may decode concurrently).
pub fn rows_decoded() -> u64 {
    ROWS_DECODED.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use crate::anda::AndaConfig;
    use crate::rowcodec::{decode_row_into, encode_row_into, plane_words_per_row};

    #[test]
    fn decode_bumps_the_row_counter() {
        let cfg = AndaConfig::hardware(7).unwrap();
        let row: Vec<f32> = (0..64).map(|i| i as f32 * 0.5 - 16.0).collect();
        let mut signs = vec![0u64; 1];
        let mut exps = vec![0u16; 1];
        let mut planes = vec![0u64; plane_words_per_row(row.len(), cfg)];
        encode_row_into(&row, cfg, &mut signs, &mut exps, &mut planes);

        let before = super::rows_decoded();
        let mut out = vec![0.0f32; row.len()];
        for _ in 0..3 {
            decode_row_into(cfg, &signs, &exps, &planes, &mut out);
        }
        // `>=`: other test threads may decode concurrently.
        assert!(
            super::rows_decoded() >= before + 3,
            "three decodes must bump the global row counter by at least three"
        );
    }
}
