//! Metric definitions, the report a run produces, its JSON forms, and
//! the `--compare` tool.
//!
//! Two JSON shapes leave the program. The *result line* is the last
//! line of standard output: `{"correct", "attempted", "failed",
//! "metrics": {name: {"value", "unit"}}}` and nothing else. The *full
//! report* (`--out`) carries, per workload, every metric with unit,
//! direction, bound and sample count, plus the environment and the
//! token digest; `--compare` reads two of those.

use std::fmt::Write as _;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    /// `higher` or `lower`, as `BENCHMARK.json` spells it.
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A named metric. `bound` is the share of the baseline by which an
/// end-to-end metric may worsen before that counts as a regression
/// (`None` for per-layer metrics, which are not gated). `exact` marks
/// counts that repeat exactly on a fixed seed and commit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics of the serving workloads — the `end_to_end` list
/// of `BENCHMARK.json`, in its order.
pub const SERVING_END_TO_END: [MetricDef; 8] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("output_tokens_per_s", "tok/s", Higher, 0.25),
    e2e("prompt_tokens_per_s", "tok/s", Higher, 0.25),
    e2e("ttft_ms_p50", "ms", Lower, 0.25),
    e2e("tpot_ms_p50", "ms", Lower, 0.25),
    e2e("tpot_ms_p99", "ms", Lower, 0.25),
    e2e("slo_attainment", "share", Higher, 0.2),
    MetricDef {
        exact: true,
        ..e2e("kv_peak_mib", "MiB", Lower, 0.25)
    },
];

/// End-to-end metrics of `precision_search` (reported by the program;
/// not part of `BENCHMARK.json`, see README).
pub const SEARCH_END_TO_END: [MetricDef; 4] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("search_s", "s", Lower, 0.10),
    MetricDef {
        exact: true,
        ..e2e("search_bops_saving", "ratio", Higher, 0.0)
    },
    MetricDef {
        exact: true,
        ..e2e("search_ppl_loss_pct", "%", Lower, 0.0)
    },
];

/// Operations failed over attempted; 0 on every workload, so it is
/// printed and compared but cannot be a bounded `BENCHMARK.json` metric.
pub const FAILED_SHARE: MetricDef = MetricDef {
    exact: true,
    ..e2e("failed_share", "share", Lower, 0.0)
};

/// Per-layer metrics of the serving workloads — the `per_layer` list of
/// `BENCHMARK.json`, in its order.
pub const SERVING_PER_LAYER: [MetricDef; 48] = [
    // serve: spans around Engine::step / submit / poll, and exact counts.
    layer("serve.step_ms_p50", "ms", Lower),
    layer("serve.step_ms_p99", "ms", Lower),
    layer("serve.step_decode_ms_p50", "ms", Lower),
    layer("serve.step_prefill_ms_p50", "ms", Lower),
    layer("serve.ttft_ms_p80", "ms", Lower),
    layer("serve.submit_us_p50", "us", Lower),
    layer("serve.poll_us_p50", "us", Lower),
    count("serve.steps_total", "count", Lower),
    count("serve.batch_mean", "tok/step", Higher),
    count("serve.queue_wait_steps_p50", "steps", Lower),
    count("serve.queue_wait_steps_p95", "steps", Lower),
    count("serve.ttft_steps_p95", "steps", Lower),
    count("serve.preemptions", "count", Lower),
    count("serve.prefill_useful_ratio", "ratio", Higher),
    count("serve.stalled_prefill_tokens", "count", Lower),
    count("serve.prefix_hit_ratio", "ratio", Higher),
    count("serve.pages_reserved_vs_used", "ratio", Lower),
    layer("serve.overhead_ms_per_step", "ms", Lower),
    layer("serve.radix.lookup_us", "us", Lower),
    layer("serve.radix.insert_us", "us", Lower),
    // llm.model: ladder at the workload's batch and context.
    layer("llm.decode_hidden_batch_ms", "ms", Lower),
    layer("llm.prefill_chunk_ms", "ms", Lower),
    layer("llm.lm_head_batch_ms", "ms", Lower),
    layer("llm.sample_us", "us", Lower),
    layer("llm.forward_ms", "ms", Lower),
    count("llm.predicted_macs_per_token", "MAC", Lower),
    layer("llm.achieved_gmacs", "GMAC/s", Higher),
    // llm.kv: ladder under the workload's page policy.
    layer("llm.kv.append_row_ns", "ns", Lower),
    layer("llm.kv.attend_us", "us", Lower),
    layer("llm.kv.row_read_ns", "ns", Lower),
    layer("llm.kv.fork_prefix_us", "us", Lower),
    count("llm.kv.pages_decoded_per_step", "pages/step", Lower),
    count("llm.kv.bits_per_element", "bit", Lower),
    // format: row codec at d=256, M=8.
    layer("format.encode_row_ns", "ns", Lower),
    layer("format.decode_row_ns", "ns", Lower),
    layer("format.dot_group_ns", "ns", Lower),
    count("format.rows_decoded", "count", Lower),
    // quant
    layer("quant.codec_apply_ns_per_elem", "ns", Lower),
    layer("quant.quantize_weights_ms", "ms", Lower),
    layer("quant.gemm_anda_gmacs", "GMAC/s", Higher),
    // tensor
    layer("tensor.matmul_gflops_chunk", "GFLOP/s", Higher),
    layer("tensor.matmul_gflops_fwd", "GFLOP/s", Higher),
    layer("tensor.matmul_t_gflops_lmhead", "GFLOP/s", Higher),
    // fp / rayon-lite
    layer("fp.f16_round_gelems", "Gelem/s", Higher),
    layer("pool.dispatch_us", "us", Lower),
    // bench: what the harness itself costs.
    layer("bench.reference_slowdown", "ratio", Lower),
    layer("bench.trace_overhead_pct", "%", Lower),
    layer("bench.driver_share", "share", Lower),
];

/// Per-layer metrics of `precision_search`.
pub const SEARCH_PER_LAYER: [MetricDef; 8] = [
    count("search.evaluations", "count", Lower),
    count("search.iterations", "count", Lower),
    layer("search.eval_ms_p50", "ms", Lower),
    layer("llm.forward_ms", "ms", Lower),
    layer("sim.simulate_model_ms", "ms", Lower),
    count("sim.speedup_vs_fpfp", "ratio", Higher),
    count("sim.energy_eff_vs_fpfp", "ratio", Higher),
    layer("bench.trace_overhead_pct", "%", Lower),
];

/// One measured metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Measured {
    pub def: MetricDef,
    pub value: f64,
    /// Samples behind the value (requests, gaps, passes or probe calls).
    pub samples: usize,
}

/// Collects measured values against a table of definitions, so a name
/// that is not in the table cannot be reported.
pub struct Metrics {
    defs: &'static [MetricDef],
    values: Vec<Measured>,
}

impl Metrics {
    /// An empty collection over `defs`.
    pub fn new(defs: &'static [MetricDef]) -> Self {
        Metrics {
            defs,
            values: Vec::new(),
        }
    }

    /// Records `value` for `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in the table or was already recorded —
    /// both are bugs in the harness.
    pub fn put(&mut self, name: &str, value: f64, samples: usize) {
        let def = *self
            .defs
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not defined"));
        assert!(
            self.values.iter().all(|m| m.def.name != name),
            "metric {name} recorded twice"
        );
        self.values.push(Measured {
            def,
            value,
            samples,
        });
    }

    /// The recorded value of `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|m| m.def.name == name)
            .map(|m| m.value)
    }

    /// Every definition, in table order, with its value; a definition
    /// nobody recorded is a harness bug.
    pub fn finish(self) -> Vec<Measured> {
        self.defs
            .iter()
            .map(|d| {
                self.values
                    .iter()
                    .find(|m| m.def.name == d.name)
                    .cloned()
                    .unwrap_or_else(|| panic!("metric {} was never recorded", d.name))
            })
            .collect()
    }
}

/// What one workload's run produced.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadReport {
    pub workload: String,
    pub seed: u64,
    /// `true` for a traced run (per-layer metrics), `false` for the
    /// untraced run (end-to-end metrics).
    pub traced: bool,
    pub passes: usize,
    pub attempted: usize,
    pub failed: usize,
    /// Requests re-generated by the oracle.
    pub verified: usize,
    pub tokens_digest: u64,
    /// How many times slower than nominal the machine ran the reference
    /// slices, median over passes (`None`: the workload has no reference
    /// clock). End-to-end serving times are already divided by it.
    pub reference_slowdown: Option<f64>,
    pub metrics: Vec<Measured>,
}

impl WorkloadReport {
    /// `true` when nothing failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.def.name),
                json_num(m.value),
                json_str(m.def.unit)
            );
        }
        s.push_str("}}");
        s
    }

    /// Every metric by name with unit, direction, bound and sample count.
    pub fn table(&self) -> String {
        let mut s = format!(
            "## {} (seed {}, {} run, {} passes)\n",
            self.workload,
            self.seed,
            if self.traced { "traced" } else { "untraced" },
            self.passes
        );
        let _ = writeln!(
            s,
            "{:<34} {:>14} {:<10} {:<7} {:>6} {:>8}",
            "metric", "value", "unit", "better", "bound", "samples"
        );
        let mut weak = false;
        for m in &self.metrics {
            let bound = match m.def.bound {
                Some(b) => format!("{:.0}%", b * 100.0),
                None => "-".to_string(),
            };
            // A named percentile needs ten samples beyond it.
            let thin =
                named_percentile(m.def.name).is_some_and(|p| !crate::stats::supports(m.samples, p));
            weak |= thin;
            let _ = writeln!(
                s,
                "{:<34} {:>14} {:<10} {:<7} {:>6} {:>8}{}",
                m.def.name,
                format_value(m.value),
                m.def.unit,
                m.def.better.name(),
                bound,
                m.samples,
                match (thin, crate::stats::highest_supported_percentile(m.samples)) {
                    (false, _) => String::new(),
                    (true, Some(p)) => format!(" * supports p{p}"),
                    (true, None) => " * supports no percentile".to_string(),
                }
            );
        }
        if weak {
            s.push_str("* fewer than 10 samples lie beyond the named percentile\n");
        }
        let _ = writeln!(
            s,
            "{:<34} {:>14} {:<10} {:<7} {:>6} {:>8}",
            FAILED_SHARE.name,
            format_value(self.failed as f64 / self.attempted.max(1) as f64),
            FAILED_SHARE.unit,
            "lower",
            "0%",
            self.attempted
        );
        let _ = writeln!(
            s,
            "tokens_digest {:016x}  attempted {}  failed {}  oracle-verified {}",
            self.tokens_digest, self.attempted, self.failed, self.verified
        );
        if let Some(slowdown) = self.reference_slowdown {
            let _ = writeln!(
                s,
                "reference slowdown {slowdown:.4} ({})",
                if self.traced {
                    "times above are as measured"
                } else {
                    "times above are wall times divided by it, pass by pass"
                }
            );
        }
        s
    }
}

/// The percentile a metric name ends in (`tpot_ms_p99` → 99).
fn named_percentile(name: &str) -> Option<f64> {
    let (_, tail) = name.rsplit_once("_p")?;
    tail.parse().ok()
}

fn format_value(v: f64) -> String {
    if v == 0.0 || (v.abs() >= 0.01 && v.abs() < 1e7) {
        format!("{v:.4}")
    } else {
        format!("{v:.4e}")
    }
}

/// The full report of one invocation.
#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    pub commit: String,
    pub threads: usize,
    pub nproc: usize,
    pub simd_leg: String,
    pub cpu_features: String,
    pub workloads: Vec<WorkloadReport>,
}

impl Report {
    /// Serializes the full report.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        let _ = writeln!(s, "  \"commit\": {},", json_str(&self.commit));
        let _ = writeln!(s, "  \"threads\": {},", self.threads);
        let _ = writeln!(s, "  \"nproc\": {},", self.nproc);
        let _ = writeln!(s, "  \"simd_leg\": {},", json_str(&self.simd_leg));
        let _ = writeln!(s, "  \"cpu_features\": {},", json_str(&self.cpu_features));
        s.push_str("  \"workloads\": [");
        for (i, w) in self.workloads.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = writeln!(s, "    {{\"workload\": {},", json_str(&w.workload));
            let _ = writeln!(s, "     \"seed\": \"{}\",", w.seed);
            let _ = writeln!(s, "     \"traced\": {},", w.traced);
            let _ = writeln!(s, "     \"passes\": {},", w.passes);
            let _ = writeln!(s, "     \"attempted\": {},", w.attempted);
            let _ = writeln!(s, "     \"failed\": {},", w.failed);
            let _ = writeln!(s, "     \"verified\": {},", w.verified);
            let _ = writeln!(s, "     \"tokens_digest\": \"{:016x}\",", w.tokens_digest);
            s.push_str("     \"metrics\": [");
            for (j, m) in w.metrics.iter().enumerate() {
                s.push_str(if j == 0 { "\n" } else { ",\n" });
                let _ = write!(
                    s,
                    "       {{\"name\": {}, \"value\": {}, \"unit\": {}, \"better\": {}, \
                     \"bound\": {}, \"exact\": {}, \"samples\": {}}}",
                    json_str(m.def.name),
                    json_num(m.value),
                    json_str(m.def.unit),
                    json_str(m.def.better.name()),
                    m.def.bound.map_or("null".to_string(), json_num),
                    m.def.exact,
                    m.samples
                );
            }
            s.push_str("\n     ]}");
        }
        s.push_str("\n  ]\n}\n");
        s
    }
}

/// A finite number with all its digits; JSON has no NaN or infinity, so
/// those become `null`.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A parsed JSON value (objects keep their key order).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }
}

/// Parses one JSON document.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", byte as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("unexpected token at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err("unexpected end of input".to_string()),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut members = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.expect(b':')?;
                    members.push((key, self.value()?));
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(members));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
                    }
                }
            }
            Some(_) => {
                let start = self.pos;
                while self.pos < self.bytes.len()
                    && matches!(
                        self.bytes[self.pos],
                        b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
                    )
                {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .ok()
                    .and_then(|t| t.parse::<f64>().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad number at byte {start}"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return Err(format!("expected string at byte {}", self.pos));
        }
        self.pos += 1;
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    let escaped = *self
                        .bytes
                        .get(self.pos + 1)
                        .ok_or("unterminated escape".to_string())?;
                    self.pos += 2;
                    match escaped {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'b' => out.push(0x08),
                        b'f' => out.push(0x0c),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or(format!("bad \\u escape at byte {}", self.pos))?;
                            self.pos += 4;
                            out.extend(hex.to_string().as_bytes());
                        }
                        other => out.push(other),
                    }
                }
                Some(&b) => {
                    out.push(b);
                    self.pos += 1;
                }
            }
        }
    }
}

/// One metric as read back from a full report.
#[derive(Clone, Debug, PartialEq)]
struct ReadMetric {
    name: String,
    value: Option<f64>,
    better: Better,
    bound: Option<f64>,
    exact: bool,
}

/// One workload as read back from a full report.
#[derive(Clone, Debug, PartialEq)]
struct ReadWorkload {
    key: String,
    digest: String,
    failed: f64,
    metrics: Vec<ReadMetric>,
}

fn read_report(text: &str) -> Result<Vec<ReadWorkload>, String> {
    let doc = parse_json(text)?;
    let workloads = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("report has no \"workloads\" array")?;
    workloads
        .iter()
        .map(|w| {
            let name = w
                .get("workload")
                .and_then(Json::as_str)
                .ok_or("workload without a name")?;
            let traced = w.get("traced") == Some(&Json::Bool(true));
            let metrics = w
                .get("metrics")
                .and_then(Json::as_arr)
                .ok_or("workload without metrics")?
                .iter()
                .map(|m| {
                    Ok(ReadMetric {
                        name: m
                            .get("name")
                            .and_then(Json::as_str)
                            .ok_or("metric without a name")?
                            .to_string(),
                        value: m.get("value").and_then(Json::as_f64),
                        better: match m.get("better").and_then(Json::as_str) {
                            Some("higher") => Better::Higher,
                            Some("lower") => Better::Lower,
                            _ => return Err("metric without a direction".to_string()),
                        },
                        bound: m.get("bound").and_then(Json::as_f64),
                        exact: m.get("exact") == Some(&Json::Bool(true)),
                    })
                })
                .collect::<Result<Vec<_>, String>>()?;
            Ok(ReadWorkload {
                key: format!("{name}{}", if traced { " (traced)" } else { "" }),
                digest: w
                    .get("tokens_digest")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
                failed: w.get("failed").and_then(Json::as_f64).unwrap_or(0.0),
                metrics,
            })
        })
        .collect()
}

/// Outcome of comparing two full reports.
pub struct Comparison {
    /// The printed table.
    pub text: String,
    /// End-to-end metrics worse in `b` than in `a` by more than their
    /// bound, plus workloads that failed more operations.
    pub breaches: usize,
}

/// Compares report `b` (the change) against report `a` (the baseline):
/// per (workload, metric) the relative difference in the worsening
/// direction against the metric's bound; exact counts that differ are
/// marked.
pub fn compare(a_text: &str, b_text: &str) -> Result<Comparison, String> {
    let a = read_report(a_text)?;
    let b = read_report(b_text)?;
    let mut text = format!(
        "{:<26} {:<34} {:>14} {:>14} {:>9} {:>7}  verdict\n",
        "workload", "metric", "a", "b", "worse by", "bound"
    );
    let mut breaches = 0;
    let mut exact_differences = 0;
    for wa in &a {
        let Some(wb) = b.iter().find(|w| w.key == wa.key) else {
            let _ = writeln!(text, "{:<26} missing from the second report", wa.key);
            breaches += 1;
            continue;
        };
        if wa.digest != wb.digest {
            exact_differences += 1;
            let _ = writeln!(
                text,
                "{:<26} {:<34} {:>14} {:>14} {:>9} {:>7}  DIFFERS (exact)",
                wa.key, "tokens_digest", wa.digest, wb.digest, "", ""
            );
        }
        if wb.failed > wa.failed {
            breaches += 1;
            let _ = writeln!(
                text,
                "{:<26} {:<34} {:>14} {:>14} {:>9} {:>7}  BREACH",
                wa.key, "failed", wa.failed, wb.failed, "", "0%"
            );
        }
        for ma in &wa.metrics {
            let Some(mb) = wb.metrics.iter().find(|m| m.name == ma.name) else {
                let _ = writeln!(text, "{:<26} {:<34} missing", wa.key, ma.name);
                breaches += 1;
                continue;
            };
            let (Some(va), Some(vb)) = (ma.value, mb.value) else {
                let _ = writeln!(text, "{:<26} {:<34} not a number", wa.key, ma.name);
                continue;
            };
            // Positive when b is worse than a.
            let worse = if va == vb {
                0.0
            } else {
                let rel = (vb - va) / va.abs().max(f64::MIN_POSITIVE);
                match ma.better {
                    Better::Lower => rel,
                    Better::Higher => -rel,
                }
            };
            let differs = ma.exact && va != vb;
            let breach = ma.bound.is_some_and(|bound| worse > bound);
            exact_differences += differs as usize;
            breaches += breach as usize;
            let verdict = match (breach, differs) {
                (true, _) => "BREACH",
                (false, true) => "DIFFERS (exact)",
                (false, false) => "ok",
            };
            let _ = writeln!(
                text,
                "{:<26} {:<34} {:>14} {:>14} {:>8.2}% {:>7}  {verdict}",
                wa.key,
                ma.name,
                format_value(va),
                format_value(vb),
                worse * 100.0,
                ma.bound
                    .map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0)),
            );
        }
    }
    let _ = writeln!(
        text,
        "{breaches} breach(es), {exact_differences} exact count(s) differ"
    );
    Ok(Comparison { text, breaches })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(tps: f64, peak: f64) -> Report {
        let mut m = Metrics::new(&SERVING_END_TO_END);
        for def in &SERVING_END_TO_END {
            let value = match def.name {
                "output_tokens_per_s" => tps,
                "kv_peak_mib" => peak,
                _ => 1.5,
            };
            m.put(def.name, value, 10);
        }
        Report {
            commit: "abc\"def".into(),
            threads: 2,
            nproc: 2,
            simd_leg: "avx2".into(),
            cpu_features: "avx2,fma".into(),
            workloads: vec![WorkloadReport {
                workload: "decode_steady".into(),
                seed: u64::MAX,
                traced: false,
                passes: 2,
                attempted: 96,
                failed: 0,
                verified: 12,
                tokens_digest: 0xdead_beef_0123_4567,
                reference_slowdown: Some(1.25),
                metrics: m.finish(),
            }],
        }
    }

    #[test]
    fn report_round_trips_through_compare() {
        let a = sample(1000.0, 2.0).to_json();
        let same = compare(&a, &a).unwrap();
        assert_eq!(same.breaches, 0);
        assert!(same.text.contains("0 exact count(s) differ"));

        // 5% slower is inside the 25% bound; 30% slower is not.
        let inside = compare(&a, &sample(950.0, 2.0).to_json()).unwrap();
        assert_eq!(inside.breaches, 0);
        let outside = compare(&a, &sample(700.0, 2.0).to_json()).unwrap();
        assert_eq!(outside.breaches, 1);
        assert!(outside.text.contains("BREACH"));
        // Faster is never a breach.
        assert_eq!(
            compare(&a, &sample(2000.0, 2.0).to_json())
                .unwrap()
                .breaches,
            0
        );

        // An exact count that moves inside its bound is marked, not a breach.
        let moved = compare(&a, &sample(1000.0, 2.1).to_json()).unwrap();
        assert_eq!(moved.breaches, 0);
        assert!(moved.text.contains("DIFFERS (exact)"));
        assert!(moved.text.contains("1 exact count(s) differ"));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let report = sample(1000.0, 2.0);
        let line = report.workloads[0].result_line();
        assert!(!line.contains('\n'));
        let Json::Obj(members) = parse_json(&line).unwrap() else {
            panic!("result line is not an object");
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Some(Json::Obj(metrics)) = members.last().map(|(_, v)| v.clone()) else {
            panic!("metrics is not an object");
        };
        assert_eq!(metrics.len(), SERVING_END_TO_END.len());
        for (name, m) in &metrics {
            assert!(SERVING_END_TO_END.iter().any(|d| d.name == name));
            assert!(m.get("value").and_then(Json::as_f64).is_some());
            assert!(m.get("unit").and_then(Json::as_str).is_some());
        }
    }

    #[test]
    fn parser_handles_escapes_nesting_and_rejects_garbage() {
        let v = parse_json(r#" {"a": [1, -2.5e3, true, null, "x\"yA"], "b": {}} "#).unwrap();
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[4].as_str(),
            Some("x\"yA")
        );
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[1].as_f64(),
            Some(-2500.0)
        );
        assert_eq!(v.get("b"), Some(&Json::Obj(vec![])));
        assert!(parse_json("{\"a\": }").is_err());
        assert!(parse_json("[1, 2").is_err());
        assert!(parse_json("{} x").is_err());
    }

    #[test]
    fn metric_names_are_unique_and_fit_the_contract() {
        for table in [
            &SERVING_END_TO_END[..],
            &SERVING_PER_LAYER[..],
            &SEARCH_END_TO_END[..],
            &SEARCH_PER_LAYER[..],
        ] {
            for (i, d) in table.iter().enumerate() {
                assert!(table[..i].iter().all(|o| o.name != d.name), "{}", d.name);
                assert!(d.name.len() <= 64 && d.unit.len() <= 16);
                assert!(d
                    .name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
                assert!(d
                    .unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            }
        }
    }
}
