//! The LinkLens benchmark.
//!
//! ```text
//! linkbench --workload <sweep|serve|trace-pipeline> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload generates its inputs from `--seed`, runs its correctness
//! gates untimed, then measures. With `--trace 0` the last line of standard
//! output is one JSON object carrying every end-to-end metric; with
//! `--trace 1` a separate traced pass records spans around the calls into
//! each layer and the object carries every per-layer metric instead
//! (layers a workload does not exercise read 0). Progress, host facts and
//! sample counts go to standard error; the full run record (spans
//! included) is written under `.linkbench-out/` in the working directory.
//! A run whose outputs fail a gate prints `"correct": false` with no
//! metrics and exits with status 1.
//!
//! See `linkbench/README.md` for what each metric means on each workload.

mod host;
mod pipeline;
mod serve;
mod stats;
mod sweep;
mod tracer;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use tracer::Tracer;

/// Fails the enclosing gate with a formatted message.
#[macro_export]
macro_rules! gate {
    ($cond:expr, $($msg:tt)+) => {
        let held: bool = $cond;
        if !held {
            return Err(format!($($msg)+));
        }
    };
}

/// End-to-end metrics, reported by every workload (untraced run).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every traced run; a layer the workload
/// does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 51] = [
    // sweep
    ("graph.advance_s", "s"),
    ("framework.truth_s", "s"),
    ("candidates.enumerate_s", "s"),
    ("candidates.pairs.two_hop", "count"),
    ("candidates.pairs.three_hop", "count"),
    ("candidates.pairs.global", "count"),
    ("fused.score_s", "s"),
    ("solver.ppr_s", "s"),
    ("solver.lrw_s", "s"),
    ("solver.sp_s", "s"),
    ("solver.lp_s", "s"),
    ("solver.katz_lr_s", "s"),
    ("solver.katz_sc_s", "s"),
    ("factor.rescal_s", "s"),
    ("solver.ppr_sources", "count"),
    ("solver.ppr_iterations", "count"),
    ("solver.ppr_warm_starts", "count"),
    ("factor.rescal_fits", "count"),
    ("factor.rescal_iterations", "count"),
    // serve
    ("serve.cache_hit_rate", "ratio"),
    ("serve.queue_wait_ms.p50", "ms"),
    ("serve.queue_wait_ms.tail", "ms"),
    ("serve.service_ms.local.p50", "ms"),
    ("serve.service_ms.local.tail", "ms"),
    ("serve.service_ms.global.p50", "ms"),
    ("serve.service_ms.global.tail", "ms"),
    ("query.enumerate_ms", "ms"),
    ("query.score_ms.local", "ms"),
    ("query.score_ms.global", "ms"),
    ("query.topk_ms", "ms"),
    ("query.targets", "count"),
    ("solver.ppr_sources_per_query", "count"),
    ("serve.accepted", "count"),
    ("serve.rejected", "count"),
    ("serve.queue_depth_max", "count"),
    ("serve.slo_attainment", "ratio"),
    ("serve.overload_goodput_qps", "1/s"),
    ("serve.nominal_goodput_qps", "1/s"),
    ("serve.publish_ms.p50", "ms"),
    ("graph.publish_merge_ms", "ms"),
    ("serve.generator_late_ms.tail", "ms"),
    // trace-pipeline
    ("trace.generate_s", "s"),
    ("io.write_s", "s"),
    ("io.bytes_written", "bytes"),
    ("io.read_s", "s"),
    ("io.sections_read", "count"),
    ("graph.stream_advance_s", "s"),
    // every traced run
    ("trace.total_s", "s"),
    ("trace.untraced_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.residual_frac", "ratio"),
];

/// Largest share of a traced pass its layers may leave unattributed; a
/// traced run above it fails, since its per-layer numbers would not
/// account for the end-to-end time.
pub const MAX_RESIDUAL_FRAC: f64 = 0.05;

/// Parsed command line.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload measured.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
    /// Extra lines for the run record.
    pub notes: Vec<String>,
    pub spans_json: Option<String>,
}

impl Outcome {
    pub fn new(setup_s: f64) -> Self {
        let mut metrics = BTreeMap::new();
        metrics.insert("setup_s".to_string(), setup_s);
        Outcome { attempted: 0, failed: 0, metrics, notes: Vec::new(), spans_json: None }
    }

    /// Records the untraced end-to-end figures.
    pub fn e2e(&mut self, throughput: f64, latency: stats::Summary, peak_rss: Option<f64>) {
        self.metrics.insert("throughput_per_s".into(), throughput);
        self.metrics.insert("latency_p50_ms".into(), latency.p50);
        self.metrics.insert("latency_tail_ms".into(), latency.tail);
        self.metrics.insert("peak_rss_mb".into(), peak_rss.unwrap_or(f64::NAN));
        self.notes.push(format!(
            "latency: n={} p50={} p{}={}",
            latency.count, latency.p50, latency.tail_pct, latency.tail
        ));
    }

    /// Records a traced pass: the per-layer figures, the spans, and the
    /// tracing overhead — `traced_s` against `untraced_s`, the same work
    /// timed with and without spans.
    pub fn traced(
        &mut self,
        layer: BTreeMap<String, f64>,
        tr: &Tracer,
        traced_s: f64,
        untraced_s: f64,
    ) -> Result<(), String> {
        self.metrics = layer;
        self.metrics.insert("trace.total_s".into(), traced_s);
        self.metrics.insert("trace.untraced_s".into(), untraced_s);
        self.metrics.insert("trace.overhead_frac".into(), (traced_s - untraced_s) / untraced_s);
        let residual = tr.residual_frac();
        self.metrics.insert("trace.residual_frac".into(), residual);
        self.spans_json = Some(tr.to_json());
        gate!(
            residual <= MAX_RESIDUAL_FRAC,
            "layer spans leave {:.1}% of the traced pass unattributed (limit {:.0}%)",
            residual * 100.0,
            MAX_RESIDUAL_FRAC * 100.0
        );
        Ok(())
    }
}

/// Repetitions of a workload's unit of work that fill about `seconds`,
/// given the unit's typical length on the reference host (at least one).
/// A function of the arguments only, never of measured time, so a faster
/// or slower commit measures exactly the same work.
pub fn repetitions(seconds: f64, unit_seconds: f64) -> usize {
    ((seconds / unit_seconds).round() as usize).max(1)
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "linkbench: {msg}\nusage: linkbench --workload <sweep|serve|trace-pipeline> --seed <n> \
         --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

fn parse_args() -> Run {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut run = Run { workload: String::new(), seed: 0, seconds: 10.0, trace: false };
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).unwrap_or_else(|| usage("missing value"));
        match args[i].as_str() {
            "--workload" => run.workload = value.clone(),
            "--seed" => run.seed = value.parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                run.seconds = value.parse().unwrap_or_else(|_| usage("bad --seconds"));
                if !run.seconds.is_finite() || run.seconds <= 0.0 {
                    usage("--seconds must be positive");
                }
            }
            "--trace" => {
                run.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            other => usage(&format!("unknown argument {other}")),
        }
        i += 2;
    }
    run
}

/// JSON number: shortest round-trip decimal of a finite value.
fn num(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) || s.contains("inf") || s.contains("NaN") {
        s
    } else {
        format!("{s}.0")
    }
}

fn result_line(correct: bool, out: &Outcome, trace: bool) -> String {
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.attempted.max(1),
        out.failed
    );
    if correct {
        let catalog: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        for (i, (name, unit)) in catalog.iter().enumerate() {
            let v = out.metrics.get(*name).copied().unwrap_or(0.0);
            if i > 0 {
                line.push_str(", ");
            }
            let _ = write!(line, "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", num(v));
        }
    }
    line.push_str("}}");
    line
}

/// Writes the run record: host facts, notes, every metric and the spans.
fn write_record(run: &Run, out: &Outcome, correct: bool) {
    let dir = std::path::Path::new(".linkbench-out");
    let path =
        dir.join(format!("{}-seed{}-trace{}.json", run.workload, run.seed, u8::from(run.trace)));
    let mut doc = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"correct\":{correct},\
         \"host\":\"{}\",\"notes\":[",
        run.workload,
        run.seed,
        run.seconds,
        run.trace,
        host::describe()
    );
    for (i, n) in out.notes.iter().enumerate() {
        if i > 0 {
            doc.push(',');
        }
        let _ = write!(doc, "\n\"{}\"", n.replace('\\', "\\\\").replace('"', "\\\""));
    }
    doc.push_str("\n],\"metrics\":{");
    for (i, (k, v)) in out.metrics.iter().enumerate() {
        if i > 0 {
            doc.push(',');
        }
        let v = if v.is_finite() { num(*v) } else { "null".into() };
        let _ = write!(doc, "\n\"{k}\":{v}");
    }
    doc.push_str("\n},\"trace\":");
    doc.push_str(out.spans_json.as_deref().unwrap_or("null"));
    doc.push_str("}\n");
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, doc)) {
        eprintln!("linkbench: could not write {}: {e}", path.display());
    }
}

fn main() {
    let run = parse_args();
    let threads = host::effective_cores();
    osn_graph::par::set_thread_override(Some(threads));
    eprintln!(
        "linkbench: workload={} seed={} seconds={} trace={} threads={threads}",
        run.workload,
        run.seed,
        run.seconds,
        u8::from(run.trace)
    );
    eprintln!("{}", host::describe());
    let result = match run.workload.as_str() {
        "sweep" => sweep::run(&run),
        "serve" => serve::run(&run),
        "trace-pipeline" => pipeline::run(&run),
        other => usage(&format!("unknown workload {other:?}")),
    };
    eprintln!("{} (at end)", host::describe());
    match result {
        Ok(mut out) => {
            let catalog: &[(&str, &str)] = if run.trace { &PER_LAYER } else { &END_TO_END };
            let bad: Vec<&str> = catalog
                .iter()
                .map(|(n, _)| *n)
                .filter(|n| match out.metrics.get(*n) {
                    Some(v) => !v.is_finite(),
                    // A traced run reports 0 for layers it does not exercise.
                    None => !run.trace,
                })
                .collect();
            if !bad.is_empty() {
                out.notes.push(format!("missing or non-finite metrics: {bad:?}"));
                write_record(&run, &out, false);
                eprintln!("linkbench: missing or non-finite metrics {bad:?}");
                println!("{}", result_line(false, &out, run.trace));
                std::process::exit(1);
            }
            write_record(&run, &out, true);
            println!("{}", result_line(true, &out, run.trace));
        }
        Err(msg) => {
            eprintln!("linkbench: correctness gate failed: {msg}");
            let mut out = Outcome::new(0.0);
            out.attempted = 1;
            out.failed = 1;
            out.notes.push(format!("gate failed: {msg}"));
            write_record(&run, &out, false);
            println!("{}", result_line(false, &out, run.trace));
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json at the repository root must declare exactly the
    /// metrics this binary prints, with the same units.
    #[test]
    fn catalog_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("BENCHMARK.json readable");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = doc.find(&format!("\"{key}\"")).expect("section present");
            let body = &doc[start..];
            let end = body.find(']').expect("section closes");
            body[..end]
                .split('{')
                .skip(1)
                .map(|entry| {
                    let field = |f: &str| {
                        let at = entry.find(&format!("\"{f}\"")).expect("field present");
                        let rest = &entry[at + f.len() + 2..];
                        let open = rest.find('"').expect("value opens") + 1;
                        let close = rest[open..].find('"').expect("value closes") + open;
                        rest[open..close].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let want = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(section("end_to_end"), want(&END_TO_END));
        assert_eq!(section("per_layer"), want(&PER_LAYER));
    }

    #[test]
    fn result_line_lists_every_catalog_metric_once() {
        let mut out = Outcome::new(1.5);
        out.e2e(2.0, stats::summarize(&[1.0, 2.0, 3.0]), Some(10.0));
        let line = result_line(true, &out, false);
        for (name, unit) in END_TO_END {
            assert_eq!(line.matches(&format!("\"{name}\"")).count(), 1, "{line}");
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
        }
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert_eq!(num(3.0), "3.0");
        assert_eq!(num(0.125), "0.125");
    }
}
