//! The `sweep` workload: the paper's Fig. 5 computation.
//!
//! All 15 metrics of `osn_metrics::all_metrics()` (Rescal included) are
//! scored over every transition of 12 constant-delta snapshots of the
//! facebook-, renren- and youtube-like presets at scale 0.2 over 60 days —
//! the settings of `BENCH_e2e_sweep.json`. The timed pass is
//! `SequenceEvaluator::evaluate_all`'s own loop (one incremental snapshot
//! sweep, one persistent `SolverCache::sweep()`, one
//! `evaluate_metrics_on_cached` call per transition) with a clock around
//! each transition; the traced run checks that it reproduces
//! `evaluate_all` outcome for outcome.

use crate::tracer::Tracer;
use crate::{gate, stats, Outcome, Run};
use linklens_core::framework::{unconnected_pair_count, PredictionOutcome, SequenceEvaluator};
use osn_graph::sequence::SnapshotSequence;
use osn_graph::snapshot::Snapshot;
use osn_graph::NodeId;
use osn_metrics::candidates::CandidateSet;
use osn_metrics::exec;
use osn_metrics::solver::SolverCache;
use osn_metrics::traits::{CandidatePolicy, Metric};
use osn_trace::presets::TraceConfig;
use osn_trace::GrowthTrace;
use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::time::Instant;

const SCALE: f64 = 0.2;
const DAYS: u32 = 60;
const SNAPSHOTS: usize = 12;
/// Transitions per round (three presets × 11): the guaranteed minimum
/// latency sample, which fixes the reported tail percentile.
const MIN_SAMPLES: usize = 3 * (SNAPSHOTS - 1);
/// Typical length of one round over the three presets on a 2-core host;
/// `--seconds` is divided by it to fix the number of rounds.
const ROUND_SECONDS: f64 = 10.0;

/// The three presets' traces, by name.
type Inputs = Vec<(String, GrowthTrace)>;

fn make_inputs(seed: u64) -> Inputs {
    TraceConfig::all()
        .into_iter()
        .map(|cfg| {
            let cfg = cfg.scaled(SCALE).with_days(DAYS);
            let trace = cfg.generate(seed);
            (cfg.name, trace)
        })
        .collect()
}

/// Set-up: generate the three traces and warm every lazily built table
/// and code path with one transition per preset (degree tables, fused
/// context, the first solve of each solver, the worker pool).
fn set_up(seed: u64, metrics: &[&dyn Metric]) -> Inputs {
    let inputs = make_inputs(seed);
    for (_, trace) in &inputs {
        let seq = SnapshotSequence::with_count(trace, SNAPSHOTS);
        let eval = SequenceEvaluator::new(&seq);
        black_box(eval.evaluate_metrics_at(metrics, 1, None));
    }
    inputs
}

pub fn run(run: &Run) -> Result<Outcome, String> {
    let owned = osn_metrics::all_metrics();
    let metrics: Vec<&dyn Metric> = owned.iter().map(|m| m.as_ref()).collect();

    let mut setup_secs = Vec::new();
    let mut inputs = None;
    for _ in 0..3 {
        let t0 = Instant::now();
        inputs = Some(set_up(run.seed, &metrics));
        setup_secs.push(t0.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("three set-ups ran");
    for (name, trace) in &inputs {
        eprintln!("sweep: {name}: {} nodes, {} edges", trace.node_count(), trace.edge_count());
    }

    for (name, trace) in &inputs {
        gate_oracles(name, trace, &metrics)?;
    }
    eprintln!("sweep: oracle gates passed on every preset");

    let mut out = Outcome::new(stats::median(&setup_secs));
    if run.trace {
        traced(&inputs, &metrics, &mut out)?;
        return Ok(out);
    }

    let rss_reset = crate::host::reset_peak_rss();
    let mut latencies_ms = Vec::new();
    let t0 = Instant::now();
    let rounds = crate::repetitions(run.seconds, ROUND_SECONDS);
    for _ in 0..rounds {
        for (_, trace) in &inputs {
            sweep_once(trace, &metrics, |ms| latencies_ms.push(ms));
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    out.attempted = latencies_ms.len() as u64;
    let lat = stats::summarize_at(&latencies_ms, stats::tail_percentile(MIN_SAMPLES));
    eprintln!(
        "sweep: {rounds} round(s), {} transitions in {wall:.3}s; transition p50 {:.3}ms \
         p{} {:.3}ms (n={}); VmHWM reset: {rss_reset}",
        latencies_ms.len(),
        lat.p50,
        lat.tail_pct,
        lat.tail,
        lat.count
    );
    out.e2e(latencies_ms.len() as f64 / wall, lat, crate::host::peak_rss_mb());
    Ok(out)
}

/// One untraced pass over a preset: exactly `evaluate_all`'s loop, with
/// each transition's wall time reported to `lap`.
fn sweep_once(
    trace: &GrowthTrace,
    metrics: &[&dyn Metric],
    mut lap: impl FnMut(f64),
) -> Vec<Vec<PredictionOutcome>> {
    let seq = SnapshotSequence::with_count(trace, SNAPSHOTS);
    let eval = SequenceEvaluator::new(&seq);
    let mut per_metric: Vec<Vec<PredictionOutcome>> = vec![Vec::new(); metrics.len()];
    let mut sweep = seq.snapshots();
    let mut cache = SolverCache::sweep();
    for t in 1..seq.len() {
        let t0 = Instant::now();
        let prev = sweep.next().expect("sweep yields len() snapshots");
        let outcomes = eval.evaluate_metrics_on_cached(metrics, prev, t, None, &mut cache);
        lap(t0.elapsed().as_secs_f64() * 1e3);
        for (mi, o) in outcomes.into_iter().enumerate() {
            per_metric[mi].push(o);
        }
    }
    per_metric
}

/// Untimed oracle gates on one transition of a preset, a third of the way
/// through (the middle one would double the gate time).
///
/// * Batched top-k (`predictions_many`) equals the per-pair top-k oracle
///   for all 15 metrics.
/// * Batched scores equal the per-source oracles bit for bit for SP, LP
///   and Katz-sc. Katz-lr has no per-source oracle (each Lanczos step is
///   already one global product); its top-k is covered by the first check.
/// * LRW stays within 1e-12 of its per-source oracle (same exact walk,
///   different summation order). PPR stays within the forward-push bound
///   `ε·(d_u + d_v) + 2·tol/α` of its per-source oracle, and a warm
///   sweep-cache solve stays within `4·tol/α` of a cold one.
fn gate_oracles(name: &str, trace: &GrowthTrace, metrics: &[&dyn Metric]) -> Result<(), String> {
    let threads = osn_graph::par::max_threads();
    let seq = SnapshotSequence::with_count(trace, SNAPSHOTS);
    let eval = SequenceEvaluator::new(&seq);
    let t = seq.len() / 3;
    let prev = seq.snapshot(t - 1);
    let (batched, truth) = eval.predictions_many(metrics, t, None);
    for (i, &m) in metrics.iter().enumerate() {
        let cands = eval.candidates_for_posthoc(&prev, &[m], None);
        let oracle =
            exec::predict_top_k_per_pair_t(m, &prev, &cands, truth.len(), eval.seed, threads);
        gate!(batched[i] == oracle, "{name} t={t}: {} batched top-k != per-pair oracle", m.name());
    }

    let cands3 = CandidateSet::build(&prev, CandidatePolicy::ThreeHop, eval.top_degree_candidates);
    let pairs = cands3.pairs();
    let sp = osn_metrics::path::ShortestPath::default();
    let lp = osn_metrics::path::LocalPath::default();
    let katz_sc = osn_metrics::katz::KatzSc::default();
    let lrw = osn_metrics::walk::LocalRandomWalk::default();
    let ppr = osn_metrics::walk::PersonalizedPageRank::default();
    let exact: [(&str, &dyn Metric, Vec<f64>); 3] = [
        ("SP", &sp, sp.score_pairs_per_source(&prev, pairs)),
        ("LP", &lp, lp.score_pairs_per_source(&prev, pairs)),
        ("Katz-sc", &katz_sc, katz_sc.prepare_per_source(&prev).score_chunk(&prev, pairs)),
    ];
    for (mname, m, oracle) in exact {
        let got = exec::score_pairs_t(m, &prev, pairs, threads);
        gate!(got == oracle, "{name} t={t}: {mname} scores != per-source oracle");
    }
    let lrw_got = exec::score_pairs_t(&lrw, &prev, pairs, threads);
    let lrw_ref = lrw.score_pairs_per_source_t(&prev, pairs, threads);
    within(name, "LRW", pairs, &lrw_got, &lrw_ref, |_| 1e-12)?;
    let ppr_got = exec::score_pairs_t(&ppr, &prev, pairs, threads);
    let ppr_ref = ppr.score_pairs_per_source_t(&prev, pairs, threads);
    let push_bound = |(u, v): (NodeId, NodeId)| {
        ppr.epsilon * (prev.degree(u) + prev.degree(v)) as f64 + 2.0 * ppr.solver_tol() / ppr.alpha
    };
    within(name, "PPR", pairs, &ppr_got, &ppr_ref, push_bound)?;
    let mut warm_cache = SolverCache::sweep();
    let before = seq.snapshot(t - 2);
    let before_pairs = CandidateSet::build(&before, CandidatePolicy::ThreeHop, 0);
    black_box(exec::score_pairs_cached_t(
        &ppr,
        &before,
        before_pairs.pairs(),
        threads,
        &mut warm_cache,
    ));
    let warm = exec::score_pairs_cached_t(&ppr, &prev, pairs, threads, &mut warm_cache);
    let warm_bound = 4.0 * ppr.solver_tol() / ppr.alpha;
    within(name, "PPR warm vs cold", pairs, &warm, &ppr_got, |_| warm_bound)
}

fn within(
    preset: &str,
    what: &str,
    pairs: &[(NodeId, NodeId)],
    got: &[f64],
    oracle: &[f64],
    bound: impl Fn((NodeId, NodeId)) -> f64,
) -> Result<(), String> {
    gate!(got.len() == oracle.len(), "{preset}: {what}: length mismatch");
    for ((&p, &a), &b) in pairs.iter().zip(got).zip(oracle) {
        let dev = (a - b).abs();
        gate!(dev <= bound(p), "{preset}: {what}: pair {p:?} deviates {dev:e} > {:e}", bound(p));
    }
    Ok(())
}

/// Span name of the layer that scores metric `m` in the traced pass.
fn scoring_span(m: &dyn Metric) -> &'static str {
    if m.fused_kind().is_some() {
        return "fused.score";
    }
    match m.name() {
        "PPR" => "solver.ppr",
        "LRW" => "solver.lrw",
        "SP" => "solver.sp",
        "LP" => "solver.lp",
        "Katz-lr" => "solver.katz_lr",
        "Katz-sc" => "solver.katz_sc",
        "Rescal" => "factor.rescal",
        other => panic!("metric {other} has no layer span assigned"),
    }
}

/// The traced pass: `evaluate_all`'s work decomposed into calls on each
/// layer's public functions, one span per call.
///
/// Per transition: `graph.advance` (the incremental snapshot sweep),
/// `framework.truth` (ground truth, random baseline and hit counting),
/// `candidates.enumerate` (the shared distance-≤3 base plus each policy
/// group's set, as `evaluate_all` builds them), then scoring through
/// `exec::predict_top_k_many_cached_t` on the shared sweep cache — one call
/// for each group's fused metrics (`fused.score`) and one per solver or
/// factorization metric (`solver.*`, `factor.rescal`).
fn traced_preset(
    tr: &mut Tracer,
    trace: &GrowthTrace,
    metrics: &[&dyn Metric],
    cache: &mut SolverCache,
    first_run: u64,
) -> Vec<Vec<PredictionOutcome>> {
    let threads = osn_graph::par::max_threads();
    let seq = SnapshotSequence::with_count(trace, SNAPSHOTS);
    let eval = SequenceEvaluator::new(&seq);
    let mut per_metric: Vec<Vec<PredictionOutcome>> = vec![Vec::new(); metrics.len()];
    let mut sweep = seq.snapshots();
    let has = |p: CandidatePolicy| metrics.iter().any(|m| m.candidate_policy() == p);
    for t in 1..seq.len() {
        tr.set_run(first_run + t as u64);
        let id = tr.begin("graph.advance");
        let prev: &Snapshot = sweep.next().expect("sweep yields len() snapshots");
        tr.end(id);
        let truth_id = tr.begin("framework.truth");
        let truth: HashSet<(NodeId, NodeId)> = eval.ground_truth(t);
        let k = truth.len();
        let u = unconnected_pair_count(prev);
        tr.end(truth_id);

        let mut predictions: Vec<Vec<(NodeId, NodeId)>> = vec![Vec::new(); metrics.len()];
        let mut base3 = if has(CandidatePolicy::ThreeHop) && has(CandidatePolicy::Global) {
            Some(tr.span("candidates.enumerate", || CandidateSet::within3_base(prev, None)))
        } else {
            None
        };
        for (policy, count) in [
            (CandidatePolicy::TwoHop, "candidates.pairs.two_hop"),
            (CandidatePolicy::ThreeHop, "candidates.pairs.three_hop"),
            (CandidatePolicy::Global, "candidates.pairs.global"),
        ] {
            let group: Vec<usize> =
                (0..metrics.len()).filter(|&i| metrics[i].candidate_policy() == policy).collect();
            if group.is_empty() {
                continue;
            }
            let top = eval.top_degree_candidates;
            let cands = tr.span("candidates.enumerate", || {
                match policy {
                    CandidatePolicy::TwoHop => CandidateSet::build_pruned(prev, policy, top, None),
                    CandidatePolicy::ThreeHop => match &base3 {
                        Some(base) => CandidateSet::three_hop_from_base(base.clone()),
                        None => CandidateSet::build_pruned(prev, policy, top, None),
                    },
                    CandidatePolicy::Global => {
                        let base =
                            base3.take().unwrap_or_else(|| CandidateSet::within3_base(prev, None));
                        CandidateSet::global_from_base(prev, base, top, None)
                    }
                }
                .capped(eval.max_candidate_pairs)
            });
            tr.count(count, cands.len() as f64);
            let fused: Vec<usize> =
                group.iter().copied().filter(|&i| metrics[i].fused_kind().is_some()).collect();
            let mut calls: Vec<Vec<usize>> = Vec::new();
            if !fused.is_empty() {
                calls.push(fused);
            }
            calls.extend(
                group.iter().filter(|&&i| metrics[i].fused_kind().is_none()).map(|&i| vec![i]),
            );
            for idx in calls {
                let ms: Vec<&dyn Metric> = idx.iter().map(|&i| metrics[i]).collect();
                let preds = tr.span(scoring_span(ms[0]), || {
                    exec::predict_top_k_many_cached_t(
                        &ms, prev, &cands, k, eval.seed, threads, cache,
                    )
                });
                for (&i, p) in idx.iter().zip(preds) {
                    predictions[i] = p;
                }
            }
        }

        let id = tr.begin("framework.truth");
        for (mi, (m, predicted)) in metrics.iter().zip(predictions).enumerate() {
            let correct = predicted.iter().filter(|p| truth.contains(p)).count();
            per_metric[mi].push(outcome(m.name(), t, prev.edge_count(), k, correct, u));
        }
        tr.end(id);
    }
    tr.set_run(0);
    per_metric
}

/// `PredictionOutcome` exactly as the framework computes it.
fn outcome(
    metric: &str,
    t: usize,
    observed_edges: usize,
    k: usize,
    correct: usize,
    u: f64,
) -> PredictionOutcome {
    let random_expected = if u > 0.0 { (k as f64) * (k as f64) / u } else { f64::NAN };
    PredictionOutcome {
        metric: metric.to_string(),
        snapshot_index: t,
        observed_edges,
        k,
        correct,
        absolute_accuracy: if k == 0 { 0.0 } else { correct as f64 / k as f64 },
        random_expected,
        accuracy_ratio: if random_expected > 0.0 {
            correct as f64 / random_expected
        } else {
            f64::NAN
        },
    }
}

fn same_outcomes(a: &[Vec<PredictionOutcome>], b: &[Vec<PredictionOutcome>]) -> bool {
    let key = |o: &PredictionOutcome| {
        (
            o.metric.clone(),
            o.snapshot_index,
            o.observed_edges,
            o.k,
            o.correct,
            o.absolute_accuracy.to_bits(),
            o.random_expected.to_bits(),
            o.accuracy_ratio.to_bits(),
        )
    };
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.len() == y.len() && x.iter().zip(y).all(|(p, q)| key(p) == key(q)))
}

/// Traced run: one traced round, one untraced round for the overhead, and
/// the gate that both reproduce `evaluate_all`.
fn traced(inputs: &Inputs, metrics: &[&dyn Metric], out: &mut Outcome) -> Result<(), String> {
    let mut tr = Tracer::default();
    let mut caches: Vec<SolverCache> = Vec::new();
    let mut traced_outcomes = Vec::new();
    let root = tr.begin("sweep");
    for (p, (_, trace)) in inputs.iter().enumerate() {
        let mut cache = SolverCache::sweep();
        let first_run = (p * SNAPSHOTS) as u64;
        traced_outcomes.push(traced_preset(&mut tr, trace, metrics, &mut cache, first_run));
        caches.push(cache);
    }
    tr.end(root);
    let traced_s = tr.spans()[root].secs();

    let t0 = Instant::now();
    let untraced_outcomes: Vec<_> =
        inputs.iter().map(|(_, trace)| sweep_once(trace, metrics, |_| {})).collect();
    let untraced_s = t0.elapsed().as_secs_f64();

    for (i, (name, trace)) in inputs.iter().enumerate() {
        let seq = SnapshotSequence::with_count(trace, SNAPSHOTS);
        let reference = SequenceEvaluator::new(&seq).evaluate_all(metrics, None);
        gate!(
            same_outcomes(&traced_outcomes[i], &reference),
            "{name}: traced sweep outcomes differ from evaluate_all"
        );
        gate!(
            same_outcomes(&untraced_outcomes[i], &reference),
            "{name}: timed sweep loop outcomes differ from evaluate_all"
        );
    }
    eprintln!("sweep: traced and timed passes reproduce evaluate_all on every preset");

    for cache in &caches {
        let s = &cache.stats;
        tr.count("solver.ppr_sources", s.ppr_sources as f64);
        tr.count("solver.ppr_iterations", s.ppr_iterations as f64);
        tr.count("solver.ppr_warm_starts", s.ppr_warm_starts as f64);
        tr.count("factor.rescal_fits", s.rescal_fits as f64);
        tr.count("factor.rescal_iterations", s.rescal_iterations as f64);
    }
    let own = tr.self_by_name();
    let mut layer = BTreeMap::new();
    for name in [
        "graph.advance",
        "framework.truth",
        "candidates.enumerate",
        "fused.score",
        "solver.ppr",
        "solver.lrw",
        "solver.sp",
        "solver.lp",
        "solver.katz_lr",
        "solver.katz_sc",
        "factor.rescal",
    ] {
        layer.insert(format!("{name}_s"), own.get(name).copied().unwrap_or(0.0));
    }
    for (k, v) in tr.counts() {
        layer.insert(k.to_string(), *v);
    }
    out.traced(layer, &tr, traced_s, untraced_s)
}
