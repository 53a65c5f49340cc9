//! The pair-parallel scoring engine.
//!
//! Every scoring surface in LinkLens — single-metric prediction, the
//! evaluation framework's policy groups, the classification pipeline's
//! feature matrix — funnels through this module instead of spawning one
//! thread per metric. The engine splits a shared candidate list into
//! cache-sized, *source-aligned* chunks and schedules (metric × chunk)
//! work items over a fixed worker pool ([`osn_graph::par`]).
//!
//! Three design points keep results bit-identical to serial execution:
//!
//! 1. **Per-snapshot preparation** is hoisted out of the chunk loop:
//!    [`Metric::prepare`] runs once (factorizations, landmark solves,
//!    eigendecompositions) and returns a [`PairScorer`] that each chunk
//!    calls read-only. Scores depend only on (snapshot, pair), never on
//!    chunk shape.
//! 2. **Source-aligned chunking** cuts only where `pairs[i].0` changes, so
//!    group-by-source metrics (SP, LP) still share one BFS/scatter pass
//!    per source inside a chunk.
//! 3. **Fused streaming top-k**: each chunk feeds its scores straight into
//!    a [`TopKAcc`] keyed by *global* pair index; per-chunk heaps merge
//!    into exactly the serial selection (see [`crate::topk`]) without ever
//!    materializing the full score vector.
//!
//! Metrics whose batch algorithm is itself parallel (the walk metrics'
//! per-source passes) opt out of chunking via [`ExecMode::WholeBatch`] and
//! receive the worker budget through [`Metric::score_pairs_cached`].
//!
//! Every public entry point is a thin call into one private core, so the
//! single-metric, multi-metric, cached, targeted and per-pair reference
//! paths share one scheduler and cannot drift apart.

use crate::candidates::CandidateSet;
use crate::fused::{self, FusedScratch};
use crate::solver::SolverCache;
use crate::topk::TopKAcc;
use crate::traits::{Metric, ScoreContract};
use osn_graph::par;
use osn_graph::snapshot::Snapshot;
use osn_graph::NodeId;
use std::ops::Range;

/// Checks a scored slice against a metric's [`ScoreContract`], panicking
/// with the metric name, global pair index, and offending value on the
/// first violation. No-op unless [`osn_graph::audit::audit_enabled`] —
/// debug builds always audit; release builds audit under `--paranoid`.
///
/// `base` is the slice's offset into the full candidate list, so the
/// reported index is global even when a chunk tripped the check.
pub fn audit_scores(name: &str, contract: ScoreContract, scores: &[f64], base: usize) {
    if !osn_graph::audit::audit_enabled() {
        return;
    }
    for (i, &s) in scores.iter().enumerate() {
        if !s.is_finite() {
            panic!("metric {name} produced non-finite score {s} at pair index {}", base + i);
        }
        if contract == ScoreContract::FiniteNonNegative && s < 0.0 {
            panic!(
                "metric {name} violates its non-negative contract: score {s} at pair index {}",
                base + i
            );
        }
    }
}

/// How the engine executes one metric over a pair batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// Split the pair list into source-aligned chunks scored in parallel
    /// through the metric's prepared [`PairScorer`] (the default).
    Chunked,
    /// Hand the metric the whole batch plus a worker budget; the metric
    /// parallelizes internally (walk metrics: per-source, with per-worker
    /// scratch reuse).
    WholeBatch,
}

/// A read-only scorer produced by [`Metric::prepare`] for one snapshot.
///
/// `score_chunk` must be a pure function of `(snapshot, pairs)` — chunk
/// boundaries must not influence any score, or thread counts would change
/// predictions.
pub trait PairScorer: Send + Sync {
    /// Scores one contiguous slice of the candidate list.
    fn score_chunk(&self, snap: &Snapshot, pairs: &[(NodeId, NodeId)]) -> Vec<f64>;
}

/// The default [`PairScorer`]: delegates every chunk to
/// [`Metric::score_pairs`]. Correct for any metric whose batch scoring has
/// no cross-pair state (all the local, Bayes, path, and time-aware
/// metrics).
pub struct ScoreAll<'m, M: ?Sized>(pub &'m M);

impl<M: Metric + ?Sized> PairScorer for ScoreAll<'_, M> {
    fn score_chunk(&self, snap: &Snapshot, pairs: &[(NodeId, NodeId)]) -> Vec<f64> {
        self.0.score_pairs(snap, pairs)
    }
}

/// Smallest chunk the engine bothers splitting off: below this, scheduling
/// overhead beats cache friendliness.
pub const MIN_CHUNK_PAIRS: usize = 1024;

/// Cuts `pairs` into contiguous ranges of roughly `len / (threads × 4)`
/// pairs (never below [`MIN_CHUNK_PAIRS`]), splitting only where the
/// source endpoint changes so group-by-source metrics keep their per-source
/// sharing. Candidate lists are sorted canonically, so equal sources are
/// always adjacent.
pub fn source_aligned_chunks(pairs: &[(NodeId, NodeId)], threads: usize) -> Vec<Range<usize>> {
    let len = pairs.len();
    if len == 0 {
        return Vec::new();
    }
    let target = (len / (threads.max(1) * 4).max(1)).max(MIN_CHUNK_PAIRS);
    let mut out = Vec::new();
    let mut start = 0;
    for i in 1..len {
        if i - start >= target && pairs[i].0 != pairs[i - 1].0 {
            out.push(start..i);
            start = i;
        }
    }
    out.push(start..len);
    out
}

/// Scores `pairs` with the engine: metrics advertising a
/// [`Metric::fused_kind`] go through the source-batched fused kernel
/// ([`crate::fused`], one witness walk per source); everything else is
/// prepared once and chunked across `threads` workers (or delegated whole
/// with the worker budget for [`ExecMode::WholeBatch`] metrics). Every
/// path is bit-identical to every other for every `threads` value.
pub fn score_pairs_t<M: Metric + ?Sized>(
    m: &M,
    snap: &Snapshot,
    pairs: &[(NodeId, NodeId)],
    threads: usize,
) -> Vec<f64> {
    score_pairs_cached_t(m, snap, pairs, threads, &mut SolverCache::transient())
}

/// [`score_pairs_t`] with a caller-owned [`SolverCache`]: the walk metrics
/// route their solves through it (sharing the snapshot's transition view
/// and, on persistent caches, PPR warm-start vectors), and Katz prepares
/// reuse its adjacency CSR. The engine points the cache at `snap` before
/// any non-fused metric reads it.
pub fn score_pairs_cached_t<M: Metric + ?Sized>(
    m: &M,
    snap: &Snapshot,
    pairs: &[(NodeId, NodeId)],
    threads: usize,
    cache: &mut SolverCache,
) -> Vec<f64> {
    columns(&[m], snap, pairs, threads, cache, true).swap_remove(0)
}

/// The serving-side targeted scoring path: scores one metric over a
/// (typically small, single-source) pair list with **caller-owned**
/// kernel state, so a long-lived query worker pays the per-snapshot
/// setup once per published version instead of once per query.
///
/// * Fused metrics score through [`fused::score_columns`] on the caller's
///   [`FusedCtx`](fused::FusedCtx)/[`FusedScratch`] — build the context
///   once per snapshot (e.g. with [`LocalKind::ALL`](fused::LocalKind::ALL))
///   and reuse it across queries; a single kind requested out of a wider
///   context is bit-identical to the batch engine's per-kind context.
///   This path never touches `cache`.
/// * Everything else goes through the engine at one worker (per-source
///   query batches are far below the engine's chunking threshold),
///   sharing the caller's [`SolverCache`] transition view and per-source
///   solve vectors across queries at the same version.
///
/// Bit-identical to [`score_pairs_cached_t`] with `threads = 1` on a
/// fresh cache — the contract the serving parity asserts rely on.
///
/// # Panics
/// Debug builds panic when `ctx` was built on a different snapshot than
/// `snap` (a stale context from a previous published version).
pub fn score_pairs_targeted<M: Metric + ?Sized>(
    m: &M,
    snap: &Snapshot,
    ctx: &fused::FusedCtx<'_>,
    scratch: &mut FusedScratch,
    pairs: &[(NodeId, NodeId)],
    cache: &mut SolverCache,
) -> Vec<f64> {
    debug_assert!(
        std::ptr::eq(ctx.snapshot(), snap),
        "targeted scoring with a kernel context from a different snapshot"
    );
    let Some(kind) = m.fused_kind() else {
        return columns(&[m], snap, pairs, 1, cache, true).swap_remove(0);
    };
    let scores = fused::score_columns(ctx, scratch, pairs, &[kind]).pop().unwrap_or_default();
    audit_scores(m.name(), m.score_contract(), &scores, 0);
    scores
}

/// Engine-backed top-k prediction with an explicit worker count: each
/// chunk streams its scores into a per-chunk [`TopKAcc`] (global
/// indices) and the accumulators merge; whole-batch metrics score once
/// and select over the full vector. The returned pairs — including
/// tie-break ordering — are identical for every `threads` value and to
/// [`crate::topk::top_k_pairs`] over the metric's own scores.
pub fn predict_top_k_t<M: Metric + ?Sized>(
    m: &M,
    snap: &Snapshot,
    cands: &CandidateSet,
    k: usize,
    seed: u64,
    threads: usize,
) -> Vec<(NodeId, NodeId)> {
    top_k(&[m], snap, cands, k, seed, threads, &mut SolverCache::transient(), true).swap_remove(0)
}

/// The pre-fusion top-k path (chunked through [`Metric::score_pairs`],
/// ignoring [`Metric::fused_kind`]) — the equivalence baseline for the
/// fused kernel's tests and benchmarks.
pub fn predict_top_k_per_pair_t<M: Metric + ?Sized>(
    m: &M,
    snap: &Snapshot,
    cands: &CandidateSet,
    k: usize,
    seed: u64,
    threads: usize,
) -> Vec<(NodeId, NodeId)> {
    top_k(&[m], snap, cands, k, seed, threads, &mut SolverCache::transient(), false).swap_remove(0)
}

/// Top-k predictions for several metrics over one shared candidate set,
/// with a caller-owned [`SolverCache`]. The snapshot sweep passes a
/// persistent cache so consecutive snapshots share warm-start vectors;
/// every global metric in the group reads one shared transition view per
/// snapshot, and each distinct source endpoint's solve vector is computed
/// once per (metric, snapshot) via the solver's source plan.
///
/// Metrics advertising a [`Metric::fused_kind`] are scored together by the
/// source-batched kernel — one witness walk per source produces every
/// fused column at once, with one shared kernel context. All remaining
/// chunked metrics are prepared in parallel, then their (metric × chunk)
/// items are scheduled over one `threads`-wide pool; whole-batch metrics
/// run afterwards, each using the full worker budget internally. Results
/// are in input metric order and bit-identical to `threads = 1`.
#[allow(clippy::too_many_arguments)]
pub fn predict_top_k_many_cached_t(
    metrics: &[&dyn Metric],
    snap: &Snapshot,
    cands: &CandidateSet,
    k: usize,
    seed: u64,
    threads: usize,
    cache: &mut SolverCache,
) -> Vec<Vec<(NodeId, NodeId)>> {
    top_k(metrics, snap, cands, k, seed, threads, cache, true)
}

/// Score columns (one `Vec<f64>` per metric, aligned with `pairs`) for
/// several metrics — the classification pipeline's feature-matrix
/// backend. Scheduled exactly like [`predict_top_k_many_cached_t`];
/// column contents are bit-identical for every `threads` value.
pub fn score_matrix_t(
    metrics: &[&dyn Metric],
    snap: &Snapshot,
    pairs: &[(NodeId, NodeId)],
    threads: usize,
) -> Vec<Vec<f64>> {
    score_matrix_cached_t(metrics, snap, pairs, threads, &mut SolverCache::transient())
}

/// [`score_matrix_t`] with a caller-owned [`SolverCache`] (see
/// [`predict_top_k_many_cached_t`] for the sharing/warm-start semantics).
pub fn score_matrix_cached_t(
    metrics: &[&dyn Metric],
    snap: &Snapshot,
    pairs: &[(NodeId, NodeId)],
    threads: usize,
    cache: &mut SolverCache,
) -> Vec<Vec<f64>> {
    columns(metrics, snap, pairs, threads, cache, true)
}

/// The pre-fusion feature-matrix path ((metric × chunk) scheduling through
/// each metric's own scorer, ignoring [`Metric::fused_kind`]) — the
/// equivalence baseline for the fused kernel's tests and the `scalecheck`
/// fused-scoring benchmark.
pub fn score_matrix_per_pair_t(
    metrics: &[&dyn Metric],
    snap: &Snapshot,
    pairs: &[(NodeId, NodeId)],
    threads: usize,
) -> Vec<Vec<f64>> {
    columns(metrics, snap, pairs, threads, &mut SolverCache::transient(), false)
}

/// [`run`] folding each range's scores into one column per metric.
fn columns<M: Metric + ?Sized>(
    metrics: &[&M],
    snap: &Snapshot,
    pairs: &[(NodeId, NodeId)],
    threads: usize,
    cache: &mut SolverCache,
    fuse: bool,
) -> Vec<Vec<f64>> {
    run(
        metrics,
        snap,
        pairs,
        threads,
        cache,
        fuse,
        |_, scores, _| scores,
        |col, next| col.extend(next),
    )
}

/// [`run`] streaming each range's scores into a [`TopKAcc`] keyed by
/// global pair index and merging the accumulators per metric.
#[allow(clippy::too_many_arguments)]
fn top_k<M: Metric + ?Sized>(
    metrics: &[&M],
    snap: &Snapshot,
    cands: &CandidateSet,
    k: usize,
    seed: u64,
    threads: usize,
    cache: &mut SolverCache,
    fuse: bool,
) -> Vec<Vec<(NodeId, NodeId)>> {
    let accumulate = |slice: &[(NodeId, NodeId)], scores: Vec<f64>, base: usize| {
        let mut acc = TopKAcc::new(k, seed);
        for (off, (&pair, &score)) in slice.iter().zip(&scores).enumerate() {
            acc.push(pair, score, base + off);
        }
        acc
    };
    run(metrics, snap, cands.pairs(), threads, cache, fuse, accumulate, TopKAcc::merge)
        .into_iter()
        .map(TopKAcc::finish)
        .collect()
}

/// The engine core every entry point above calls. `part(slice, scores,
/// base)` turns one scored range starting at global pair index `base`
/// into an output part; `fold` appends parts in pair order onto each
/// metric's `part(&[], [], 0)`.
///
/// Scheduling, in order: with `fuse`, every metric advertising a
/// [`Metric::fused_kind`] is scored by one shared kernel context over
/// source-aligned chunks; the remaining [`ExecMode::Chunked`] metrics are
/// prepared in parallel and their (metric × chunk) items run over one
/// `threads`-wide pool; [`ExecMode::WholeBatch`] metrics then score the
/// whole batch one at a time with the full worker budget. The cache is
/// pointed at `snap` once, before anything reads it, and only when a
/// non-fused metric is present — fused scoring never needs a transition
/// view. `fuse = false` is the per-pair reference path. Every scored
/// range passes the metric's score-contract audit.
#[allow(clippy::too_many_arguments)]
fn run<M: Metric + ?Sized, P: Send>(
    metrics: &[&M],
    snap: &Snapshot,
    pairs: &[(NodeId, NodeId)],
    threads: usize,
    cache: &mut SolverCache,
    fuse: bool,
    part: impl Fn(&[(NodeId, NodeId)], Vec<f64>, usize) -> P + Sync,
    fold: impl Fn(&mut P, P),
) -> Vec<P> {
    let threads = threads.max(1);
    let (mut fused_idx, mut kinds, mut chunked, mut whole) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (i, m) in metrics.iter().enumerate() {
        match (m.fused_kind().filter(|_| fuse), m.exec_mode()) {
            (Some(kind), _) => {
                fused_idx.push(i);
                kinds.push(kind);
            }
            (None, ExecMode::Chunked) => chunked.push(i),
            (None, ExecMode::WholeBatch) => whole.push(i),
        }
    }
    if fused_idx.len() < metrics.len() {
        cache.ensure_snapshot(snap);
    }
    let audit = |i: usize, scores: &[f64], base: usize| {
        audit_scores(metrics[i].name(), metrics[i].score_contract(), scores, base)
    };
    let chunks = source_aligned_chunks(pairs, threads);
    let mut out: Vec<P> = metrics.iter().map(|_| part(&[], Vec::new(), 0)).collect();

    if !fused_idx.is_empty() {
        let ctx = fused::FusedCtx::build(snap, &kinds);
        let per_chunk = par::run_indexed_init(
            chunks.len(),
            threads,
            || FusedScratch::new(snap.node_count()),
            |scratch, c| {
                let range = chunks[c].clone();
                let slice = &pairs[range.clone()];
                let cols = fused::score_columns(&ctx, scratch, slice, &kinds);
                fused_idx
                    .iter()
                    .zip(cols)
                    .map(|(&i, col)| {
                        audit(i, &col, range.start);
                        part(slice, col, range.start)
                    })
                    .collect::<Vec<P>>()
            },
        );
        for parts in per_chunk {
            for (&i, p) in fused_idx.iter().zip(parts) {
                fold(&mut out[i], p);
            }
        }
    }
    if !chunked.is_empty() {
        // Shared reborrow: prepares only read the cache (its transition
        // view), so they can run in parallel across metrics.
        let shared: &SolverCache = cache;
        let scorers =
            par::run_indexed(chunked.len(), threads, |j| metrics[chunked[j]].prepare(snap, shared));
        let items: Vec<(usize, Range<usize>)> =
            (0..chunked.len()).flat_map(|j| chunks.iter().map(move |c| (j, c.clone()))).collect();
        let parts = par::run_indexed(items.len(), threads, |w| {
            let (j, range) = &items[w];
            let slice = &pairs[range.clone()];
            let scores = scorers[*j].score_chunk(snap, slice);
            audit(chunked[*j], &scores, range.start);
            part(slice, scores, range.start)
        });
        for ((j, _), p) in items.iter().zip(parts) {
            fold(&mut out[chunked[*j]], p);
        }
    }
    for &i in &whole {
        let scores = metrics[i].score_pairs_cached(snap, pairs, threads, cache);
        audit(i, &scores, 0);
        out[i] = part(pairs, scores, 0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fused::LocalKind;
    use crate::topk;
    use crate::traits::CandidatePolicy;

    /// Two bridged triangles plus a pendant path.
    fn fixture() -> Snapshot {
        Snapshot::from_edges(
            8,
            &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5), (5, 6), (6, 7)],
        )
    }

    #[test]
    fn chunks_are_source_aligned_and_cover() {
        let pairs: Vec<(NodeId, NodeId)> =
            (0..40u32).flat_map(|u| (u + 1..u + 5).map(move |v| (u / 3, v + 100))).collect();
        let chunks = source_aligned_chunks(&pairs, 4);
        let mut covered = 0;
        for c in &chunks {
            assert_eq!(c.start, covered);
            covered = c.end;
            if c.start > 0 {
                assert_ne!(
                    pairs[c.start].0,
                    pairs[c.start - 1].0,
                    "chunk boundary split a source run"
                );
            }
        }
        assert_eq!(covered, pairs.len());
    }

    /// A 100-node ring with chords: its Global candidate set spans several
    /// source-aligned chunks, so per-chunk top-k merges are exercised.
    fn chorded_ring() -> Snapshot {
        let n = 100u32;
        let edges: Vec<(NodeId, NodeId)> = (0..n)
            .flat_map(|i| [(i, (i + 1) % n), (i, (i * 7 + 3) % n)])
            .filter(|&(a, b)| a != b)
            .map(|(a, b)| osn_graph::canonical(a, b))
            .collect();
        Snapshot::from_edges(n as usize, &edges)
    }

    #[test]
    fn engine_scores_match_direct_scoring() {
        let snap = fixture();
        let cands = CandidateSet::build(&snap, CandidatePolicy::ThreeHop, 0);
        let ring = chorded_ring();
        let global = CandidateSet::build(&ring, CandidatePolicy::Global, 4);
        assert!(source_aligned_chunks(global.pairs(), 1).len() > 1, "fixture must span chunks");
        let k = global.len() / 3;
        for m in crate::all_metrics() {
            let direct = m.score_pairs(&snap, cands.pairs());
            let want =
                topk::top_k_pairs(global.pairs(), &m.score_pairs(&ring, global.pairs()), k, 0x5EED);
            for threads in [1, 2, 4] {
                let engine = score_pairs_t(m.as_ref(), &snap, cands.pairs(), threads);
                assert_eq!(engine, direct, "{} threads={threads}", m.name());
                let top = predict_top_k_t(m.as_ref(), &ring, &global, k, 0x5EED, threads);
                assert_eq!(top, want, "{} top-k threads={threads}", m.name());
            }
        }
    }

    #[test]
    fn multi_metric_predictions_match_single_metric() {
        let snap = fixture();
        let cands = CandidateSet::build(&snap, CandidatePolicy::Global, 2);
        let metrics = crate::all_metrics();
        let refs: Vec<&dyn Metric> = metrics.iter().map(|m| m.as_ref()).collect();
        let mut cache = SolverCache::transient();
        let many = predict_top_k_many_cached_t(&refs, &snap, &cands, 4, 0x11A5, 3, &mut cache);
        for (i, m) in refs.iter().enumerate() {
            let single = predict_top_k_t(*m, &snap, &cands, 4, 0x11A5, 1);
            assert_eq!(many[i], single, "{}", m.name());
        }
    }

    /// A metric that lies about its output, for audit-layer tests.
    struct Broken {
        value: f64,
        contract: ScoreContract,
    }

    impl Metric for Broken {
        fn name(&self) -> &'static str {
            "Broken"
        }
        fn candidate_policy(&self) -> CandidatePolicy {
            CandidatePolicy::TwoHop
        }
        fn score_contract(&self) -> ScoreContract {
            self.contract
        }
        fn score_pairs(&self, _snap: &Snapshot, pairs: &[(NodeId, NodeId)]) -> Vec<f64> {
            vec![self.value; pairs.len()]
        }
    }

    #[test]
    #[should_panic(expected = "non-finite score")]
    fn audit_catches_non_finite_scores() {
        // Release builds audit only in paranoid mode.
        osn_graph::audit::set_paranoid(true);
        let snap = fixture();
        let bad = Broken { value: f64::NAN, contract: ScoreContract::Finite };
        score_pairs_t(&bad, &snap, &[(0, 4), (1, 5)], 1);
    }

    #[test]
    #[should_panic(expected = "non-negative contract")]
    fn audit_catches_contract_violation() {
        osn_graph::audit::set_paranoid(true);
        let snap = fixture();
        let bad = Broken { value: -1.0, contract: ScoreContract::FiniteNonNegative };
        score_pairs_t(&bad, &snap, &[(0, 4), (1, 5)], 1);
    }

    #[test]
    fn audit_accepts_negative_scores_under_finite_contract() {
        let snap = fixture();
        let ok = Broken { value: -1.0, contract: ScoreContract::Finite };
        assert_eq!(score_pairs_t(&ok, &snap, &[(0, 4)], 1), vec![-1.0]);
    }

    #[test]
    fn only_non_fused_batches_build_a_transition_view() {
        let snap = fixture();
        let cands = CandidateSet::build(&snap, CandidatePolicy::TwoHop, 0);
        let (cn, sp) = (crate::local::CommonNeighbors, crate::path::ShortestPath::default());
        let mut cache = SolverCache::transient();
        predict_top_k_many_cached_t(&[&cn], &snap, &cands, 2, 1, 2, &mut cache);
        score_pairs_cached_t(&cn, &snap, cands.pairs(), 2, &mut cache);
        assert!(cache.transition().is_none(), "all-fused batches must not touch the cache");
        predict_top_k_many_cached_t(&[&cn, &sp], &snap, &cands, 2, 1, 2, &mut cache);
        assert!(cache.transition().is_some(), "a non-fused metric points the cache at snap");
    }

    #[test]
    fn targeted_scoring_matches_batched_engine() {
        let snap = fixture();
        let cands = CandidateSet::build(&snap, CandidatePolicy::Global, 2);
        let ctx = fused::FusedCtx::build(&snap, &LocalKind::ALL);
        let mut scratch = FusedScratch::new(snap.node_count());
        for m in crate::all_metrics() {
            let mut targeted_cache = SolverCache::transient();
            // Per-source slices, the shape serving queries take.
            for chunk in source_aligned_chunks(cands.pairs(), 1) {
                let slice = &cands.pairs()[chunk];
                let targeted = score_pairs_targeted(
                    m.as_ref(),
                    &snap,
                    &ctx,
                    &mut scratch,
                    slice,
                    &mut targeted_cache,
                );
                let batched = score_pairs_t(m.as_ref(), &snap, slice, 1);
                assert_eq!(targeted, batched, "{}", m.name());
            }
        }
    }

    #[test]
    fn score_matrix_matches_columns() {
        let snap = fixture();
        let cands = CandidateSet::build(&snap, CandidatePolicy::ThreeHop, 0);
        let metrics = crate::all_metrics();
        let refs: Vec<&dyn Metric> = metrics.iter().map(|m| m.as_ref()).collect();
        let matrix = score_matrix_t(&refs, &snap, cands.pairs(), 4);
        for (i, m) in refs.iter().enumerate() {
            assert_eq!(matrix[i], m.score_pairs(&snap, cands.pairs()), "{}", m.name());
        }
    }
}
