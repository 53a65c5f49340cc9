//! The `Metric` trait and its candidate policy.

use crate::candidates::CandidateSet;
use crate::exec::{self, ExecMode, PairScorer, ScoreAll};
use crate::solver::SolverCache;
use osn_graph::snapshot::Snapshot;
use osn_graph::NodeId;

/// How far from each other a pair of nodes may be for this metric to give
/// it a non-trivial score. The evaluation framework uses the *loosest*
/// policy among the metrics under test to build one shared candidate set.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum CandidatePolicy {
    /// Non-zero only for pairs sharing ≥ 1 neighbor (distance exactly 2).
    TwoHop,
    /// Non-zero up to distance 3 (Local Path, SP, walks, Katz).
    ThreeHop,
    /// May rank arbitrary pairs (PA, Rescal) — the candidate set adds
    /// supernode cross-pairs on top of the distance-bounded pairs.
    Global,
}

/// What the engine may assume about every score a metric emits. Checked by
/// the runtime audit layer ([`osn_graph::audit`]) on every engine scoring
/// path when audits are enabled (debug builds, or `--paranoid` in release).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScoreContract {
    /// Scores are finite (no NaN/±∞) but may be negative: negated
    /// distances (SP), log-odds (the Bayes metrics), and factorization
    /// reconstructions (Katz-lr, Rescal) all go below zero.
    Finite,
    /// Scores are finite and never negative: counting and normalized-
    /// counting metrics (CN, JC, AA, RA, PA, Local Path) and walk
    /// probabilities (LRW, PPR).
    FiniteNonNegative,
}

/// One link-prediction similarity metric (Table 3 of the paper).
///
/// Implementations are stateless configuration objects: all per-snapshot
/// state (factorizations, walk distributions, triangle counts) is computed
/// inside [`score_pairs`](Metric::score_pairs) for the snapshot at hand.
/// Callers amortize that cost by scoring all pairs of interest in a single
/// call.
pub trait Metric: Sync {
    /// Display name matching the paper's tables ("BRA", "Katz-lr", …).
    fn name(&self) -> &'static str;

    /// Candidate policy (see [`CandidatePolicy`]).
    fn candidate_policy(&self) -> CandidatePolicy;

    /// Score contract the audit layer enforces (see [`ScoreContract`]).
    /// Defaults to [`ScoreContract::Finite`]; metrics whose scores are
    /// counts, normalized counts, or probabilities tighten this to
    /// [`ScoreContract::FiniteNonNegative`].
    fn score_contract(&self) -> ScoreContract {
        ScoreContract::Finite
    }

    /// Scores a batch of (unconnected) pairs against a snapshot. Returns
    /// one finite score per pair, higher = more likely to connect.
    fn score_pairs(&self, snap: &Snapshot, pairs: &[(NodeId, NodeId)]) -> Vec<f64>;

    /// How the parallel engine executes this metric (see
    /// [`ExecMode`]). Chunked by default; metrics whose batch algorithm
    /// parallelizes internally (the walk metrics) return `WholeBatch`.
    fn exec_mode(&self) -> ExecMode {
        ExecMode::Chunked
    }

    /// The fused-kernel column this metric maps to, when it is one of the
    /// local metrics the source-batched kernel ([`crate::fused`]) can
    /// absorb. `None` (the default) keeps the metric on its own
    /// [`score_pairs`](Metric::score_pairs) path; the local and Bayes
    /// metrics override this, and the engine then scores them through one
    /// shared witness walk per source instead of per-pair intersections —
    /// bit-identical to the per-pair path.
    fn fused_kind(&self) -> Option<crate::fused::LocalKind> {
        None
    }

    /// Hoists per-snapshot work (factorizations, landmark solves) out of
    /// the chunk loop, returning a read-only scorer the engine calls once
    /// per chunk. The default wraps [`score_pairs`](Metric::score_pairs),
    /// which is correct for any metric without cross-pair state.
    ///
    /// The engine points `cache` at `snap` before calling this, so
    /// metrics whose per-snapshot stage runs on the adjacency matrix (the
    /// Katz family) can reuse its shared
    /// [`TransitionView`](crate::solver::TransitionView) instead of
    /// rebuilding CSR structure. Read-only: prepare runs in parallel
    /// across metrics.
    fn prepare<'a>(&'a self, snap: &Snapshot, cache: &SolverCache) -> Box<dyn PairScorer + 'a> {
        let _ = (snap, cache);
        Box::new(ScoreAll(self))
    }

    /// [`score_pairs`](Metric::score_pairs) with a worker budget and the
    /// per-snapshot [`SolverCache`]. The engine calls it only for
    /// [`ExecMode::WholeBatch`] metrics; the default ignores both. The
    /// global walk metrics (LRW, PPR) override it to share the snapshot's
    /// transition view and, on persistent caches, warm-start PPR from the
    /// previous snapshot's converged vectors (which changes iteration
    /// counts, never converged output beyond the documented tolerance —
    /// see [`crate::solver`]); Rescal reuses the cached per-snapshot fit.
    fn score_pairs_cached(
        &self,
        snap: &Snapshot,
        pairs: &[(NodeId, NodeId)],
        threads: usize,
        cache: &mut SolverCache,
    ) -> Vec<f64> {
        let _ = (threads, cache);
        self.score_pairs(snap, pairs)
    }

    /// Predicts the top-`k` pairs from a pre-built candidate set, with
    /// seeded tie-breaking (ties are common for SP and CN). Runs on the
    /// parallel engine with [`osn_graph::par::max_threads`] workers; the
    /// result is bit-identical for every worker count.
    fn predict_top_k(
        &self,
        snap: &Snapshot,
        cands: &CandidateSet,
        k: usize,
        seed: u64,
    ) -> Vec<(NodeId, NodeId)> {
        exec::predict_top_k_t(self, snap, cands, k, seed, osn_graph::par::max_threads())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_ordering_is_loosest_last() {
        assert!(CandidatePolicy::TwoHop < CandidatePolicy::ThreeHop);
        assert!(CandidatePolicy::ThreeHop < CandidatePolicy::Global);
    }
}
