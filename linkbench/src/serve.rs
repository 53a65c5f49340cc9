//! The `serve` workload: an open-loop drive of `linklens_serve::Server`.
//!
//! Inputs, all fixed before the server starts: the renren-like trace at
//! scale 0.2 over 60 days, drawn from the seed; a bootstrap of its first
//! 70% of edges; a fixed stratified mix of the 9 metrics (CN JC AA RA PA
//! BCN LP LRW PPR) with Zipf-skewed sources, sent on a Poisson schedule
//! drawn from the seed in two phases at fixed offered rates — `nominal`
//! below the measured knee, then `overload` well above it against a queue
//! small enough to reject; a Poisson schedule, drawn from the seed,
//! ingesting the remaining 30% of edges during the nominal phase and
//! publishing every [`PUBLISH_EVERY`]-th of the tail; and a fixed set of
//! distinct queries for the `capacity` bursts. The timed run plays
//! capacity bursts, each on a fresh server holding the bootstrap, before,
//! inside and after the nominal phase; the traced run plays the nominal
//! phase and then the overload phase.
//!
//! Two generator threads (the host's core count here): the main thread
//! sends queries when they are due, a second thread ingests and publishes.
//! The main thread spins the last moments before a send; forwarder threads
//! only wait, each on one answer, and stamp it as it arrives. Every query
//! is timed from its scheduled send, so a stalled generator or a full queue
//! shows as latency.

use crate::pipeline::digest;
use crate::tracer::{close, open, Tracer};
use crate::{gate, stats, Outcome, Run};
use linklens_serve::admission::QueryResult;
use linklens_serve::query::{candidate_targets, EnumScratch};
use linklens_serve::store::Versioned;
use linklens_serve::{QueryError, ServeConfig, Server};
use osn_graph::snapshot::Snapshot;
use osn_graph::NodeId;
use osn_metrics::candidates::CandidateSet;
use osn_metrics::fused::{FusedCtx, FusedScratch, LocalKind};
use osn_metrics::solver::SolverCache;
use osn_metrics::traits::{CandidatePolicy, Metric};
use osn_trace::presets::TraceConfig;
use osn_trace::GrowthTrace;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::mpsc::{self, Receiver};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const SCALE: f64 = 0.2;
const DAYS: u32 = 60;
const METRICS: [&str; 9] = ["CN", "JC", "AA", "RA", "PA", "BCN", "LP", "LRW", "PPR"];
/// Offered query rates (queries per second of schedule), set once from
/// the knee measured on seed 42 (see `linkbench/README.md`) and frozen.
const NOMINAL_QPS: f64 = 12.0;
const OVERLOAD_QPS: f64 = 100.0;
/// Queries in the nominal phase: 410 put p97 at the tail (12 samples
/// beyond it). At the nominal rate this phase lasts about 34 s whatever
/// `--seconds` says.
const NOMINAL_QUERIES: usize = 410;
/// Latency limit for SLO attainment and goodput.
const SLO_MS: f64 = 3_000.0;
const QUEUE_CAPACITY: usize = 24;
/// The tail is published in this many equal edge batches.
const PUBLISH_EVERY: usize = 12;
/// Misses whose served answer is re-derived offline after the run.
const ORACLE_SAMPLE: usize = 24;
/// The tracing overhead is measured on every this-many-th replayed miss.
const OVERHEAD_STRIDE: usize = 16;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Popular sources the warm-up source is chosen from.
const WARM_POOL: usize = 64;
/// Queries in one capacity burst: seven blocks of the mix, each query
/// asked once, so every answer is a cold computation.
const BURST_QUERIES: usize = 63;
/// The nominal phase is played in this many segments of equal schedule
/// time. Between two segments every answer has landed and ingest waits
/// while a capacity burst runs, so that the bursts (one before the phase,
/// one between each two segments, one after) sample the host over the
/// whole run without loading the server being timed.
const SEGMENTS: usize = 8;
/// Fixed seeds of the query mix and of the capacity burst's mix.
const MIX_SEED: u64 = 0x5E2F_E000_0000_0001;
const BURST_MIX_SEED: u64 = 0x5E2F_E000_0000_0003;
/// Forwarder threads; more than the queue and the workers hold queries.
const FORWARDERS: usize = 2 * QUEUE_CAPACITY;
/// How long before a query is due the generator stops sleeping and spins,
/// so that it sends on time rather than one timer wake-up late.
const SPIN: Duration = Duration::from_micros(300);
/// Longest a query may stay unanswered; a later answer counts as failed.
const ANSWER_LIMIT: Duration = Duration::from_secs(30);

fn serve_config() -> ServeConfig {
    ServeConfig {
        metrics: METRICS.map(String::from).to_vec(),
        workers: osn_graph::par::max_threads(),
        queue_capacity: QUEUE_CAPACITY,
        cache_shards: 32,
        k: 10,
        seed: 0x11A5,
        top_degree: 32,
        promote_limit: 1 << 17,
    }
}

/// splitmix64 step.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn uniform(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// Zipfian rank in `[0, n)`: `floor(exp(U·ln n))`, probability ∝ 1/r.
fn zipf_rank(state: &mut u64, n: usize) -> usize {
    zipf_at(uniform(state), n) as usize
}

/// The Zipfian rank at quantile `u` in `[0, 1)`.
fn zipf_at(u: f64, n: usize) -> NodeId {
    ((u * (n as f64).ln()).exp() as usize).min(n - 1) as NodeId
}

/// Fractional part of the golden ratio: the additive step of a
/// low-discrepancy sequence on `[0, 1)`.
const GOLDEN: f64 = 0.618_033_988_749_894_9;

/// Exponential inter-arrival gap at `rate` per second.
fn gap(state: &mut u64, rate: f64) -> f64 {
    -(1.0 - uniform(state)).ln() / rate
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    Nominal,
    Overload,
}

struct Planned {
    at: f64,
    phase: Phase,
    metric: u32,
    source: NodeId,
}

/// Everything the seed determines.
struct Schedule {
    trace: GrowthTrace,
    bootstrap_edges: usize,
    queries: Vec<Planned>,
    /// Offset of each tail edge's ingest, in trace order.
    ingest_at: Vec<f64>,
    nominal_s: f64,
    overload_s: f64,
}

/// Stratified query mix: every block of nine consecutive queries asks each
/// metric once, in a drawn order, and sources walk the Zipf quantiles by a
/// golden-ratio sequence from a drawn start. The shares of each metric and
/// of each popularity band are then the same whatever the draws.
struct Mix {
    rng: u64,
    block: Vec<u32>,
    u: f64,
}

impl Mix {
    fn new(mut rng: u64) -> Self {
        let u = uniform(&mut rng);
        Mix { rng, block: Vec::new(), u }
    }

    /// The next query's metric and Zipf quantile.
    fn next(&mut self) -> (u32, f64) {
        if self.block.is_empty() {
            self.block = (0..METRICS.len() as u32).collect();
            for i in (1..self.block.len()).rev() {
                self.block.swap(i, (splitmix64(&mut self.rng) % (i as u64 + 1)) as usize);
            }
        }
        self.u = (self.u + GOLDEN).fract();
        (self.block.pop().expect("refilled above"), self.u)
    }
}

fn schedule(seed: u64, seconds: f64) -> Schedule {
    let trace = TraceConfig::renren_like().scaled(SCALE).with_days(DAYS).generate(seed);
    let bootstrap_edges = (trace.edge_count() * 7 / 10).max(1);
    let n_boot = trace.nodes_at(trace.edges()[bootstrap_edges - 1].t);
    let mut rng = seed ^ 0x5E2F_E000_0000_0001;
    let mut queries = Vec::new();
    let mut plan = |mix: &mut Mix, at: f64, phase| {
        let (metric, u) = mix.next();
        queries.push(Planned { at, phase, metric, source: zipf_at(u, n_boot) });
    };
    // The mix is the same (metric, quantile) sequence on every seed; the
    // seed draws the trace, the arrival times and the ingest schedule.
    // Cold PPR solves dominate the tail and the burst, and a seeded order
    // changed how many PPR queries repeat a cached source from seed to
    // seed.
    let mut mix = Mix::new(MIX_SEED);
    let mut at = 0.0;
    for _ in 0..NOMINAL_QUERIES {
        at += gap(&mut rng, NOMINAL_QPS);
        plan(&mut mix, at, Phase::Nominal);
    }
    let nominal_s = at;
    let overload_s = seconds;
    loop {
        at += gap(&mut rng, OVERLOAD_QPS);
        if at >= nominal_s + overload_s {
            break;
        }
        plan(&mut mix, at, Phase::Overload);
    }
    let tail = trace.edge_count() - bootstrap_edges;
    let rate = tail as f64 / nominal_s;
    let mut at = 0.0;
    let ingest_at = (0..tail)
        .map(|_| {
            at += gap(&mut rng, rate);
            at.min(nominal_s)
        })
        .collect();
    Schedule { trace, bootstrap_edges, queries, ingest_at, nominal_s, overload_s }
}

/// The capacity burst: [`BURST_QUERIES`] distinct (metric, source) queries
/// from a mix of its own over `n` nodes, none on the warm-up source, so
/// that no answer comes out of the cache.
fn burst_queries(n: usize, warm: NodeId) -> Vec<(u32, NodeId)> {
    let mut mix = Mix::new(BURST_MIX_SEED);
    let mut burst = Vec::with_capacity(BURST_QUERIES);
    while burst.len() < BURST_QUERIES {
        let (metric, u) = mix.next();
        let q = (metric, zipf_at(u, n));
        if q.1 != warm && !burst.contains(&q) {
            burst.push(q);
        }
    }
    burst
}

/// Streams trace edges `from..to` (and the node arrivals they need) into
/// the server; `next_node` tracks arrivals already ingested.
fn ingest(server: &Server, trace: &GrowthTrace, from: usize, to: usize, next_node: &mut usize) {
    let arrivals = trace.arrivals();
    for e in &trace.edges()[from..to] {
        while *next_node < arrivals.len() && arrivals[*next_node] <= e.t {
            server.ingest_node(arrivals[*next_node]).expect("trace arrivals are monotone");
            *next_node += 1;
        }
        server.ingest_edge(e.u, e.v, e.t).expect("trace edges are valid");
    }
}

/// The warm-up source: of the [`WARM_POOL`] most popular sources, the one
/// with the largest distance-3 candidate set. The cost of a cold PPR or
/// LRW query grows with that set, and warming on the most popular source
/// alone (a set of 700 to 910 of about 960 nodes, by seed) made set-up
/// time vary two-fold between seeds; the largest set of the pool is near
/// the node count on every seed, so set-up does about the same work on each.
fn warm_source(v: &Versioned) -> NodeId {
    let snap = &v.snapshot;
    let mut scratch = EnumScratch::new(snap.node_count());
    let pool = (WARM_POOL as NodeId).min(snap.node_count() as NodeId);
    (0..pool)
        .max_by_key(|&u| {
            let targets =
                candidate_targets(snap, u, CandidatePolicy::ThreeHop, &v.hubs, &mut scratch);
            (targets.len(), std::cmp::Reverse(u))
        })
        .unwrap_or(0)
}

/// Set-up: start the server with an admission queue of `queue_capacity`,
/// ingest and publish the bootstrap prefix, and warm every metric once on
/// [`warm_source`] (degree tables, fused context, first solves).
fn set_up(s: &Schedule, queue_capacity: usize) -> (Arc<Server>, usize) {
    let config = ServeConfig { queue_capacity, ..serve_config() };
    let server = Server::start(config).expect("serve config resolves");
    let mut next_node = 0;
    ingest(&server, &s.trace, 0, s.bootstrap_edges, &mut next_node);
    server.publish();
    let source = warm_source(&server.current());
    for mi in 0..METRICS.len() as u32 {
        server.query_blocking(mi, source, Duration::from_secs(60)).expect("warm-up query answered");
    }
    (server, next_node)
}

/// One capacity burst on a fresh server holding the bootstrap: the whole
/// burst queued at once (the queue holds it all, so none is rejected and
/// the workers never idle until it drains), timed from the first send to
/// the last answer. Returns the time and the answers, in burst order.
fn capacity_burst(
    s: &Schedule,
    burst: &[(u32, NodeId)],
) -> Result<(f64, Vec<QueryResult>), String> {
    let (server, _) = set_up(s, burst.len());
    let start = Instant::now();
    let pending: Vec<Receiver<QueryResult>> = burst
        .iter()
        .map(|&(metric, source)| server.query_async(metric, source))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("capacity query: {e}"))?;
    let answers: Vec<QueryResult> = pending
        .into_iter()
        .map(|rx| rx.recv_timeout(ANSWER_LIMIT))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("capacity answer: {e}"))?;
    let secs = start.elapsed().as_secs_f64();
    server.shutdown();
    Ok((secs, answers))
}

/// Gates on the capacity bursts: every answer is a cold computation at
/// the bootstrap version, every burst answered exactly as the first did,
/// and the first block of the first burst (one query per metric) equals
/// the offline answer.
fn gate_bursts(
    answers: &[Vec<QueryResult>],
    burst: &[(u32, NodeId)],
    pinned: &Versioned,
    metrics: &[Box<dyn Metric>],
) -> Result<(), String> {
    let first = &answers[0];
    for (b, got) in answers.iter().enumerate() {
        for (i, r) in got.iter().enumerate() {
            gate!(r.version == pinned.version, "burst {b} query {i} at version {}", r.version);
            gate!(!r.cache_hit, "burst {b} query {i} came out of the cache");
            gate!(r.topk == first[i].topk, "burst {b} query {i} differs from burst 0");
        }
    }
    let top_degree = serve_config().top_degree;
    for (i, &(metric, source)) in burst.iter().take(METRICS.len()).enumerate() {
        let m = metrics[metric as usize].as_ref();
        let universe = CandidateSet::build(&pinned.snapshot, m.candidate_policy(), top_degree);
        gate!(
            *first[i].topk == oracle(m, pinned, &universe, source),
            "burst query {i} ({} source {source}) != offline answer",
            m.name()
        );
    }
    Ok(())
}

/// The offline answer for one query: the full candidate set filtered to
/// the source, scored by the batch engine (bit-identical at any thread
/// count), seeded top-k.
fn oracle(
    m: &dyn Metric,
    v: &Versioned,
    universe: &CandidateSet,
    source: NodeId,
) -> Vec<(NodeId, NodeId)> {
    let cfg = serve_config();
    let pairs: Vec<(NodeId, NodeId)> =
        universe.pairs().iter().copied().filter(|&(a, b)| a == source || b == source).collect();
    let threads = osn_graph::par::max_threads();
    let scores = osn_metrics::exec::score_pairs_t(m, &v.snapshot, &pairs, threads);
    osn_metrics::topk::top_k_pairs(&pairs, &scores, cfg.k, cfg.seed)
}

/// Pre-timing gate: the bootstrap CSR equals the offline builder's at the
/// same prefix.
fn gate_digest(server: &Server, s: &Schedule) -> Result<(), String> {
    let pinned = server.current();
    let mut offline = osn_graph::builder::SnapshotBuilder::new(&s.trace);
    let offline_snap = offline.advance_to(pinned.snapshot.prefix_len());
    gate!(
        digest(&pinned.snapshot) == digest(offline_snap),
        "published bootstrap CSR differs from the offline SnapshotBuilder"
    );
    Ok(())
}

/// Pre-timing gate: every served metric answers a Zipf probe set exactly
/// as the offline batch engine does at the pinned version. Its answers
/// fill the result cache, so it runs on a set-up server that is then
/// discarded, never on the timed one.
fn gate_parity(server: &Server, metrics: &[Box<dyn Metric>]) -> Result<(), String> {
    let pinned = server.current();
    let top_degree = serve_config().top_degree;
    let mut probe = 0x5EED_0001u64;
    let n = pinned.snapshot.node_count();
    let probes: Vec<NodeId> = (0..12).map(|_| zipf_rank(&mut probe, n) as NodeId).collect();
    let mut universes: BTreeMap<u8, CandidateSet> = BTreeMap::new();
    for (mi, m) in metrics.iter().enumerate() {
        let policy = m.candidate_policy();
        let universe = universes
            .entry(policy as u8)
            .or_insert_with(|| CandidateSet::build(&pinned.snapshot, policy, top_degree));
        // All of a metric's probes at once, so both workers answer them.
        let pending: Vec<_> = probes
            .iter()
            .map(|&source| server.query_async(mi as u32, source))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("parity query: {e}"))?;
        for (&source, rx) in probes.iter().zip(pending) {
            let served = rx
                .recv_timeout(ANSWER_LIMIT)
                .map_err(|e| format!("parity query for source {source}: {e}"))?;
            gate!(served.version == pinned.version, "parity answer at version {}", served.version);
            gate!(
                *served.topk == oracle(m.as_ref(), &pinned, universe, source),
                "{}: served top-k for source {source} != offline answer",
                m.name()
            );
        }
    }
    Ok(())
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Status {
    Answered,
    Rejected,
    Failed,
}

/// One query as it played out.
struct Record {
    phase: Phase,
    metric: u32,
    source: NodeId,
    /// When the query was due: its latency runs from here.
    due: Instant,
    late_ms: f64,
    admitted_version: u64,
    status: Status,
    latency_ms: f64,
    result: Option<QueryResult>,
}

/// Polls `poll` on a spinning core until it yields or `until` passes.
/// The spin before a send keeps the core rather than yielding it: yielding
/// can hand it to a busy worker for a whole time slice, which made sends
/// 3-6 ms late at the 97th percentile on the reference host.
fn spin<T>(until: Instant, mut poll: impl FnMut() -> Option<T>) -> Option<T> {
    loop {
        if let Some(x) = poll() {
            return Some(x);
        }
        if Instant::now() >= until {
            return None;
        }
        std::hint::spin_loop();
    }
}

/// What the ingest thread did.
#[derive(Default)]
struct IngestLog {
    publish_ms: Vec<f64>,
    /// Every published state, by version, for the post-run checks.
    versions: BTreeMap<u64, Arc<Versioned>>,
}

/// An answer as a forwarder saw it: the forwarder, the record the answer
/// belongs to, the moment it arrived, and the answer (`None` if the server
/// dropped the query or it ran past [`ANSWER_LIMIT`]).
type Arrival = (usize, usize, Instant, Option<QueryResult>);

/// Submits queries and lands the answers the forwarder threads stamp.
struct Collector {
    /// One job channel per forwarder: a job wakes only the forwarder it
    /// names.
    jobs: Vec<mpsc::Sender<(usize, Receiver<QueryResult>)>>,
    /// Forwarders waiting for a job.
    idle: Vec<usize>,
    done: Receiver<Arrival>,
    records: Vec<Record>,
    /// Submitted queries not yet landed.
    pending: usize,
}

impl Collector {
    /// Submits `q`, due at `due`. A rejected or refused query is recorded
    /// as such at once.
    fn submit(&mut self, server: &Server, q: &Planned, due: Instant) {
        let now = Instant::now();
        let mut rec = Record {
            phase: q.phase,
            metric: q.metric,
            source: q.source,
            due,
            late_ms: now.saturating_duration_since(due).as_secs_f64() * 1e3,
            admitted_version: server.version(),
            status: Status::Failed,
            latency_ms: f64::INFINITY,
            result: None,
        };
        match server.query_async(q.metric, q.source) {
            Ok(rx) => {
                if self.idle.is_empty() {
                    // Every forwarder holds an answer not yet landed.
                    self.land_next();
                }
                let f = self.idle.pop().expect("a forwarder just landed");
                self.jobs[f].send((self.records.len(), rx)).expect("forwarders run");
                self.pending += 1;
            }
            Err(QueryError::Rejected) => rec.status = Status::Rejected,
            Err(_) => {}
        }
        self.records.push(rec);
    }

    fn land(&mut self, (f, i, at, got): Arrival) {
        self.pending -= 1;
        self.idle.push(f);
        if let Some(r) = got {
            let rec = &mut self.records[i];
            rec.latency_ms = at.saturating_duration_since(rec.due).as_secs_f64() * 1e3;
            rec.status = Status::Answered;
            rec.result = Some(r);
        }
    }

    /// Lands answers until `until`.
    fn land_until(&mut self, until: Instant) {
        while let Some(wait) = until.checked_duration_since(Instant::now()) {
            match self.done.recv_timeout(wait) {
                Ok(a) => self.land(a),
                Err(_) => return,
            }
        }
    }

    /// Lands answers as they come while spinning until `until`.
    fn spin_until(&mut self, until: Instant) {
        while let Some(a) = spin(until, || self.done.try_recv().ok()) {
            self.land(a);
        }
    }

    /// Plays `queries` on their schedule, the one planned at `offset`
    /// falling due at `start`, and lands every answer. Samples the queue
    /// depth after a send, at most every 10 ms, into `depth_max`.
    fn play<'a>(
        &mut self,
        server: &Server,
        queries: impl Iterator<Item = &'a Planned>,
        start: Instant,
        offset: f64,
        depth_max: &mut usize,
    ) {
        let mut next_sample = start;
        for q in queries {
            let due = start + Duration::from_secs_f64(q.at - offset);
            self.land_until(due.checked_sub(SPIN).unwrap_or(due));
            self.spin_until(due);
            self.submit(server, q, due);
            let now = Instant::now();
            if now >= next_sample {
                *depth_max = (*depth_max).max(server.stats().admission.depth);
                next_sample = now + Duration::from_millis(10);
            }
        }
        while self.land_next() {}
    }

    /// Lands the next answer; false when nothing is pending.
    fn land_next(&mut self) -> bool {
        if self.pending == 0 {
            return false;
        }
        let a = self.done.recv().expect("forwarders hold the sender");
        self.land(a);
        true
    }
}

/// The timed phase: the nominal queries with the tail ingested alongside,
/// in [`SEGMENTS`] segments with `pause` run between each two, then the
/// final publish, then the overload queries (if any) at the final version.
/// Returns the per-query records, the ingest log and the maximum sampled
/// queue depth per phase.
fn drive(
    server: &Arc<Server>,
    s: &Schedule,
    mut next_node: usize,
    mut pause: impl FnMut() -> Result<(), String>,
) -> Result<(Vec<Record>, IngestLog, [usize; 2]), String> {
    let log = Mutex::new(IngestLog::default());
    {
        let v = server.current();
        log.lock().expect("ingest log").versions.insert(v.version, v);
    }
    let tail = s.ingest_at.len();
    let batch = tail.div_ceil(PUBLISH_EVERY).max(1);
    let (done_tx, done) = mpsc::channel::<Arrival>();
    let mut depth_max = [0usize; 2];
    let records = std::thread::scope(|scope| -> Result<Vec<Record>, String> {
        // Each forwarder blocks on one answer at a time and stamps it as it
        // arrives. There are more of them than the queue and the workers
        // can hold queries, so a submitted query always finds one idle.
        let jobs = (0..FORWARDERS)
            .map(|f| {
                let (job_tx, job_rx) = mpsc::channel::<(usize, Receiver<QueryResult>)>();
                let done_tx = done_tx.clone();
                scope.spawn(move || {
                    for (i, rx) in job_rx {
                        let got = rx.recv_timeout(ANSWER_LIMIT).ok();
                        let _ = done_tx.send((f, i, Instant::now(), got));
                    }
                });
                job_tx
            })
            .collect();
        drop(done_tx);
        // The ingest thread plays one segment per message: the tail edges
        // due in `from..to`, the one due at `from` falling due at `origin`.
        let (segment_tx, segment_rx) = mpsc::channel::<(Instant, f64, f64)>();
        let (segment_done_tx, segment_done) = mpsc::channel::<()>();
        let log_ref = &log;
        let ingest_thread = scope.spawn(move || {
            let mut i = 0;
            for (origin, from, to) in segment_rx {
                while i < tail && s.ingest_at[i] < to {
                    sleep_until(origin + Duration::from_secs_f64(s.ingest_at[i] - from));
                    let e = s.bootstrap_edges + i;
                    ingest(server, &s.trace, e, e + 1, &mut next_node);
                    if (i + 1) % batch == 0 && i + 1 < tail {
                        publish(server, log_ref);
                    }
                    i += 1;
                }
                let _ = segment_done_tx.send(());
            }
        });

        let mut col = Collector {
            jobs,
            idle: (0..FORWARDERS).collect(),
            done,
            records: Vec::with_capacity(s.queries.len()),
            pending: 0,
        };
        let nominal: Vec<&Planned> =
            s.queries.iter().filter(|q| q.phase == Phase::Nominal).collect();
        for k in 0..SEGMENTS {
            if k > 0 {
                pause()?;
            }
            let from = s.nominal_s * k as f64 / SEGMENTS as f64;
            let to = if k + 1 == SEGMENTS {
                f64::INFINITY
            } else {
                s.nominal_s * (k + 1) as f64 / SEGMENTS as f64
            };
            // The segment starts once this thread is back from its pause.
            let origin = Instant::now() + Duration::from_millis(20);
            segment_tx.send((origin, from, to)).expect("ingest thread runs");
            let queries = nominal.iter().copied().filter(|q| q.at >= from && q.at < to);
            col.play(server, queries, origin, from, &mut depth_max[0]);
            segment_done.recv().expect("ingest thread runs");
        }
        drop(segment_tx);
        ingest_thread.join().expect("ingest thread");
        // The last batch is published once the nominal phase is over, so
        // the phase after it starts at a fresh version, its cache empty
        // but for promotions, on every seed.
        publish(server, &log);
        let start = Instant::now();
        let overload = s.queries.iter().filter(|q| q.phase == Phase::Overload);
        col.play(server, overload, start, s.nominal_s, &mut depth_max[1]);
        Ok(col.records)
    })?;
    Ok((records, log.into_inner().expect("ingest log"), depth_max))
}

/// Publishes, timing the call, and logs the published state.
fn publish(server: &Server, log: &Mutex<IngestLog>) {
    let t0 = Instant::now();
    server.publish();
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let v = server.current();
    let mut log = log.lock().expect("ingest log");
    log.publish_ms.push(ms);
    log.versions.insert(v.version, v);
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Post-run gates: answers are never older than the version current at
/// admission, and a seeded sample of misses equals the offline answer at
/// the version it was served from.
fn gate_answers(
    records: &[Record],
    log: &IngestLog,
    metrics: &[Box<dyn Metric>],
    seed: u64,
) -> Result<(), String> {
    let top_degree = serve_config().top_degree;
    let mut misses = Vec::new();
    for (i, r) in records.iter().enumerate() {
        if let Some(res) = &r.result {
            gate!(
                res.version >= r.admitted_version,
                "query {i} answered at version {} < admission version {}",
                res.version,
                r.admitted_version
            );
            if !res.cache_hit {
                misses.push(i);
            }
        }
    }
    let mut rng = seed ^ 0x0AC1_E000_0000_0002;
    let mut sample: Vec<usize> = (0..ORACLE_SAMPLE.min(misses.len()))
        .map(|_| misses[(splitmix64(&mut rng) % misses.len() as u64) as usize])
        .collect();
    sample.sort_unstable();
    sample.dedup();
    let mut universes: BTreeMap<(u64, u8), CandidateSet> = BTreeMap::new();
    for i in sample {
        let r = &records[i];
        let res = r.result.as_ref().expect("sampled from answered");
        let v = log
            .versions
            .get(&res.version)
            .ok_or_else(|| format!("version {} unlogged", res.version))?;
        let m = metrics[r.metric as usize].as_ref();
        let policy = m.candidate_policy();
        let universe = universes
            .entry((res.version, policy as u8))
            .or_insert_with(|| CandidateSet::build(&v.snapshot, policy, top_degree));
        gate!(
            *res.topk == oracle(m, v, universe, r.source),
            "query {i} ({} source {}) at version {}: served answer != offline",
            m.name(),
            r.source,
            res.version
        );
    }
    Ok(())
}

pub fn run(run: &Run) -> Result<Outcome, String> {
    let metrics: Vec<Box<dyn Metric>> =
        METRICS.iter().map(|n| osn_metrics::metric_by_name(n).expect("served metric")).collect();

    // Every set-up builds the same server from the same inputs. The first
    // is gated for parity and discarded with the rest; the last is timed,
    // its cache holding only the warm-up answers.
    let mut setup_secs = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for i in 0..SETUPS {
        let t0 = Instant::now();
        let s = schedule(run.seed, run.seconds);
        let (server, next_node) = set_up(&s, QUEUE_CAPACITY);
        setup_secs.push(t0.elapsed().as_secs_f64());
        if i == 0 {
            gate_parity(&server, &metrics)?;
        }
        if let Some((old, _, _)) = kept.replace((server, next_node, s)) {
            old.shutdown();
        }
    }
    let (server, next_node, mut s) = kept.expect("SETUPS > 0");
    gate_digest(&server, &s)?;
    let bootstrap = server.current();
    let burst = burst_queries(bootstrap.snapshot.node_count(), warm_source(&bootstrap));
    // The overload phase feeds only per-layer figures (its goodput spread
    // 0.18-0.35 of its median over ten seeds on the reference host, beyond
    // any end-to-end bound), so timed runs play the capacity bursts and the
    // nominal phase, and the traced run the nominal and overload phases.
    if !run.trace {
        s.queries.retain(|q| q.phase != Phase::Overload);
        s.overload_s = 0.0;
    }
    let in_phase = |p: Phase| s.queries.iter().filter(|q| q.phase == p).count();
    eprintln!(
        "serve: {} bootstrap edges, {} tail edges; {} nominal queries over {:.1}s, {} overload \
         over {:.1}s, {} capacity bursts of {}; bootstrap parity passed",
        s.bootstrap_edges,
        s.ingest_at.len(),
        in_phase(Phase::Nominal),
        s.nominal_s,
        in_phase(Phase::Overload),
        s.overload_s,
        if run.trace { 0 } else { SEGMENTS + 1 },
        burst.len()
    );

    // Capacity bursts (timed run only) run before, inside and after the
    // nominal phase.
    let mut burst_secs = Vec::new();
    let mut burst_answers = Vec::new();
    let mut capacity = || -> Result<(), String> {
        if !run.trace {
            let (secs, answers) = capacity_burst(&s, &burst)?;
            burst_secs.push(secs);
            burst_answers.push(answers);
        }
        Ok(())
    };
    capacity()?;
    let before = server.stats();
    let rss_reset = crate::host::reset_peak_rss();
    // The peak covers the bursts inside the nominal phase too: memory a
    // burst's server frees stays with the allocator for the next one.
    let (records, log, depth_max) = drive(&server, &s, next_node, &mut capacity)?;
    let peak_rss = crate::host::peak_rss_mb();
    let after = server.stats();
    server.shutdown();
    capacity()?;
    gate!(after.pending_edges == 0, "final publish left {} edges pending", after.pending_edges);
    gate_answers(&records, &log, &metrics, run.seed)?;
    if !burst_answers.is_empty() {
        gate_bursts(&burst_answers, &burst, &bootstrap, &metrics)?;
    }

    let nominal: Vec<&Record> = records.iter().filter(|r| r.phase == Phase::Nominal).collect();
    let overload: Vec<&Record> = records.iter().filter(|r| r.phase == Phase::Overload).collect();
    let within = |r: &&&Record| r.status == Status::Answered && r.latency_ms <= SLO_MS;
    // A rejected or unanswered query counts at the answer limit: finite,
    // so the run still reports, and far past any latency a served query sees.
    let capped = |r: &&Record| r.latency_ms.min(ANSWER_LIMIT.as_secs_f64() * 1e3);
    let mut lat = stats::summarize(&nominal.iter().map(capped).collect::<Vec<_>>());
    // The median is taken over the locally scored queries (two thirds of
    // the mix). Over all queries it sits at about the 64th percentile of
    // the fast ones, where queueing behind a cold solve sets in, and it
    // spread to 0.57 of its median over ten seeds; the tail keeps every
    // query.
    let local_ms: Vec<f64> = nominal
        .iter()
        .filter(|r| is_local(metrics[r.metric as usize].as_ref()))
        .map(capped)
        .collect();
    lat.p50 = stats::median(&local_ms);
    let slo = nominal.iter().filter(within).count() as f64 / nominal.len() as f64;
    let goodput = overload.iter().filter(within).count() as f64 / s.overload_s.max(f64::EPSILON);
    let nominal_goodput = nominal.iter().filter(within).count() as f64 / s.nominal_s;
    let count = |rs: &[&Record], st: Status| rs.iter().filter(|r| r.status == st).count();
    // The fastest burst: each does the same work on the same state, and
    // the host only ever slows one down (see `linkbench/README.md`).
    let best_burst_s = burst_secs.iter().copied().fold(f64::INFINITY, f64::min);
    let capacity = burst.len() as f64 / best_burst_s;
    let mut out = Outcome::new(stats::median(&setup_secs));
    // A burst query that failed fails the run in `capacity_burst`.
    out.attempted = (nominal.len() + burst.len() * burst_secs.len()) as u64;
    out.failed = (nominal.len() - count(&nominal, Status::Answered)) as u64;
    let late = stats::summarize(&records.iter().map(|r| r.late_ms).collect::<Vec<_>>());
    let by_metric: Vec<String> = METRICS
        .iter()
        .enumerate()
        .map(|(mi, name)| {
            let ms: Vec<f64> =
                nominal.iter().filter(|r| r.metric as usize == mi).map(capped).collect();
            format!("{name} {:.3}", stats::median(&ms))
        })
        .collect();
    // One line per phase the run played.
    let notes = [
        format!("set-up times (s): {setup_secs:?}"),
        format!(
            "nominal: sent {} answered {} rejected {} failed {}; slo_attainment {slo:.4} at \
             {SLO_MS}ms; goodput {nominal_goodput:.2} q/s; latency p50 over {} local queries",
            nominal.len(),
            count(&nominal, Status::Answered),
            count(&nominal, Status::Rejected),
            count(&nominal, Status::Failed),
            local_ms.len()
        ),
        if overload.is_empty() {
            String::new()
        } else {
            format!(
                    "overload: sent {} answered {} rejected {} failed {}; goodput {goodput:.2} q/s",
                overload.len(),
                count(&overload, Status::Answered),
                count(&overload, Status::Rejected),
                count(&overload, Status::Failed)
            )
        },
        format!("nominal latency p50 by metric (ms): {}", by_metric.join(", ")),
        if burst_secs.is_empty() {
            String::new()
        } else {
            format!(
                "capacity: {} bursts of {} cold queries, times (s) {burst_secs:?}; fastest \
                 {capacity:.2} q/s",
                burst_secs.len(),
                burst.len()
            )
        },
        format!(
            "queue depth max nominal {} overload {}; generator late p50 {:.3}ms p{} {:.3}ms; {} publishes, \
             median {:.3}ms; VmHWM reset: {rss_reset}",
            depth_max[0],
            depth_max[1],
            late.p50,
            late.tail_pct,
            late.tail,
            log.publish_ms.len(),
            stats::median(&log.publish_ms)
        ),
    ];
    for n in notes.into_iter().filter(|n| !n.is_empty()) {
        eprintln!("serve: {n}");
        out.notes.push(n);
    }

    if run.trace {
        let mut layer = BTreeMap::new();
        let answered: Vec<&Record> = records.iter().filter(|r| r.result.is_some()).collect();
        let hits =
            answered.iter().filter(|r| r.result.as_ref().is_some_and(|x| x.cache_hit)).count();
        layer
            .insert("serve.cache_hit_rate".to_string(), hits as f64 / answered.len().max(1) as f64);
        layer.insert(
            "serve.accepted".into(),
            (after.admission.accepted - before.admission.accepted) as f64,
        );
        layer.insert(
            "serve.rejected".into(),
            (after.admission.rejected - before.admission.rejected) as f64,
        );
        layer.insert("serve.queue_depth_max".into(), depth_max[0].max(depth_max[1]) as f64);
        layer.insert("serve.slo_attainment".into(), slo);
        layer.insert("serve.overload_goodput_qps".into(), goodput);
        layer.insert("serve.nominal_goodput_qps".into(), nominal_goodput);
        layer.insert("serve.publish_ms.p50".into(), stats::median(&log.publish_ms));
        layer.insert("serve.generator_late_ms.tail".into(), late.tail);
        replay(&records, &log, &s, &metrics, &mut layer, &mut out)?;
        out.attempted = records.len() as u64;
        return Ok(out);
    }
    out.e2e(capacity, lat, peak_rss);
    Ok(out)
}

/// Class of a served metric for the service-time split.
fn is_local(m: &dyn Metric) -> bool {
    m.fused_kind().is_some()
}

/// Post-run single-threaded replay, untraced then traced: every publish
/// prefix through a fresh `SnapshotBuilder` (`graph.publish_merge`), and
/// every answered nominal-phase cache miss at its pinned version through
/// `query::candidate_targets` (`query.enumerate`),
/// `exec::score_pairs_targeted` on a fresh transient `SolverCache`
/// (`query.score.local` / `query.score.global`) and `topk::top_k_pairs`
/// (`topk.select`). The replayed service time of each miss gives its
/// queue wait as latency minus service.
fn replay(
    records: &[Record],
    log: &IngestLog,
    s: &Schedule,
    metrics: &[Box<dyn Metric>],
    layer: &mut BTreeMap<String, f64>,
    out: &mut Outcome,
) -> Result<(), String> {
    let misses: Vec<usize> = (0..records.len())
        .filter(|&i| records[i].phase == Phase::Nominal)
        .filter(|&i| records[i].result.as_ref().is_some_and(|r| !r.cache_hit))
        .collect();
    let mut tr = Tracer::default();
    let root = tr.begin("serve.replay");
    let per_query = replay_pass(records, &misses, log, s, metrics, Some(&mut tr))?;
    tr.end(root);

    // Tracing overhead, on every OVERHEAD_STRIDE-th miss: the full
    // untraced replay would double the run's longest phase.
    let subset: Vec<usize> = misses.iter().copied().step_by(OVERHEAD_STRIDE).collect();
    let t0 = Instant::now();
    replay_pass(records, &subset, log, s, metrics, None)?;
    let untraced_s = t0.elapsed().as_secs_f64();
    let mut probe = Tracer::default();
    let probe_root = probe.begin("serve.replay");
    replay_pass(records, &subset, log, s, metrics, Some(&mut probe))?;
    probe.end(probe_root);
    let traced_s = probe.spans()[probe_root].secs();

    // Service time per replayed miss: the sum of its spans.
    let mut service: BTreeMap<u64, f64> = BTreeMap::new();
    let mut phase_ms: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for sp in tr.spans().iter().filter(|sp| sp.run > 0) {
        let ms = sp.secs() * 1e3;
        *service.entry(sp.run).or_insert(0.0) += ms;
        phase_ms.entry(sp.name).or_default().push(ms);
    }
    let mut local = Vec::new();
    let mut global = Vec::new();
    for (&run, &ms) in &service {
        let r = &records[(run - 1) as usize];
        if is_local(metrics[r.metric as usize].as_ref()) {
            local.push(ms);
        } else {
            global.push(ms);
        }
    }
    let mut wait = Vec::new();
    for (i, r) in records.iter().enumerate() {
        if r.phase == Phase::Nominal && r.status == Status::Answered {
            let svc = service.get(&(i as u64 + 1)).copied().unwrap_or(0.0);
            wait.push((r.latency_ms - svc).max(0.0));
        }
    }
    let wait = stats::summarize(&wait);
    let local = stats::summarize(&local);
    let global = stats::summarize(&global);
    let mean = |name: &str| {
        let v = phase_ms.get(name).map_or(&[][..], |v| v.as_slice());
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    layer.insert("serve.queue_wait_ms.p50".into(), wait.p50);
    layer.insert("serve.queue_wait_ms.tail".into(), wait.tail);
    layer.insert("serve.service_ms.local.p50".into(), local.p50);
    layer.insert("serve.service_ms.local.tail".into(), local.tail);
    layer.insert("serve.service_ms.global.p50".into(), global.p50);
    layer.insert("serve.service_ms.global.tail".into(), global.tail);
    layer.insert("query.enumerate_ms".into(), mean("query.enumerate"));
    layer.insert("query.score_ms.local".into(), mean("query.score.local"));
    layer.insert("query.score_ms.global".into(), mean("query.score.global"));
    layer.insert("query.topk_ms".into(), mean("topk.select"));
    let merges = tr.spans().iter().filter(|sp| sp.name == "graph.publish_merge");
    let merges: Vec<f64> = merges.map(|sp| sp.secs() * 1e3).collect();
    layer.insert("graph.publish_merge_ms".into(), stats::median(&merges));
    let n = per_query.targets.len().max(1) as f64;
    layer.insert("query.targets".into(), per_query.targets.iter().sum::<usize>() as f64 / n);
    let ppr = &per_query.ppr_sources;
    layer.insert(
        "solver.ppr_sources_per_query".into(),
        if ppr.is_empty() { 0.0 } else { ppr.iter().sum::<u64>() as f64 / ppr.len() as f64 },
    );
    out.notes.push(format!(
        "replayed {} misses ({} local, {} global); queue wait p{} over {} nominal answers",
        misses.len(),
        local.count,
        global.count,
        wait.tail_pct,
        wait.count
    ));
    out.traced(std::mem::take(layer), &tr, traced_s, untraced_s)
}

#[derive(Default)]
struct ReplayCounts {
    targets: Vec<usize>,
    ppr_sources: Vec<u64>,
}

/// Per-version kernel state, built once per version as the server's
/// workers do.
struct VersionState<'v> {
    ctx: FusedCtx<'v>,
    fused: FusedScratch,
    enumerate: EnumScratch,
}

fn replay_pass(
    records: &[Record],
    misses: &[usize],
    log: &IngestLog,
    s: &Schedule,
    metrics: &[Box<dyn Metric>],
    mut tr: Option<&mut Tracer>,
) -> Result<ReplayCounts, String> {
    let cfg = serve_config();
    let mut counts = ReplayCounts::default();
    let mut builder = osn_graph::builder::SnapshotBuilder::new(&s.trace);
    for v in log.versions.values().filter(|v| v.version > 1) {
        let id = open(&mut tr, "graph.publish_merge");
        std::hint::black_box(builder.advance_to(v.snapshot.prefix_len()));
        close(&mut tr, id);
    }
    drop(builder);
    let mut states: BTreeMap<u64, VersionState<'_>> = BTreeMap::new();
    for &i in misses {
        let r = &records[i];
        let version = r.result.as_ref().expect("answered").version;
        let v = &log.versions[&version];
        let snap: &Snapshot = &v.snapshot;
        if let Some(t) = tr.as_deref_mut() {
            t.set_run(0);
        }
        let st = match states.entry(version) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                let id = open(&mut tr, "fused.ctx_build");
                let state = e.insert(VersionState {
                    ctx: FusedCtx::build(snap, &LocalKind::ALL),
                    fused: FusedScratch::new(snap.node_count()),
                    enumerate: EnumScratch::new(snap.node_count()),
                });
                close(&mut tr, id);
                state
            }
        };
        let m = metrics[r.metric as usize].as_ref();
        let policy: CandidatePolicy = m.candidate_policy();
        if let Some(t) = tr.as_deref_mut() {
            t.set_run(i as u64 + 1);
        }
        let id = open(&mut tr, "query.enumerate");
        let pairs = candidate_targets(snap, r.source, policy, &v.hubs, &mut st.enumerate);
        close(&mut tr, id);
        counts.targets.push(pairs.len());
        if pairs.is_empty() {
            continue;
        }
        let mut solver = SolverCache::transient();
        let id =
            open(&mut tr, if is_local(m) { "query.score.local" } else { "query.score.global" });
        let scores = osn_metrics::exec::score_pairs_targeted(
            m,
            snap,
            &st.ctx,
            &mut st.fused,
            &pairs,
            &mut solver,
        );
        close(&mut tr, id);
        if m.name() == "PPR" {
            counts.ppr_sources.push(solver.stats.ppr_sources);
        }
        let id = open(&mut tr, "topk.select");
        let topk = osn_metrics::topk::top_k_pairs(&pairs, &scores, cfg.k, cfg.seed);
        close(&mut tr, id);
        gate!(
            *r.result.as_ref().expect("answered").topk == topk,
            "query {i} ({} source {}): replay at version {version} != served answer",
            m.name(),
            r.source
        );
    }
    if let Some(t) = tr {
        t.set_run(0);
    }
    Ok(counts)
}
