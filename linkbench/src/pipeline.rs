//! The `trace-pipeline` workload: a large trace through the out-of-core
//! path, with no scoring at all.
//!
//! One pass: `osn_trace::stream::generate_streaming` of the renren-like
//! preset at scale 50 over 120 days straight into a sectioned LLTC
//! `CacheFileWriter`, then a `SectionedCacheReader` (which verifies every
//! section checksum on open) feeding a `StreamingSequence` sweep over 12
//! snapshots to the last boundary. The unit-operation latency is one
//! simulated day of generation and cache write, timed at the sink where
//! the day's events land. The correctness gate checks the cache the last
//! pass wrote, after timing and before anything is reported: one more full
//! pass before timing would cost as much as the measurement itself.

use crate::tracer::{close, open, Tracer};
use crate::{gate, stats, Outcome, Run};
use osn_graph::io::{CacheFileWriter, SectionedCacheReader, TraceIoError, TraceReader};
use osn_graph::sequence::SnapshotSequence;
use osn_graph::snapshot::Snapshot;
use osn_graph::stream::StreamingSequence;
use osn_graph::temporal::TimedEdge;
use osn_graph::{NodeId, Timestamp, DAY};
use osn_trace::presets::TraceConfig;
use osn_trace::stream::EventSink;
use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::{Duration, Instant};

const SCALE: f64 = 50.0;
const DAYS: u32 = 120;
const SNAPSHOTS: usize = 12;
/// `--seconds` is divided by this to fix the number of passes: three at
/// the default 10 s. A pass itself takes 9-14 s on the 2-core reference
/// host; three are what the benchmark's time budget leaves room for.
const PASS_SECONDS: f64 = 3.5;
/// Set-up warms the same path on a small trace of the same preset.
const WARM_SCALE: f64 = 2.0;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

fn config(scale: f64) -> TraceConfig {
    TraceConfig::renren_like().scaled(scale).with_days(DAYS)
}

/// The cache sink: forwards to the LLTC writer, closes a per-day latency
/// sample whenever the event clock crosses into a new day, and (traced
/// runs) sums the time spent inside the writer.
struct Sink {
    inner: CacheFileWriter,
    time_calls: bool,
    busy: Duration,
    calls: u64,
    day: Timestamp,
    mark: Instant,
    day_ms: Vec<f64>,
}

impl Sink {
    fn create(path: &Path, time_calls: bool) -> Result<Self, TraceIoError> {
        Ok(Sink {
            inner: CacheFileWriter::create(path)?,
            time_calls,
            busy: Duration::ZERO,
            calls: 0,
            day: 0,
            mark: Instant::now(),
            day_ms: Vec::new(),
        })
    }

    fn clock(&mut self, t: Timestamp) {
        let day = t / DAY;
        if day != self.day {
            let now = Instant::now();
            self.day_ms.push((now - self.mark).as_secs_f64() * 1e3);
            self.mark = now;
            self.day = day;
        }
    }

    fn call<T>(&mut self, f: impl FnOnce(&mut CacheFileWriter) -> T) -> T {
        if !self.time_calls {
            return f(&mut self.inner);
        }
        let t0 = Instant::now();
        let out = f(&mut self.inner);
        self.busy += t0.elapsed();
        self.calls += 1;
        out
    }
}

impl EventSink for Sink {
    fn arrival(&mut self, t: Timestamp) -> Result<NodeId, TraceIoError> {
        self.clock(t);
        self.call(|w| w.push_arrival(t))
    }

    fn edge(&mut self, u: NodeId, v: NodeId, t: Timestamp) -> Result<(), TraceIoError> {
        self.clock(t);
        self.call(|w| w.push_edge(u, v, t))
    }
}

/// A reader that sums the time spent in window reads into a shared cell,
/// so the sweep that owns it can be attributed from outside.
struct TimedReader {
    inner: SectionedCacheReader,
    busy: Rc<Cell<(Duration, u64)>>,
}

impl TraceReader for TimedReader {
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    fn edge_count(&self) -> usize {
        self.inner.edge_count()
    }

    fn arrivals(&self) -> &[Timestamp] {
        self.inner.arrivals()
    }

    fn read_edge_window(
        &mut self,
        start: usize,
        end: usize,
        out: &mut Vec<TimedEdge>,
    ) -> Result<(), TraceIoError> {
        let t0 = Instant::now();
        let r = self.inner.read_edge_window(start, end, out);
        let (busy, calls) = self.busy.get();
        self.busy.set((busy + t0.elapsed(), calls + 1));
        r
    }
}

/// Order-sensitive digest of a snapshot's full CSR content.
pub fn digest(snap: &Snapshot) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut mix = |x: u64| h = (h ^ x).wrapping_mul(0x0000_0100_0000_01B3);
    mix(snap.node_count() as u64);
    mix(snap.time());
    for u in 0..snap.node_count() as NodeId {
        for (&v, &t) in snap.neighbors(u).iter().zip(snap.neighbor_times(u)) {
            mix(v as u64);
            mix(t);
        }
    }
    h
}

/// What one pass produced.
struct Pass {
    secs: f64,
    edges: usize,
    day_ms: Vec<f64>,
}

/// One pass of the pipeline into `path`; with a tracer, each layer call
/// gets a span.
fn pass(
    cfg: &TraceConfig,
    seed: u64,
    path: &Path,
    mut tr: Option<&mut Tracer>,
) -> Result<Pass, String> {
    let t0 = Instant::now();
    let mut sink = Sink::create(path, tr.is_some()).map_err(|e| format!("create cache: {e}"))?;
    let gen = open(&mut tr, "trace.generate");
    let summary = osn_trace::stream::generate_streaming(cfg, seed, &mut sink)
        .map_err(|e| format!("streaming generation: {e}"))?;
    if let Some(t) = tr.as_deref_mut() {
        t.aggregate("io.write", sink.busy, sink.calls);
    }
    close(&mut tr, gen);
    let Sink { inner, mut day_ms, mark, .. } = sink;
    let fin = open(&mut tr, "io.write");
    let written = inner.finish().map_err(|e| format!("finish cache: {e}"))?;
    day_ms.push(mark.elapsed().as_secs_f64() * 1e3);
    close(&mut tr, fin);
    gate!(
        written.nodes == summary.nodes && written.edges == summary.edges,
        "cache summary {written:?} disagrees with the generator's {summary:?}"
    );

    let read = open(&mut tr, "io.read");
    let reader = SectionedCacheReader::open(path).map_err(|e| format!("open cache: {e}"))?;
    if let Some(t) = tr.as_deref_mut() {
        t.count("io.sections_read", reader.edge_section_count() as f64);
        t.count("io.bytes_written", std::fs::metadata(path).map_or(0, |m| m.len()) as f64);
    }
    close(&mut tr, read);
    let busy = Rc::new(Cell::new((Duration::ZERO, 0u64)));
    let reader = TimedReader { inner: reader, busy: Rc::clone(&busy) };
    let mut sweep = StreamingSequence::with_count(reader, SNAPSHOTS).sweep();
    loop {
        let before = busy.get();
        let id = open(&mut tr, "graph.stream_advance");
        let next = sweep.next().map_err(|e| format!("streaming sweep: {e}"))?;
        if next.is_none() {
            close(&mut tr, id);
            break;
        }
        if let Some(t) = tr.as_deref_mut() {
            let after = busy.get();
            t.aggregate("io.read", after.0 - before.0, after.1 - before.1);
        }
        close(&mut tr, id);
    }
    drop(sweep);
    Ok(Pass { secs: t0.elapsed().as_secs_f64(), edges: summary.edges, day_ms })
}

/// Gate on the cache the last pass left behind: the streaming sweep's
/// snapshot digests must equal an in-core `SnapshotBuilder` sweep of the
/// same cache, loaded whole.
fn gate_cache(path: &Path) -> Result<(), String> {
    let reader = SectionedCacheReader::open(path).map_err(|e| format!("open cache: {e}"))?;
    let mut sweep = StreamingSequence::with_count(reader, SNAPSHOTS).sweep();
    let mut streamed = Vec::new();
    while let Some(snap) = sweep.next().map_err(|e| format!("streaming sweep: {e}"))? {
        streamed.push(digest(snap));
    }
    drop(sweep);
    let trace = osn_graph::io::read_cache_file(path).map_err(|e| format!("load cache: {e}"))?;
    let seq = SnapshotSequence::with_count(&trace, SNAPSHOTS);
    let mut sweep = seq.snapshots();
    let mut in_core = Vec::new();
    while let Some(snap) = sweep.next() {
        in_core.push(digest(snap));
    }
    gate!(streamed.len() == SNAPSHOTS, "streaming sweep yielded {} snapshots", streamed.len());
    gate!(
        streamed == in_core,
        "streaming sweep digests differ from the in-core SnapshotBuilder sweep"
    );
    eprintln!("trace-pipeline: {SNAPSHOTS} streaming digests equal the in-core sweep");
    Ok(())
}

/// Removes the cache file (and any temporary sibling) when dropped.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
        let _ = std::fs::remove_file(self.0.with_extension("llc.tmp"));
    }
}

pub fn run(run: &Run) -> Result<Outcome, String> {
    let dir = Path::new(".linkbench-out");
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let file = Scratch(dir.join(format!("pipeline-{}.lltc", std::process::id())));
    let cfg = config(SCALE);

    let mut setup_secs = Vec::new();
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        pass(&config(WARM_SCALE), run.seed, &file.0, None)?;
        setup_secs.push(t0.elapsed().as_secs_f64());
    }

    let mut out = Outcome::new(stats::median(&setup_secs));
    if run.trace {
        let untraced = pass(&cfg, run.seed, &file.0, None)?;
        let mut tr = Tracer::default();
        let root = tr.begin("pipeline");
        pass(&cfg, run.seed, &file.0, Some(&mut tr))?;
        tr.end(root);
        gate_cache(&file.0)?;
        let traced_s = tr.spans()[root].secs();
        let own = tr.self_by_name();
        let mut layer = std::collections::BTreeMap::new();
        for name in ["trace.generate", "io.write", "io.read", "graph.stream_advance"] {
            layer.insert(format!("{name}_s"), own.get(name).copied().unwrap_or(0.0));
        }
        for (k, v) in tr.counts() {
            layer.insert(k.to_string(), *v);
        }
        out.attempted = 2;
        out.traced(layer, &tr, traced_s, untraced.secs)?;
        return Ok(out);
    }

    let rss_reset = crate::host::reset_peak_rss();
    let mut secs = Vec::new();
    // Each day's fastest time over the passes.
    let mut day_ms: Vec<f64> = Vec::new();
    let mut edges = 0;
    for _ in 0..crate::repetitions(run.seconds, PASS_SECONDS) {
        let p = pass(&cfg, run.seed, &file.0, None)?;
        gate!(edges == 0 || edges == p.edges, "pass produced {} edges, not {edges}", p.edges);
        gate!(
            day_ms.is_empty() || day_ms.len() == p.day_ms.len(),
            "pass closed {} days, not {}",
            p.day_ms.len(),
            day_ms.len()
        );
        edges = p.edges;
        secs.push(p.secs);
        if day_ms.is_empty() {
            day_ms = p.day_ms;
        } else {
            day_ms.iter_mut().zip(&p.day_ms).for_each(|(best, &ms)| *best = best.min(ms));
        }
    }
    let peak_rss = crate::host::peak_rss_mb();
    gate_cache(&file.0)?;
    out.attempted = secs.len() as u64;
    // Every pass does the same work, and the host only ever slows one
    // down, so the fastest pass (and each day's fastest time) is the
    // estimate least moved by other load (see `linkbench/README.md`).
    let pipeline_s = secs.iter().copied().fold(f64::INFINITY, f64::min);
    let lat = stats::summarize_at(&day_ms, stats::tail_percentile(DAYS as usize));
    eprintln!(
        "trace-pipeline: {} passes, fastest {pipeline_s:.3}s ({:.0} edges/s); day p50 {:.3}ms \
         p{} {:.3}ms (n={}); VmHWM reset: {rss_reset}",
        secs.len(),
        edges as f64 / pipeline_s,
        lat.p50,
        lat.tail_pct,
        lat.tail,
        lat.count
    );
    out.notes.push(format!("pipeline_s per pass: {secs:?}"));
    out.e2e(edges as f64 / pipeline_s, lat, peak_rss);
    Ok(out)
}
