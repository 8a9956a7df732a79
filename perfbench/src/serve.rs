//! The serve-with-updates phase: one closed-loop reader querying the
//! currently published `SccIndexReader` generation while one writer applies
//! single-edge updates through a `DeltaEngine` and publishes a freshly
//! opened reader after every commit, as `scc serve` does. A run serves in
//! several slices between its SCC computations; a [`Server`] carries the
//! operation streams and the measurements from one slice to the next.
//!
//! The operation streams follow the repository's own generators:
//!
//! - Queries use the split of `scc serve --queries` (`gen_query` in
//!   `src/bin/scc.rs`): 70% point lookups, 20% pair checks, 10% batches of
//!   16 nodes. One of the seven point-lookup slots asks for the
//!   component's size (the protocol's `z` query), so the size path is
//!   exercised as well.
//! - Updates use the add bias of the `churn` family of the differential
//!   delta gate (`crates/harness/src/delta.rs`): 55% inserts of a uniform
//!   random edge, 45% removals of a uniformly chosen present edge.
//!
//! The writer works in episodes of [`EPISODE`] commits. Each episode starts
//! from the index as it was first built, with the edge list reset to the
//! generated graph, and goes on with the seeded update stream. A full
//! episode ends with a `compact`; the end of a slice may cut one short.
//! Left to run on, the index would drift (components merge, the artifact
//! shrinks, the journal grows), and the cost of an update would depend on
//! how many updates came before it, that is on the host's speed: over 50 s
//! of serving on `index-serve` the median update got 40% cheaper.
//! Restarting from the built index makes every episode alike, so a faster
//! host serves more episodes rather than different ones.
//!
//! `scc serve` never compacts, so readers see conservative labels for the
//! components a removal marked dirty. The `compact` that closes an episode
//! is a chosen policy, timed on its own and not counted in any update's
//! latency. On `web-contract` a slice ends before an episode is full, so
//! only the final check's `compact` runs there.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use contract_expand::graph::tarjan::tarjan_scc;
use contract_expand::prelude::*;

use crate::probe;
use crate::stats::{Reservoir, Rng};
use crate::trace::{merge_tables, timed, LayerSink, SpanTable};

/// Pool frames of every published reader (the `scc serve` default).
pub const READER_CACHE_BLOCKS: usize = 1024;
/// Latency samples the reader keeps (a uniform reservoir).
const RESERVOIR: usize = 1 << 20;
/// Nodes per `component_of_many` batch (the `scc serve --batch` default).
const BATCH: usize = 16;
/// Share of updates that insert an edge, in percent.
const INSERT_PERCENT: u64 = 55;
/// Commits in an episode.
pub const EPISODE: u64 = 64;

/// The reader generation the writer last published.
struct Published {
    generation: AtomicU64,
    reader: Mutex<SccIndexReader>,
}

impl Published {
    fn current(&self) -> (u64, SccIndexReader) {
        let g = self.generation.load(Ordering::SeqCst);
        let r = self
            .reader
            .lock()
            .expect("a reader panicked holding the slot")
            .clone();
        (g, r)
    }

    fn publish(&self, reader: SccIndexReader) {
        *self
            .reader
            .lock()
            .expect("a reader panicked holding the slot") = reader;
        self.generation.fetch_add(1, Ordering::SeqCst);
    }
}

/// One applied update.
#[derive(Debug, Clone, Copy)]
pub struct Update {
    /// Apply plus publish of the new reader: when the update is visible.
    pub visible_ms: f64,
    /// `DeltaEngine::apply` alone.
    pub apply_ms: f64,
    pub merge: bool,
    pub insert: bool,
    pub ios: u64,
    pub label_pages: u64,
    pub wchar: u64,
}

/// What the reader thread saw.
#[derive(Default)]
pub struct ReaderStats {
    pub queries: u64,
    pub failures: u64,
    /// Sampled query latencies, µs.
    pub latency_us: Vec<f64>,
    /// Logical block reads of all queries.
    pub reads: u64,
    /// Pool hits and misses, summed over the generations read.
    pub hits: u64,
    pub misses: u64,
    /// The reader thread's span table (traced run only).
    pub spans: SpanTable,
}

impl ReaderStats {
    fn fold(&mut self, r: &SccIndexReader) {
        let io = r.stats();
        self.reads += io.seq_reads + io.rand_reads;
        let p = r.phys();
        self.hits += p.hits;
        self.misses += p.misses;
    }

    fn add(&mut self, other: ReaderStats) {
        self.queries += other.queries;
        self.failures += other.failures;
        self.reads += other.reads;
        self.hits += other.hits;
        self.misses += other.misses;
        merge_tables(&mut self.spans, &other.spans);
    }
}

#[derive(Default)]
pub struct ServeOutcome {
    pub wall: Duration,
    pub reader: ReaderStats,
    pub updates: Vec<Update>,
    pub update_failures: u64,
    pub compact_s: Vec<f64>,
    pub open_ms: Vec<f64>,
}

/// The serve phase's state across the slices of a run.
pub struct Server {
    path: PathBuf,
    /// A copy of the index as first built, which every episode starts from.
    base: PathBuf,
    n: u64,
    traced: bool,
    reader_rng: Rng,
    writer_rng: Rng,
    latencies: Reservoir,
    /// The generated graph's edges, and the current edge multiset, kept in
    /// step with every applied update so removals always name a present
    /// edge.
    base_edges: Vec<(NodeId, NodeId)>,
    edges: Vec<(NodeId, NodeId)>,
    out: ServeOutcome,
}

impl Server {
    /// Serves the index at `path` over `n` nodes, built from `edges`.
    pub fn new(
        path: &Path,
        n: u64,
        edges: Vec<(NodeId, NodeId)>,
        seed: u64,
        traced: bool,
    ) -> Server {
        Server {
            path: path.to_path_buf(),
            base: path.with_extension("base"),
            n,
            traced,
            reader_rng: Rng::new(seed, 11),
            writer_rng: Rng::new(seed, 21),
            latencies: Reservoir::new(RESERVOIR, Rng::new(seed, 12)),
            edges: edges.clone(),
            base_edges: edges,
            out: ServeOutcome::default(),
        }
    }

    /// The current edge multiset.
    pub fn edges(&self) -> &[(NodeId, NodeId)] {
        &self.edges
    }

    /// Serves for `duration`, in episodes, with a `DeltaEngine` over the
    /// session's index maintaining it. The first slice keeps a copy of the
    /// index as built; every episode restores it first.
    pub fn slice(&mut self, session: &SccSession, duration: Duration) -> io::Result<()> {
        if !self.base.exists() {
            fs::copy(&self.path, &self.base)?;
        }
        let Server {
            path,
            base,
            n,
            traced,
            reader_rng,
            writer_rng,
            latencies,
            base_edges,
            edges,
            out,
        } = self;
        let (n, traced) = (*n, *traced);
        let slot = Published {
            generation: AtomicU64::new(0),
            reader: Mutex::new(SccIndex::open_shared(path, READER_CACHE_BLOCKS)?),
        };
        let stop = AtomicBool::new(false);
        let t0 = Instant::now();
        let stats = std::thread::scope(|s| {
            let reader = s.spawn(|| reader_loop(&slot, &stop, n, reader_rng, latencies, traced));
            let mut writer = Writer {
                session,
                path,
                base,
                slot: &slot,
                rng: writer_rng,
                out: &mut *out,
            };
            let written = writer.run(base_edges, edges, n, t0 + duration);
            stop.store(true, Ordering::Relaxed);
            let stats = reader.join().expect("reader thread panicked");
            written.map(|()| stats)
        })?;
        out.wall += t0.elapsed();
        out.reader.add(stats);
        Ok(())
    }

    pub fn finish(self) -> ServeOutcome {
        let mut out = self.out;
        out.reader.latency_us = self.latencies.into_values();
        out
    }
}

fn reader_loop(
    slot: &Published,
    stop: &AtomicBool,
    n: u64,
    rng: &mut Rng,
    latencies: &mut Reservoir,
    traced: bool,
) -> ReaderStats {
    let sink = traced.then(LayerSink::install);
    let mut stats = ReaderStats::default();
    let (mut generation, mut reader) = slot.current();
    let mut many = vec![0 as NodeId; BATCH];
    while !stop.load(Ordering::Relaxed) {
        if slot.generation.load(Ordering::SeqCst) != generation {
            stats.fold(&reader);
            (generation, reader) = slot.current();
        }
        let u = rng.below(n) as NodeId;
        let v = rng.below(n) as NodeId;
        let kind = rng.below(10);
        if kind == 9 {
            for x in many.iter_mut() {
                *x = rng.below(n) as NodeId;
            }
        }
        let (ok, wall) = timed("bench.query", || match kind {
            0..=5 => reader.component_of(u).is_ok(),
            6 => reader.component_size(u).is_ok(),
            7..=8 => reader.same_component(u, v).is_ok(),
            _ => reader.component_of_many(&many).is_ok(),
        });
        stats.queries += 1;
        stats.failures += u64::from(!ok);
        latencies.push(wall.as_secs_f64() * 1e6);
    }
    stats.fold(&reader);
    stats.spans = sink.map(|(s, _guard)| s.table()).unwrap_or_default();
    stats
}

/// The writer thread's view of a slice.
struct Writer<'a> {
    session: &'a SccSession,
    path: &'a Path,
    base: &'a Path,
    slot: &'a Published,
    rng: &'a mut Rng,
    out: &'a mut ServeOutcome,
}

impl<'a> Writer<'a> {
    /// Opens a fresh reader on the current generation and publishes it.
    fn publish(&mut self) -> io::Result<Duration> {
        let (reader, wall) = timed("bench.open_shared", || {
            SccIndex::open_shared(self.path, READER_CACHE_BLOCKS)
        });
        self.out.open_ms.push(wall.as_secs_f64() * 1e3);
        self.slot.publish(reader?);
        Ok(wall)
    }

    /// Puts the index as first built back in place, the way the engine
    /// commits a generation (a copy under a temporary name, then a rename),
    /// so a reader still on the old generation keeps its file. The journal
    /// sidecar (`<artifact>.dlog`, see `ce_graph::index`) goes too: the
    /// built index has none. The pool forgets every name involved, and a
    /// fresh engine and reader are opened on the restored generation.
    fn restore(&mut self) -> io::Result<DeltaEngine<'a>> {
        let env = self.session.env();
        let tmp = self.path.with_extension("restore");
        let mut journal = self.path.as_os_str().to_owned();
        journal.push(".dlog");
        let journal = PathBuf::from(journal);
        fs::copy(self.base, &tmp)?;
        fs::rename(&tmp, self.path)?;
        match fs::remove_file(&journal) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
            _ => {}
        }
        for p in [self.path, tmp.as_path(), journal.as_path()] {
            env.evict(p);
        }
        let engine = self.session.delta_engine()?;
        self.publish()?;
        Ok(engine)
    }

    /// Runs episodes until `deadline`; the last one may be cut short. A
    /// full episode ends with a `compact`.
    fn run(
        &mut self,
        base_edges: &[(NodeId, NodeId)],
        edges: &mut Vec<(NodeId, NodeId)>,
        n: u64,
        deadline: Instant,
    ) -> io::Result<()> {
        while Instant::now() < deadline {
            let mut engine = self.restore()?;
            edges.clear();
            edges.extend_from_slice(base_edges);
            let mut commits = 0;
            while commits < EPISODE && Instant::now() < deadline {
                if self.update(&mut engine, edges, n)? {
                    commits += 1;
                }
            }
            if commits == EPISODE {
                let (r, wall) = timed("bench.compact", || engine.compact());
                match r {
                    Ok(_) => self.out.compact_s.push(wall.as_secs_f64()),
                    Err(_) => self.out.update_failures += 1,
                }
                self.publish()?;
            }
        }
        Ok(())
    }

    /// Applies one update of the stream and publishes the new generation.
    /// Returns whether it committed.
    fn update(
        &mut self,
        engine: &mut DeltaEngine<'_>,
        edges: &mut Vec<(NodeId, NodeId)>,
        n: u64,
    ) -> io::Result<bool> {
        let insert = edges.is_empty() || self.rng.below(100) < INSERT_PERCENT;
        let (batch, removed) = if insert {
            let e = (self.rng.below(n) as NodeId, self.rng.below(n) as NodeId);
            (DeltaBatch::new().add(e.0, e.1), None)
        } else {
            let i = self.rng.below(edges.len() as u64) as usize;
            let e = edges.swap_remove(i);
            (DeltaBatch::new().remove(e.0, e.1), Some(e))
        };
        let w0 = probe::wchar_bytes()?;
        let (r, apply) = timed("bench.apply", || engine.apply(&batch));
        let wchar = probe::wchar_bytes()? - w0;
        let rep = match r {
            Ok(rep) => rep,
            Err(_) => {
                self.out.update_failures += 1;
                edges.extend(removed);
                return Ok(false);
            }
        };
        if let Some(e) = batch.edges_added.first() {
            edges.push(*e);
        }
        let open = self.publish()?;
        self.out.updates.push(Update {
            visible_ms: (apply + open).as_secs_f64() * 1e3,
            apply_ms: apply.as_secs_f64() * 1e3,
            merge: rep.merges > 0,
            insert,
            ios: rep.ios.total_ios(),
            label_pages: rep.label_pages_rewritten,
            wchar,
        });
        Ok(true)
    }
}

/// The final-generation check, after a last compaction so that no
/// component is dirty: the engine's labels must equal a from-scratch Tarjan
/// run over the mutated edge multiset, and a seeded sample of answers from
/// a reader on the final generation must match it.
/// Returns (checks attempted, checks failed, seconds of the compaction).
pub fn verify_final(
    engine: &mut DeltaEngine<'_>,
    path: &Path,
    edges: &[(NodeId, NodeId)],
    n: u64,
    seed: u64,
) -> io::Result<(u64, u64, f64)> {
    let as_edges: Vec<Edge> = edges.iter().map(|&(u, v)| Edge::new(u, v)).collect();
    let reps = tarjan_scc(&CsrGraph::from_edges(n, &as_edges)).canonical_reps();
    let mut sizes = vec![0u64; n as usize];
    for &r in &reps {
        sizes[r as usize] += 1;
    }
    let (compacted, compact) = timed("bench.compact", || engine.compact());
    compacted?;
    let mut attempted = 1;
    let mut failed = u64::from(engine.labels_snapshot()? != reps);

    let reader = SccIndex::open_shared(path, READER_CACHE_BLOCKS)?;
    let mut rng = Rng::new(seed, 31);
    for _ in 0..2000 {
        let u = rng.below(n) as NodeId;
        let v = rng.below(n) as NodeId;
        let many: Vec<NodeId> = (0..BATCH).map(|_| rng.below(n) as NodeId).collect();
        let want_many: Vec<NodeId> = many.iter().map(|&x| reps[x as usize]).collect();
        let ok = reader.component_of(u).ok() == Some(reps[u as usize])
            && reader.same_component(u, v).ok() == Some(reps[u as usize] == reps[v as usize])
            && reader.component_size(u).ok() == Some(sizes[reps[u as usize] as usize])
            && reader.component_of_many(&many).ok() == Some(want_many);
        attempted += 1;
        failed += u64::from(!ok);
    }
    Ok((attempted, failed, compact.as_secs_f64()))
}
