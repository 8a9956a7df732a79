//! One benchmark run: set-up, rounds of timed SCC computations and
//! serving with updates, the correctness checks, and the metrics.

use std::error::Error;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::{Duration, Instant};

use contract_expand::graph::labels::{condense_counted, same_partition};
use contract_expand::graph::tarjan::tarjan_scc;
use contract_expand::prelude::*;

use crate::probe::MemWindow;
use crate::serve::{self, ServeOutcome, Server, EPISODE, READER_CACHE_BLOCKS};
use crate::stats::{grid_quantile, mean, median, quantile};
use crate::trace::{merge_tables, timed, LayerSink, SpanTable};
use crate::workload::{Compute, Spec, THREADS};
use crate::{probe, Args};

type Res<T> = Result<T, Box<dyn Error>>;

/// An untraced run sets up at least `SETUP_REPS` times and for at least
/// `SETUP_SECONDS` in all; `setup_s` is the median. A set-up takes tens of
/// milliseconds, so a fixed count would cover too short a stretch of time
/// to outlast a slow spell of the host.
const SETUP_REPS: usize = 15;
const SETUP_SECONDS: f64 = 2.0;
/// Rounds of computing and serving in a run.
const ROUNDS: u32 = 5;
const MIB: f64 = (1u64 << 20) as f64;
/// Resolution of a query latency: `Instant` reads whole nanoseconds.
const TIMER_STEP_US: f64 = 1e-3;

/// Checks attempted and failed, with the first few failures described.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 20 {
                eprintln!("check failed: {}", what());
            }
        }
    }

    fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

pub struct RunResult {
    tally: Tally,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.tally.failed == 0
    }

    pub fn json(&self) -> String {
        let mut m = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                m,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct(),
            self.tally.attempted.max(1),
            self.tally.failed
        )
    }
}

/// A generated graph in its own session, plus the index the serve phase
/// maintains once the first computation has produced it.
struct Setup {
    dir: PathBuf,
    session: SccSession,
    plan: Plan,
    index: PathBuf,
    /// Wall time of building `index`, once it exists.
    index_build_s: Option<f64>,
}

impl Setup {
    fn create(spec: &Spec, seed: u64, dir: PathBuf) -> Res<Setup> {
        let family = spec.family;
        let session = SccSession::open_in(&dir.join("env"), spec.io_config(), spec.env_options())?
            .source(GraphSource::generator(move |env| {
                family.generate(env, seed)
            }))?;
        let session = session.condensation(spec.compute == Compute::BuildIndex);
        let plan = session.plan()?;
        fs::create_dir_all(dir.join("index"))?;
        Ok(Setup {
            index: dir.join("index").join("graph.sccidx"),
            dir,
            session,
            plan,
            index_build_s: None,
        })
    }

    fn graph(&self) -> &EdgeListGraph {
        self.session
            .graph()
            .expect("the session was sourced at set-up")
    }

    /// Drops the session and checks that its scratch directory holds no
    /// bytes any more, then removes everything the set-up created.
    fn teardown(self, tally: &mut Tally) -> Res<()> {
        let root = self.session.env().root().to_path_buf();
        drop(self.session);
        let left = probe::dir_bytes(&root);
        tally.check(left == 0, || {
            format!("{left} scratch bytes left in {}", root.display())
        });
        fs::remove_dir_all(&self.dir)?;
        Ok(())
    }
}

/// One timed SCC computation.
struct Sample {
    wall_s: f64,
    ios: IoSnapshot,
    phys: PhysSnapshot,
    report: Option<RunReport>,
}

/// Runs the workload's SCC computation one repetition at a time. Each
/// repetition's partition is checked against the oracle, and each must
/// leave the scratch directory as it found it. The first repetition also
/// yields the index the serve phase maintains: a contraction workload
/// indexes its labels, the indexing workload keeps its artifact.
struct Computer<'a> {
    spec: &'a Spec,
    oracle: &'a [NodeId],
    scratch: PathBuf,
    /// Scratch bytes between repetitions (the input graph alone).
    resting_bytes: Option<u64>,
    reps: usize,
    /// Largest rise of resident memory during any repetition, in bytes.
    peak_rss: u64,
}

impl<'a> Computer<'a> {
    fn new(spec: &'a Spec, oracle: &'a [NodeId], setup: &Setup) -> Res<Computer<'a>> {
        let scratch = setup.dir.join("compute");
        fs::create_dir_all(&scratch)?;
        Ok(Computer {
            spec,
            oracle,
            scratch,
            resting_bytes: None,
            reps: 0,
            peak_rss: 0,
        })
    }

    fn rep(&mut self, setup: &mut Setup, tally: &mut Tally) -> Res<Sample> {
        let rep = self.reps;
        self.reps += 1;
        let n = setup.graph().n_nodes();
        let env = setup.session.env().clone();
        let window = MemWindow::open()?;
        let (io0, phys0) = (env.stats().snapshot(), env.phys());
        let (labels, report, wall) = match self.spec.compute {
            Compute::Contract => {
                let g = setup.graph();
                let (out, wall) = timed("bench.scc", || {
                    ExtScc::new(&env, ExtSccConfig::optimized()).run(g)
                });
                let out = out?;
                (out.labels, Some(out.report), wall)
            }
            Compute::BuildIndex => {
                let keep = setup.index_build_s.is_none();
                let path = if keep {
                    setup.index.clone()
                } else {
                    self.scratch.join("rep.sccidx")
                };
                let (built, wall) = timed("bench.scc", || setup.session.build_index(&path));
                let built = built?;
                drop(built.index);
                if keep {
                    setup.index_build_s = Some(wall.as_secs_f64());
                } else {
                    fs::remove_file(&path)?;
                    env.evict(&path);
                }
                (built.run.labels, None, wall)
            }
        };
        let sample = Sample {
            wall_s: wall.as_secs_f64(),
            ios: env.stats().snapshot().since(&io0),
            phys: env.phys().since(&phys0),
            report,
        };
        if setup.index_build_s.is_none() {
            let g = setup.graph();
            let (built, wall) = timed("bench.index_build", || -> std::io::Result<u64> {
                let dag = condense_counted(&env, g, &labels)?;
                SccIndex::build(&env, &setup.index, &labels, n, Some(&dag))
            });
            built?;
            setup.index_build_s = Some(wall.as_secs_f64());
        }
        self.peak_rss = self.peak_rss.max(window.close()?);

        let got = SccLabeling::from_file(&labels, n)?.rep;
        tally.check(same_partition(&got, self.oracle), || {
            format!(
                "{} partition differs from Tarjan (rep {rep})",
                self.spec.name
            )
        });
        drop(labels);
        // With its outputs dropped, a run must leave the scratch directory
        // as it found it: holding the input graph and nothing else.
        let left = probe::dir_bytes(env.root());
        let first = *self.resting_bytes.get_or_insert(left);
        tally.check(left == first, || {
            format!(
                "rep {rep} left {} scratch bytes behind",
                left as i64 - first as i64
            )
        });
        Ok(sample)
    }
}

/// Whether one more step, as long as the average of the `steps` taken
/// since `t0`, still ends by `deadline`.
fn fits(t0: Instant, steps: u32, deadline: Instant) -> bool {
    let now = Instant::now();
    now + (now - t0) / steps.max(1) <= deadline
}

fn med(samples: &[Sample], f: impl Fn(&Sample) -> f64) -> f64 {
    median(&samples.iter().map(f).collect::<Vec<_>>())
}

pub fn run(args: &Args, work: &Path) -> Res<RunResult> {
    let spec = args.spec;
    let seconds = args.seconds as f64;
    let mut tally = Tally::default();

    let (min_reps, min_s) = if args.trace {
        (1, 0.0)
    } else {
        (SETUP_REPS, SETUP_SECONDS)
    };
    let mut setup_s = Vec::new();
    let mut kept: Option<Setup> = None;
    while setup_s.len() < min_reps || setup_s.iter().sum::<f64>() < min_s {
        if let Some(old) = kept.take() {
            old.teardown(&mut tally)?;
        }
        let dir = work.join(format!("setup{}", setup_s.len()));
        let (s, wall) = timed("bench.setup", || Setup::create(spec, args.seed, dir));
        setup_s.push(wall.as_secs_f64());
        kept = Some(s?);
    }
    let mut setup = kept.expect("at least one set-up");
    let plan = setup.plan.clone();
    tally.check(plan.engine == spec.expected_engine(), || {
        format!(
            "planner chose {:?}, expected {:?}",
            plan.engine,
            spec.expected_engine()
        )
    });

    // The oracle, never timed.
    let (n, base_edges) = {
        let g = setup.graph();
        (g.n_nodes(), g.edges_in_memory()?)
    };
    let oracle = tarjan_scc(&CsrGraph::from_edges(n, &base_edges)).canonical_reps();
    let edges: Vec<(NodeId, NodeId)> = base_edges.iter().map(|e| (e.src, e.dst)).collect();
    drop(base_edges);
    let m = edges.len() as u64;
    print_header(spec, args, n, m);

    // The measured part: `ROUNDS` rounds, each with SCC computations for
    // about `1 - serve_share` of its time and serving for the rest. A slow
    // spell of the host then falls on samples of both kinds, and a median
    // over the run outlasts it.
    let measured = Instant::now();
    let round = Duration::from_secs_f64(seconds / ROUNDS as f64);
    let mut computer = Computer::new(spec, &oracle, &setup)?;
    let mut server = Server::new(&setup.index, n, edges, args.seed, args.trace);
    let (mut untraced, mut traced, mut overhead) = (Vec::new(), Vec::new(), Vec::new());
    // The traced run's sinks, one per phase, so the per-computation span
    // totals hold the computations' spans alone.
    let compute_sink = Rc::new(LayerSink::default());
    let serve_sink = Rc::new(LayerSink::default());
    let mut artifact_bytes = 0;
    for r in 0..ROUNDS {
        let start = measured + round * r;
        let compute_end = start + round.mul_f64(1.0 - spec.serve_share);
        let t0 = Instant::now();
        let mut steps = 0;
        // At least one step per round.
        while steps == 0 || fits(t0, steps, compute_end) {
            if args.trace {
                // An untraced and a traced computation back to back, so a
                // slow spell weighs on both halves of the pair alike.
                let plain = computer.rep(&mut setup, &mut tally)?;
                let guard = compute_sink.attach();
                let with_sink = computer.rep(&mut setup, &mut tally)?;
                drop(guard);
                overhead.push(with_sink.wall_s / plain.wall_s - 1.0);
                untraced.push(plain);
                traced.push(with_sink);
            } else {
                untraced.push(computer.rep(&mut setup, &mut tally)?);
            }
            steps += 1;
        }
        if r == 0 {
            artifact_bytes = fs::metadata(&setup.index)?.len();
        }
        // Each time: a `build_index` repetition makes its own artifact the
        // session's index.
        setup.session.attach_index(&setup.index)?;
        let guard = args.trace.then(|| serve_sink.attach());
        let slice = (start + round)
            .saturating_duration_since(Instant::now())
            .max(round.mul_f64(spec.serve_share / 2.0));
        server.slice(&setup.session, slice)?;
        drop(guard);
    }
    let peak_rss = computer.peak_rss as f64 / MIB;
    // The traced run samples the scratch size in one more traced
    // computation of its own: walking the directory at every span close
    // would inflate the span times above.
    let mut scratch_peak = 0;
    if args.trace {
        let (probe_sink, guard) = LayerSink::install();
        probe_sink.watch_scratch(setup.session.env().root().to_path_buf());
        computer.rep(&mut setup, &mut tally)?;
        drop(guard);
        scratch_peak = probe_sink.scratch_peak();
    }

    setup.session.attach_index(&setup.index)?;
    let mut engine = setup.session.delta_engine()?;
    let (attempted, failed, compact_s) =
        serve::verify_final(&mut engine, &setup.index, server.edges(), n, args.seed)?;
    drop(engine);
    let mut served = server.finish();
    served.compact_s.push(compact_s);
    if failed > 0 {
        eprintln!("check failed: {failed} of {attempted} final-generation checks");
    }
    tally.count(attempted, failed);
    tally.count(served.reader.queries, served.reader.failures);
    tally.count(
        served.updates.len() as u64 + served.update_failures,
        served.update_failures,
    );
    let index_build_s = setup.index_build_s.unwrap_or(0.0);
    setup.teardown(&mut tally)?;

    let mut result = RunResult {
        tally,
        metrics: Vec::new(),
    };
    let block = spec.block as f64;
    if args.trace {
        let compute_spans = compute_sink.table();
        let mut spans = compute_spans.clone();
        merge_tables(&mut spans, &serve_sink.table());
        merge_tables(&mut spans, &served.reader.spans);
        print_spans(&spans);
        let ratios: Vec<String> = overhead.iter().map(|r| format!("{r:.3}")).collect();
        println!(
            "# tracing overhead per pair (traced / untraced wall - 1): {}",
            ratios.join(" ")
        );
        result.metrics = layer_metrics(
            spec,
            &plan,
            &traced,
            &compute_spans,
            scratch_peak,
            &served,
            index_build_s,
            artifact_bytes,
            n,
            m,
            median(&overhead),
        );
    } else {
        let ok_frac = 1.0 - result.tally.failed as f64 / result.tally.attempted.max(1) as f64;
        let s = &untraced;
        let visible: Vec<f64> = served.updates.iter().map(|u| u.visible_ms).collect();
        let serve_s = served.wall.as_secs_f64();
        let walls: Vec<String> = s.iter().map(|x| format!("{:.3}", x.wall_s)).collect();
        eprintln!(
            "samples: {} SCC runs ({} s), {} query latencies of {} queries, {} updates, {} set-ups",
            s.len(),
            walls.join(" "),
            served.reader.latency_us.len(),
            served.reader.queries,
            visible.len(),
            setup_s.len()
        );
        result.metrics = vec![
            ("setup_s", median(&setup_s), "s"),
            ("scc_wall_s", med(s, |x| x.wall_s), "s"),
            ("logical_ios", med(s, |x| x.ios.total_ios() as f64), "count"),
            (
                "phys_write_mb",
                med(s, |x| x.phys.writes as f64 * block / MIB),
                "MiB",
            ),
            ("peak_rss_mb", peak_rss, "MiB"),
            ("ok_frac", ok_frac, "frac"),
            (
                "query_p50_us",
                grid_quantile(&served.reader.latency_us, 0.5, TIMER_STEP_US),
                "us",
            ),
            (
                "query_p99_us",
                grid_quantile(&served.reader.latency_us, 0.99, TIMER_STEP_US),
                "us",
            ),
            ("query_qps", served.reader.queries as f64 / serve_s, "1/s"),
            ("update_p50_ms", quantile(&visible, 0.5), "ms"),
            ("update_p95_ms", quantile(&visible, 0.95), "ms"),
            ("updates_per_s", visible.len() as f64 / serve_s, "1/s"),
        ];
    }
    let non_finite: Vec<&str> = result
        .metrics
        .iter()
        .filter(|m| !m.1.is_finite())
        .map(|m| m.0)
        .collect();
    result.tally.check(non_finite.is_empty(), || {
        format!("non-finite metrics {non_finite:?}")
    });
    Ok(result)
}

#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    spec: &Spec,
    plan: &Plan,
    traced: &[Sample],
    spans: &SpanTable,
    scratch_peak: u64,
    served: &ServeOutcome,
    index_build_s: f64,
    artifact_bytes: u64,
    n: u64,
    m: u64,
    trace_overhead: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let reps = traced.len().max(1) as f64;
    let wall = |name: &str| spans.get(name).map_or(0.0, |t| t.wall_ns as f64 / 1e9) / reps;
    let own = |name: &str| spans.get(name).map_or(0.0, |t| t.self_ns as f64 / 1e9) / reps;
    let count = |name: &str| spans.get(name).map_or(0.0, |t| t.count as f64) / reps;
    let block = spec.block as f64;

    let report = traced.last().and_then(|s| s.report.as_ref());
    let iters = report.map_or(0, |r| r.iterations()) as f64;
    let (growth, removed_frac, bypass) = report.map_or((0.0, 0.0, 0.0), |r| {
        let e1 = r.contraction.first().map_or(1, |it| it.n_edges.max(1)) as f64;
        let max_e = r.contraction.iter().map(|it| it.n_edges).max().unwrap_or(0) as f64;
        let removed: u64 = r.contraction.iter().map(|it| it.removed).sum();
        let nodes: u64 = r.contraction.iter().map(|it| it.n_nodes).sum();
        let add: u64 = r.contraction.iter().map(|it| it.edges_add).sum();
        (max_e / e1, removed as f64 / nodes.max(1) as f64, add as f64)
    });
    let (base_nodes, base_edges) = report.map_or((n as f64, m as f64), |r| {
        (r.base_nodes as f64, r.base_edges as f64)
    });
    // Semi-SCC time: Ext-SCC's `semi` span, or — when the planner ran
    // Semi-SCC on the whole graph — the build minus its index stages.
    let semi_s = match spec.compute {
        Compute::Contract => wall("semi"),
        Compute::BuildIndex => {
            wall("bench.scc") - wall("condense") - wall("index_build") - wall("index_open")
        }
    };
    let sorting = own("run_formation") + own("merge_pass") + own("materialize");

    let phys = |f: fn(&PhysSnapshot) -> u64| med(traced, |s| f(&s.phys) as f64);
    let hits = phys(|p| p.hits);
    let misses = phys(|p| p.misses);

    let ups = &served.updates;
    let apply_of = |merge: bool| -> Vec<f64> {
        ups.iter()
            .filter(|u| u.merge == merge)
            .map(|u| u.apply_ms)
            .collect()
    };
    let per_update = |f: fn(&serve::Update) -> f64| mean(&ups.iter().map(f).collect::<Vec<_>>());
    let inserts = ups.iter().filter(|u| u.insert).count().max(1) as f64;
    let merges = ups.iter().filter(|u| u.merge).count() as f64;
    let reader_lookups = (served.reader.hits + served.reader.misses).max(1) as f64;

    vec![
        ("core.iterations", iters, "count"),
        ("core.max_edge_growth", growth, "ratio"),
        ("core.removed_frac", removed_frac, "frac"),
        ("core.bypass_edges", bypass, "count"),
        ("core.contract_s", wall("iter"), "s"),
        ("core.expand_s", wall("expand"), "s"),
        ("core.get_v_self_s", own("get_v"), "s"),
        ("core.get_e_self_s", own("get_e"), "s"),
        ("core.build_orders_self_s", own("build_orders"), "s"),
        ("extmem.run_formation_s", own("run_formation"), "s"),
        (
            "extmem.merge_s",
            own("merge_pass") + own("materialize"),
            "s",
        ),
        (
            "extmem.sort_share",
            sorting / wall("bench.scc").max(1e-12),
            "frac",
        ),
        (
            "extmem.seq_ios",
            med(traced, |s| s.ios.sequential_ios() as f64),
            "count",
        ),
        (
            "extmem.rand_ios",
            med(traced, |s| s.ios.random_ios() as f64),
            "count",
        ),
        (
            "extmem.bytes_written_mb",
            med(traced, |s| s.ios.bytes_written as f64 / MIB),
            "MiB",
        ),
        ("extmem.peak_scratch_mb", scratch_peak as f64 / MIB, "MiB"),
        ("pager.hit_rate", hits / (hits + misses).max(1.0), "frac"),
        ("pager.phys_reads", phys(|p| p.reads), "count"),
        ("pager.phys_writes", phys(|p| p.writes), "count"),
        (
            "pager.phys_write_mb",
            phys(|p| p.writes) * block / MIB,
            "MiB",
        ),
        ("pager.evictions", phys(|p| p.evictions), "count"),
        ("pager.writebacks", phys(|p| p.writebacks), "count"),
        (
            "pager.serve_hit_rate",
            served.reader.hits as f64 / reader_lookups,
            "frac",
        ),
        ("semi.passes", count("color_round"), "count"),
        ("semi.base_nodes", base_nodes, "count"),
        ("semi.base_edges", base_edges, "count"),
        ("semi.s", semi_s, "s"),
        (
            "planner.predicted_passes",
            plan.predicted_passes as f64,
            "count",
        ),
        (
            "planner.pass_error",
            iters - plan.predicted_passes as f64,
            "count",
        ),
        ("index.build_s", index_build_s, "s"),
        ("index.artifact_kb", artifact_bytes as f64 / 1024.0, "KiB"),
        (
            "index.reads_per_query",
            served.reader.reads as f64 / served.reader.queries.max(1) as f64,
            "count",
        ),
        ("index.reader_open_ms", median(&served.open_ms), "ms"),
        ("delta.metadata_ms_p50", median(&apply_of(false)), "ms"),
        ("delta.merge_ms_p50", median(&apply_of(true)), "ms"),
        (
            "delta.ios_per_update",
            per_update(|u| u.ios as f64),
            "count",
        ),
        (
            "delta.label_pages_per_update",
            per_update(|u| u.label_pages as f64),
            "count",
        ),
        ("delta.merge_frac", merges / inserts, "frac"),
        ("delta.compact_s", median(&served.compact_s), "s"),
        (
            "delta.wchar_kb_per_update",
            per_update(|u| u.wchar as f64) / 1024.0,
            "KiB",
        ),
        ("obs.trace_overhead_frac", trace_overhead, "frac"),
    ]
}

/// The run's configuration, for the log (stdout lines before the result).
fn print_header(spec: &Spec, args: &Args, n: u64, m: u64) {
    let cpus = std::thread::available_parallelism().map_or(0, |c| c.get());
    println!(
        "# workload {} seed {} host_cpus {cpus} |V| {n} |E| {m} M {} B {} threads {THREADS} pool_frames {} \
         reader_pool_frames {READER_CACHE_BLOCKS} \
         flush: the delta engine fsyncs and renames every commit; the writer restores the built index every {EPISODE} commits, after a compact",
        spec.name,
        args.seed,
        spec.mem,
        spec.block,
        spec.env_options().cache_blocks,
    );
}

/// The traced run's span totals, sorted by self time.
fn print_spans(spans: &SpanTable) {
    println!(
        "# traced run: span totals by name. Sinks are thread-local: time spent \
         in parallel sort workers is counted in the enclosing span of the thread \
         that started them."
    );
    println!(
        "# {:<20} {:>10} {:>12} {:>12}",
        "span", "calls", "wall_s", "self_s"
    );
    let mut rows: Vec<_> = spans.iter().collect();
    rows.sort_by_key(|(_, t)| std::cmp::Reverse(t.self_ns));
    for (name, t) in rows {
        println!(
            "# {:<20} {:>10} {:>12.4} {:>12.4}",
            name,
            t.count,
            t.wall_ns as f64 / 1e9,
            t.self_ns as f64 / 1e9
        );
    }
}
