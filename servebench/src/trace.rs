//! The traced run (`--trace 1`): per-layer numbers, never timed together
//! with the end-to-end metrics.
//!
//! Spans are recorded by this benchmark around its own calls into each
//! layer's public functions; nothing inside the program is instrumented.
//! The run has four parts:
//!
//! 1. **Set-up**, span per step: `TranslatedIndb::new`, `MvIndex::compile`,
//!    `ShardedEngine::from_engine`, `MvdbServer::start` to the first answer.
//! 2. **Served pass**, the workload as in the timed run; queue wait,
//!    service time and client hand-off come from the `ServeOutcome` each
//!    request already returns.
//! 3. **Read replay**: the workload's query stream, sequentially on one
//!    warm `engine.full().context()` (the kind of context a worker holds),
//!    split into parse → lineage → OBDD synthesis → MV-index intersection.
//!    Each request also runs without spans (the difference is the tracing
//!    overhead) and through the direct `Backend::probability` path (the
//!    difference to the stage sum is reported, not gated).
//! 4. **Write replay**: the update schedule on clones outside the
//!    server: `ShardedEngine::clone`, `MvdbEngine::apply`,
//!    `ShardedEngine::apply`.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mv_core::backend::MvIndexBackend;
use mv_core::{Backend, EvalContext, MvdbEngine, MvdbServer, ServeConfig, ShardedEngine};
use mv_index::MvIndex;
use mv_obdd::{ManagerStats, Obdd};
use mv_query::{parse_ucq, ExecStats, Lineage};

use crate::served::{self, Oracle, Stream};
use crate::stats::{check_answer, median, ms, percentile, sorted, us, Tally};
use crate::workload::{self, NUM_SHARDS};
use crate::{Args, Inputs, Metrics};

/// Traced set-ups; each span reports its median.
const SETUP_REPEATS: usize = 3;

/// Minimum length of the read replay; short distinct sets (`broad`) are
/// cycled up to it.
const REPLAY_MIN: usize = 90;

/// Batches of the write replay (alternating kinds, so half structural).
const WRITE_REPLAY_BATCHES: usize = 8;

/// One recorded span: a layer call made for one replayed request.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    request: usize,
    start: Instant,
    end: Instant,
}

/// An in-memory span recorder, read out when the run ends.
#[derive(Default)]
struct Tracer {
    spans: Vec<Span>,
}

impl Tracer {
    /// Runs `f` inside a span when tracing, bare otherwise.
    fn span<T>(
        tracer: &mut Option<&mut Tracer>,
        name: &'static str,
        request: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        match tracer {
            Some(t) => {
                let start = Instant::now();
                let out = f();
                t.spans.push(Span {
                    name,
                    request,
                    start,
                    end: Instant::now(),
                });
                out
            }
            None => f(),
        }
    }

    /// Durations of the spans called `name`, in microseconds.
    fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| us(s.end - s.start))
            .collect()
    }

    /// Self time of each `request` root span: its duration minus what its
    /// child spans cover, in microseconds.
    fn request_self_us(&self) -> Vec<f64> {
        let mut out = Vec::new();
        for root in self.spans.iter().filter(|s| s.name == "request") {
            let children: Duration = self
                .spans
                .iter()
                .filter(|s| s.request == root.request && s.name != "request")
                .map(|s| s.end - s.start)
                .sum();
            out.push(us((root.end - root.start).saturating_sub(children)));
        }
        out
    }
}

/// What the staged evaluation of one query produced.
struct Staged {
    probability: f64,
    lineage: Lineage,
    obdd: Obdd,
}

/// Evaluates one query text stage by stage, as the MV-index backend does:
/// parse, lineage, query OBDD synthesis, then the conditional probability
/// against the touched index blocks (which finds the synthesized diagram
/// in the context's manager).
fn staged(
    ctx: &EvalContext<'_>,
    index: &MvIndex,
    engine: &MvdbEngine,
    text: &str,
    request: usize,
    mut tracer: Option<&mut Tracer>,
) -> Staged {
    let query = Tracer::span(&mut tracer, "query.parse", request, || {
        parse_ucq(text).expect("workload query parses")
    });
    let lineage = Tracer::span(&mut tracer, "query.lineage", request, || {
        ctx.lineage(&query).expect("lineage evaluates")
    });
    let obdd = Tracer::span(&mut tracer, "obdd.synth", request, || {
        index
            .query_obdd_in(ctx.query_manager(), &lineage)
            .expect("query OBDD synthesizes")
    });
    let probability = Tracer::span(&mut tracer, "mvindex.intersect", request, || {
        index
            .conditional_probability_in(
                ctx.query_manager(),
                &lineage,
                ctx.indb(),
                engine.intersect_algorithm(),
            )
            .expect("intersection evaluates")
    });
    Staged {
        probability,
        lineage,
        obdd,
    }
}

/// Median set-up spans over the repetitions, plus the index and partition
/// counts.
fn traced_setup(inputs: &Inputs, m: &mut Metrics) -> (MvdbServer, Vec<mv_core::ServeOutcome>) {
    let mvdb = &inputs.data.mvdb;
    let first = &inputs.texts[inputs.order[0]];
    let (mut translate, mut compile, mut build, mut start) = (vec![], vec![], vec![], vec![]);
    let mut firsts = Vec::new();
    let mut counts = (0, 0, 0);
    let mut server = None;
    for _ in 0..SETUP_REPEATS {
        drop(server.take());
        let t = Instant::now();
        let translated = mv_core::TranslatedIndb::new(mvdb).expect("the MVDB translates");
        translate.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let index = MvIndex::compile(
            translated.indb(),
            translated.w().expect("the MVDB has views"),
        )
        .expect("the MV-index compiles");
        compile.push(t.elapsed().as_secs_f64());
        counts.0 = index.num_blocks();
        counts.1 = index.stats().total_nodes;
        drop((index, translated));

        let engine = MvdbEngine::compile(mvdb).expect("the MVDB compiles");
        let t = Instant::now();
        let sharded = ShardedEngine::from_engine(engine, NUM_SHARDS).expect("the engine shards");
        build.push(t.elapsed().as_secs_f64());
        counts.2 = sharded.partition().num_components();

        let t = Instant::now();
        let s = MvdbServer::start(Arc::new(sharded), ServeConfig::default());
        let outcome = s
            .submit(parse_ucq(first).expect("workload query parses"))
            .expect("an idle server admits the first query")
            .wait();
        start.push(t.elapsed().as_secs_f64());
        firsts.push(outcome);
        server = Some(s);
    }
    m.put("core.translate_s", median(&translate).unwrap_or(0.0), "s");
    m.put("mvindex.compile_s", median(&compile).unwrap_or(0.0), "s");
    m.put("core.sharded.build_s", median(&build).unwrap_or(0.0), "s");
    m.put("core.serve.start_s", median(&start).unwrap_or(0.0), "s");
    m.put("mvindex.blocks", counts.0 as f64, "count");
    m.put("mvindex.nodes", counts.1 as f64, "count");
    m.put("core.sharded.components", counts.2 as f64, "count");
    (server.expect("at least one set-up"), firsts)
}

/// p50 and p99 of a sample under `name.p50` / `name.p99`.
fn put_p50_p99(m: &mut Metrics, name: &str, values: &[f64], unit: &'static str) {
    let v = sorted(values);
    m.put(
        &format!("{name}.p50"),
        percentile(&v, 0.5).unwrap_or(0.0),
        unit,
    );
    m.put(
        &format!("{name}.p99"),
        percentile(&v, 0.99).unwrap_or(0.0),
        unit,
    );
}

/// The served pass, broken down by the server's own per-request record.
fn traced_served(
    args: &Args,
    inputs: &Inputs,
    server: &MvdbServer,
    oracle: &Oracle,
    m: &mut Metrics,
) -> Tally {
    let stream = Stream::new(&inputs.texts, &inputs.order);
    let window = Duration::from_secs(args.seconds) / served::EPOCHS;
    let log = served::pass(server, &stream, oracle, window, true);
    let (mut latency, mut wait, mut service, mut handoff) = (vec![], vec![], vec![], vec![]);
    let mut exact = 0usize;
    let mut timed = 0usize;
    for r in &log.readers {
        timed += r.latency_ns.len();
        for rec in &r.served {
            latency.push(f64::from(rec.latency_ns) / 1e3);
            wait.push(f64::from(rec.queue_wait_ns) / 1e3);
            service.push(f64::from(rec.service_ns) / 1e3);
            let inside = u64::from(rec.queue_wait_ns) + u64::from(rec.service_ns);
            handoff.push(u64::from(rec.latency_ns).saturating_sub(inside) as f64 / 1e3);
            exact += usize::from(rec.exact);
        }
    }
    let stats = server.stats();
    put_p50_p99(m, "core.serve.latency_us", &latency, "us");
    put_p50_p99(m, "core.serve.queue_wait_us", &wait, "us");
    put_p50_p99(m, "core.serve.service_us", &service, "us");
    put_p50_p99(m, "core.serve.handoff_us", &handoff, "us");
    m.put(
        "core.serve.compactions_per_1k",
        1e3 * stats.compactions as f64 / stats.completed.max(1) as f64,
        "count",
    );
    m.put(
        "core.serve.exact_frac",
        exact as f64 / timed.max(1) as f64,
        "ratio",
    );
    log.tally()
}

/// The sequential read replay on one warm worker-style context.
fn read_replay(inputs: &Inputs, engine: &ShardedEngine, oracle: &Oracle, m: &mut Metrics) -> Tally {
    let full = engine.full();
    let ctx = full.context();
    let index = ctx.index().expect("the engine has an MV-index");
    let backend = MvIndexBackend::new(full.intersect_algorithm());
    let len = inputs.order.len().max(REPLAY_MIN);
    let stream: Vec<usize> = (0..len)
        .map(|i| inputs.order[i % inputs.order.len()])
        .collect();
    let direct = |q: usize| {
        let query = parse_ucq(&inputs.texts[q]).expect("workload query parses");
        backend
            .probability(&query, &ctx)
            .expect("probability evaluates")
    };

    // Warm the context. Then run each request three ways — direct, staged
    // without spans, staged with spans — rotating which goes first, so no
    // variant always meets the caches its predecessor just warmed.
    for &q in &stream {
        direct(q);
    }
    let exec_before: ExecStats = ctx.query_exec_stats();
    let manager_before: ManagerStats = ctx.query_manager_stats();
    let mut tracer = Tracer::default();
    let mut tally = Tally::default();
    let (mut direct_us, mut clauses, mut nodes, mut touched) = (vec![], vec![], vec![], vec![]);
    let (mut untraced, mut traced) = (Duration::ZERO, Duration::ZERO);
    for (i, &q) in stream.iter().enumerate() {
        for variant in 0..3 {
            let start = Instant::now();
            match (i + variant) % 3 {
                0 => {
                    std::hint::black_box(direct(q));
                    direct_us.push(us(start.elapsed()));
                }
                1 => {
                    let s = staged(&ctx, index, full, &inputs.texts[q], i, None);
                    std::hint::black_box(s.probability);
                    untraced += start.elapsed();
                }
                _ => {
                    let s = staged(&ctx, index, full, &inputs.texts[q], i, Some(&mut tracer));
                    let end = Instant::now();
                    traced += end - start;
                    tracer.spans.push(Span {
                        name: "request",
                        request: i,
                        start,
                        end,
                    });
                    tally.record(check_answer(s.probability, oracle.values[q]));
                    let blocks: BTreeSet<usize> = s
                        .lineage
                        .variables()
                        .into_iter()
                        .filter_map(|t| index.block_of(t))
                        .collect();
                    clauses.push(s.lineage.num_clauses() as f64);
                    nodes.push(s.obdd.size() as f64);
                    touched.push(blocks.len() as f64);
                }
            }
        }
    }
    let exec = ctx.query_exec_stats();
    let manager = ctx.query_manager_stats().since(&manager_before);

    let parse = tracer.durations_us("query.parse");
    let lineage = tracer.durations_us("query.lineage");
    let synth = tracer.durations_us("obdd.synth");
    let intersect = tracer.durations_us("mvindex.intersect");
    m.put("query.parse_us", median(&parse).unwrap_or(0.0), "us");
    put_p50_p99(m, "query.lineage_us", &lineage, "us");
    m.put(
        "query.lineage_clauses",
        median(&clauses).unwrap_or(0.0),
        "count",
    );
    let scanned = exec.blocks_scanned - exec_before.blocks_scanned;
    let skipped = exec.blocks_skipped - exec_before.blocks_skipped;
    m.put(
        "query.exec.blocks_skipped_frac",
        skipped as f64 / (scanned + skipped).max(1) as f64,
        "ratio",
    );
    put_p50_p99(m, "obdd.synth_us", &synth, "us");
    m.put("obdd.query_nodes", median(&nodes).unwrap_or(0.0), "count");
    m.put(
        "obdd.apply_hit_rate",
        manager.apply_cache_hit_rate(),
        "ratio",
    );
    m.put(
        "obdd.cache_evictions",
        manager.cache_evictions as f64,
        "count",
    );
    put_p50_p99(m, "mvindex.intersect_us", &intersect, "us");
    m.put(
        "mvindex.blocks_touched",
        median(&touched).unwrap_or(0.0),
        "count",
    );

    let n = len as f64;
    let stage_sum: f64 = parse
        .iter()
        .chain(&lineage)
        .chain(&synth)
        .chain(&intersect)
        .sum();
    m.put("trace.direct_us", median(&direct_us).unwrap_or(0.0), "us");
    m.put(
        "trace.stage_gap_us",
        (stage_sum - direct_us.iter().sum::<f64>()) / n,
        "us",
    );
    m.put("trace.overhead_us", (us(traced) - us(untraced)) / n, "us");
    m.put(
        "trace.request_self_us",
        median(&tracer.request_self_us()).unwrap_or(0.0),
        "us",
    );
    tally
}

/// The update schedule replayed cumulatively on clones, outside the server.
fn write_replay(inputs: &Inputs, seed: u64, engine: &ShardedEngine, m: &mut Metrics) -> Tally {
    let schedule = workload::update_schedule(&inputs.data, WRITE_REPLAY_BATCHES, seed);
    let mut base = engine.clone();
    let (mut clone, mut engine_w, mut engine_s, mut sharded_w, mut sharded_s) =
        (vec![], vec![], vec![], vec![], vec![]);
    let (mut rebuilt, mut reused) = (vec![], vec![]);
    let mut tally = Tally::default();
    for b in &schedule {
        let t = Instant::now();
        let mut next = base.clone();
        clone.push(ms(t.elapsed()));

        let mut full = base.full().clone();
        let t = Instant::now();
        let engine_result = full.apply(&b.batch);
        let engine_ms = ms(t.elapsed());

        let t = Instant::now();
        let sharded_result = next.apply(&b.batch);
        let sharded_ms = ms(t.elapsed());

        match (engine_result, sharded_result) {
            (Ok(_), Ok(outcome)) => {
                tally.record(Ok(()));
                if b.structural {
                    engine_s.push(engine_ms);
                    sharded_s.push(sharded_ms);
                    rebuilt.push(outcome.shards_rebuilt as f64);
                    reused.push(outcome.shards_reused as f64);
                } else {
                    engine_w.push(engine_ms);
                    sharded_w.push(sharded_ms);
                }
                base = next;
            }
            _ => tally.record(Err(crate::stats::Failure::UpdateFailed)),
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    m.put(
        "core.serve.snapshot_clone_ms",
        median(&clone).unwrap_or(0.0),
        "ms",
    );
    m.put(
        "core.engine.apply_weight_ms",
        median(&engine_w).unwrap_or(0.0),
        "ms",
    );
    m.put(
        "core.engine.apply_structural_ms",
        median(&engine_s).unwrap_or(0.0),
        "ms",
    );
    m.put(
        "core.sharded.apply_weight_ms",
        median(&sharded_w).unwrap_or(0.0),
        "ms",
    );
    m.put(
        "core.sharded.apply_structural_ms",
        median(&sharded_s).unwrap_or(0.0),
        "ms",
    );
    m.put("core.sharded.shards_rebuilt", mean(&rebuilt), "count");
    m.put("core.sharded.shards_reused", mean(&reused), "count");
    tally
}

/// The whole traced run.
pub fn traced(args: &Args, inputs: &Inputs) -> (Tally, Metrics) {
    let mut m = Metrics::default();
    let (server, firsts) = traced_setup(inputs, &mut m);
    let engine = server.engine();
    let oracle = Oracle::build(&engine, &inputs.texts);
    let mut tally = Tally::default();
    for f in &firsts {
        tally.record(oracle.check(inputs.order[0], f));
    }
    tally.merge(&traced_served(args, inputs, &server, &oracle, &mut m));
    server.shutdown();
    tally.merge(&read_replay(inputs, &engine, &oracle, &mut m));
    tally.merge(&write_replay(inputs, args.seed, &engine, &mut m));
    (tally, m)
}
