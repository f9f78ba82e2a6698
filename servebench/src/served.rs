//! The served pass: set-up, the oracle, closed-loop readers and the
//! idle-server writer, all through the program's public serving API.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mv_core::{Mvdb, MvdbEngine, MvdbServer, Rung, ServeConfig, ServeOutcome, ShardedEngine};
use mv_query::parse_ucq;

use crate::stats::{check_answer, Failure, Tally};
use crate::workload::{ScheduledBatch, NUM_SHARDS};

/// Epochs of a timed run. Each starts a fresh server (its set-up is
/// timed), warms it up and serves one window of `seconds / EPOCHS`; the
/// metrics pool all epochs, so one unlucky server start or a burst of
/// machine load weighs a fifth.
pub const EPOCHS: u32 = 5;

/// Batches `point` and `broad` submit to the idle server after each
/// epoch's window, alternating weight-only and structural: 10 of each per
/// run, every one distinct, so the update medians do not hang on the
/// cost of a couple of particular batches.
pub const IDLE_BATCHES: usize = 4;

/// Pause before each idle batch. After a swap the workers re-pin, and the
/// last holder drops the previous snapshot; a batch submitted straight
/// away shares the machine with that drop (back to back, a weight-only
/// batch took about 55 ms right after a structural one and about 27 ms
/// right after a read window).
pub const IDLE_GAP: Duration = Duration::from_millis(150);

/// Closed-loop reader threads on both workloads: no more load-generating
/// threads than the 2 cores the benchmark was tuned on.
pub const READERS: usize = 2;

/// Closed-loop traffic before each timed window, so plans, indexes and
/// worker arenas are warm when timing starts.
pub const WARMUP: Duration = Duration::from_millis(500);

/// A started server and how long it took to get there.
pub struct Started {
    /// The running server.
    pub server: MvdbServer,
    /// From the in-memory MVDB to the first answer.
    pub setup: Duration,
    /// The first answer (query `first` of the workload).
    pub first: ServeOutcome,
}

/// Compiles, shards and serves the MVDB under `ServeConfig::default()`,
/// and waits for the answer to `first_query`: the user-visible set-up.
pub fn start(mvdb: &Mvdb, first_query: &str) -> Started {
    let t0 = Instant::now();
    let engine = MvdbEngine::compile(mvdb).expect("the MVDB compiles");
    let sharded = ShardedEngine::from_engine(engine, NUM_SHARDS).expect("the engine shards");
    let server = MvdbServer::start(Arc::new(sharded), ServeConfig::default());
    let query = parse_ucq(first_query).expect("workload query parses");
    let first = server
        .submit(query)
        .expect("an idle server admits the first query")
        .wait();
    Started {
        server,
        setup: t0.elapsed(),
        first,
    }
}

/// Oracle values of every distinct query, computed through a sharded
/// session (per-shard localized lineage plus exact combination), a
/// different evaluation path from the unsharded worker contexts that
/// answer served requests.
pub struct Oracle {
    /// `values[q]`: the probability of distinct query `q`.
    pub values: Vec<f64>,
}

impl Oracle {
    /// Evaluates every distinct query on `engine` in one session batch.
    pub fn build(engine: &ShardedEngine, texts: &[String]) -> Oracle {
        let queries: Vec<_> = texts
            .iter()
            .map(|t| parse_ucq(t).expect("workload query parses"))
            .collect();
        let values = engine
            .session()
            .probabilities(&queries)
            .expect("oracle session evaluates the workload");
        Oracle { values }
    }

    /// Checks a served outcome for distinct query `q`.
    pub fn check(&self, q: usize, outcome: &ServeOutcome) -> Result<(), Failure> {
        let Some(p) = outcome.outcome.probability else {
            return Err(Failure::Unanswered);
        };
        if outcome.outcome.rung != Some(Rung::Exact) {
            return Err(Failure::Degraded);
        }
        check_answer(p, self.values[q])
    }
}

/// Nanoseconds of a duration, saturating at `u32::MAX` (about 4.3 s).
fn ns(d: Duration) -> u32 {
    u32::try_from(d.as_nanos()).unwrap_or(u32::MAX)
}

/// The server's record of one timed request, kept only when tracing.
#[derive(Debug, Clone, Copy)]
pub struct ServedRecord {
    /// Client latency, text to resolved ticket, in ns.
    pub latency_ns: u32,
    /// Admission-queue wait, in ns.
    pub queue_wait_ns: u32,
    /// Evaluation time on the worker, in ns.
    pub service_ns: u32,
    /// Whether the exact rung answered.
    pub exact: bool,
}

/// What one reader thread observed.
#[derive(Default)]
pub struct ReaderLog {
    /// Client latency of each timed request in ns, text to resolved ticket
    /// (compact, so the log adds little to the peak resident set).
    pub latency_ns: Vec<u32>,
    /// Per-request server records of timed requests (tracing only).
    pub served: Vec<ServedRecord>,
    /// Requests answered exactly and correctly in the timed window.
    pub answered: u64,
    /// Every request, warm-up included.
    pub tally: Tally,
    /// When the reader's last timed request resolved.
    pub end: Option<Instant>,
}

/// The shared query stream of the readers.
pub struct Stream<'a> {
    /// Distinct query texts.
    texts: &'a [String],
    /// Seeded order over `texts`, cycled.
    order: &'a [usize],
    /// Next stream position.
    next: AtomicUsize,
}

impl<'a> Stream<'a> {
    /// A stream at its first position.
    pub fn new(texts: &'a [String], order: &'a [usize]) -> Self {
        Stream {
            texts,
            order,
            next: AtomicUsize::new(0),
        }
    }

    fn take(&self) -> usize {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        self.order[i % self.order.len()]
    }
}

/// One closed-loop reader: sends its next request only when the previous
/// one resolved, until `deadline`. Requests that start before `timed_from`
/// are warm-up: checked and counted as attempted, but not timed.
pub fn reader(
    server: &MvdbServer,
    stream: &Stream<'_>,
    oracle: &Oracle,
    window: (Instant, Instant),
    trace: bool,
) -> ReaderLog {
    let (timed_from, deadline) = window;
    let mut log = ReaderLog::default();
    loop {
        let t0 = Instant::now();
        if t0 >= deadline {
            return log;
        }
        let q = stream.take();
        let query = parse_ucq(&stream.texts[q]).expect("workload query parses");
        let result = server.submit(query).map(|ticket| ticket.wait());
        let latency = t0.elapsed();
        let checked = match &result {
            Err(_) => Err(Failure::Rejected),
            Ok(outcome) => oracle.check(q, outcome),
        };
        log.tally.record(checked);
        if t0 < timed_from {
            continue;
        }
        log.latency_ns.push(ns(latency));
        log.end = Some(Instant::now());
        log.answered += u64::from(checked.is_ok());
        if let (true, Ok(outcome)) = (trace, &result) {
            log.served.push(ServedRecord {
                latency_ns: ns(latency),
                queue_wait_ns: ns(outcome.queue_wait),
                service_ns: ns(outcome.service),
                exact: outcome.outcome.rung == Some(Rung::Exact),
            });
        }
    }
}

/// What the writer observed.
#[derive(Default)]
pub struct WriterLog {
    /// `submit_update` latency of each applied weight-only batch.
    pub weight: Vec<Duration>,
    /// `submit_update` latency of each applied structural batch.
    pub structural: Vec<Duration>,
    /// Every batch submitted.
    pub tally: Tally,
}

/// Submits `batches` to a server no reader is using, pausing
/// [`IDLE_GAP`] before each one.
pub fn idle_updates(server: &MvdbServer, batches: &[ScheduledBatch]) -> WriterLog {
    let mut log = WriterLog::default();
    for b in batches {
        std::thread::sleep(IDLE_GAP);
        let t0 = Instant::now();
        let result = server.submit_update(&b.batch);
        let took = t0.elapsed();
        if result.is_err() {
            log.tally.record(Err(Failure::UpdateFailed));
            continue;
        }
        log.tally.record(Ok(()));
        if b.structural {
            log.structural.push(took);
        } else {
            log.weight.push(took);
        }
    }
    log
}

/// Everything a served pass observed.
pub struct PassLog {
    /// One log per reader.
    pub readers: Vec<ReaderLog>,
    /// Start of the timed window.
    pub window_start: Instant,
}

impl PassLog {
    /// Reads, warm-up included.
    pub fn tally(&self) -> Tally {
        let mut t = Tally::default();
        for r in &self.readers {
            t.merge(&r.tally);
        }
        t
    }

    /// Reads answered exactly and correctly in the timed window.
    pub fn answered(&self) -> u64 {
        self.readers.iter().map(|r| r.answered).sum()
    }

    /// From the start of the timed window until the last timed read
    /// resolved.
    pub fn window(&self) -> Duration {
        self.readers
            .iter()
            .filter_map(|r| r.end)
            .max()
            .map_or(Duration::ZERO, |end| end.duration_since(self.window_start))
    }
}

/// Runs warm-up then a timed window of `seconds` with [`READERS`]
/// closed-loop clients.
pub fn pass(
    server: &MvdbServer,
    stream: &Stream<'_>,
    oracle: &Oracle,
    seconds: Duration,
    trace: bool,
) -> PassLog {
    let window_start = Instant::now() + WARMUP;
    let deadline = window_start + seconds;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..READERS)
            .map(|_| {
                scope.spawn(move || reader(server, stream, oracle, (window_start, deadline), trace))
            })
            .collect();
        PassLog {
            readers: handles
                .into_iter()
                .map(|h| h.join().expect("reader thread"))
                .collect(),
            window_start,
        }
    })
}
