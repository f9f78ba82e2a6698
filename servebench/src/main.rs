//! The serving benchmark of the MarkoViews workspace.
//!
//! ```text
//! servebench --workload point|broad --seed N --seconds S --trace 0|1
//! ```
//!
//! Generates the synthetic DBLP corpus from the seed, compiles a 4-shard
//! engine, serves it with `MvdbServer` under `ServeConfig::default()` and
//! drives one workload through it, checking every answer against an
//! oracle. With `--trace 0` it times the served pass and prints the
//! end-to-end metrics; with `--trace 1` it prints the per-layer metrics
//! of the traced replay (see `trace.rs`). The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod served;
mod stats;
mod trace;
mod workload;

use std::time::Duration;

use stats::{median, ms, percentile, samples_beyond, sorted, Tally};

use workload::Workload;

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or(format!("bad seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Named metrics in output order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Adds a metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Resets the kernel's peak-resident-set counter of this process to its
/// current resident set, so `VmHWM` measures one epoch.
fn reset_rss_peak() {
    // Writing 5 to clear_refs resets VmHWM (Linux >= 4.0); where that is
    // refused the counter keeps the peak of the whole run.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The inputs of a run.
pub struct Inputs {
    /// The generated corpus.
    pub data: mv_dblp::DblpDataset,
    /// Distinct query texts of the read mix.
    pub texts: Vec<String>,
    /// Seeded order over `texts`.
    pub order: Vec<usize>,
    /// The batches submitted to the idle server after each read window: a
    /// distinct slice of [`served::IDLE_BATCHES`] per epoch.
    pub idle: Vec<workload::ScheduledBatch>,
}

impl Inputs {
    fn new(args: &Args) -> Inputs {
        let data = workload::dataset(args.seed);
        let texts = workload::query_texts(&data, args.workload);
        let order = workload::query_order(texts.len(), args.seed);
        // Every scheduled batch applies to the unmodified corpus on its
        // own, so each epoch's fresh server can take the next slice.
        let idle_count = served::IDLE_BATCHES * served::EPOCHS as usize;
        let idle = workload::update_schedule(&data, idle_count, args.seed);
        Inputs {
            data,
            texts,
            order,
            idle,
        }
    }

    /// The batches submitted to the idle server after epoch `epoch`'s
    /// window.
    pub fn idle_slice(&self, epoch: u32) -> &[workload::ScheduledBatch] {
        let from = served::IDLE_BATCHES * epoch as usize;
        &self.idle[from..from + served::IDLE_BATCHES]
    }
}

/// The timed run: [`served::EPOCHS`] epochs of set-up, warm-up and a
/// timed window each, pooled.
fn timed(args: &Args, inputs: &Inputs) -> (Tally, Metrics) {
    let first = &inputs.texts[inputs.order[0]];
    let window = Duration::from_secs(args.seconds) / served::EPOCHS;
    let stream = served::Stream::new(&inputs.texts, &inputs.order);
    let mut tally = Tally::default();
    let mut oracle = None;
    let (mut setups, mut peaks, mut latencies) = (vec![], vec![], vec![]);
    let (mut weight, mut structural) = (vec![], vec![]);
    let (mut answered, mut elapsed) = (0u64, Duration::ZERO);
    for epoch in 0..served::EPOCHS {
        reset_rss_peak();
        let started = served::start(&inputs.data.mvdb, first);
        let server = &started.server;
        setups.push(started.setup.as_secs_f64());
        // Every epoch compiles the same MVDB, so one oracle serves all.
        let oracle =
            oracle.get_or_insert_with(|| served::Oracle::build(&server.engine(), &inputs.texts));
        tally.record(oracle.check(inputs.order[0], &started.first));
        let log = served::pass(server, &stream, oracle, window, false);
        tally.merge(&log.tally());
        // The epoch's slice of batches goes to the idle server after the
        // window, so the update metrics are measured without a writer
        // disturbing the reads.
        let writes = served::idle_updates(server, inputs.idle_slice(epoch));
        tally.merge(&writes.tally);
        started.server.shutdown();
        let peak = rss_peak_mb();
        peaks.push(peak);
        let epoch_lat: Vec<f64> = log
            .readers
            .iter()
            .flat_map(|r| r.latency_ns.iter().map(|&ns| f64::from(ns) / 1e6))
            .collect();
        let epoch_sorted = sorted(&epoch_lat);
        eprintln!(
            "epoch {epoch}: setup {:.3} s, peak {peak:.1} MB, {:.0} reads/s, \
             p50 {:.4} ms, p99 {:.4} ms, {} updates",
            started.setup.as_secs_f64(),
            log.answered() as f64 / log.window().as_secs_f64().max(1e-9),
            percentile(&epoch_sorted, 0.5).unwrap_or(0.0),
            percentile(&epoch_sorted, 0.99).unwrap_or(0.0),
            writes.weight.len() + writes.structural.len(),
        );
        latencies.extend(epoch_lat);
        answered += log.answered();
        elapsed += log.window();
        weight.extend(writes.weight.iter().copied().map(ms));
        structural.extend(writes.structural.iter().copied().map(ms));
    }

    let lat = sorted(&latencies);
    // p99 is reported but not gated: it sits where the latency
    // distribution steepens and moves with host load (README.md).
    println!(
        "timed: {} reads over {:.1} s; p99 {:.4} ms with {} samples beyond; \
         {} weight-only and {} structural updates",
        lat.len(),
        elapsed.as_secs_f64(),
        percentile(&lat, 0.99).unwrap_or(0.0),
        samples_beyond(lat.len(), 0.99),
        weight.len(),
        structural.len()
    );
    let mut m = Metrics::default();
    m.put("setup_s", median(&setups).unwrap_or(0.0), "s");
    m.put(
        "qps",
        answered as f64 / elapsed.as_secs_f64().max(1e-9),
        "1/s",
    );
    m.put("latency_p50_ms", percentile(&lat, 0.5).unwrap_or(0.0), "ms");
    m.put(
        "latency_p95_ms",
        percentile(&lat, 0.95).unwrap_or(0.0),
        "ms",
    );
    m.put("rss_peak_mb", median(&peaks).unwrap_or(0.0), "MB");
    m.put("update_weight_ms", median(&weight).unwrap_or(0.0), "ms");
    m.put(
        "update_structural_ms",
        median(&structural).unwrap_or(0.0),
        "ms",
    );
    (tally, m)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            std::process::exit(2);
        }
    };
    let inputs = Inputs::new(&args);
    let (tally, metrics) = if args.trace {
        trace::traced(&args, &inputs)
    } else {
        timed(&args, &inputs)
    };
    eprintln!("{tally:?}");
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.failed() == 0,
        tally.attempted,
        tally.failed(),
        metrics.json()
    );
}
