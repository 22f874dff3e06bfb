//! The repository benchmark: three named workloads that drive the
//! workspace crates through their public functions only, time every call
//! into a layer from outside, check the outputs, and report one JSON
//! object of metrics.
//!
//! * `sweep-pm` — the Fig. 7 cell list through `dap_bench::engine`;
//! * `session-sw` — one in-process Square-Wave collector round per unit,
//!   driven call by call (plan, session, perturb, poison, ingest,
//!   finalize);
//! * `serve-durable` — a journaled reactor daemon fed by two pipelined
//!   `WireClient` connections, one of which interleaves reads.
//!
//! An untraced run (`--trace 0`) reports the end-to-end metrics; a traced
//! run (`--trace 1`) alternates untraced and traced units, records spans
//! around each public call (module `trace`), and reports the per-layer metrics.
//! Metric names and units live in [`END_TO_END`] and [`PER_LAYER`];
//! `BENCHMARK.json` lists the same names.

mod pipeline;
mod probes;
mod serve;
mod session_sw;
mod stats;
mod sweep;
mod trace;

use std::collections::BTreeMap;

/// End-to-end metrics, `(name, unit)`: every workload reports all of them
/// from an untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
    ("mse_dap", "sq"),
    ("users_per_s", "1/s"),
    ("ingest_reports_per_s", "1/s"),
];

/// Per-layer metrics, `(name, unit)`, reported by a traced run. A layer
/// that a workload never calls reports `0`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("fail_frac", "ratio"),
    ("cells_per_s", "1/s"),
    ("ack_ms_p50", "ms"),
    ("ack_ms_p99", "ms"),
    ("read_ms_p50", "ms"),
    ("read_ms_p90", "ms"),
    ("datasets.generate_ms", "ms"),
    ("grouping.plan_ms", "ms"),
    ("session.new_ms", "ms"),
    ("ldp.perturb_ns_per_report", "ns"),
    ("attack.poison_ns_per_report", "ns"),
    ("session.ingest_ns_per_report", "ns"),
    ("session.finalize_ms", "ms"),
    ("aggregation.us", "us"),
    ("estimation.matrix_cache_len", "count"),
    ("emf.probe_ms", "ms"),
    ("em.solves", "count"),
    ("em.iters_per_solve", "count"),
    ("em.us_per_iter", "us"),
    ("em.ops_per_iter", "ops"),
    ("em.bytes_per_iter", "B"),
    ("em.gops", "Gop/s"),
    ("report_cache.hit_ratio", "ratio"),
    ("report_cache.evictions", "count"),
    ("population_cache.hit_ratio", "ratio"),
    ("engine.sweep_ms_1t", "ms"),
    ("parallel.efficiency", "ratio"),
    ("wire.bytes_per_report", "B"),
    ("codec.encode_ns_per_report", "ns"),
    ("codec.decode_ns_per_report", "ns"),
    ("net.send_us", "us"),
    ("net.ack_wait_us", "us"),
    ("net.throttled", "count"),
    ("net.retries", "count"),
    ("reactor.queue_depth_max", "count"),
    ("reactor.peak_connections", "count"),
    ("journal.records", "count"),
    ("journal.bytes_per_report", "B"),
    ("trace.overhead_frac", "ratio"),
    ("trace.coverage_frac", "ratio"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 7 cells through the experiment engine.
    SweepPm,
    /// Square-Wave collector rounds at the paper's scale.
    SessionSw,
    /// A journaled reactor daemon under a closed client loop.
    ServeDurable,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::SweepPm,
        Workload::SessionSw,
        Workload::ServeDurable,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepPm => "sweep-pm",
            Workload::SessionSw => "session-sw",
            Workload::ServeDurable => "serve-durable",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. [`Scale::full`] is what the benchmark command measures;
/// [`Scale::smoke`] shrinks every workload so the test suite can run all
/// of their checks in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// `sweep-pm`: users per cell.
    pub sweep_n: usize,
    /// `sweep-pm`: reps per cell.
    pub sweep_trials: usize,
    /// `sweep-pm` and `session-sw`: cap on output buckets `d'`.
    pub max_d_out: usize,
    /// `sweep-pm`: cold set-ups (all caches emptied) timed for `setup_s`.
    pub sweep_setups: usize,
    /// `sweep-pm`: the first sweeps `mse_dap` averages over.
    pub sweep_mse_units: usize,
    /// `session-sw`: users per round.
    pub session_n: usize,
    /// `session-sw`: the first rounds `mse_dap` averages over.
    pub session_mse_units: usize,
    /// `serve-durable`: users per round.
    pub serve_users: usize,
    /// `serve-durable`: output-bucket cap of the served deployment.
    pub serve_max_d_out: usize,
    /// `serve-durable`: the first rounds `mse_dap` averages over.
    pub serve_mse_units: usize,
    /// Reports per ingest frame, in process and on the wire.
    pub frame: usize,
    /// `serve-durable`: frames each connection keeps in flight.
    pub window: usize,
    /// `serve-durable`: acked frames between two reads on connection 0.
    pub frames_per_read: usize,
    /// `sweep-pm`: protocol runs replayed call by call in a traced run
    /// (alternately untraced and traced).
    pub replays: usize,
}

impl Scale {
    /// The benchmark's sizes.
    pub fn full() -> Scale {
        Scale {
            sweep_n: 100_000,
            sweep_trials: 1,
            max_d_out: 512,
            sweep_setups: 9,
            sweep_mse_units: 8,
            session_n: 1_000_000,
            session_mse_units: 48,
            serve_users: 100_000,
            serve_max_d_out: 64,
            serve_mse_units: 32,
            // The coordinator's chunk: `submit` streams 8192-report
            // `seq-batch` frames (`STREAM_CHUNK` in `dap_bench::serve`).
            frame: 8192,
            // The default window of `experiments storm`, the repository's
            // pipelined client.
            window: 16,
            // Chosen, not taken from a caller: `submit` reads once, after
            // its whole stream. One read per 8 acked frames on one of two
            // connections puts about 1 read beside 16 writes.
            frames_per_read: 8,
            replays: 48,
        }
    }

    /// Tiny sizes for the smoke test.
    pub fn smoke() -> Scale {
        Scale {
            sweep_n: 3_000,
            sweep_trials: 1,
            max_d_out: 32,
            sweep_setups: 1,
            sweep_mse_units: 1,
            session_n: 4_000,
            session_mse_units: 1,
            serve_users: 2_000,
            serve_max_d_out: 16,
            serve_mse_units: 1,
            frame: 64,
            window: 4,
            frames_per_read: 4,
            replays: 2,
        }
    }
}

/// One run's request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSpec {
    /// The workload.
    pub workload: Workload,
    /// Seed every input of the run derives from.
    pub seed: u64,
    /// Measuring time, seconds (a run always completes the units
    /// `mse_dap` averages over, even past this).
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
}

/// What a run produced: operation counts and named metric values.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted (cells, rounds, frames and reads).
    pub attempted: u64,
    /// Operations that failed or diverged from their reference.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Peak resident set of each measured unit, MB.
    pub rss_peaks: Vec<f64>,
}

impl Outcome {
    /// Records a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Runs one measured unit in its own peak-RSS window (when the kernel
    /// allows resetting the peak) and records the window's peak. Free heap
    /// memory is returned to the kernel first, so every window starts from
    /// what is live.
    pub fn rss_window<T>(&mut self, unit: impl FnOnce(&mut Outcome) -> T) -> T {
        stats::release_free_memory();
        let reset = stats::reset_peak_rss();
        let value = unit(self);
        if let (true, Ok(mb)) = (reset, stats::peak_rss_mb()) {
            self.rss_peaks.push(mb);
        }
        value
    }

    /// Counts `n` operations, `bad` of which failed.
    pub fn count(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
    }

    /// The run's failure share.
    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result line: exactly the metrics of `table`, in its order.
    /// End-to-end metrics must all be present; a per-layer metric the
    /// workload never measured is reported as `0`.
    pub fn json(&self, trace: bool) -> String {
        let table = if trace { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = table
            .iter()
            .map(|&(name, unit)| {
                let value = match self.metrics.get(name) {
                    Some(&v) => v,
                    None if trace => 0.0,
                    None => panic!("end-to-end metric {name} was not measured"),
                };
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives; non-finite values (a bug upstream) become `-1`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "-1".to_string()
    }
}

/// Runs one workload.
pub fn run(spec: &RunSpec) -> Result<Outcome, String> {
    let mut out = match spec.workload {
        Workload::SweepPm => sweep::run(spec)?,
        Workload::SessionSw => session_sw::run(spec)?,
        Workload::ServeDurable => serve::run(spec)?,
    };
    // The mean unit peak: a process-wide high-water mark would also carry
    // allocator state left over from earlier units, and on `session-sw`
    // and `serve-durable` unit peaks are bimodal, so their median flips
    // between the modes from run to run.
    let rss = if out.rss_peaks.is_empty() {
        stats::peak_rss_mb()?
    } else {
        stats::mean(&out.rss_peaks)
    };
    eprintln!(
        "{}: unit peak RSS mean {rss:.1} MB over {} units, range {:.1}-{:.1} MB",
        spec.workload.name(),
        out.rss_peaks.len(),
        stats::percentile(&out.rss_peaks, 0.0),
        stats::percentile(&out.rss_peaks, 1.0)
    );
    out.set("peak_rss_mb", rss);
    out.set("ok_frac", 1.0 - out.fail_frac());
    out.set("fail_frac", out.fail_frac());
    Ok(out)
}

/// Directory for span dumps and journals: `out/` beside this package's
/// manifest, inside the checkout the benchmark was built in.
pub(crate) fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A seed for unit `unit` of a run seeded with `seed` (a pure function of
/// both, so every run with one seed sees the same inputs).
pub(crate) fn unit_seed(seed: u64, unit: u64) -> u64 {
    use rand::RngCore;
    dap_estimation::rng::derive(seed, unit).next_u64()
}

/// The id a run's spans carry: distinct per workload and seed.
pub(crate) fn run_id(spec: &RunSpec) -> u64 {
    unit_seed(spec.seed, u64::MAX - spec.workload as u64)
}

/// Records `trace.overhead_frac` — the median traced unit (a `unit` span)
/// against the median untraced unit — and, with `coverage`,
/// `trace.coverage_frac` — the median share of an untraced unit's wall
/// time that the layer spans' self times inside a traced unit account for.
pub(crate) fn report_trace(
    tr: &trace::Tracer,
    untraced_s: &[f64],
    coverage: bool,
    out: &mut Outcome,
) {
    let units = tr.unit_breakdown("unit");
    let traced: Vec<f64> = units.iter().map(|&(wall, _)| wall as f64 / 1e9).collect();
    let covered: Vec<f64> = units
        .iter()
        .map(|&(_, layers)| layers as f64 / 1e9)
        .collect();
    let base = stats::median(untraced_s);
    if base > 0.0 && !traced.is_empty() {
        out.set("trace.overhead_frac", stats::median(&traced) / base - 1.0);
        if coverage {
            out.set("trace.coverage_frac", stats::median(&covered) / base);
        }
    }
}

/// Writes the run's spans to `out/trace-<workload>-<seed>.jsonl`.
pub(crate) fn write_spans(tr: &trace::Tracer, spec: &RunSpec) -> Result<(), String> {
    let path = out_dir().join(format!(
        "trace-{}-{}.jsonl",
        spec.workload.name(),
        spec.seed
    ));
    tr.write_jsonl(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}
