//! `sweep-pm`: the Fig. 7 cell list (PM, Taxi, ε = 1, the γ sweep and the
//! poison shapes; three DAP schemes plus Ostrich and Trimming) through
//! `dap_bench::engine::run_cells`.
//!
//! Each sweep runs under a fresh seed derived from the run seed, with the
//! population and report caches emptied first, so every sweep sees the
//! caches as one `experiments fig7` invocation does; the transform-matrix
//! cache stays warm across sweeps. Set-up is a cold sweep with all three
//! caches emptied. After the measured sweeps, the first one is replayed on
//! one thread (caches emptied again) and must match bit for bit.
//!
//! The engine's layers run inside `run_cells`, where the harness cannot
//! put a span, so sweeps are never traced. A traced run instead replays
//! one representative protocol run (γ = 0.25, upper-half coalition) call by
//! call through the session API, alternately untraced and traced: the
//! layer metrics, `trace.overhead_frac` and `trace.coverage_frac` come from
//! those replays.

use crate::pipeline::{collect_round, report_latencies, report_layers, ReportCounts, RoundInput};
use crate::probes::{probe_estimation, CodecProbe, EstimationProbe};
use crate::stats::{log_units, median, output_bits};
use crate::trace::Tracer;
use crate::{report_trace, run_id, unit_seed, write_spans, Outcome, RunSpec};
use dap_bench::cell::Cell;
use dap_bench::common::{ExpOptions, PoiRange};
use dap_bench::engine::{cache_stats, run_cells, CellResult};
use dap_bench::fig7;
use dap_bench::report_cache::ReportCache;
use dap_core::parallel::{effective_threads, set_thread_override};
use dap_core::{Dap, DapConfig, GroupPlan, Scheme};
use dap_datasets::{Dataset, PopulationCache};
use dap_estimation::rng::derive;
use dap_estimation::MatrixCache;
use dap_ldp::PiecewiseMechanism;
use std::time::Instant;

/// Unit index space of the set-up sweeps (disjoint from measured sweeps).
const SETUP_UNITS: u64 = 1 << 32;
/// Unit index of the representative replays.
const REPLAY_UNITS: u64 = 1 << 33;
/// Traced replays whose estimation and codec are probed.
const PROBES: usize = 2;

fn options(spec: &RunSpec, unit: u64) -> ExpOptions {
    ExpOptions {
        n: spec.scale.sweep_n,
        trials: spec.scale.sweep_trials,
        seed: unit_seed(spec.seed, unit),
        max_d_out: spec.scale.max_d_out,
    }
}

fn clear_caches(matrices: bool) {
    PopulationCache::global().clear();
    ReportCache::global().clear();
    if matrices {
        MatrixCache::global().clear();
    }
}

/// Cells with a non-finite value.
fn non_finite(results: &[CellResult]) -> u64 {
    results
        .iter()
        .filter(|r| r.values.iter().any(|v| !v.is_finite()))
        .count() as u64
}

/// Cells whose values differ from `reference` in any bit.
fn diverged(results: &[CellResult], reference: &[CellResult]) -> u64 {
    let bits = |r: &CellResult| r.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let differ = results
        .iter()
        .zip(reference)
        .filter(|(a, b)| bits(a) != bits(b))
        .count();
    (differ + results.len().abs_diff(reference.len())) as u64
}

/// Mean over cells of the three DAP schemes' MSEs (the first three
/// values of every Fig. 7 cell).
fn dap_mse(results: &[CellResult]) -> f64 {
    let per_cell: Vec<f64> = results
        .iter()
        .map(|r| r.values[..3].iter().sum::<f64>() / 3.0)
        .collect();
    crate::stats::mean(&per_cell)
}

fn sweep(spec: &RunSpec, unit: u64, cells: &[Cell], out: &mut Outcome) -> (Vec<CellResult>, f64) {
    let t = Instant::now();
    let results = run_cells(&options(spec, unit), cells);
    let wall = t.elapsed().as_secs_f64();
    out.count(cells.len() as u64, non_finite(&results));
    (results, wall)
}

/// Runs the workload.
pub fn run(spec: &RunSpec) -> Result<Outcome, String> {
    let sc = spec.scale;
    let tr = Tracer::new(run_id(spec));
    let cells = fig7::cells(&options(spec, 0));
    let mut out = Outcome::default();

    let mut setups = Vec::new();
    for i in 0..sc.sweep_setups.max(1) as u64 {
        clear_caches(true);
        setups.push(sweep(spec, SETUP_UNITS + i, &cells, &mut out).1);
    }
    out.set("setup_s", median(&setups));

    PopulationCache::global().reset_stats();
    ReportCache::global().reset_stats();
    let started = Instant::now();
    let mut untraced = Vec::new();
    let mut mse = Vec::new();
    let mut first: Vec<CellResult> = Vec::new();
    let mut unit = 0u64;
    while (unit as usize) < sc.sweep_mse_units || started.elapsed().as_secs_f64() < spec.seconds {
        clear_caches(false);
        let (results, wall) = out.rss_window(|out| sweep(spec, unit, &cells, out));
        untraced.push(wall);
        if (unit as usize) < sc.sweep_mse_units {
            mse.push(dap_mse(&results));
        }
        if unit == 0 {
            first = results;
        }
        unit += 1;
    }
    let (pop, reports) = cache_stats();

    // The thread-count check: sweep 0 again on one thread, caches cold.
    clear_caches(false);
    set_thread_override(Some(1));
    let t = Instant::now();
    let one_thread = run_cells(&options(spec, 0), &cells);
    let sweep_1t = t.elapsed().as_secs_f64();
    set_thread_override(None);
    out.count(cells.len() as u64, diverged(&one_thread, &first));
    clear_caches(false);

    // Rates over the median sweep: every sweep does the same work.
    let sweep_s = median(&untraced);
    log_units("sweep-pm", &untraced);
    let reps = (cells.len() * sc.sweep_trials) as f64;
    let plan = GroupPlan::build(sc.sweep_n, 1.0, 1.0 / 16.0, &mut derive(0, 0));
    let reports_per_rep: usize = (0..plan.len()).map(|g| plan.reports_in_group(g)).sum();
    out.set("mse_dap", crate::stats::mean(&mse));
    out.set("users_per_s", reps * sc.sweep_n as f64 / sweep_s);
    out.set(
        "ingest_reports_per_s",
        reps * reports_per_rep as f64 / sweep_s,
    );

    if spec.trace {
        out.set("cells_per_s", cells.len() as f64 / sweep_s);
        let ratio = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
        out.set(
            "report_cache.hit_ratio",
            ratio(reports.hits, reports.misses),
        );
        out.set("report_cache.evictions", reports.evictions as f64);
        out.set("population_cache.hit_ratio", ratio(pop.hits, pop.misses));
        out.set("engine.sweep_ms_1t", sweep_1t * 1e3);
        out.set(
            "parallel.efficiency",
            sweep_1t / (effective_threads() as f64 * sweep_s),
        );
        replay(spec, &tr, &mut out)?;
        write_spans(&tr, spec)?;
    }
    Ok(out)
}

/// Replays representative protocol runs call by call, alternately
/// untraced and traced, checks each against `Dap::run_schemes_on` on the
/// same seed stream, and records the layer and tracing metrics.
fn replay(spec: &RunSpec, tr: &Tracer, out: &mut Outcome) -> Result<(), String> {
    let sc = spec.scale;
    let config = DapConfig {
        max_d_out: sc.max_d_out,
        ..DapConfig::paper_default(1.0, Scheme::Emf)
    };
    let attack = PoiRange::TopHalf.attack();
    let byzantine = (sc.sweep_n as f64 * 0.25).round() as usize;
    let mut counts = ReportCounts::default();
    let (mut acks, mut probes, mut codec) = (Vec::new(), Vec::new(), Vec::new());
    let mut untraced = Vec::new();
    for r in 0..sc.replays.max(2) as u64 {
        let unit = REPLAY_UNITS + 2 * r;
        let traced = r % 2 == 1;
        tr.set_enabled(traced);
        let honest = {
            let _s = tr.span("datasets.generate");
            Dataset::Taxi.generate_signed(sc.sweep_n - byzantine, &mut derive(spec.seed, unit))
        };
        let input = RoundInput {
            config,
            honest: &honest,
            byzantine,
            attack: &attack,
            frame: sc.frame,
        };
        let t = Instant::now();
        let round = {
            let _unit = tr.span("unit");
            collect_round(
                &input,
                PiecewiseMechanism::new,
                &mut derive(spec.seed, unit + 1),
                tr,
            )
        };
        let wall = t.elapsed().as_secs_f64();
        tr.set_enabled(false);
        let round = round.map_err(|e| format!("replay round failed: {e}"))?;
        let reference = Dap::new(config, PiecewiseMechanism::new)
            .and_then(|d| {
                d.run_schemes_on(
                    &honest,
                    byzantine,
                    &attack,
                    &Scheme::ALL,
                    &mut derive(spec.seed, unit + 1),
                )
            })
            .map_err(|e| format!("reference run failed: {e}"))?;
        let mut same = output_bits(&reference) == output_bits(&round.outputs);
        if traced {
            counts.add(round.reports);
            acks.extend_from_slice(&round.acks_ms);
            if probes.len() < PROBES {
                let probe =
                    probe_estimation(&round.session, PiecewiseMechanism::new, &round.outputs);
                same &= probe.matches;
                probes.push(probe);
                codec.push(CodecProbe::run(
                    round.sample.iter().map(|(g, b)| (*g, b.as_slice())),
                ));
            }
        } else {
            untraced.push(wall);
        }
        out.count(1, u64::from(!same));
    }
    log_units("sweep-pm replay", &untraced);
    report_layers(tr, counts, out);
    EstimationProbe::report(&probes, out);
    CodecProbe::sum(&codec).report(out);
    report_trace(tr, &untraced, true, out);
    report_latencies(tr, &acks, out);
    out.set(
        "estimation.matrix_cache_len",
        MatrixCache::global().len() as f64,
    );
    Ok(())
}
