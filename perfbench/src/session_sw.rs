//! `session-sw`: the in-process collector at the paper's scale. Each
//! round is one Square-Wave deployment (histogram-band estimation, ε = 1,
//! `n` users, γ = 0.25 with a coalition sending uniformly in the upper
//! half of the right inflation band), driven call by call through
//! [`crate::pipeline::collect_round`].
//!
//! Every round draws a fresh Taxi population (its set-up) and a fresh RNG
//! stream from the run seed. Round 0 is first run untimed through
//! `SwDap::run_schemes_on` on the same seed stream — which also warms the
//! transform-matrix cache — and the timed round must match it bit for bit.

use crate::pipeline::{collect_round, report_latencies, report_layers, ReportCounts, RoundInput};
use crate::probes::{probe_estimation, CodecProbe, EstimationProbe};
use crate::stats::{log_units, mean, median, scheme_sq_err};
use crate::trace::Tracer;
use crate::{report_trace, run_id, write_spans, Outcome, RunSpec};
use dap_attack::{Anchor, UniformAttack};
use dap_core::{Scheme, SwDap, SwDapConfig};
use dap_datasets::Dataset;
use dap_estimation::rng::derive;
use dap_estimation::MatrixCache;
use dap_ldp::SquareWave;
use std::time::Instant;

/// Probed rounds in a traced run.
const PROBES: usize = 2;

/// Runs the workload.
pub fn run(spec: &RunSpec) -> Result<Outcome, String> {
    let sc = spec.scale;
    let tr = Tracer::new(run_id(spec));
    let sw = SwDapConfig {
        max_d_out: sc.max_d_out,
        ..SwDapConfig::paper_default(1.0, Scheme::Emf)
    };
    let config = sw.session_config();
    let attack = UniformAttack::new(Anchor::AboveInputMax(0.5), Anchor::AboveInputMax(1.0));
    let byzantine = (sc.session_n as f64 * 0.25).round() as usize;
    let population = |unit: u64| {
        let _s = tr.span("datasets.generate");
        Dataset::Taxi.generate_unit(sc.session_n - byzantine, &mut derive(spec.seed, 2 * unit))
    };
    let stream = |unit: u64| derive(spec.seed, 2 * unit + 1);

    let honest = population(0);
    let reference = SwDap::new(sw)
        .and_then(|d| d.run_schemes_on(&honest, byzantine, &attack, &Scheme::ALL, &mut stream(0)))
        .map_err(|e| format!("reference run failed: {e}"))?;
    drop(honest);

    let mut out = Outcome::default();
    let (mut setups, mut untraced, mut errors) = (Vec::new(), Vec::new(), Vec::new());
    let mut rates = Vec::new();
    let mut counts = ReportCounts::default();
    let (mut acks, mut probes, mut codec) = (Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    let mut unit = 0u64;
    while (unit as usize) < sc.session_mse_units || started.elapsed().as_secs_f64() < spec.seconds {
        let traced = spec.trace && unit % 2 == 1;
        tr.set_enabled(traced);
        let (honest, round, wall) = out.rss_window(|_| {
            let t = Instant::now();
            let honest = population(unit);
            setups.push(t.elapsed().as_secs_f64());
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
                collect_round(&input, SquareWave::new, &mut stream(unit), &tr)
            };
            (honest, round, t.elapsed().as_secs_f64())
        });
        tr.set_enabled(false);
        let round = match round {
            Ok(round) => round,
            Err(e) => {
                eprintln!("session-sw: round {unit} failed: {e}");
                out.count(1, 1);
                unit += 1;
                continue;
            }
        };

        let mut bad = round.outputs.iter().any(|o| !o.mean.is_finite());
        if unit == 0 {
            bad |= reference.len() != round.outputs.len()
                || reference.iter().zip(&round.outputs).any(|(r, o)| {
                    r.mean.to_bits() != o.mean.to_bits()
                        || r.gamma.to_bits() != o.gamma.to_bits()
                        || r.side != o.side
                });
        }
        out.count(1, u64::from(bad));
        if (unit as usize) < sc.session_mse_units {
            errors.push(scheme_sq_err(&round.outputs, mean(&honest)));
        }
        if traced {
            counts.add(round.reports);
            acks.extend_from_slice(&round.acks_ms);
            if probes.len() < PROBES {
                let probe = probe_estimation(&round.session, SquareWave::new, &round.outputs);
                out.count(1, u64::from(!probe.matches));
                probes.push(probe);
                codec.push(CodecProbe::run(
                    round.sample.iter().map(|(g, b)| (*g, b.as_slice())),
                ));
            }
        } else {
            untraced.push(wall);
            rates.push(round.reports.total() as f64 / wall);
        }
        unit += 1;
    }

    // Rates over the median round: every round does the same work.
    let round_s = median(&untraced);
    log_units("session-sw", &untraced);
    out.set("setup_s", median(&setups));
    out.set("mse_dap", mean(&errors));
    out.set("users_per_s", sc.session_n as f64 / round_s);
    out.set("ingest_reports_per_s", median(&rates));
    if spec.trace {
        report_layers(&tr, counts, &mut out);
        EstimationProbe::report(&probes, &mut out);
        CodecProbe::sum(&codec).report(&mut out);
        report_trace(&tr, &untraced, true, &mut out);
        report_latencies(&tr, &acks, &mut out);
        out.set(
            "estimation.matrix_cache_len",
            MatrixCache::global().len() as f64,
        );
        write_spans(&tr, spec)?;
    }
    Ok(out)
}
