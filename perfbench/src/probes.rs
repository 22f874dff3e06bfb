//! Layer probes run on a finished session's histograms: the estimation
//! stage recomposed from its public parts (probe, per-group estimation,
//! Algorithm-5 aggregation), each timed on its own, with the recomposed
//! result checked bit for bit against the session's `finalize`; the EM
//! solves counted and timed one by one; and the wire codec timed on the
//! workload's own report batches.

use crate::Outcome;
use dap_attack::Side;
use dap_core::aggregation::aggregate;
use dap_core::net::{decode_frame, encode_frame, Frame};
use dap_core::scheme::estimate_group_means_hist;
use dap_core::sw::sw_group_means_hist;
use dap_core::{DapOutput, DapSession, EstimationMode, Scheme};
use dap_emf::{cemf_star, cemf_star_threshold, emf, emf_star, probe_side, EmfConfig};
use dap_estimation::{
    cached_for_numeric, EmOptions, EmOutcome, EmWorkspace, PoisonRegion, TransformMatrix,
};
use dap_ldp::{Epsilon, NumericMechanism};
use std::time::Instant;

/// EM work: solves, iterations, wall time, and the computed operation
/// and byte volume of those iterations.
#[derive(Debug, Clone, Copy, Default)]
pub struct EmTally {
    /// Solves run.
    pub solves: u64,
    /// Iterations over all solves (exact).
    pub iters: u64,
    /// Wall time of the solves.
    pub ns: u64,
    /// Computed floating-point operations over all iterations.
    pub ops: f64,
    /// Computed bytes read or written over all iterations.
    pub bytes: f64,
}

impl EmTally {
    /// Computed cost of one EM iteration on `matrix`: the E-step and the
    /// M-step each make one multiply-add per stored entry (the structured
    /// bands, or every entry of a dense matrix), plus per-bucket updates;
    /// each stored entry is read once per step.
    pub fn per_iter(matrix: &TransformMatrix) -> (f64, f64) {
        let (d_in, d_out) = (matrix.d_in() as f64, matrix.d_out() as f64);
        let nnz = matrix.structure().map_or(d_in * d_out, |s| s.nnz() as f64);
        let poison = matrix.poison_buckets().len() as f64;
        let ops = 4.0 * nnz + 2.0 * d_out + 2.0 * (d_in + poison);
        let bytes = 8.0 * (2.0 * nnz + 3.0 * d_out + 2.0 * (d_in + poison));
        (ops, bytes)
    }

    /// Counts one solve that took `ns`.
    pub fn add(&mut self, matrix: &TransformMatrix, outcome: &EmOutcome, ns: u64) {
        let (ops, bytes) = Self::per_iter(matrix);
        let iters = outcome.iterations as f64;
        self.solves += 1;
        self.iters += outcome.iterations as u64;
        self.ns += ns;
        self.ops += ops * iters;
        self.bytes += bytes * iters;
    }

    /// Adds another tally.
    pub fn merge(&mut self, other: &EmTally) {
        self.solves += other.solves;
        self.iters += other.iters;
        self.ns += other.ns;
        self.ops += other.ops;
        self.bytes += other.bytes;
    }
}

/// What the estimation probe measured on one session.
#[derive(Debug, Clone, Copy, Default)]
pub struct EstimationProbe {
    /// The side/γ̂ probe on the most private group.
    pub probe_ns: u64,
    /// Algorithm-5 aggregation over all schemes.
    pub aggregate_ns: u64,
    /// The EM solves behind the probe and the per-group estimates.
    pub em: EmTally,
    /// The recomposed result equals `finalize` bit for bit.
    pub matches: bool,
}

impl EstimationProbe {
    /// Records the estimation-layer metrics averaged over `probes` (one
    /// per probed session); returns whether every recomposition matched.
    pub fn report(probes: &[EstimationProbe], out: &mut Outcome) -> bool {
        let per = probes.len().max(1) as f64;
        let mut em = EmTally::default();
        for p in probes {
            em.merge(&p.em);
        }
        let iters = em.iters.max(1) as f64;
        let sum = |f: fn(&EstimationProbe) -> u64| probes.iter().map(f).sum::<u64>() as f64;
        out.set("emf.probe_ms", sum(|p| p.probe_ns) / 1e6 / per);
        out.set("aggregation.us", sum(|p| p.aggregate_ns) / 1e3 / per);
        out.set("em.solves", em.solves as f64 / per);
        out.set(
            "em.iters_per_solve",
            em.iters as f64 / em.solves.max(1) as f64,
        );
        out.set("em.us_per_iter", em.ns as f64 / 1e3 / iters);
        out.set("em.ops_per_iter", em.ops / iters);
        out.set("em.bytes_per_iter", em.bytes / iters);
        out.set("em.gops", em.ops / em.ns.max(1) as f64);
        probes.iter().all(|p| p.matches)
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t = Instant::now();
    let v = f();
    (v, t.elapsed().as_nanos() as u64)
}

/// Recomposes `session.finalize` from its public parts and times each.
/// `outputs` is the session's own `finalize(&Scheme::ALL)`.
pub fn probe_estimation<M, F>(
    session: &DapSession<M>,
    factory: F,
    outputs: &[DapOutput],
) -> EstimationProbe
where
    M: NumericMechanism + Sync,
    F: Fn(Epsilon) -> M,
{
    let cfg = *session.config();
    let plan = session.plan();
    let mechs: Vec<M> = plan.budgets.iter().map(|&e| factory(e)).collect();
    let emf_cfgs: Vec<EmfConfig> = (0..plan.len())
        .map(|g| {
            EmfConfig::capped(
                plan.reports_in_group(g),
                plan.budgets[g].get(),
                cfg.max_d_out,
            )
        })
        .collect();
    let pg = plan.probe_group();
    let probe_counts = &session.histogram(pg).counts;
    let mut em = EmTally::default();
    let mut probe = EstimationProbe::default();

    // Probe: the poisoned side, γ̂, and the pivot per-group estimation
    // uses; `probed` is the probe group's base fit, which finalize reuses.
    let (side, gamma, pivot, probed): (Side, f64, f64, Option<EmOutcome>) = match cfg.mode {
        EstimationMode::ReportSum => {
            let c = &emf_cfgs[pg];
            let (p, ns) =
                timed(|| probe_side(&mechs[pg], probe_counts, c.d_in, cfg.o_prime, &c.em));
            probe.probe_ns = ns;
            let d_out = probe_counts.len();
            let ml = cached_for_numeric(
                &mechs[pg],
                c.d_in,
                d_out,
                &PoisonRegion::LeftOf(cfg.o_prime),
            );
            let mr = cached_for_numeric(
                &mechs[pg],
                c.d_in,
                d_out,
                &PoisonRegion::RightOf(cfg.o_prime),
            );
            // One timing covers both solves; split it by iterations.
            let left_ns = ns * p.left.iterations as u64
                / (p.left.iterations + p.right.iterations).max(1) as u64;
            em.add(&ml, &p.left, left_ns);
            em.add(&mr, &p.right, ns - left_ns);
            let chosen = p.chosen().clone();
            (p.side, chosen.poison_mass(), cfg.o_prime, Some(chosen))
        }
        EstimationMode::HistogramBands => {
            // The band probe of `DapSession::finalize`: EMF with poison
            // in the left band versus the right band, under the probe's
            // tighter stopping rule; the likelihoods decide.
            let c = &emf_cfgs[pg];
            let opts = EmOptions {
                tol: c.em.tol.min(1e-3),
                max_iters: c.em.max_iters.max(500),
            };
            let (ilo, ihi) = mechs[pg].input_range();
            let d_out = probe_counts.len();
            let ml = cached_for_numeric(&mechs[pg], c.d_in, d_out, &PoisonRegion::LeftOf(ilo));
            let mr = cached_for_numeric(&mechs[pg], c.d_in, d_out, &PoisonRegion::RightOf(ihi));
            let (left, l_ns) = timed(|| emf(&ml, probe_counts, &opts));
            let (right, r_ns) = timed(|| emf(&mr, probe_counts, &opts));
            probe.probe_ns = l_ns + r_ns;
            em.add(&ml, &left, l_ns);
            em.add(&mr, &right, r_ns);
            if left.log_likelihood > right.log_likelihood {
                (Side::Left, left.poison_mass(), ilo, None)
            } else {
                (Side::Right, right.poison_mass(), ihi, None)
            }
        }
    };

    // Per-group estimation through the library's own entry points, as
    // `(mean, m̂, N)` per group and scheme.
    let per_group: Vec<Vec<(f64, f64, usize)>> = (0..plan.len())
        .map(|g| {
            let hist = session.histogram(g);
            match cfg.mode {
                EstimationMode::ReportSum => estimate_group_means_hist(
                    &mechs[g],
                    hist,
                    side,
                    pivot,
                    gamma,
                    &Scheme::ALL,
                    &emf_cfgs[g],
                    if g == pg { probed.as_ref() } else { None },
                    &mut EmWorkspace::new(),
                )
                .iter()
                .map(|e| (e.mean, e.m_hat, e.n_reports))
                .collect(),
                EstimationMode::HistogramBands => sw_group_means_hist(
                    &mechs[g],
                    hist,
                    side,
                    pivot,
                    gamma,
                    &Scheme::ALL,
                    &emf_cfgs[g],
                )
                .iter()
                .map(|&(mean, gamma_t)| (mean, hist.n_reports as f64 * gamma_t, hist.n_reports))
                .collect(),
            }
        })
        .collect();

    // The EM solves behind those estimates, one by one: the base fit
    // (reused from the probe where finalize reuses it), EMF*, and CEMF*.
    for (g, c) in emf_cfgs.iter().enumerate() {
        let counts = &session.histogram(g).counts;
        if session.histogram(g).n_reports == 0 {
            continue;
        }
        let region = match side {
            Side::Right => PoisonRegion::RightOf(pivot),
            Side::Left => PoisonRegion::LeftOf(pivot),
        };
        let matrix = cached_for_numeric(&mechs[g], c.d_in, c.d_out, &region);
        let base = match (&probed, g == pg) {
            (Some(b), true) => b.clone(),
            _ => {
                let (b, ns) = timed(|| emf(&matrix, counts, &c.em));
                em.add(&matrix, &b, ns);
                b
            }
        };
        let (star, ns) = timed(|| emf_star(&matrix, counts, gamma, &c.em));
        em.add(&matrix, &star, ns);
        let thr = cemf_star_threshold(gamma, matrix.poison_buckets().len());
        let (cemf, ns) = timed(|| cemf_star(&matrix, counts, gamma, thr, &base, &c.em));
        em.add(&matrix, &cemf, ns);
    }
    probe.em = em;

    // Algorithm-5 aggregation per scheme, then the finalize comparison.
    let worst: Vec<f64> = mechs.iter().map(|m| m.worst_case_variance()).collect();
    let (ilo, ihi) = mechs[0].input_range();
    let mut matches = outputs.len() == Scheme::ALL.len();
    for (s, output) in outputs.iter().enumerate() {
        let means: Vec<f64> = per_group.iter().map(|p| p[s].0).collect();
        let n_hats: Vec<f64> = per_group
            .iter()
            .enumerate()
            .map(|(g, p)| (p[s].2 as f64 - p[s].1) * plan.budgets[g].get() / cfg.eps)
            .collect();
        let (agg, ns) = timed(|| aggregate(&means, &n_hats, &worst, cfg.weighting));
        probe.aggregate_ns += ns;
        let mean = if cfg.clamp_to_input {
            agg.mean.clamp(ilo, ihi)
        } else {
            agg.mean
        };
        matches &= mean.to_bits() == output.mean.to_bits()
            && gamma.to_bits() == output.gamma.to_bits()
            && side == output.side;
    }
    probe.matches = matches;
    probe
}

/// What the codec probe measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct CodecProbe {
    /// Reports carried.
    pub reports: u64,
    /// Bytes on the wire: length prefix plus `encode_frame` body.
    pub bytes: u64,
    /// `encode_frame` time.
    pub encode_ns: u64,
    /// `decode_frame` time.
    pub decode_ns: u64,
    /// Every frame decoded back to itself.
    pub round_trips: bool,
}

impl CodecProbe {
    /// Encodes and decodes one `seq-batch` frame per `(group, reports)`.
    pub fn run<'a>(batches: impl IntoIterator<Item = (usize, &'a [f64])>) -> CodecProbe {
        let mut p = CodecProbe {
            round_trips: true,
            ..CodecProbe::default()
        };
        for (i, (group, reports)) in batches.into_iter().enumerate() {
            let frame = Frame::IngestBatchSeq {
                channel: 1,
                seq: i as u64 + 1,
                group,
                reports: reports.to_vec(),
            };
            let (body, enc) = timed(|| encode_frame(&frame));
            let (back, dec) = timed(|| decode_frame(&body));
            p.reports += reports.len() as u64;
            p.bytes += 4 + body.len() as u64;
            p.encode_ns += enc;
            p.decode_ns += dec;
            p.round_trips &= matches!(back, Ok(f) if f == frame);
        }
        p
    }

    /// Totals over several probes.
    pub fn sum(probes: &[CodecProbe]) -> CodecProbe {
        let mut total = CodecProbe {
            round_trips: true,
            ..CodecProbe::default()
        };
        for p in probes {
            total.reports += p.reports;
            total.bytes += p.bytes;
            total.encode_ns += p.encode_ns;
            total.decode_ns += p.decode_ns;
            total.round_trips &= p.round_trips;
        }
        total
    }

    /// Records the codec metrics.
    pub fn report(&self, out: &mut Outcome) {
        let reports = self.reports.max(1) as f64;
        out.set("wire.bytes_per_report", self.bytes as f64 / reports);
        out.set(
            "codec.encode_ns_per_report",
            self.encode_ns as f64 / reports,
        );
        out.set(
            "codec.decode_ns_per_report",
            self.decode_ns as f64 / reports,
        );
    }
}
