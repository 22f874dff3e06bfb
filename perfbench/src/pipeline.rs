//! One in-process collector round, driven call by call through the public
//! client/session API, with a span around every call into a layer.
//!
//! The calls and the order in which they draw from the RNG are those of
//! `dap_core::Dap::run_schemes_on` — plan, session, then per group every
//! honest member's `perturb_into` in assignment order followed by the
//! coalition's `reports_into` — so a round is bit-identical to
//! `run_schemes_on` on the same seed stream. Reports are ingested in frame-sized
//! batches; the session's accumulation is a sequential sum, so batch
//! boundaries do not change a bit.

use crate::trace::Tracer;
use dap_attack::Attack;
use dap_core::{DapConfig, DapError, DapOutput, DapSession, GroupPlan, Scheme};
use dap_ldp::{Epsilon, NumericMechanism};
use rand::RngCore;
use std::time::Instant;

/// One round's inputs.
pub struct RoundInput<'a> {
    /// The deployment.
    pub config: DapConfig,
    /// Honest users' private values.
    pub honest: &'a [f64],
    /// Coalition size.
    pub byzantine: usize,
    /// What the coalition sends.
    pub attack: &'a dyn Attack,
    /// Reports per ingest batch.
    pub frame: usize,
}

/// What a round produced.
pub struct Round<M> {
    /// The session after ingesting every report (estimation probes reuse
    /// its histograms).
    pub session: DapSession<M>,
    /// `finalize` over all three schemes.
    pub outputs: Vec<DapOutput>,
    /// Reports perturbed and drawn.
    pub reports: ReportCounts,
    /// Per-batch `ingest_batch` latencies in ms (recorded only while the
    /// tracer is enabled).
    pub acks_ms: Vec<f64>,
    /// The first few ingest batches of each group as `(group, reports)`
    /// (kept only while the tracer is enabled, for the codec probe).
    pub sample: Vec<(usize, Vec<f64>)>,
}

/// Batches per group and source a traced round keeps in [`Round::sample`].
const SAMPLE_BATCHES: usize = 8;

/// Runs one round: plan → session → perturb → poison → ingest → finalize.
pub fn collect_round<M, F, R>(
    input: &RoundInput<'_>,
    factory: F,
    rng: &mut R,
    tr: &Tracer,
) -> Result<Round<M>, DapError>
where
    M: NumericMechanism + Sync,
    F: Fn(Epsilon) -> M,
    R: RngCore,
{
    let cfg = input.config;
    let n_honest = input.honest.len();
    let n_total = n_honest + input.byzantine;
    let record_acks = tr.enabled();
    let plan = {
        let _s = tr.span("grouping.plan");
        GroupPlan::build(n_total, cfg.eps, cfg.eps0, rng)
    };
    let mut session = {
        let _s = tr.span("session.new");
        DapSession::new(cfg, plan, &factory)?
    };
    let mut reports = ReportCounts::default();
    let mut acks_ms = Vec::new();
    let mut sample = Vec::new();
    let mut honest_buf: Vec<f64> = Vec::new();
    let mut poison_buf: Vec<f64> = Vec::new();
    for g in 0..session.group_count() {
        let assign = session.client_assignment(g)?;
        let mech = factory(assign.eps_t);
        let k = assign.k_t;
        let members = &session.plan().assignment[g];
        let honest_members = members.iter().filter(|&&u| u < n_honest).count();
        {
            let _s = tr.span("ldp.perturb");
            honest_buf.clear();
            honest_buf.resize(honest_members * k, 0.0);
            let users = members.iter().filter(|&&u| u < n_honest);
            for (out, &user) in honest_buf.chunks_exact_mut(k).zip(users) {
                assign.perturb_into(&mech, input.honest[user], out, rng);
            }
        }
        {
            let _s = tr.span("attack.poison");
            poison_buf.clear();
            poison_buf.resize((members.len() - honest_members) * k, 0.0);
            let drawn = input.attack.reports_into(&mut poison_buf, &mech, rng);
            poison_buf.truncate(drawn);
        }
        {
            let _s = tr.span("session.ingest");
            if record_acks {
                let batches = honest_buf.chunks(input.frame).take(SAMPLE_BATCHES);
                let poison = poison_buf.chunks(input.frame).take(SAMPLE_BATCHES);
                sample.extend(batches.chain(poison).map(|b| (g, b.to_vec())));
            }
            for batch in honest_buf
                .chunks(input.frame)
                .chain(poison_buf.chunks(input.frame))
            {
                let sent = record_acks.then(Instant::now);
                session.ingest_batch(g, batch)?;
                if let Some(sent) = sent {
                    acks_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                }
            }
        }
        reports.honest += honest_buf.len() as u64;
        reports.poison += poison_buf.len() as u64;
    }
    let outputs = {
        let _s = tr.span("session.finalize");
        session.finalize(&Scheme::ALL)?
    };
    Ok(Round {
        session,
        outputs,
        reports,
        acks_ms,
        sample,
    })
}

/// Reports a round produced, by source.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReportCounts {
    /// Honest reports perturbed.
    pub honest: u64,
    /// Coalition reports drawn.
    pub poison: u64,
}

impl ReportCounts {
    /// Adds another round's counts.
    pub fn add(&mut self, other: ReportCounts) {
        self.honest += other.honest;
        self.poison += other.poison;
    }

    /// Every report.
    pub fn total(&self) -> u64 {
        self.honest + self.poison
    }
}

/// Records the call-level layer metrics from the spans of `tr`; `reports`
/// counts the reports of the traced rounds.
pub fn report_layers(tr: &Tracer, reports: ReportCounts, out: &mut crate::Outcome) {
    let table = tr.layer_self_ns();
    let total = |name: &str| table.get(name).map_or((0, 0.0), |&(n, t, _)| (n, t as f64));
    let per_call_ms = |name: &str| {
        let (n, t) = total(name);
        t / n.max(1) as f64 / 1e6
    };
    let per_report = |name: &str, reports: u64| total(name).1 / reports.max(1) as f64;
    out.set("datasets.generate_ms", per_call_ms("datasets.generate"));
    out.set("grouping.plan_ms", per_call_ms("grouping.plan"));
    out.set("session.new_ms", per_call_ms("session.new"));
    out.set("session.finalize_ms", per_call_ms("session.finalize"));
    out.set(
        "ldp.perturb_ns_per_report",
        per_report("ldp.perturb", reports.honest),
    );
    out.set(
        "attack.poison_ns_per_report",
        per_report("attack.poison", reports.poison),
    );
    out.set(
        "session.ingest_ns_per_report",
        per_report("session.ingest", reports.total()),
    );
}

/// Records `ack_ms_*` from per-batch ingest latencies and `read_ms_*`
/// from the durations of the traced `session.finalize` spans.
pub fn report_latencies(tr: &Tracer, acks_ms: &[f64], out: &mut crate::Outcome) {
    use crate::stats::percentile;
    out.set("ack_ms_p50", percentile(acks_ms, 0.5));
    out.set("ack_ms_p99", percentile(acks_ms, 0.99));
    let finalize_ms: Vec<f64> = tr
        .spans()
        .iter()
        .filter(|s| s.name == "session.finalize")
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect();
    out.set("read_ms_p50", percentile(&finalize_ms, 0.5));
    out.set("read_ms_p90", percentile(&finalize_ms, 0.9));
}
