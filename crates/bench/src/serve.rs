//! The serving stack behind `experiments serve / submit / dispatch`: named
//! deployments over `dap-wire/v1` ([`dap_core::net`]).
//!
//! Three roles, all std-only TCP:
//!
//! * **Daemon** ([`ServeSpec::serve`]) — owns one [`DapSession`] built
//!   from a named deployment (mechanism, ε, user count, plan seed) and
//!   answers the full wire surface. All parties rebuild the identical
//!   grouping plan from the shared plan seed, so the hello digest
//!   handshake catches any disagreement up front. Bench daemons also
//!   execute `run-shard` frames, which is what makes a distributed
//!   `experiments all` possible.
//! * **Coordinator** ([`SubmitSpec::submit`]) — simulates the population
//!   client-side exactly as [`Dap::run_schemes`] does (same RNG stream,
//!   same per-group order), but streams each group's reports to the daemon
//!   that owns it (group `g` → daemon `g mod n`), pulls the serialized
//!   parts back, merges and finalizes locally. Because every group lives
//!   wholly on one daemon and the wire carries exact f64 bit patterns, the
//!   result is **bit-identical** to the in-process run
//!   ([`SubmitSpec::run_local`]) — pinned by `crates/bench/tests/serve.rs`
//!   and CI's `serve-smoke` job.
//! * **Shard driver** ([`dispatch`]) — sends shard `i/n` of an experiment
//!   to daemon `i`, concurrently, and merges the returned `dap-results/v1`
//!   documents with the same verification as the file-based
//!   `experiments merge`.

use crate::cell::{Cell, ExperimentId};
use crate::common::ExpOptions;
use crate::engine::run_cells_subset;
use crate::results::{codec, ResultSet, ShardInfo};
use crate::outln;
use dap_attack::{Anchor, Attack, UniformAttack};
use dap_core::codec::Fnv;
use dap_core::net::{
    serve_session_with, Deadlines, Frame, RetryPolicy, ServeOptions, ShardRequest,
    StatusCounters, WireClient, WireError,
};
use dap_core::secagg::reconstruct;
use dap_core::storage::{DurableOptions, DurableSession, FileBackend, Recovery};
use dap_core::{
    Dap, DapConfig, DapError, DapOutput, DapSession, GroupPlan, MaskedGroup, MaskedPart,
    PartGroup, Scheme, SecaggRole, SessionPart, ShareSplitter, SwDapConfig,
};
use dap_datasets::Dataset;
use dap_estimation::rng::seeded;
use dap_ldp::{Epsilon, NumericMechanism, PiecewiseMechanism, SquareWave};
use std::net::TcpListener;
use std::path::Path;
use std::time::Duration;

/// How many reports the coordinator accumulates before flushing one
/// `ingest-batch` frame (order within a group is preserved, which is all
/// exactness needs).
const STREAM_CHUNK: usize = 8192;

/// The LDP mechanism of a served deployment (what `--mech` names).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireMech {
    /// Piecewise Mechanism, report-sum estimation (the paper's default).
    Pm,
    /// Square Wave, histogram-band estimation (§V-D).
    Sw,
}

impl WireMech {
    /// The CLI name.
    pub fn name(self) -> &'static str {
        match self {
            WireMech::Pm => "pm",
            WireMech::Sw => "sw",
        }
    }

    /// Parses a CLI name.
    pub fn from_name(name: &str) -> Option<WireMech> {
        match name {
            "pm" => Some(WireMech::Pm),
            "sw" => Some(WireMech::Sw),
            _ => None,
        }
    }
}

/// A named deployment: everything daemon and coordinator must agree on to
/// build compatible sessions. The agreement is *verified*, not assumed —
/// [`DapSession::state_digest`] covers the derived config, plan and grids,
/// and the wire handshake compares digests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeSpec {
    /// The deployment's mechanism.
    pub mech: WireMech,
    /// Global per-user budget ε.
    pub eps: f64,
    /// Minimum group budget ε₀.
    pub eps0: f64,
    /// Total user count (honest + coalition) — fixes the plan's quotas.
    pub users: usize,
    /// Plan seed: every party rebuilds the identical [`GroupPlan`] from
    /// it (and the coordinator continues the same stream into
    /// perturbation, mirroring [`Dap::run_schemes`]).
    pub seed: u64,
    /// EMF bucket cap.
    pub max_d_out: usize,
    /// `Some(role)` runs the daemon as one of `role.k` share servers in
    /// the secret-shared tier (`serve --secagg i/k`): the session is built
    /// in masked mode, accepts only `share-batch` frames, and its journal
    /// holds only masked words. `None` is the single-aggregator tier.
    pub secagg: Option<SecaggRole>,
}

impl ServeSpec {
    /// The session configuration this deployment derives.
    pub fn session_config(&self) -> DapConfig {
        match self.mech {
            WireMech::Pm => DapConfig {
                eps0: self.eps0,
                max_d_out: self.max_d_out,
                ..DapConfig::paper_default(self.eps, Scheme::Emf)
            },
            WireMech::Sw => SwDapConfig {
                eps0: self.eps0,
                max_d_out: self.max_d_out,
                ..SwDapConfig::paper_default(self.eps, Scheme::Emf)
            }
            .session_config(),
        }
    }

    /// The grouping plan, rebuilt deterministically from the plan seed.
    pub fn plan(&self) -> GroupPlan {
        GroupPlan::build(self.users, self.eps, self.eps0, &mut seeded(self.seed))
    }

    fn pm_session(&self) -> Result<DapSession<PiecewiseMechanism>, DapError> {
        match self.secagg {
            Some(role) => DapSession::new_masked(
                self.session_config(),
                self.plan(),
                PiecewiseMechanism::new,
                role,
            ),
            None => DapSession::new(self.session_config(), self.plan(), PiecewiseMechanism::new),
        }
    }

    fn sw_session(&self) -> Result<DapSession<SquareWave>, DapError> {
        match self.secagg {
            Some(role) => {
                DapSession::new_masked(self.session_config(), self.plan(), SquareWave::new, role)
            }
            None => DapSession::new(self.session_config(), self.plan(), SquareWave::new),
        }
    }

    /// The deployment's compatibility digest (what `hello` exchanges).
    pub fn state_digest(&self) -> Result<u64, String> {
        match self.mech {
            WireMech::Pm => self.pm_session().map(|s| s.state_digest()),
            WireMech::Sw => self.sw_session().map(|s| s.state_digest()),
        }
        .map_err(|e| e.to_string())
    }

    /// Serves this deployment on `listener` until a client sends
    /// `shutdown`. Session frames hit the owned [`DapSession`]
    /// (Definition 2 enforced at the door via the typed rejections);
    /// `run-shard` frames execute experiment shards in-process.
    pub fn serve(&self, listener: TcpListener) -> Result<(), String> {
        self.serve_with(listener, ServeOptions::default())
    }

    /// [`ServeSpec::serve`] with serving knobs — an idle-connection
    /// timeout reclaims parked connections instead of holding them
    /// forever (`experiments serve --idle-timeout`).
    pub fn serve_with(&self, listener: TcpListener, options: ServeOptions) -> Result<(), String> {
        let extra = |frame: &Frame| match frame {
            Frame::RunShard { request } => Some(run_shard_frame(request)),
            _ => None,
        };
        match self.mech {
            WireMech::Pm => {
                let session = self.pm_session().map_err(|e| e.to_string())?;
                serve_session_with(listener, session, extra, options).map_err(|e| e.to_string())?;
            }
            WireMech::Sw => {
                let session = self.sw_session().map_err(|e| e.to_string())?;
                serve_session_with(listener, session, extra, options).map_err(|e| e.to_string())?;
            }
        }
        Ok(())
    }

    /// [`ServeSpec::serve`] with write-ahead durability: the session is
    /// wrapped in a [`DurableSession`] journaling to `dir`, so a daemon
    /// killed mid-submit and restarted on the same directory resumes with
    /// every acknowledged report intact (`experiments serve --journal`).
    /// Recovery is summarized on stderr; a corrupt journal refuses to
    /// serve with the typed [`DapError::Journal`] — silently dropping
    /// acknowledged data is never the default.
    ///
    /// `sync` selects the durability model: `false` survives a killed
    /// process (flushed writes live in the kernel), `true` adds an
    /// `fsync` per accepted record so acknowledged ingests also survive
    /// an OS crash or power loss (`--journal-sync`).
    pub fn serve_durable(
        &self,
        listener: TcpListener,
        dir: &Path,
        checkpoint_every: usize,
        sync: bool,
    ) -> Result<(), String> {
        self.serve_durable_with(listener, dir, checkpoint_every, sync, ServeOptions::default())
    }

    /// [`ServeSpec::serve_durable`] with serving knobs (idle timeout).
    pub fn serve_durable_with(
        &self,
        listener: TcpListener,
        dir: &Path,
        checkpoint_every: usize,
        sync: bool,
        options: ServeOptions,
    ) -> Result<(), String> {
        let extra = |frame: &Frame| match frame {
            Frame::RunShard { request } => Some(run_shard_frame(request)),
            _ => None,
        };
        let open_backend = || {
            if sync { FileBackend::open_sync(dir) } else { FileBackend::open(dir) }
                .map_err(|e| e.to_string())
        };
        let opts = DurableOptions { checkpoint_every, ..DurableOptions::default() };
        match self.mech {
            WireMech::Pm => {
                let session = self.pm_session().map_err(|e| e.to_string())?;
                let (durable, recovery) =
                    DurableSession::open(session, open_backend()?, opts).map_err(|e| e.to_string())?;
                log_recovery(dir, &recovery);
                serve_session_with(listener, durable, extra, options).map_err(|e| e.to_string())?;
            }
            WireMech::Sw => {
                let session = self.sw_session().map_err(|e| e.to_string())?;
                let (durable, recovery) =
                    DurableSession::open(session, open_backend()?, opts).map_err(|e| e.to_string())?;
                log_recovery(dir, &recovery);
                serve_session_with(listener, durable, extra, options).map_err(|e| e.to_string())?;
            }
        }
        Ok(())
    }
}

fn log_recovery(dir: &Path, recovery: &Recovery) {
    eprintln!(
        "[journal {}: checkpoint {}, {} records replayed{}{}]",
        dir.display(),
        if recovery.from_checkpoint { "restored" } else { "none" },
        recovery.replayed,
        recovery
            .torn
            .map(|at| format!(", torn tail dropped at byte {at}"))
            .unwrap_or_default(),
        recovery
            .salvaged
            .as_deref()
            .map(|s| format!(", salvaged past: {s}"))
            .unwrap_or_default(),
    );
}

/// A coordinator run: the deployment plus the simulated population it
/// streams (dataset, coalition share, data seed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubmitSpec {
    /// The deployment (must match the daemons').
    pub serve: ServeSpec,
    /// Honest-value dataset.
    pub dataset: Dataset,
    /// Coalition proportion γ.
    pub gamma: f64,
    /// Seed of the honest-value draw (independent of the plan seed).
    pub data_seed: u64,
}

/// Knobs of one [`SubmitSpec::submit`] call.
#[derive(Debug, Clone, Copy, Default)]
pub struct SubmitOptions {
    /// After streaming the full population, send one extra in-range report
    /// and require the typed over-quota rejection — the observable
    /// wire-level Definition-2 check CI asserts.
    pub probe_rejection: bool,
    /// Send `shutdown` to every daemon after pulling its part.
    pub shutdown: bool,
    /// Skip the population stream entirely: hello, pull the parts the
    /// daemons already hold, merge, finalize. The coordinator move after
    /// restarting a journaled daemon — the reports live in its recovered
    /// session, so streaming them again would double-count (and bounce off
    /// the quota). CI byte-diffs this path against an uninterrupted run.
    pub pull_only: bool,
    /// Retry/backoff policy shared by every wire operation of the run.
    /// The budget is deployment-wide; a daemon that exhausts it is
    /// declared dead and its groups fail over.
    pub retry: RetryPolicy,
    /// Socket deadlines for every connection the coordinator opens.
    /// `None` bounds (the default) wait forever — chaos runs always set
    /// them, because a stalled connection is otherwise unrecoverable.
    pub deadlines: Deadlines,
    /// `Some(k)` runs the secret-shared tier (`submit --secagg k`): the
    /// coordinator acts as the dealer, splitting every report chunk's
    /// bucket-count contribution into `k` additive shares, one per daemon
    /// (so `addrs.len()` must equal `k`). No daemon ever receives a
    /// plaintext report; the finalized outputs are still bit-identical to
    /// [`SubmitSpec::run_local`].
    pub secagg: Option<usize>,
    /// Mask seed of the dealer's [`ShareSplitter`] (secagg runs only).
    pub secagg_seed: u64,
    /// Authentication token presented in every `hello` (`--auth-token`);
    /// required when the daemons were started with an allowlist.
    pub auth_token: Option<u64>,
}

/// Per-daemon observability of one [`SubmitSpec::submit`] run: what was
/// retried, what was dedup'd by the replay guard, and how the run
/// degraded if the daemon died.
#[derive(Debug, Clone, Default)]
pub struct DaemonSummary {
    /// The daemon's address.
    pub addr: String,
    /// Groups whose reports this daemon ultimately owned (after any
    /// failover), in group order.
    pub groups: Vec<usize>,
    /// Wire operations that were retried after a retryable error.
    pub retries: usize,
    /// Connections re-established after a drop.
    pub reconnects: usize,
    /// Retryable errors that were specifically deadline expiries.
    pub timeouts: usize,
    /// Retryable errors that were backpressure sheds
    /// ([`WireError::Throttled`]) — the daemon's apply queue was full and
    /// the coordinator waited out the server's `retry_after_ms` hint.
    pub throttles: usize,
    /// Sequenced batches the daemon (or the reconnect handshake) reported
    /// as already applied — lost acks absorbed by the replay guard.
    pub duplicates: usize,
    /// The daemon died after streaming completed, and its groups were
    /// rebuilt into the coordinator's session from the local precomputed
    /// reports instead of a pulled part (secagg runs: its full intended
    /// share was re-derived from the mask seed instead of pulled).
    pub rebuilt_locally: bool,
    /// The typed error that exhausted the daemon's retries, if it died.
    pub dead: Option<String>,
    /// The daemon's observability counters (`status` frame), captured
    /// after its part was pulled. `None` if the daemon died first.
    pub counters: Option<StatusCounters>,
}

impl DaemonSummary {
    /// One-line stderr rendering (`experiments submit` prints one per
    /// daemon).
    pub fn render(&self) -> String {
        format!(
            "daemon {}: groups {:?}, {} retries ({} timeouts, {} throttles), {} reconnects, \
             {} dup-acks{}{}{}",
            self.addr,
            self.groups,
            self.retries,
            self.timeouts,
            self.throttles,
            self.reconnects,
            self.duplicates,
            if self.rebuilt_locally { ", part rebuilt locally" } else { "" },
            self.dead.as_deref().map(|e| format!(", DEAD: {e}")).unwrap_or_default(),
            self.counters
                .map(|c| {
                    format!(
                        ", status{}: {} channels, {} share-batches, {} journaled, {} checkpoints{}",
                        if c.masked { "[masked]" } else { "" },
                        c.channels,
                        c.shares,
                        c.journal_records,
                        c.checkpoints,
                        c.reactor
                            .map(|r| {
                                format!(
                                    ", reactor: {} queued ({} bytes), {} active (peak {}), \
                                     {} throttled",
                                    r.queue_depth,
                                    r.queued_bytes,
                                    r.active_connections,
                                    r.peak_connections,
                                    r.throttled,
                                )
                            })
                            .unwrap_or_default(),
                    )
                })
                .unwrap_or_default(),
        )
    }
}

/// What a coordinator run produced.
#[derive(Debug, Clone)]
pub struct SubmitOutcome {
    /// Finalized outputs, in scheme order.
    pub outputs: Vec<DapOutput>,
    /// The typed rejection observed by the probe (when requested).
    pub rejection: Option<WireError>,
    /// Per-daemon retry/failover summary, in `addrs` order.
    pub daemons: Vec<DaemonSummary>,
}

/// How a per-daemon wire operation ultimately failed.
enum OpError {
    /// Retries exhausted (attempts or deployment budget) on retryable
    /// errors — the daemon is considered dead; the run may degrade.
    Dead(String),
    /// A deterministic typed rejection (digest mismatch, quota, replay
    /// violation, …) — retrying cannot help and the run must fail.
    Fatal(String),
}

/// Shared retry state of one submit run: the handshake digest, the
/// policy, and the deployment-wide retry budget it draws down.
struct RetryCtx {
    digest: u64,
    policy: RetryPolicy,
    deadlines: Deadlines,
    budget: usize,
    /// Auth token presented on every handshake (and reconnect).
    auth: Option<u64>,
    /// The dealer's seed commitment — `Some` switches every handshake to
    /// the masked variant, which announces (and re-announces, after a
    /// daemon restart) the commitment.
    commit: Option<u64>,
}

/// Coordinator-side state for one daemon connection.
struct Daemon {
    summary: DaemonSummary,
    client: Option<WireClient>,
    /// This coordinator's channel id on the daemon (deterministic per
    /// deployment + daemon index).
    channel: u64,
    /// Next sequence number to assign on the channel (sequences start at 1).
    next_seq: u64,
    /// Highest sequence known applied (from acks and reconnect handshakes).
    acked: u64,
    /// Whether a connection ever succeeded (distinguishes a reconnect
    /// from the initial connect in the summary).
    connected_once: bool,
    /// The `(k, index)` share role this daemon must advertise in its
    /// masked hello — a wrong or missing role is a deployment error, not
    /// something retries can fix. `None` for plaintext runs.
    expect_secagg: Option<(usize, usize)>,
}

impl Daemon {
    fn new(addr: &str, channel: u64, expect_secagg: Option<(usize, usize)>) -> Daemon {
        Daemon {
            summary: DaemonSummary { addr: addr.to_string(), ..DaemonSummary::default() },
            client: None,
            channel,
            next_seq: 1,
            acked: 0,
            connected_once: false,
            expect_secagg,
        }
    }

    fn is_dead(&self) -> bool {
        self.summary.dead.is_some()
    }

    /// Runs `op` against a connected, handshaken client, retrying per the
    /// policy. A lost connection is re-established and re-handshaken on
    /// the daemon's channel first, so `op` always observes the freshest
    /// acknowledged sequence in `self.acked`.
    fn retrying<T>(
        &mut self,
        ctx: &mut RetryCtx,
        mut op: impl FnMut(&mut WireClient, u64) -> Result<T, WireError>,
    ) -> Result<T, OpError> {
        let mut attempt = 0usize;
        loop {
            attempt += 1;
            let step = (|| -> Result<T, WireError> {
                if self.client.is_none() {
                    // The very first connect tolerates a daemon that is
                    // still binding (spawned moments ago); reconnects use
                    // the configured connect deadline only.
                    let mut c = if self.connected_once {
                        WireClient::connect_with(&self.summary.addr, &ctx.deadlines)?
                    } else {
                        WireClient::connect_retry_with(
                            &self.summary.addr,
                            100,
                            Duration::from_millis(100),
                            &ctx.deadlines,
                        )?
                    };
                    c.set_auth(ctx.auth);
                    let last = match ctx.commit {
                        Some(commit) => {
                            let (_, last, secagg) =
                                c.hello_masked(ctx.digest, Some(self.channel), commit)?;
                            if secagg != self.expect_secagg {
                                return Err(WireError::Failed {
                                    message: format!(
                                        "daemon advertises secagg role {secagg:?}, dealer \
                                         expects {:?}",
                                        self.expect_secagg
                                    ),
                                });
                            }
                            last
                        }
                        None => c.hello_channel(ctx.digest, self.channel)?.1,
                    };
                    if self.connected_once {
                        self.summary.reconnects += 1;
                    }
                    self.connected_once = true;
                    self.acked = self.acked.max(last);
                    self.client = Some(c);
                }
                op(self.client.as_mut().expect("connected"), self.acked)
            })();
            match step {
                Ok(v) => return Ok(v),
                Err(e) if RetryPolicy::retryable(&e) => {
                    if matches!(e, WireError::Timeout { .. }) {
                        self.summary.timeouts += 1;
                    }
                    // A throttle shed the frame *before* it touched the
                    // daemon — the connection itself is healthy, so keep
                    // it and just wait. Transport failures drop the
                    // connection and reconnect (re-handshaking the
                    // channel) on the next attempt.
                    let throttle_hint = match &e {
                        WireError::Throttled { retry_after_ms } => {
                            self.summary.throttles += 1;
                            Some(Duration::from_millis(*retry_after_ms))
                        }
                        _ => {
                            self.client = None;
                            None
                        }
                    };
                    if attempt >= ctx.policy.attempts || ctx.budget == 0 {
                        return Err(OpError::Dead(e.to_string()));
                    }
                    ctx.budget -= 1;
                    self.summary.retries += 1;
                    // Back off at least as long as the server's hint.
                    let pause = ctx.policy.backoff(attempt, self.channel);
                    std::thread::sleep(throttle_hint.map_or(pause, |hint| pause.max(hint)));
                }
                Err(e) => {
                    return Err(OpError::Fatal(format!("daemon {}: {e}", self.summary.addr)))
                }
            }
        }
    }

    /// Sends one sequenced batch, absorbing every retry ambiguity: a
    /// reconnect handshake (or a typed duplicate rejection) showing the
    /// sequence already applied counts it as delivered exactly once.
    fn send_chunk(
        &mut self,
        ctx: &mut RetryCtx,
        group: usize,
        chunk: &[f64],
    ) -> Result<(), OpError> {
        let seq = self.next_seq;
        let channel = self.channel;
        let mut dedup = false;
        let sent = self.retrying(ctx, |client, acked| {
            if acked >= seq {
                // The batch landed but its ack was lost with the
                // connection; the resume handshake proves it applied.
                dedup = true;
                return Ok(());
            }
            match client.ingest_batch_seq(channel, seq, group, chunk) {
                Err(WireError::Rejected(DapError::DuplicateSequence { .. })) => {
                    dedup = true;
                    Ok(())
                }
                r => r,
            }
        });
        if dedup {
            self.summary.duplicates += 1;
        }
        sent?;
        self.next_seq = seq + 1;
        self.acked = self.acked.max(seq);
        Ok(())
    }

    /// [`Daemon::send_chunk`] for the secret-shared tier: one sequenced
    /// share batch (masked `u64` words, never reports) with the same
    /// retry-ambiguity absorption — a reconnect handshake or a typed
    /// duplicate rejection proves the share applied exactly once.
    fn send_shares(
        &mut self,
        ctx: &mut RetryCtx,
        group: usize,
        share: &[u64],
    ) -> Result<(), OpError> {
        let seq = self.next_seq;
        let channel = self.channel;
        let mut dedup = false;
        let sent = self.retrying(ctx, |client, acked| {
            if acked >= seq {
                dedup = true;
                return Ok(());
            }
            match client.ingest_shares(channel, seq, group, share) {
                Err(WireError::Rejected(DapError::DuplicateSequence { .. })) => {
                    dedup = true;
                    Ok(())
                }
                r => r,
            }
        });
        if dedup {
            self.summary.duplicates += 1;
        }
        sent?;
        self.next_seq = seq + 1;
        self.acked = self.acked.max(seq);
        Ok(())
    }

    /// Best-effort capture of the daemon's observability counters into
    /// its summary (run after the pull; a daemon that cannot answer keeps
    /// `counters: None`).
    fn capture_counters(&mut self) {
        if let Some(c) = self.client.as_mut() {
            if let Ok((_, _, _, counters)) = c.status_counters() {
                self.summary.counters = counters;
            }
        }
    }
}

/// The coordinator's channel id on daemon `index`: deterministic per
/// deployment (plan seed, data seed) so retry schedules and journals are
/// reproducible, and distinct per daemon.
fn channel_id(spec: &SubmitSpec, index: usize) -> u64 {
    let mut h = Fnv::new();
    h.bytes(&spec.serve.seed.to_be_bytes());
    h.bytes(&spec.data_seed.to_be_bytes());
    h.bytes(&(index as u64).to_be_bytes());
    h.finish()
}

impl SubmitSpec {
    fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.gamma) {
            return Err(format!("gamma must be in [0, 1], got {}", self.gamma));
        }
        if self.serve.users == 0 {
            return Err("need at least one user".into());
        }
        Ok(())
    }

    /// The honest values and coalition size this spec simulates.
    fn population(&self) -> (Vec<f64>, usize) {
        let m = (self.serve.users as f64 * self.gamma).round() as usize;
        let mut rng = seeded(self.data_seed);
        let honest = match self.serve.mech {
            WireMech::Pm => self.dataset.generate_signed(self.serve.users - m, &mut rng),
            WireMech::Sw => self.dataset.generate_unit(self.serve.users - m, &mut rng),
        };
        (honest, m)
    }

    /// The paper's canonical upper-half poison for the deployment's
    /// mechanism (top of the output domain for PM, the upper inflation
    /// band for SW).
    fn attack(&self) -> Box<dyn Attack> {
        match self.serve.mech {
            WireMech::Pm => Box::new(UniformAttack::of_upper(0.5, 1.0)),
            WireMech::Sw => Box::new(UniformAttack::new(
                Anchor::AboveInputMax(0.5),
                Anchor::AboveInputMax(1.0),
            )),
        }
    }

    /// The in-process reference: literally [`Dap::run_schemes_on`] over the
    /// same population, attack and RNG stream — what the served run is
    /// pinned bit-identical to.
    pub fn run_local(&self, schemes: &[Scheme]) -> Result<Vec<DapOutput>, String> {
        self.validate()?;
        let (honest, byzantine) = self.population();
        let attack = self.attack();
        let mut rng = seeded(self.serve.seed);
        let cfg = self.serve.session_config();
        match self.serve.mech {
            WireMech::Pm => Dap::new(cfg, PiecewiseMechanism::new).and_then(|dap| {
                dap.run_schemes_on(&honest, byzantine, attack.as_ref(), schemes, &mut rng)
            }),
            WireMech::Sw => Dap::new(cfg, SquareWave::new).and_then(|dap| {
                dap.run_schemes_on(&honest, byzantine, attack.as_ref(), schemes, &mut rng)
            }),
        }
        .map_err(|e| e.to_string())
    }

    /// Streams the population to the daemons at `addrs` (group `g` owned
    /// by daemon `g mod n`), pulls the serialized parts, merges and
    /// finalizes at the coordinator. Bit-identical to
    /// [`SubmitSpec::run_local`] — see the module docs for why.
    pub fn submit(
        &self,
        addrs: &[String],
        schemes: &[Scheme],
        opts: SubmitOptions,
    ) -> Result<SubmitOutcome, String> {
        self.validate()?;
        if addrs.is_empty() {
            return Err("need at least one daemon address".into());
        }
        if let Some(k) = opts.secagg {
            if k < 2 {
                return Err(format!("--secagg needs at least 2 share servers, got {k}"));
            }
            if addrs.len() != k {
                return Err(format!(
                    "--secagg {k} needs exactly {k} daemon addresses (one per share), got {}",
                    addrs.len()
                ));
            }
            if opts.pull_only {
                return Err(
                    "--pull-only cannot be combined with --secagg: the dealer's local \
                     chunks are required to finalize (report sums are not secret-shared)"
                        .into(),
                );
            }
            return match self.serve.mech {
                WireMech::Pm => {
                    self.submit_masked_with(PiecewiseMechanism::new, addrs, schemes, opts, k)
                }
                WireMech::Sw => self.submit_masked_with(SquareWave::new, addrs, schemes, opts, k),
            };
        }
        match self.serve.mech {
            WireMech::Pm => self.submit_with(PiecewiseMechanism::new, addrs, schemes, opts),
            WireMech::Sw => self.submit_with(SquareWave::new, addrs, schemes, opts),
        }
    }

    fn submit_with<M, F>(
        &self,
        factory: F,
        addrs: &[String],
        schemes: &[Scheme],
        opts: SubmitOptions,
    ) -> Result<SubmitOutcome, String>
    where
        M: NumericMechanism + Sync,
        F: Fn(Epsilon) -> M,
    {
        let cfg = self.serve.session_config();

        // Mirror `Dap::run_schemes_on` exactly: one RNG stream drives plan
        // construction and then perturbation in group order.
        let mut rng = seeded(self.serve.seed);
        let plan = GroupPlan::build(self.serve.users, cfg.eps, cfg.eps0, &mut rng);
        let mut session = DapSession::new(cfg, plan, &factory).map_err(|e| e.to_string())?;
        let digest = session.state_digest();
        let groups = session.group_count();

        // Simulate the whole population up front (same RNG stream, same
        // group order) into per-group chunk lists. Streaming then becomes
        // pure I/O: a chunk can be retried, and a whole group can fail
        // over to another daemon, without touching the RNG — which is
        // what keeps a faulted run bit-identical to a clean one.
        let group_chunks: Vec<Vec<Vec<f64>>> = if opts.pull_only {
            vec![Vec::new(); groups]
        } else {
            self.build_chunks(&factory, &session, &mut rng)?
        };

        let mut ctx = RetryCtx {
            digest,
            policy: opts.retry,
            deadlines: opts.deadlines,
            budget: opts.retry.budget,
            auth: opts.auth_token,
            commit: None,
        };
        let mut daemons: Vec<Daemon> = addrs
            .iter()
            .enumerate()
            .map(|(i, addr)| Daemon::new(addr, channel_id(self, i), None))
            .collect();

        // Handshake every daemon. A daemon that cannot be reached within
        // the retry budget is dead from the start: fatal for pull-only
        // runs (its session holds data nothing else has), a failover for
        // streaming runs.
        for d in &mut daemons {
            match d.retrying(&mut ctx, |_, _| Ok(())) {
                Ok(()) => {}
                Err(OpError::Fatal(e)) => return Err(e),
                Err(OpError::Dead(e)) => {
                    if opts.pull_only {
                        return Err(format!(
                            "daemon {} is unreachable ({e}) and pull-only has no local \
                             reports to reroute",
                            d.summary.addr
                        ));
                    }
                    d.summary.dead = Some(e);
                }
            }
        }

        // Group `g` starts on daemon `g mod n` (the historical layout);
        // failover reassigns every group of a dead daemon to the next
        // live one and re-streams them from the precomputed chunks.
        let mut owner: Vec<usize> = (0..groups).map(|g| g % daemons.len()).collect();
        if !opts.pull_only {
            let mut done = vec![false; groups];
            while let Some(g) = (0..groups).find(|&g| !done[g]) {
                let d = owner[g];
                if daemons[d].is_dead() {
                    let target = next_live(&daemons, d)
                        .ok_or_else(|| all_dead_error(&daemons))?;
                    for (gg, o) in owner.iter_mut().enumerate() {
                        if *o == d {
                            *o = target;
                            done[gg] = false;
                        }
                    }
                    continue;
                }
                let mut died = false;
                for chunk in &group_chunks[g] {
                    match daemons[d].send_chunk(&mut ctx, g, chunk) {
                        Ok(()) => {}
                        Err(OpError::Fatal(e)) => return Err(e),
                        Err(OpError::Dead(e)) => {
                            daemons[d].summary.dead = Some(e);
                            died = true;
                            break;
                        }
                    }
                }
                if !died {
                    done[g] = true;
                }
                // A death re-enters the loop: the dead daemon's groups
                // (this one and any already completed on it) reassign and
                // re-stream in full — its part is never pulled, so the
                // merged state still holds every report exactly once.
            }
        }

        // Every group is now exactly at quota; one more in-range report
        // must bounce with the typed over-quota rejection. The probe
        // targets whichever daemon owns group 0 after failover.
        let rejection = if opts.probe_rejection {
            let d = &mut daemons[owner[0]];
            d.retrying(&mut ctx, |_, _| Ok(())).map_err(|e| match e {
                OpError::Dead(e) | OpError::Fatal(e) => {
                    format!("rejection probe could not connect: {e}")
                }
            })?;
            match d.client.as_mut().expect("connected").ingest(0, 0.0) {
                Err(e @ WireError::Rejected(DapError::QuotaExceeded { .. })) => Some(e),
                Err(other) => {
                    return Err(format!("rejection probe hit an unexpected error: {other}"))
                }
                Ok(()) => {
                    return Err(
                        "rejection probe was accepted — quota enforcement is broken".into()
                    )
                }
            }
        } else {
            None
        };

        // Pull phase: merge every live daemon's part (dead daemons' groups
        // already live elsewhere). A daemon that dies *during* the pull is
        // past re-streaming — its groups are rebuilt into the
        // coordinator's session from the local precomputed chunks, which
        // is the same reports in the same order, hence still exact.
        for (i, daemon) in daemons.iter_mut().enumerate() {
            if daemon.is_dead() {
                continue;
            }
            match daemon.retrying(&mut ctx, |c, _| c.pull_part()) {
                Ok(part) => {
                    session.merge_part(&part).map_err(|e| e.to_string())?;
                    daemon.capture_counters();
                    if opts.shutdown {
                        if let Some(c) = daemon.client.as_mut() {
                            c.shutdown().map_err(|e| e.to_string())?;
                        }
                    }
                }
                Err(OpError::Fatal(e)) => return Err(e),
                Err(OpError::Dead(e)) => {
                    if opts.pull_only {
                        return Err(format!(
                            "daemon {} died before its part was pulled ({e}) and \
                             pull-only has no local reports to rebuild from",
                            daemon.summary.addr
                        ));
                    }
                    daemon.summary.dead = Some(e);
                    daemon.summary.rebuilt_locally = true;
                    for (g, chunks) in group_chunks.iter().enumerate() {
                        if owner[g] != i {
                            continue;
                        }
                        for chunk in chunks {
                            session.ingest_batch(g, chunk).map_err(|e| e.to_string())?;
                        }
                    }
                }
            }
        }

        for (g, &o) in owner.iter().enumerate() {
            daemons[o].summary.groups.push(g);
        }
        let outputs = session.finalize(schemes).map_err(|e| e.to_string())?;
        Ok(SubmitOutcome {
            outputs,
            rejection,
            daemons: daemons.into_iter().map(|d| d.summary).collect(),
        })
    }

    /// The secret-shared coordinator: acts as the dealer of the
    /// [`dap_core::secagg`] tier. Every report chunk is reduced to its
    /// per-group bucket-count contribution, split into `k` additive
    /// shares, and fanned out — daemon `j` receives share `j` of *every*
    /// chunk and nothing else, so no daemon (nor its journal) ever holds
    /// a plaintext report. The pull phase collects the `k` masked parts,
    /// wrapping-sums them (the masks cancel exactly), and merges the
    /// reconstructed integer histogram — together with the report sums
    /// replayed locally from the dealer's retained chunks, in the same
    /// per-report order — into a fresh plain session. Finalization is
    /// therefore **bit-identical** to [`SubmitSpec::run_local`].
    ///
    /// A daemon that dies is handled by seed reveal: its full intended
    /// share is re-derived from the mask seed ([`ShareSplitter::share_for`])
    /// and combined with the surviving quorum's parts, so one (or more)
    /// lost share servers degrade the run without changing a single
    /// output bit.
    fn submit_masked_with<M, F>(
        &self,
        factory: F,
        addrs: &[String],
        schemes: &[Scheme],
        opts: SubmitOptions,
        k: usize,
    ) -> Result<SubmitOutcome, String>
    where
        M: NumericMechanism + Sync,
        F: Fn(Epsilon) -> M,
    {
        let cfg = self.serve.session_config();
        let mut rng = seeded(self.serve.seed);
        let plan = GroupPlan::build(self.serve.users, cfg.eps, cfg.eps0, &mut rng);
        let mut session = DapSession::new(cfg, plan, &factory).map_err(|e| e.to_string())?;
        let digest = session.state_digest();
        let groups = session.group_count();
        let group_chunks = self.build_chunks(&factory, &session, &mut rng)?;

        // Reduce every chunk to its integer bucket-count contribution —
        // the only thing that leaves the dealer, and only ever masked.
        let mut contributions: Vec<Vec<Vec<u64>>> = Vec::with_capacity(groups);
        for (g, chunks) in group_chunks.iter().enumerate() {
            let resolution = session.histogram(g).counts.len();
            let mut per_chunk = Vec::with_capacity(chunks.len());
            for chunk in chunks {
                let mut counts = vec![0u64; resolution];
                for &r in chunk {
                    counts[session.bucket_of(g, r).map_err(|e| e.to_string())?] += 1;
                }
                per_chunk.push(counts);
            }
            contributions.push(per_chunk);
        }

        let splitter = ShareSplitter::new(k, opts.secagg_seed).map_err(|e| e.to_string())?;
        let commitment = splitter.commitment().digest();

        let mut ctx = RetryCtx {
            digest,
            policy: opts.retry,
            deadlines: opts.deadlines,
            budget: opts.retry.budget,
            auth: opts.auth_token,
            commit: Some(commitment),
        };
        let mut daemons: Vec<Daemon> = addrs
            .iter()
            .enumerate()
            .map(|(i, addr)| Daemon::new(addr, channel_id(self, i), Some((k, i))))
            .collect();

        // Handshake: verifies the deployment digest, announces the seed
        // commitment and checks each daemon serves the share index the
        // dealer will address it with. A dead daemon is tolerated — its
        // share is re-derived at pull time.
        for d in &mut daemons {
            match d.retrying(&mut ctx, |_, _| Ok(())) {
                Ok(()) => {}
                Err(OpError::Fatal(e)) => return Err(e),
                Err(OpError::Dead(e)) => d.summary.dead = Some(e),
            }
        }

        // Stream shares in deterministic group-major chunk order. Unlike
        // the plaintext tier there is no group failover: share `j` is
        // meaningful only to daemon `j`, so a dead daemon is simply
        // skipped (its partial state is never pulled; seed reveal
        // replaces it wholesale).
        for (g, chunks) in contributions.iter().enumerate() {
            for (c, counts) in chunks.iter().enumerate() {
                let shares = splitter.split(g as u64, c as u64, counts);
                for (j, share) in shares.iter().enumerate() {
                    if daemons[j].is_dead() {
                        continue;
                    }
                    match daemons[j].send_shares(&mut ctx, g, share) {
                        Ok(()) => {}
                        Err(OpError::Fatal(e)) => return Err(e),
                        Err(OpError::Dead(e)) => daemons[j].summary.dead = Some(e),
                    }
                }
            }
        }
        if daemons.iter().all(|d| d.is_dead()) {
            return Err(all_dead_error(&daemons));
        }

        // The masked analogue of the quota probe: a share server must
        // refuse a *plaintext* report with the typed mode rejection —
        // the wire-observable "no daemon accepts a report" check.
        let rejection = if opts.probe_rejection {
            let d = daemons
                .iter_mut()
                .find(|d| !d.is_dead())
                .expect("at least one live daemon (checked above)");
            d.retrying(&mut ctx, |_, _| Ok(())).map_err(|e| match e {
                OpError::Dead(e) | OpError::Fatal(e) => {
                    format!("rejection probe could not connect: {e}")
                }
            })?;
            match d.client.as_mut().expect("connected").ingest(0, 0.0) {
                Err(e @ WireError::Rejected(DapError::ModeMismatch { masked: true })) => Some(e),
                Err(other) => {
                    return Err(format!("rejection probe hit an unexpected error: {other}"))
                }
                Ok(()) => {
                    return Err(
                        "rejection probe was accepted — a share server took a plaintext \
                         report"
                            .into(),
                    )
                }
            }
        } else {
            None
        };

        // Pull the masked parts. A daemon lost here (or earlier) has its
        // full intended share re-derived from the mask seed: summing over
        // every retained contribution reproduces exactly what the daemon
        // would have accumulated, masks included.
        let mut parts: Vec<MaskedPart> = Vec::with_capacity(k);
        for daemon in daemons.iter_mut() {
            if daemon.is_dead() {
                continue;
            }
            match daemon.retrying(&mut ctx, |c, _| c.pull_masked()) {
                Ok(part) => {
                    daemon.capture_counters();
                    if opts.shutdown {
                        if let Some(c) = daemon.client.as_mut() {
                            c.shutdown().map_err(|e| e.to_string())?;
                        }
                    }
                    parts.push(part);
                }
                Err(OpError::Fatal(e)) => return Err(e),
                Err(OpError::Dead(e)) => {
                    daemon.summary.dead = Some(e);
                }
            }
        }
        if parts.is_empty() {
            return Err(all_dead_error(&daemons));
        }
        for (j, daemon) in daemons.iter_mut().enumerate() {
            if !daemon.is_dead() {
                continue;
            }
            daemon.summary.rebuilt_locally = true;
            let mut masked: Vec<MaskedGroup> = (0..groups)
                .map(|g| MaskedGroup { counts: vec![0u64; session.histogram(g).counts.len()] })
                .collect();
            for (g, chunks) in contributions.iter().enumerate() {
                for (c, counts) in chunks.iter().enumerate() {
                    let share = splitter.share_for(j, g as u64, c as u64, counts);
                    for (t, &w) in masked[g].counts.iter_mut().zip(&share) {
                        *t = t.wrapping_add(w);
                    }
                }
            }
            parts.push(MaskedPart {
                digest,
                k,
                index: j,
                commitment,
                groups: masked,
                channels: Vec::new(),
            });
        }

        // Wrapping-sum the complete share group: the masks cancel and the
        // true integer histograms emerge. The report tally must agree
        // with what the dealer streamed — a mismatch means a share was
        // lost or double-applied, and is a named failure, never silent.
        let totals = reconstruct(&parts).map_err(|e| e.to_string())?;
        let mut part_groups = Vec::with_capacity(groups);
        for (g, counts) in totals.iter().enumerate() {
            let mut sum_reports = 0.0f64;
            let mut n_reports = 0usize;
            for chunk in &group_chunks[g] {
                for &r in chunk {
                    sum_reports += r;
                    n_reports += 1;
                }
            }
            let reconstructed: u64 = counts.iter().sum();
            if reconstructed != n_reports as u64 {
                return Err(format!(
                    "secagg reconstruction mismatch in group {g}: {reconstructed} \
                     reconstructed reports vs {n_reports} streamed"
                ));
            }
            part_groups.push(PartGroup {
                counts: counts.iter().map(|&c| c as f64).collect(),
                sum_reports,
                n_reports,
            });
        }
        session
            .merge_part(&SessionPart { digest, groups: part_groups, channels: Vec::new() })
            .map_err(|e| e.to_string())?;

        // Every daemon held a share of every group.
        for daemon in daemons.iter_mut() {
            daemon.summary.groups = (0..groups).collect();
        }
        let outputs = session.finalize(schemes).map_err(|e| e.to_string())?;
        Ok(SubmitOutcome {
            outputs,
            rejection,
            daemons: daemons.into_iter().map(|d| d.summary).collect(),
        })
    }

    /// Simulates the population into per-group report chunks, consuming
    /// `rng` exactly as [`Dap::run_schemes_on`] does
    /// ([`GroupPlan::simulate_round`]). A chunk is cut as soon as whole
    /// users fill [`STREAM_CHUNK`] reports; the group's last chunk carries
    /// the honest remainder plus its poison block.
    fn build_chunks<M, F>(
        &self,
        factory: &F,
        session: &DapSession<M>,
        rng: &mut rand::rngs::StdRng,
    ) -> Result<Vec<Vec<Vec<f64>>>, String>
    where
        M: NumericMechanism + Sync,
        F: Fn(Epsilon) -> M,
    {
        let (honest, _) = self.population();
        let attack = self.attack();
        let mut all = Vec::with_capacity(session.group_count());
        let (mut chunks, mut chunk) = (Vec::new(), Vec::with_capacity(STREAM_CHUNK));
        session.plan().simulate_round(
            honest.len(),
            Some(&honest),
            Some(attack.as_ref()),
            factory,
            rng,
            |_, user, reports| {
                chunk.extend_from_slice(reports);
                let group_done = user.is_none();
                if group_done && !chunk.is_empty() || chunk.len() >= STREAM_CHUNK {
                    chunks.push(std::mem::replace(&mut chunk, Vec::with_capacity(STREAM_CHUNK)));
                }
                if group_done {
                    all.push(std::mem::take(&mut chunks));
                }
                Ok::<_, String>(())
            },
        )?;
        Ok(all)
    }
}

/// The next live daemon after `from` (wrapping), if any survive.
fn next_live(daemons: &[Daemon], from: usize) -> Option<usize> {
    (1..=daemons.len())
        .map(|k| (from + k) % daemons.len())
        .find(|&i| !daemons[i].is_dead())
}

fn all_dead_error(daemons: &[Daemon]) -> String {
    let mut lines = vec!["every daemon is dead; retry budget exhausted:".to_string()];
    for d in daemons {
        lines.push(format!("  {}", d.summary.render()));
    }
    lines.join("\n")
}

/// The `# dap-wire submit:` stdout header — identical between a served
/// run, a chaos run and the `--local` reference, so CI can byte-diff any
/// pair of them.
pub fn submit_header(spec: &SubmitSpec) -> String {
    format!(
        "# dap-wire submit: mech {}, eps {}, eps0 {}, users {}, plan-seed {}, max-dout {}, dataset {}, gamma {}, data-seed {}",
        spec.serve.mech.name(),
        spec.serve.eps,
        spec.serve.eps0,
        spec.serve.users,
        spec.serve.seed,
        spec.serve.max_d_out,
        spec.dataset.label(),
        spec.gamma,
        spec.data_seed,
    )
}

/// Stable text rendering of finalized outputs: human-readable decimals
/// plus the authoritative bit patterns, so CI can byte-diff a served run
/// against a local one.
pub fn render_outputs(schemes: &[Scheme], outputs: &[DapOutput]) -> String {
    assert_eq!(schemes.len(), outputs.len(), "one output per scheme");
    let mut s = String::new();
    outln!(
        s,
        "{:<10} {:>12} {:>6} {:>9}  {:<18} {:<18}",
        "scheme",
        "mean",
        "side",
        "gamma",
        "mean-bits",
        "gamma-bits"
    );
    for (scheme, out) in schemes.iter().zip(outputs) {
        outln!(
            s,
            "{:<10} {:>12.6} {:>6} {:>9.4}  {:<18} {:<18}",
            scheme.label(),
            out.mean,
            format!("{:?}", out.side),
            out.gamma,
            codec::f64_to_hex(out.mean),
            codec::f64_to_hex(out.gamma)
        );
    }
    s
}

/// Experiment ids behind a CLI selector (`"all"` or one id).
pub fn experiment_ids(selector: &str) -> Option<Vec<ExperimentId>> {
    if selector == "all" {
        Some(ExperimentId::ALL.to_vec())
    } else {
        ExperimentId::from_name(selector).map(|e| vec![e])
    }
}

/// The full concatenated cell enumeration for an id list (shard indices
/// refer to this).
pub fn enumerate_cells(ids: &[ExperimentId], opts: &ExpOptions) -> Vec<Cell> {
    let mut cells = Vec::new();
    for e in ids {
        cells.extend(e.cells(opts));
    }
    cells
}

/// Executes one shard request in-process, returning the shard's
/// `dap-results/v1` JSON — the daemon-side half of [`dispatch`], identical
/// in effect to `experiments <id> --shard i/n --out -`.
pub fn run_shard(req: &ShardRequest) -> Result<String, String> {
    let ids = experiment_ids(&req.experiment)
        .ok_or_else(|| format!("unknown experiment '{}'", req.experiment))?;
    if req.count == 0 || req.index >= req.count {
        return Err(format!("invalid shard {}/{}", req.index, req.count));
    }
    let opts = ExpOptions {
        n: req.n,
        trials: req.trials,
        seed: req.seed,
        max_d_out: req.max_d_out,
    };
    let cells = enumerate_cells(&ids, &opts);
    let indices: Vec<usize> =
        (0..cells.len()).filter(|i| i % req.count == req.index).collect();
    let results = run_cells_subset(&opts, &cells, &indices);
    let set = ResultSet::build(
        &req.experiment,
        &opts,
        Some(ShardInfo { index: req.index, count: req.count, cells_total: cells.len() }),
        &cells,
        &results,
    );
    Ok(set.to_json())
}

fn run_shard_frame(req: &ShardRequest) -> Frame {
    match run_shard(req) {
        Ok(json) => Frame::ShardResult { json },
        Err(message) => Frame::Error(WireError::Failed { message }),
    }
}

/// One shard attempt against one daemon — the retriable unit of
/// [`dispatch`]. A shard is pure computation (no session state), so
/// re-running it on another daemon after a failure is always safe.
fn try_shard(
    addr: &str,
    experiment: &str,
    opts: &ExpOptions,
    index: usize,
    count: usize,
    connect_attempts: usize,
) -> Result<ResultSet, String> {
    let mut client =
        WireClient::connect_retry(addr, connect_attempts, Duration::from_millis(100))
            .map_err(|e| format!("cannot reach daemon: {e}"))?;
    let json = client
        .run_shard(&ShardRequest {
            experiment: experiment.to_string(),
            n: opts.n,
            trials: opts.trials,
            seed: opts.seed,
            max_d_out: opts.max_d_out,
            index,
            count,
        })
        .map_err(|e| e.to_string())?;
    ResultSet::from_json(&json)
}

/// Drives a sharded experiment across remote daemons: shard `i` of
/// `addrs.len()` goes to daemon `i`, shards run concurrently, and the
/// merged set passes the same option/coordinate verification as the
/// file-based `experiments merge` — so the result is bit-identical to a
/// local unsharded run.
///
/// A shard whose daemon fails (dead connection, mid-shard reset) is
/// re-dispatched to the other daemons in order — shards are pure compute,
/// so the failover changes nothing about the merged result. Only a shard
/// that fails on *every* daemon fails the dispatch.
pub fn dispatch(
    experiment: &str,
    opts: &ExpOptions,
    addrs: &[String],
) -> Result<ResultSet, String> {
    if addrs.is_empty() {
        return Err("need at least one daemon address".into());
    }
    let shards: Vec<Result<ResultSet, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..addrs.len())
            .map(|i| {
                let experiment = experiment.to_string();
                let opts = *opts;
                let count = addrs.len();
                scope.spawn(move || -> Result<ResultSet, String> {
                    let mut errors = Vec::new();
                    for k in 0..count {
                        let addr = &addrs[(i + k) % count];
                        // The assigned daemon gets startup grace; failover
                        // attempts fail fast so a dead daemon does not
                        // stall the whole dispatch.
                        let attempts = if k == 0 { 100 } else { 3 };
                        match try_shard(addr, &experiment, &opts, i, count, attempts) {
                            Ok(set) => {
                                if k > 0 {
                                    eprintln!(
                                        "[dispatch: shard {i} rerouted to {addr} after: {}]",
                                        errors.join("; ")
                                    );
                                }
                                return Ok(set);
                            }
                            Err(e) => errors.push(format!("{addr}: {e}")),
                        }
                    }
                    Err(format!("shard {i} failed on every daemon: {}", errors.join("; ")))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("dispatch worker")).collect()
    });
    let shards: Vec<ResultSet> = shards.into_iter().collect::<Result<_, _>>()?;
    let merged = ResultSet::merge(shards)?;
    let ids = experiment_ids(&merged.experiment)
        .ok_or_else(|| format!("unknown experiment '{}' in shard replies", merged.experiment))?;
    merged.verify_against(&enumerate_cells(&ids, &merged.options))?;
    Ok(merged)
}

/// Parses a `--dataset` name: the paper label (`Taxi`), case-insensitive,
/// with punctuation optional (`beta25` for `Beta(2,5)`).
pub fn parse_dataset(name: &str) -> Option<Dataset> {
    let wanted = name.to_ascii_lowercase();
    Dataset::ALL.into_iter().find(|d| {
        let label = d.label().to_ascii_lowercase();
        label == wanted || label.replace(['(', ')', ','], "") == wanted
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_names_parse_flexibly() {
        assert_eq!(parse_dataset("taxi"), Some(Dataset::Taxi));
        assert_eq!(parse_dataset("Taxi"), Some(Dataset::Taxi));
        assert_eq!(parse_dataset("Beta(2,5)"), Some(Dataset::Beta25));
        assert_eq!(parse_dataset("beta25"), Some(Dataset::Beta25));
        assert_eq!(parse_dataset("retirement"), Some(Dataset::Retirement));
        assert_eq!(parse_dataset("laundromat"), None);
    }

    #[test]
    fn experiment_selectors_resolve() {
        assert_eq!(experiment_ids("fig7"), Some(vec![ExperimentId::Fig7]));
        assert_eq!(experiment_ids("all").map(|v| v.len()), Some(ExperimentId::ALL.len()));
        assert_eq!(experiment_ids("fig99"), None);
    }

    #[test]
    fn run_shard_rejects_bad_requests() {
        let req = |experiment: &str, index, count| ShardRequest {
            experiment: experiment.into(),
            n: 100,
            trials: 1,
            seed: 1,
            max_d_out: 8,
            index,
            count,
        };
        assert!(run_shard(&req("fig99", 0, 1)).unwrap_err().contains("unknown experiment"));
        assert!(run_shard(&req("fig7", 2, 2)).unwrap_err().contains("invalid shard"));
    }

    #[test]
    fn spec_digests_agree_between_parties_and_differ_between_deployments() {
        let spec = ServeSpec {
            mech: WireMech::Pm,
            eps: 0.25,
            eps0: 1.0 / 16.0,
            users: 200,
            seed: 5,
            max_d_out: 16,
            secagg: None,
        };
        assert_eq!(spec.state_digest().unwrap(), spec.state_digest().unwrap());
        let other_seed = ServeSpec { seed: 6, ..spec };
        assert_ne!(spec.state_digest().unwrap(), other_seed.state_digest().unwrap());
        let sw = ServeSpec { mech: WireMech::Sw, ..spec };
        assert_ne!(spec.state_digest().unwrap(), sw.state_digest().unwrap());
        // The masked twin of a deployment shares its hello digest — what
        // lets the dealer handshake share servers with the same digest it
        // uses locally.
        let masked = ServeSpec {
            secagg: Some(dap_core::SecaggRole { k: 3, index: 1 }),
            ..spec
        };
        assert_eq!(spec.state_digest().unwrap(), masked.state_digest().unwrap());
    }

    /// Pins the `seq-batch` frames `submit` sends: every chunk of a group
    /// but the last is the first user-aligned length reaching
    /// [`STREAM_CHUNK`], the last holds the honest remainder plus the
    /// poison block, no chunk is empty, and the chunks concatenate to the
    /// group's stream (honest members in assignment order, then poison),
    /// rebuilt here by an independent loop on the same seed.
    #[test]
    fn build_chunks_cut_each_group_stream_at_user_aligned_chunks() {
        fn check<M, F>(spec: &SubmitSpec, factory: F)
        where
            M: NumericMechanism + Sync,
            F: Fn(Epsilon) -> M,
        {
            let cfg = spec.serve.session_config();
            let mut rng = seeded(spec.serve.seed);
            let plan = GroupPlan::build(spec.serve.users, cfg.eps, cfg.eps0, &mut rng);
            let session = DapSession::new(cfg, plan.clone(), &factory).unwrap();
            let mut stream_rng = rng.clone();
            let chunks = spec.build_chunks(&factory, &session, &mut rng).unwrap();
            assert_eq!(chunks.len(), plan.len());

            let (honest, _) = spec.population();
            let attack = spec.attack();
            let mut oversized = 0;
            for (g, group) in chunks.iter().enumerate() {
                let assign = plan.client_assignment(g);
                let mech = factory(assign.eps_t);
                let mut stream = Vec::new();
                let mut byz = 0;
                for &user in &plan.assignment[g] {
                    if user < honest.len() {
                        let mut buf = vec![0.0; assign.k_t];
                        mech.perturb_into(honest[user], &mut buf, &mut stream_rng);
                        stream.extend_from_slice(&buf);
                    } else {
                        byz += 1;
                    }
                }
                let n_honest = stream.len();
                let mut poison = vec![0.0; byz * assign.k_t];
                let n = attack.reports_into(&mut poison, &mech, &mut stream_rng);
                stream.extend_from_slice(&poison[..n]);

                let full = STREAM_CHUNK.div_ceil(assign.k_t) * assign.k_t;
                let (last, rest) = group.split_last().expect("every group streams reports");
                let short = rest.iter().find(|c| c.len() != full).map(Vec::len);
                assert_eq!(short, None, "group {g}: a non-final chunk is not {full} long");
                assert_eq!(last.len(), n_honest - rest.len() * full + n, "group {g}: last chunk");
                assert!(group.iter().all(|c| !c.is_empty()), "group {g}: empty chunk");
                let concat: Vec<u64> = group.iter().flatten().map(|v| v.to_bits()).collect();
                let expected: Vec<u64> = stream.iter().map(|v| v.to_bits()).collect();
                assert!(concat == expected, "group {g}: chunks are not the group's stream");
                oversized += usize::from(!rest.is_empty());
            }
            assert!(oversized > 0, "no group spans more than one chunk");
        }
        for mech in [WireMech::Pm, WireMech::Sw] {
            let spec = SubmitSpec {
                serve: ServeSpec {
                    mech,
                    eps: 1.0,
                    eps0: 1.0 / 16.0,
                    users: 40_000,
                    seed: 3,
                    max_d_out: 16,
                    secagg: None,
                },
                dataset: Dataset::Taxi,
                gamma: 0.25,
                data_seed: 4,
            };
            match mech {
                WireMech::Pm => check(&spec, PiecewiseMechanism::new),
                WireMech::Sw => check(&spec, SquareWave::new),
            }
        }
    }
}
