//! `serve-durable`: the deployment path. Each round starts one in-process
//! reactor daemon (default `ReactorOptions`) serving PM at ε = 1 on a
//! write-ahead journal, and streams one population's reports into
//! it over two `WireClient` connections in a closed loop: each connection
//! keeps a fixed window of pipelined `seq-batch` frames in flight, and
//! connection 0 drains its window and reads (`status`, then `finalize`)
//! after every fixed number of acknowledged frames.
//!
//! Clients perturb locally (PM under their group's budget; the coalition
//! sends uniformly in the upper half of `[0, C]`) and put every report on
//! the dyadic lattice `m · 2⁻¹²`, so per-group sums are exact in any
//! order. After the stream, a local twin session replays every frame; the
//! daemon's pulled part must equal the twin's byte for byte and the wire
//! `finalize` must equal the twin's local `finalize`.
//!
//! The journal is not fsync'd per record (`serve --journal` without
//! `--journal-sync`): it survives a killed daemon, and every append and
//! group commit still runs. On a virtual machine, per-record fsync makes
//! the host's I/O threads take CPU time from the guest, and throughput
//! then swings by 2x from run to run with the host's disk load — the
//! benchmark would measure the host's disk, not this code.

use crate::pipeline::{report_layers, ReportCounts};
use crate::probes::{probe_estimation, CodecProbe, EstimationProbe};
use crate::stats::{log_units, mean, median, output_bits, percentile, scheme_sq_err};
use crate::trace::Tracer;
use crate::{out_dir, report_trace, run_id, unit_seed, write_spans, Outcome, RunSpec};
use dap_attack::Attack;
use dap_bench::common::PoiRange;
use dap_bench::serve::{ServeSpec, WireMech};
use dap_core::net::{Deadlines, Frame, ServeOptions, WireClient, WireError};
use dap_core::{DapError, DapSession, Scheme};
use dap_datasets::Dataset;
use dap_estimation::rng::derive;
use dap_ldp::PiecewiseMechanism;
use std::collections::VecDeque;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Sequencing channel of connection 0 (connection 1 uses the next).
const CHANNEL: u64 = 0x5e57_0000;
/// Frames per connection the codec probe encodes and decodes.
const CODEC_FRAMES: usize = 64;

/// `v` truncated onto the lattice `m · 2⁻¹²` (toward zero, so it stays
/// inside the mechanism's output range).
fn lattice(v: f64) -> f64 {
    (v * 4096.0).trunc() / 4096.0
}

/// One round's client side: the deployment and each connection's frames.
struct Population {
    deployment: ServeSpec,
    /// `(group, reports)` frames per connection, in sequence order.
    frames: [Vec<(usize, Vec<f64>)>; 2],
    truth: f64,
    reports: ReportCounts,
}

fn population(spec: &RunSpec, unit: u64, tr: &Tracer) -> Population {
    let sc = spec.scale;
    let byzantine = (sc.serve_users as f64 * 0.25).round() as usize;
    let honest = {
        let _s = tr.span("datasets.generate");
        Dataset::Taxi.generate_signed(sc.serve_users - byzantine, &mut derive(spec.seed, 3 * unit))
    };
    let deployment = ServeSpec {
        mech: WireMech::Pm,
        eps: 1.0,
        eps0: 1.0 / 16.0,
        users: sc.serve_users,
        seed: unit_seed(spec.seed, 3 * unit + 1),
        max_d_out: sc.serve_max_d_out,
        secagg: None,
    };
    let plan = {
        let _s = tr.span("grouping.plan");
        deployment.plan()
    };
    let attack = PoiRange::TopHalf.attack();
    let mut rng = derive(spec.seed, 3 * unit + 2);
    let mut frames: [Vec<(usize, Vec<f64>)>; 2] = [Vec::new(), Vec::new()];
    let mut reports = ReportCounts::default();
    let mut next = 0usize;
    for g in 0..plan.len() {
        let assign = plan.client_assignment(g);
        let mech = PiecewiseMechanism::new(assign.eps_t);
        let members = &plan.assignment[g];
        let honest_members: Vec<usize> = members
            .iter()
            .copied()
            .filter(|&u| u < honest.len())
            .collect();
        let mut group = vec![0.0; honest_members.len() * assign.k_t];
        {
            let _s = tr.span("ldp.perturb");
            for (out, &user) in group.chunks_exact_mut(assign.k_t).zip(&honest_members) {
                assign.perturb_into(&mech, honest[user], out, &mut rng);
            }
        }
        let mut poison = vec![0.0; (members.len() - honest_members.len()) * assign.k_t];
        {
            let _s = tr.span("attack.poison");
            let drawn = attack.reports_into(&mut poison, &mech, &mut rng);
            poison.truncate(drawn);
        }
        reports.honest += group.len() as u64;
        reports.poison += poison.len() as u64;
        group.extend_from_slice(&poison);
        for batch in group.chunks(sc.frame) {
            frames[next % 2].push((g, batch.iter().map(|&v| lattice(v)).collect()));
            next += 1;
        }
    }
    Population {
        deployment,
        frames,
        truth: mean(&honest),
        reports,
    }
}

/// What one connection observed while streaming.
#[derive(Debug, Default)]
struct ConnLog {
    acks_ms: Vec<f64>,
    reads_ms: Vec<f64>,
    send_ns: u64,
    sends: u64,
    wait_ns: u64,
    waits: u64,
    retries: u64,
    queue_depth_max: u64,
    /// Reads whose `finalize` failed or returned a non-finite mean.
    bad_reads: u64,
}

/// Streams `frames` on channel `channel` with a Go-Back-N window. A
/// throttle (or a gap behind one) drains the window, waits the server's
/// hint and resends from the first unacknowledged frame. With
/// `frames_per_read`, the connection drains its window after that many
/// acknowledged frames and reads `status` and `finalize`.
fn stream(
    c: &mut WireClient,
    channel: u64,
    frames: &[(usize, Vec<f64>)],
    window: usize,
    frames_per_read: Option<usize>,
) -> Result<ConnLog, String> {
    let mut log = ConnLog::default();
    let total = frames.len() as u64;
    let window = window.max(1) as u64;
    let (mut base, mut next) = (1u64, 1u64);
    let mut sent_at: VecDeque<Instant> = VecDeque::new();
    let mut since_read = 0usize;
    while base <= total {
        let read_due = frames_per_read.is_some_and(|r| since_read >= r);
        if !read_due && next <= total && next < base + window {
            let (group, reports) = &frames[(next - 1) as usize];
            let frame = Frame::IngestBatchSeq {
                channel,
                seq: next,
                group: *group,
                reports: reports.clone(),
            };
            let t = Instant::now();
            c.send_frame(&frame)
                .map_err(|e| format!("send failed: {e}"))?;
            log.send_ns += t.elapsed().as_nanos() as u64;
            log.sends += 1;
            sent_at.push_back(t);
            next += 1;
        } else if base < next {
            let t = Instant::now();
            let reply = c.recv_reply();
            log.wait_ns += t.elapsed().as_nanos() as u64;
            log.waits += 1;
            match reply {
                Ok(Frame::Ok) => {
                    let sent = sent_at.pop_front().expect("an in-flight frame");
                    log.acks_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                    base += 1;
                    since_read += 1;
                }
                // A resent frame the replay guard proves already landed.
                Err(WireError::Rejected(DapError::DuplicateSequence { .. })) => {
                    sent_at.pop_front();
                    base += 1;
                }
                Err(
                    shed @ (WireError::Throttled { .. }
                    | WireError::Rejected(DapError::SequenceGap { .. })),
                ) => {
                    let mut hint_ms = match shed {
                        WireError::Throttled { retry_after_ms } => retry_after_ms,
                        _ => 0,
                    };
                    for _ in 0..next - base - 1 {
                        match c.recv_reply() {
                            Err(WireError::Throttled { retry_after_ms }) => {
                                hint_ms = hint_ms.max(retry_after_ms);
                            }
                            Ok(_) | Err(WireError::Rejected(_)) => {}
                            Err(e) => return Err(format!("drain after a shed failed: {e}")),
                        }
                    }
                    log.retries += next - base;
                    std::thread::sleep(Duration::from_millis(hint_ms.max(1)));
                    next = base;
                    sent_at.clear();
                }
                Ok(other) => return Err(format!("unexpected '{}' reply", other.tag())),
                Err(e) => return Err(format!("ingest failed: {e}")),
            }
        } else {
            // Window drained and a read is due.
            let (_, _, _, counters) = c
                .status_counters()
                .map_err(|e| format!("status failed: {e}"))?;
            if let Some(reactor) = counters.and_then(|k| k.reactor) {
                log.queue_depth_max = log.queue_depth_max.max(reactor.queue_depth);
            }
            let t = Instant::now();
            let read = c.finalize(&Scheme::ALL);
            log.reads_ms.push(t.elapsed().as_secs_f64() * 1e3);
            if !matches!(&read, Ok(o) if o.iter().all(|o| o.mean.is_finite())) {
                log.bad_reads += 1;
            }
            since_read = 0;
        }
    }
    Ok(log)
}

/// A running daemon and its journal directory.
struct Daemon {
    addr: String,
    dir: PathBuf,
    handle: JoinHandle<Result<(), String>>,
}

fn start_daemon(deployment: ServeSpec, unit: u64) -> Result<Daemon, String> {
    let listener =
        TcpListener::bind("127.0.0.1:0").map_err(|e| format!("cannot bind the daemon: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| e.to_string())?
        .to_string();
    let dir = out_dir().join(format!("journal-{}-{unit}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let serve_dir = dir.clone();
    let handle = std::thread::spawn(move || {
        deployment.serve_durable_with(listener, &serve_dir, 0, false, ServeOptions::default())
    });
    Ok(Daemon { addr, dir, handle })
}

fn connect(addr: &str, digest: u64, channel: u64) -> Result<WireClient, String> {
    let deadlines = Deadlines::all(Duration::from_secs(60));
    let mut c = WireClient::connect_retry_with(addr, 200, Duration::from_millis(25), &deadlines)
        .map_err(|e| format!("cannot reach the daemon at {addr}: {e}"))?;
    c.hello_channel(digest, channel)
        .map_err(|e| format!("hello failed: {e}"))?;
    Ok(c)
}

/// Total size of the files under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// What one round measured.
struct RoundLog {
    wall: f64,
    setup: f64,
    reports: ReportCounts,
    conns: Vec<ConnLog>,
    sq_err: f64,
    journal_records: u64,
    journal_bytes: u64,
    peak_connections: u64,
    /// Frames the daemon shed with `Throttled`.
    throttled: u64,
    probe: Option<EstimationProbe>,
    codec: Option<CodecProbe>,
}

fn round(spec: &RunSpec, unit: u64, tr: &Tracer, out: &mut Outcome) -> Result<RoundLog, String> {
    let sc = spec.scale;
    let t = Instant::now();
    let pop = population(spec, unit, tr);
    let digest = pop.deployment.state_digest()?;
    let daemon = start_daemon(pop.deployment, unit)?;
    let mut clients = [
        connect(&daemon.addr, digest, CHANNEL)?,
        connect(&daemon.addr, digest, CHANNEL + 1)?,
    ];
    let setup = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let logs: Vec<Result<ConnLog, String>> = {
        let _unit = tr.span("unit");
        std::thread::scope(|scope| {
            let workers: Vec<_> = clients
                .iter_mut()
                .zip(&pop.frames)
                .enumerate()
                .map(|(i, (c, frames))| {
                    let reads = (i == 0).then_some(sc.frames_per_read);
                    scope.spawn(move || stream(c, CHANNEL + i as u64, frames, sc.window, reads))
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("client thread panicked"))
                .collect()
        })
    };
    let wall = t.elapsed().as_secs_f64();
    let mut conns = Vec::new();
    for (log, frames) in logs.into_iter().zip(&pop.frames) {
        let frames = frames.len() as u64;
        match log {
            Ok(log) => {
                out.count(frames + log.reads_ms.len() as u64, log.bad_reads);
                conns.push(log);
            }
            Err(e) => {
                eprintln!("serve-durable: round {unit}: {e}");
                out.count(frames, frames);
            }
        }
    }

    // Verification against the locally replayed twin.
    let mut twin = {
        let _s = tr.span("session.new");
        DapSession::new(
            pop.deployment.session_config(),
            pop.deployment.plan(),
            PiecewiseMechanism::new,
        )
        .map_err(|e| e.to_string())?
    };
    {
        let _s = tr.span("session.ingest");
        for (i, frames) in pop.frames.iter().enumerate() {
            for (seq, (group, reports)) in frames.iter().enumerate() {
                twin.ingest_batch_seq(CHANNEL + i as u64, seq as u64 + 1, *group, reports)
                    .map_err(|e| format!("twin rejected a frame: {e}"))?;
            }
        }
    }
    let local = {
        let _s = tr.span("session.finalize");
        twin.finalize(&Scheme::ALL).map_err(|e| e.to_string())?
    };
    let c = &mut clients[0];
    let part_same = c.pull_part().map_err(|e| e.to_string())? == twin.export_part();
    let wire = c.finalize(&Scheme::ALL).map_err(|e| e.to_string())?;
    let outputs_same = output_bits(&wire) == output_bits(&local);
    out.count(2, u64::from(!part_same) + u64::from(!outputs_same));
    let (_, _, _, counters) = c.status_counters().map_err(|e| e.to_string())?;
    let counters = counters.unwrap_or_default();
    let reactor = counters.reactor.unwrap_or_default();
    c.shutdown().map_err(|e| e.to_string())?;
    drop(clients);
    daemon
        .handle
        .join()
        .map_err(|_| "daemon thread panicked".to_string())??;
    let journal_bytes = dir_bytes(&daemon.dir);
    let _ = std::fs::remove_dir_all(&daemon.dir);

    let traced = tr.enabled();
    let probe = traced.then(|| probe_estimation(&twin, PiecewiseMechanism::new, &local));
    if let Some(p) = &probe {
        out.count(1, u64::from(!p.matches));
    }
    let codec = traced.then(|| {
        CodecProbe::run(
            pop.frames
                .iter()
                .flat_map(|f| f.iter().take(CODEC_FRAMES))
                .map(|(g, b)| (*g, b.as_slice())),
        )
    });
    Ok(RoundLog {
        wall,
        setup,
        reports: pop.reports,
        conns,
        sq_err: scheme_sq_err(&wire, pop.truth),
        journal_records: counters.journal_records,
        journal_bytes,
        peak_connections: reactor.peak_connections,
        throttled: reactor.throttled,
        probe,
        codec,
    })
}

/// Runs the workload.
pub fn run(spec: &RunSpec) -> Result<Outcome, String> {
    let sc = spec.scale;
    std::fs::create_dir_all(out_dir())
        .map_err(|e| format!("cannot create {}: {e}", out_dir().display()))?;
    let tr = Tracer::new(run_id(spec));
    let mut out = Outcome::default();
    let mut rounds = Vec::new();
    let started = Instant::now();
    let mut unit = 0u64;
    while (unit as usize) < sc.serve_mse_units || started.elapsed().as_secs_f64() < spec.seconds {
        tr.set_enabled(spec.trace && unit % 2 == 1);
        let log = out.rss_window(|out| round(spec, unit, &tr, out));
        tr.set_enabled(false);
        match log {
            Ok(log) => rounds.push((unit, log)),
            Err(e) => {
                eprintln!("serve-durable: round {unit} failed: {e}");
                out.count(1, 1);
            }
        }
        unit += 1;
    }
    if rounds.is_empty() {
        return Err("no serve-durable round completed".into());
    }

    let untraced: Vec<&RoundLog> = rounds
        .iter()
        .filter(|(u, _)| !(spec.trace && u % 2 == 1))
        .map(|(_, r)| r)
        .collect();
    // Rates over the median round: every round streams the same volume.
    let walls: Vec<f64> = untraced.iter().map(|r| r.wall).collect();
    log_units("serve-durable", &walls);
    let errors: Vec<f64> = rounds
        .iter()
        .filter(|(u, _)| (*u as usize) < sc.serve_mse_units)
        .map(|(_, r)| r.sq_err)
        .collect();
    out.set(
        "setup_s",
        median(&rounds.iter().map(|(_, r)| r.setup).collect::<Vec<_>>()),
    );
    out.set("mse_dap", mean(&errors));
    let rates: Vec<f64> = untraced
        .iter()
        .map(|r| r.reports.total() as f64 / r.wall)
        .collect();
    out.set("users_per_s", sc.serve_users as f64 / median(&walls));
    out.set("ingest_reports_per_s", median(&rates));

    if spec.trace {
        let all = || rounds.iter().map(|(_, r)| r);
        let conns = || all().flat_map(|r| r.conns.iter());
        let acks: Vec<f64> = conns().flat_map(|c| c.acks_ms.iter().copied()).collect();
        let reads: Vec<f64> = conns().flat_map(|c| c.reads_ms.iter().copied()).collect();
        out.set("ack_ms_p50", percentile(&acks, 0.5));
        out.set("ack_ms_p99", percentile(&acks, 0.99));
        out.set("read_ms_p50", percentile(&reads, 0.5));
        let p90 = percentile(&reads, 0.9);
        out.set("read_ms_p90", p90);
        let beyond = reads.iter().filter(|&&r| r > p90).count();
        if beyond < 10 {
            eprintln!("serve-durable: only {beyond} reads lie beyond read_ms_p90; run longer");
        }
        let sum = |f: fn(&ConnLog) -> u64| conns().map(f).sum::<u64>() as f64;
        out.set(
            "net.send_us",
            sum(|c| c.send_ns) / 1e3 / sum(|c| c.sends).max(1.0),
        );
        out.set(
            "net.ack_wait_us",
            sum(|c| c.wait_ns) / 1e3 / sum(|c| c.waits).max(1.0),
        );
        out.set(
            "net.throttled",
            all().map(|r| r.throttled).sum::<u64>() as f64,
        );
        out.set("net.retries", sum(|c| c.retries));
        out.set(
            "reactor.queue_depth_max",
            conns().map(|c| c.queue_depth_max).max().unwrap_or(0) as f64,
        );
        out.set(
            "reactor.peak_connections",
            all().map(|r| r.peak_connections).max().unwrap_or(0) as f64,
        );
        let n = rounds.len() as f64;
        out.set(
            "journal.records",
            all().map(|r| r.journal_records).sum::<u64>() as f64 / n,
        );
        let reports = all().map(|r| r.reports.total()).sum::<u64>() as f64;
        out.set(
            "journal.bytes_per_report",
            all().map(|r| r.journal_bytes).sum::<u64>() as f64 / reports,
        );

        let mut traced = ReportCounts::default();
        for r in all().filter(|r| r.probe.is_some()) {
            traced.add(r.reports);
        }
        report_layers(&tr, traced, &mut out);
        let probes: Vec<EstimationProbe> = all().filter_map(|r| r.probe).collect();
        EstimationProbe::report(&probes, &mut out);
        let codec: Vec<CodecProbe> = all().filter_map(|r| r.codec).collect();
        CodecProbe::sum(&codec).report(&mut out);
        out.set(
            "estimation.matrix_cache_len",
            dap_estimation::MatrixCache::global().len() as f64,
        );
        // The streaming work runs on the client threads, outside the unit
        // span's thread, so only the overhead is defined here.
        report_trace(&tr, &walls, false, &mut out);
        write_spans(&tr, spec)?;
    }
    Ok(out)
}
