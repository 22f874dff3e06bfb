//! The aggregator genuinely *served*: three `dap-wire/v1` daemons on
//! loopback TCP (each a process-worth of `DapSession` behind
//! `serve_session`), a coordinator streaming a 100 000-user population
//! with disjoint group ownership, an **exact** merge of the pulled
//! session parts, and one finalize — the networked counterpart of
//! `examples/streaming_aggregator.rs` (which shards over in-process mpsc
//! channels instead of sockets).
//!
//! Every group's reports live wholly on one daemon and the wire carries
//! f64s as exact bit patterns, so the merged session is bit-identical to
//! one that ingested everything locally.
//!
//! Run with `cargo run --release --example tcp_aggregator`.

use differential_aggregation::prelude::*;
use differential_aggregation::protocol::net::{serve_session, WireClient, WireError};
use std::net::TcpListener;

fn main() {
    const USERS: usize = 100_000;
    const DAEMONS: usize = 3;
    let eps = 1.0;

    // 85 000 honest users hold Beta(2,5)-shaped values scaled to [-1, 1];
    // a 15% coalition injects into the top half of each group's PM output
    // domain.
    let mut rng = estimation::rng::seeded(21);
    let gamma = 0.15;
    let byzantine = (USERS as f64 * gamma).round() as usize;
    let honest: Vec<f64> = (0..USERS - byzantine)
        .map(|_| estimation::sampling::beta(2.0, 5.0, &mut rng) * 2.0 - 1.0)
        .collect();
    let truth = estimation::stats::mean(&honest);
    let attack = UniformAttack::of_upper(0.5, 1.0);

    // The deployment: config + grouping plan, shared by every party (a
    // real rollout would distribute these; the hello handshake verifies
    // agreement via the session state digest).
    let config = DapConfig::builder()
        .eps(eps)
        .scheme(Scheme::EmfStar)
        .max_d_out(128)
        .build()
        .expect("valid config");
    // The round (plan shuffle, then every client) runs on its own seed, so
    // the one-shot driver at the end can replay it exactly.
    const ROUND_SEED: u64 = 22;
    let mut rng = estimation::rng::seeded(ROUND_SEED);
    let plan = GroupPlan::build(USERS, config.eps, config.eps0, &mut rng);

    // Three daemons on OS-assigned loopback ports, each serving its own
    // session of the same deployment.
    let mut addrs = Vec::new();
    let mut daemons = Vec::new();
    for _ in 0..DAEMONS {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        addrs.push(listener.local_addr().expect("local addr").to_string());
        let (cfg, plan) = (config, plan.clone());
        daemons.push(std::thread::spawn(move || {
            let session =
                DapSession::new(cfg, plan, PiecewiseMechanism::new).expect("valid session");
            serve_session(listener, session, |_| None).expect("daemon serves")
        }));
    }

    // The coordinator keeps an empty twin session (the merge base) and
    // streams each group's reports to the daemon owning it.
    let mut session =
        DapSession::new(config, plan, PiecewiseMechanism::new).expect("valid session");
    let digest = session.state_digest();
    let mut clients: Vec<WireClient> = addrs
        .iter()
        .map(|addr| {
            let mut c = WireClient::connect(addr).expect("daemon reachable");
            c.hello(digest).expect("compatible deployment");
            c
        })
        .collect();

    // One user's k_t reports at a time, perturbed on "their device", are
    // shipped in order (order is part of the exactness contract for the
    // running report sums); the poison block closes each group.
    let mut streamed = 0usize;
    let mut chunk: Vec<f64> = Vec::with_capacity(8192);
    session
        .plan()
        .simulate_round(
            honest.len(),
            Some(&honest),
            Some(&attack),
            PiecewiseMechanism::new,
            &mut rng,
            |assign, user, reports| {
                chunk.extend_from_slice(reports);
                if user.is_none() || chunk.len() >= 8192 {
                    streamed += chunk.len();
                    clients[assign.group % DAEMONS].ingest_batch(assign.group, &chunk)?;
                    chunk.clear();
                }
                Ok::<_, WireError>(())
            },
        )
        .expect("in-range reports");

    // Pull every daemon's serialized part and merge — exact, because each
    // group lives wholly on one daemon.
    for client in &mut clients {
        let part = client.pull_part().expect("part pulled");
        session.merge_part(&part).expect("compatible part");
    }
    println!("streamed {streamed} reports to {DAEMONS} daemons over TCP\n");
    for g in 0..session.group_count() {
        println!(
            "group {g}: eps_t = {:<7} daemon = {}  quota = {:>6}  merged = {:>6}",
            format!("{}", session.plan().budgets[g]),
            g % DAEMONS,
            session.quota(g),
            session.ingested(g),
        );
    }

    let outputs = session.finalize(&Scheme::ALL).expect("finalizable session");
    println!("\ntrue honest mean: {truth:+.4}  (probed side: {:?})", outputs[0].side);
    println!("{:<12} {:>9} {:>9}", "scheme", "estimate", "error");
    for (scheme, out) in Scheme::ALL.iter().zip(&outputs) {
        println!("{:<12} {:>+9.4} {:>+9.4}", scheme.label(), out.mean, out.mean - truth);
    }
    assert!((outputs[1].mean - truth).abs() < 0.1, "EMF* estimate far from truth");

    // Served, sharded and merged, the round is still exactly the one-shot
    // simulation on the same round seed.
    let mut rng = estimation::rng::seeded(ROUND_SEED);
    let reference = Dap::new(config, PiecewiseMechanism::new)
        .and_then(|dap| dap.run_schemes_on(&honest, byzantine, &attack, &Scheme::ALL, &mut rng))
        .expect("valid run");
    for (one_shot, served) in reference.iter().zip(&outputs) {
        let bits = |o: &DapOutput| [o.mean, o.gamma, o.min_variance].map(f64::to_bits);
        assert_eq!(bits(one_shot), bits(served), "served run diverged from Dap::run_schemes_on");
    }

    // Stop the daemons; each returns its session, which must hold exactly
    // the reports routed to it.
    for client in &mut clients {
        client.shutdown().expect("shutdown accepted");
    }
    let mut daemon_reports = 0usize;
    for daemon in daemons {
        let served = daemon.join().expect("daemon thread");
        daemon_reports += (0..served.group_count()).map(|g| served.ingested(g)).sum::<usize>();
    }
    assert_eq!(daemon_reports, streamed, "every streamed report landed on one daemon");
    println!("\n{daemon_reports} reports ingested across daemons; merge was exact.");
}
