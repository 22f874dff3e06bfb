//! The client/aggregator split driven directly: per-user client
//! perturbation, sharded streaming ingestion on worker threads, an exact
//! `DapSession::merge`, and one `finalize` — the deployment shape the
//! `Dap::run` simulation wraps. The shards here are in-process mpsc
//! workers; `examples/tcp_aggregator.rs` runs the same topology over real
//! loopback TCP through the `dap-wire/v1` protocol.
//!
//! Run with `cargo run --release --example streaming_aggregator`.

use differential_aggregation::prelude::*;
use std::sync::mpsc;

fn main() {
    let mut rng = estimation::rng::seeded(7);
    let eps = 1.0;

    // 30 000 honest users hold Beta(2,5)-shaped values; a 20% coalition
    // injects into the top half of each group's PM output domain.
    let honest: Vec<f64> = (0..30_000)
        .map(|_| estimation::sampling::beta(2.0, 5.0, &mut rng) * 2.0 - 1.0)
        .collect();
    let truth = estimation::stats::mean(&honest);
    let population = Population::with_gamma(honest, 0.20);
    let attack = UniformAttack::of_upper(0.5, 1.0);

    // The aggregator fixes the deployment and the grouping plan. In a real
    // service the plan's `client_assignment(g)` would be pushed to each
    // user; here the simulation plays every client itself. The round (plan
    // shuffle, then every client) runs on its own seed, so the one-shot
    // driver at the end can replay it exactly.
    const ROUND_SEED: u64 = 8;
    let config = DapConfig::builder()
        .eps(eps)
        .scheme(Scheme::EmfStar)
        .max_d_out(128)
        .build()
        .expect("valid config");
    let mut rng = estimation::rng::seeded(ROUND_SEED);
    let plan = GroupPlan::build(population.total(), config.eps, config.eps0, &mut rng);

    // Three shard sessions accumulate independently on worker threads; the
    // out-of-range/over-quota gate runs on each shard as reports arrive.
    const SHARDS: usize = 3;
    let shards: Vec<DapSession<PiecewiseMechanism>> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        let mut senders = Vec::new();
        for _ in 0..SHARDS {
            let (tx, rx) = mpsc::channel::<(usize, Vec<f64>)>();
            let cfg = config;
            let plan = plan.clone();
            senders.push(tx);
            handles.push(scope.spawn(move || {
                let mut session =
                    DapSession::new(cfg, plan, PiecewiseMechanism::new).expect("valid session");
                for (g, batch) in rx {
                    session.ingest_batch(g, &batch).expect("well-formed reports");
                }
                session
            }));
        }
        // Clients perturb locally, group by group: each user's k_t reports,
        // then the group's poison block, go to the shard owning the group
        // (group-sharded ingestion keeps the merge bit-exact — see
        // `DapSession::merge`).
        plan.simulate_round(
            population.honest.len(),
            Some(&population.honest),
            Some(&attack),
            PiecewiseMechanism::new,
            &mut rng,
            |assign, _, reports| {
                senders[assign.group % SHARDS].send((assign.group, reports.to_vec()))
            },
        )
        .expect("worker alive");
        drop(senders);
        handles.into_iter().map(|h| h.join().expect("worker finished")).collect()
    });

    // Merge the shards and run probe → estimation → aggregation once.
    let merged = DapSession::merge(shards).expect("compatible shards");
    for g in 0..merged.group_count() {
        println!(
            "group {g}: eps_t = {:<7} quota = {:>6}  ingested = {:>6}",
            format!("{}", merged.plan().budgets[g]),
            merged.quota(g),
            merged.ingested(g),
        );
    }
    let outputs = merged.finalize(&Scheme::ALL).expect("finalizable session");

    println!("\ntrue honest mean: {truth:+.4}  (probed side: {:?})", outputs[0].side);
    println!("{:<12} {:>9} {:>9}", "scheme", "estimate", "error");
    for (scheme, out) in Scheme::ALL.iter().zip(&outputs) {
        println!("{:<12} {:>+9.4} {:>+9.4}", scheme.label(), out.mean, out.mean - truth);
    }

    // The sharded pipeline is exactly the one-shot simulation: the same
    // round seed gives the same bits.
    let reference = Dap::new(config, PiecewiseMechanism::new)
        .expect("valid config")
        .run_schemes(&population, &attack, &Scheme::ALL, &mut estimation::rng::seeded(ROUND_SEED))
        .expect("valid run");
    for (one_shot, sharded) in reference.iter().zip(&outputs) {
        let bits = |o: &DapOutput| [o.mean, o.gamma, o.min_variance].map(f64::to_bits);
        assert_eq!(bits(one_shot), bits(sharded), "sharded run diverged from Dap::run_schemes");
    }
    println!("\none-shot driver on the same round seed: bit-identical for every scheme");
}
