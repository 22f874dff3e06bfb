//! The multi-aggregator trust tier, end to end: three `dap-wire/v1`
//! share servers on loopback TCP, **none of which ever holds a report**.
//!
//! The coordinator acts as the dealer of the secret-sharing tier: every
//! report chunk is reduced to its per-group bucket-count contribution and
//! split into three additive shares over wrapping `u64` arithmetic
//! (pairwise seeded masks that cancel exactly on merge). Share server `j`
//! receives share `j` of every chunk and nothing else — its session, and
//! any journal it might keep, holds a uniformly-blinded vector.
//!
//! Mid-stream, share server 1 is shut down and never restarted. There is
//! no failover target for a share (share `j` only cancels against the
//! other masks), so the dealer re-derives the dead server's full intended
//! share from the mask seed — the seed-reveal path — and reconstructs
//! from the surviving quorum. The finalized outputs are **bit-identical**
//! to a session that ingested every report locally in plaintext.
//!
//! Run with `cargo run --release --example masked_aggregator`.

use differential_aggregation::prelude::*;
use differential_aggregation::protocol::net::{serve_session, WireClient};
use differential_aggregation::protocol::secagg::reconstruct;
use differential_aggregation::protocol::{
    MaskedGroup, MaskedPart, PartGroup, SecaggRole, SessionPart, ShareSplitter,
};
use std::net::TcpListener;

fn main() {
    const USERS: usize = 30_000;
    const K: usize = 3;
    const MASK_SEED: u64 = 0xda5e_ed11;
    let eps = 1.0;

    // 85% honest Beta(2,5)-shaped values in [-1, 1]; a 15% coalition
    // poisons the top half of each group's PM output domain.
    let mut rng = estimation::rng::seeded(23);
    let gamma = 0.15;
    let byzantine = (USERS as f64 * gamma).round() as usize;
    let honest: Vec<f64> = (0..USERS - byzantine)
        .map(|_| estimation::sampling::beta(2.0, 5.0, &mut rng) * 2.0 - 1.0)
        .collect();
    let truth = estimation::stats::mean(&honest);
    let attack = UniformAttack::of_upper(0.5, 1.0);

    let config = DapConfig::builder()
        .eps(eps)
        .scheme(Scheme::EmfStar)
        .max_d_out(64)
        .build()
        .expect("valid config");
    let plan = GroupPlan::build(USERS, config.eps, config.eps0, &mut rng);

    // Three share servers: daemon j serves share j of K. Their sessions
    // are masked — the plaintext ingest frames are refused typed at the
    // door, so not even a misrouted client can hand one a report.
    let mut addrs = Vec::new();
    let mut daemons = Vec::new();
    for index in 0..K {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        addrs.push(listener.local_addr().expect("local addr").to_string());
        let (cfg, plan) = (config, plan.clone());
        daemons.push(std::thread::spawn(move || {
            let session = DapSession::new_masked(
                cfg,
                plan,
                PiecewiseMechanism::new,
                SecaggRole { k: K, index },
            )
            .expect("valid masked session");
            serve_session(listener, session, |_| None).expect("share server serves")
        }));
    }

    // The dealer: a local session (the merge base and plaintext twin),
    // the splitter, and its seed commitment — announced in every masked
    // hello so two dealers with different seeds can never feed one fleet.
    let mut session =
        DapSession::new(config, plan, PiecewiseMechanism::new).expect("valid session");
    let digest = session.state_digest();
    let splitter = ShareSplitter::new(K, MASK_SEED).expect("valid share count");
    let commitment = splitter.commitment().digest();
    let mut clients: Vec<Option<WireClient>> = addrs
        .iter()
        .enumerate()
        .map(|(j, addr)| {
            let mut c = WireClient::connect(addr).expect("share server reachable");
            let (_, _, role) =
                c.hello_masked(digest, Some(0xdea1 + j as u64), commitment).expect("handshake");
            assert_eq!(role, Some((K, j)), "share server {j} advertises its role");
            Some(c)
        })
        .collect();

    // A share server must refuse a plaintext report — the wire-observable
    // "no daemon ever holds a report" check.
    let refusal = clients[0].as_mut().expect("live").ingest(0, 0.0);
    println!("plaintext report at a share server: {}\n", refusal.unwrap_err());

    // Simulate the population into per-group chunks first (report order
    // is part of the exactness contract), then deal shares chunk by
    // chunk. Every chunk is retained: the dealer needs the report sums
    // (which are not secret-shared) and, if a server dies, the seed
    // reveal re-derives its share from these contributions.
    let mut group_chunks: Vec<Vec<Vec<f64>>> = Vec::new();
    let (mut chunks, mut chunk) = (Vec::new(), Vec::with_capacity(8192));
    session
        .plan()
        .simulate_round(
            honest.len(),
            Some(&honest),
            Some(&attack),
            PiecewiseMechanism::new,
            &mut rng,
            |_, user, reports| {
                chunk.extend_from_slice(reports);
                if user.is_none() || chunk.len() >= 8192 {
                    chunks.push(std::mem::replace(&mut chunk, Vec::with_capacity(8192)));
                }
                if user.is_none() {
                    group_chunks.push(std::mem::take(&mut chunks));
                }
                Ok::<_, DapError>(())
            },
        )
        .expect("simulated round");

    // Deal: chunk (g, c) becomes K additive shares of its bucket counts.
    // Halfway through, share server 1 goes down for good.
    let total_chunks: usize = group_chunks.iter().map(Vec::len).sum();
    let kill_at = total_chunks / 2;
    let mut contributions: Vec<Vec<Vec<u64>>> = Vec::new();
    let mut dealt = 0usize;
    let mut seq = [0u64; K];
    for (g, chunks) in group_chunks.iter().enumerate() {
        let resolution = session.histogram(g).counts.len();
        let mut per_chunk = Vec::with_capacity(chunks.len());
        for (c, chunk) in chunks.iter().enumerate() {
            let mut counts = vec![0u64; resolution];
            for &r in chunk {
                counts[session.bucket_of(g, r).expect("in-range report")] += 1;
            }
            for (j, share) in splitter.split(g as u64, c as u64, &counts).iter().enumerate() {
                if let Some(client) = clients[j].as_mut() {
                    seq[j] += 1;
                    client
                        .ingest_shares(0xdea1 + j as u64, seq[j], g, share)
                        .expect("share accepted");
                }
            }
            per_chunk.push(counts);
            dealt += 1;
            if dealt == kill_at {
                println!("killing share server 1 after {dealt}/{total_chunks} chunks …");
                clients[1].take().expect("still live").shutdown().expect("shutdown");
            }
        }
        contributions.push(per_chunk);
    }

    // Pull the surviving quorum's masked parts; re-derive the dead
    // server's full intended share from the mask seed. Summing what it
    // *would* have accumulated reproduces it exactly, masks included.
    let mut parts: Vec<MaskedPart> = Vec::with_capacity(K);
    for (j, client) in clients.iter_mut().enumerate() {
        if let Some(c) = client.as_mut() {
            parts.push(c.pull_masked().expect("masked part"));
            c.shutdown().expect("shutdown");
        } else {
            let mut groups: Vec<MaskedGroup> = contributions
                .iter()
                .enumerate()
                .map(|(g, _)| MaskedGroup {
                    counts: vec![0u64; session.histogram(g).counts.len()],
                })
                .collect();
            for (g, chunks) in contributions.iter().enumerate() {
                for (c, counts) in chunks.iter().enumerate() {
                    let share = splitter.share_for(j, g as u64, c as u64, counts);
                    for (t, w) in groups[g].counts.iter_mut().zip(&share) {
                        *t = t.wrapping_add(*w);
                    }
                }
            }
            println!("share server {j} is dead; its share was re-derived from the seed");
            parts.push(MaskedPart {
                digest,
                k: K,
                index: j,
                commitment,
                groups,
                channels: Vec::new(),
            });
        }
    }

    // No single part is the histogram — print the blinding in action.
    let totals = reconstruct(&parts).expect("complete share group");
    println!("\ngroup 0, bucket 0: true count = {}", totals[0][0]);
    for part in &parts {
        println!(
            "  share {} holds {:#018x} ({})",
            part.index,
            part.groups[0].counts[0],
            if part.groups[0].counts[0] == totals[0][0] { "unblinded!" } else { "blinded" },
        );
    }

    // Merge the reconstructed integer histograms — with the report sums
    // replayed from the dealer's retained chunks, in the same per-report
    // order — into the local session, and finalize.
    let mut part_groups = Vec::with_capacity(totals.len());
    for (g, counts) in totals.iter().enumerate() {
        let mut sum_reports = 0.0f64;
        let mut n_reports = 0usize;
        for chunk in &group_chunks[g] {
            for &r in chunk {
                sum_reports += r;
                n_reports += 1;
            }
        }
        assert_eq!(counts.iter().sum::<u64>(), n_reports as u64, "share lost or doubled");
        part_groups.push(PartGroup {
            counts: counts.iter().map(|&c| c as f64).collect(),
            sum_reports,
            n_reports,
        });
    }
    session
        .merge_part(&SessionPart { digest, groups: part_groups, channels: Vec::new() })
        .expect("reconstructed merge");
    let outputs = session.finalize(&Scheme::ALL).expect("finalizable session");

    // The exactness claim: a plaintext twin fed the identical chunks
    // finalizes bit-identically.
    let mut twin = DapSession::new(config, session.plan().clone(), PiecewiseMechanism::new)
        .expect("valid session");
    for (g, chunks) in group_chunks.iter().enumerate() {
        for chunk in chunks {
            twin.ingest_batch(g, chunk).expect("plaintext twin ingest");
        }
    }
    let plain = twin.finalize(&Scheme::ALL).expect("finalizable twin");
    for (a, b) in outputs.iter().zip(&plain) {
        assert_eq!(a.mean.to_bits(), b.mean.to_bits(), "masked tier changed an output bit");
        assert_eq!(a.min_variance.to_bits(), b.min_variance.to_bits());
    }

    println!("\ntrue honest mean: {truth:+.4}  (probed side: {:?})", outputs[0].side);
    println!("{:<12} {:>9} {:>9}", "scheme", "estimate", "error");
    for (scheme, out) in Scheme::ALL.iter().zip(&outputs) {
        println!("{:<12} {:>+9.4} {:>+9.4}", scheme.label(), out.mean, out.mean - truth);
    }

    // The dead server's thread already returned via its shutdown; the
    // survivors return sessions that blinded every word they held.
    let mut plaintext_reports = 0usize;
    for daemon in daemons {
        let served = daemon.join().expect("share server thread");
        plaintext_reports += (0..served.group_count()).map(|g| served.ingested(g)).sum::<usize>();
    }
    assert_eq!(plaintext_reports, 0, "a share server ingested a plaintext report");
    println!(
        "\nmasked finalize is bit-identical to the plaintext twin; \
         no share server ever held a report."
    );
}
