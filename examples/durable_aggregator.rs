//! An aggregator that survives being killed: the streaming session of
//! `examples/streaming_aggregator.rs` wrapped in write-ahead durability
//! (`protocol::storage`). Every accepted batch is journaled to disk
//! *before* it is acknowledged; halfway through the submission the
//! aggregator is "killed" (dropped without any shutdown), restarted on
//! the same journal directory, recovers the acknowledged prefix
//! bit-for-bit, compacts the journal into a checkpoint, finishes the
//! ingest, and finalizes — identically to a run that never crashed.
//!
//! Run with `cargo run --release --example durable_aggregator`.

use differential_aggregation::prelude::*;
use differential_aggregation::protocol::storage::{
    DurableOptions, DurableSession, FileBackend,
};

fn main() {
    let mut rng = estimation::rng::seeded(17);
    let dir = std::env::temp_dir().join(format!("dap-durable-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // 12 000 honest users hold Beta(2,5)-shaped values; a 20% coalition
    // poisons the upper half of each group's PM output domain.
    let honest: Vec<f64> = (0..12_000)
        .map(|_| estimation::sampling::beta(2.0, 5.0, &mut rng) * 2.0 - 1.0)
        .collect();
    let truth = estimation::stats::mean(&honest);
    let population = Population::with_gamma(honest, 0.20);
    let attack = UniformAttack::of_upper(0.5, 1.0);

    let config = DapConfig::builder()
        .eps(0.5)
        .scheme(Scheme::EmfStar)
        .max_d_out(64)
        .build()
        .expect("valid config");
    let plan = GroupPlan::build(population.total(), config.eps, config.eps0, &mut rng);

    // Clients perturb locally, exactly as in the streaming example; the
    // batches are what flows into the (journaled) aggregator.
    let mut group_batches: Vec<(usize, Vec<f64>)> = Vec::new();
    let mut batch = Vec::new();
    plan.simulate_round(
        population.honest.len(),
        Some(&population.honest),
        Some(&attack),
        PiecewiseMechanism::new,
        &mut rng,
        |assign, user, reports| {
            batch.extend_from_slice(reports);
            if user.is_none() {
                group_batches.push((assign.group, std::mem::take(&mut batch)));
            }
            Ok::<_, DapError>(())
        },
    )
    .expect("simulated round");

    // A fresh session factory: recovery replays the journal into an empty
    // session of the same deployment (same config, same plan).
    let fresh = || {
        DapSession::new(config, plan.clone(), PiecewiseMechanism::new)
            .expect("valid session")
    };

    // --- First life: journal every accepted batch, then "crash". -------
    let half = group_batches.len() / 2;
    let crashed_digest = {
        let backend = FileBackend::open(&dir).expect("open journal dir");
        let (mut durable, recovery) =
            DurableSession::open(fresh(), backend, DurableOptions::default())
                .expect("fresh journaled session");
        assert_eq!(recovery.replayed, 0, "nothing to recover on first boot");
        for (g, batch) in &group_batches[..half] {
            durable.ingest_batch(*g, batch).expect("acked batch");
        }
        println!(
            "first life : ingested {half} of {} group batches, journal at {} bytes",
            group_batches.len(),
            durable.journal().len_bytes()
        );
        durable.session().content_digest()
        // Dropped right here — no shutdown, no flush call. The write-ahead
        // journal is the only survivor.
    };

    // --- Second life: recover, verify, compact, finish. ----------------
    let backend = FileBackend::open(&dir).expect("reopen journal dir");
    let (mut durable, recovery) =
        DurableSession::open(fresh(), backend, DurableOptions::default())
            .expect("recover journaled session");
    println!(
        "second life: replayed {} records -> state digest {:#018x}",
        recovery.replayed,
        durable.session().content_digest()
    );
    assert_eq!(
        durable.session().content_digest(),
        crashed_digest,
        "recovery must be bit-identical to the crashed session"
    );

    // Compact the replayed history into one checkpoint part, then finish
    // the submission.
    durable.checkpoint().expect("compact");
    println!(
        "checkpointed: journal back to {} bytes",
        durable.journal().len_bytes()
    );
    for (g, batch) in &group_batches[half..] {
        durable.ingest_batch(*g, batch).expect("acked batch");
    }

    // The never-crashed reference: one session, same batches, same order.
    let mut reference = fresh();
    for (g, batch) in &group_batches {
        reference.ingest_batch(*g, batch).expect("reference batch");
    }
    assert_eq!(
        durable.session().content_digest(),
        reference.content_digest(),
        "crash + recovery must not change the final state"
    );

    let out = &durable.session().finalize(&[Scheme::EmfStar]).expect("finalize")[0];
    let ref_out = &reference.finalize(&[Scheme::EmfStar]).expect("finalize")[0];
    assert_eq!(out.mean.to_bits(), ref_out.mean.to_bits(), "finalize diverged");
    println!(
        "finalized  : EMF* mean {:+.4} (truth {truth:+.4}) — identical to the uninterrupted run",
        out.mean
    );

    let _ = std::fs::remove_dir_all(&dir);
}
