//! Mutation property suite for the `dap-wire/v1` decoder: frame bytes are
//! untrusted, so whatever a peer sends, decoding ends in a valid frame or
//! a typed [`WireError::BadFrame`] — never a panic, and never an
//! allocation sized from a count on the wire (which would abort the
//! process, failing the suite just the same).
//!
//! Every [`Frame`] variant is encoded, then corrupted once by the shared
//! harness (`mutation/mod.rs`): a flipped byte, a truncation, an inflated
//! count, or a token spliced in from another frame. Each mutant goes
//! through [`read_frame`] (length prefix, UTF-8 check, decode) and, when
//! it is still text, straight through [`decode_frame`].
//!
//! `PROPTEST_CASES` sets the number of mutants; CI's `fuzz-smoke` job runs
//! 20 000.

mod mutation;

use dap_attack::Side;
use dap_core::net::{
    decode_frame, encode_frame, read_frame, Frame, ReactorCounters, ShardRequest,
    StatusCounters, WireError, WIRE_VERSION,
};
use dap_core::{
    DapError, DapOutput, GroupReport, MaskedGroup, MaskedPart, PartGroup, Scheme, SessionPart,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Number of [`Frame`] variants.
const VARIANTS: usize = 20;

/// Position of `frame`'s variant in declaration order. The match is
/// exhaustive, so a new variant fails to compile here until the suite
/// samples it.
fn variant(frame: &Frame) -> usize {
    match frame {
        Frame::Hello { .. } => 0,
        Frame::HelloOk { .. } => 1,
        Frame::Ingest { .. } => 2,
        Frame::IngestBatch { .. } => 3,
        Frame::IngestBatchSeq { .. } => 4,
        Frame::Status => 5,
        Frame::ShareBatch { .. } => 6,
        Frame::MaskedPull => 7,
        Frame::MaskedPart { .. } => 8,
        Frame::StatusOk { .. } => 9,
        Frame::Ok => 10,
        Frame::Pull => 11,
        Frame::Part { .. } => 12,
        Frame::Merge { .. } => 13,
        Frame::Finalize { .. } => 14,
        Frame::Outputs { .. } => 15,
        Frame::RunShard { .. } => 16,
        Frame::ShardResult { .. } => 17,
        Frame::Shutdown => 18,
        Frame::Error(_) => 19,
    }
}

/// At least one frame of every variant, with every optional section both
/// present and absent, and counts of zero, one and several.
fn samples() -> Vec<Frame> {
    let part = SessionPart {
        digest: 0xdead_beef_1234_5678,
        groups: vec![
            PartGroup { counts: vec![0.0, 2.0, 1.0], sum_reports: -1.25, n_reports: 3 },
            PartGroup { counts: vec![], sum_reports: 0.0, n_reports: 0 },
        ],
        channels: vec![(0xc0ffee, 12), (u64::MAX, 1)],
    };
    let masked = MaskedPart {
        digest: 0xdead_beef_1234_5678,
        k: 3,
        index: 1,
        commitment: 0xc0ffee,
        groups: vec![MaskedGroup { counts: vec![0, u64::MAX, 7] }, MaskedGroup { counts: vec![] }],
        channels: vec![(0xfeed, 3)],
    };
    let output = DapOutput {
        mean: -0.125,
        side: Side::Left,
        gamma: 0.25,
        min_variance: 1e-9,
        groups: vec![GroupReport {
            eps_t: 0.125,
            n_reports: 640,
            mean_t: -0.5,
            m_hat: 12.5,
            n_hat: 313.7,
            weight: 0.25,
        }],
    };
    let counters = StatusCounters {
        masked: false,
        channels: 12,
        shares: 0,
        journal_records: 64,
        checkpoints: 1,
        reactor: Some(ReactorCounters {
            queue_depth: 17,
            queued_bytes: 9000,
            active_connections: 31,
            peak_connections: 64,
            throttled: 1234,
        }),
    };
    let hello = |channel, auth, commit| Frame::Hello {
        version: WIRE_VERSION.to_string(),
        digest: 7,
        channel,
        auth,
        commit,
    };
    vec![
        hello(None, None, None),
        hello(Some(0xfeed_beef), Some(0x5ec2e7), Some(u64::MAX)),
        Frame::HelloOk { digest: 7, groups: 4, last_seq: None, secagg: None },
        Frame::HelloOk { digest: 7, groups: 4, last_seq: Some(917), secagg: Some((3, 2)) },
        Frame::Ingest { group: 2, report: -0.75 },
        Frame::IngestBatch { group: 0, reports: vec![1.0, -0.0, 0.5] },
        Frame::IngestBatch { group: 1, reports: vec![] },
        Frame::IngestBatchSeq { channel: 0xfeed_beef, seq: 3, group: 1, reports: vec![0.5] },
        Frame::Status,
        Frame::ShareBatch { channel: 0xfeed, seq: 7, group: 2, counts: vec![0, 1, u64::MAX] },
        Frame::MaskedPull,
        Frame::MaskedPart { part: masked },
        Frame::StatusOk { digest: 7, groups: 4, ingested: 123_456, counters: None },
        Frame::StatusOk { digest: 7, groups: 4, ingested: 5, counters: Some(counters) },
        Frame::Ok,
        Frame::Pull,
        Frame::Part { part: part.clone() },
        Frame::Merge { part },
        Frame::Finalize { schemes: Scheme::ALL.to_vec() },
        Frame::Outputs { outputs: vec![output.clone(), output] },
        Frame::RunShard {
            request: ShardRequest {
                experiment: "fig7".into(),
                n: 2000,
                trials: 3,
                seed: 42,
                max_d_out: 128,
                index: 1,
                count: 3,
            },
        },
        Frame::ShardResult { json: "{\n  \"schema\": \"dap-results/v1\"\n}\n".into() },
        Frame::Shutdown,
        Frame::Error(WireError::Rejected(DapError::QuotaExceeded {
            group: 1,
            quota: 10,
            ingested: 10,
            attempted: 3,
        })),
        Frame::Error(WireError::Throttled { retry_after_ms: 25 }),
        Frame::Error(WireError::BadFrame { reason: "frame body is not UTF-8".into() }),
    ]
}

/// Decodes `body` both ways under `catch_unwind` and requires a frame or
/// a typed `BadFrame` from each.
fn assert_typed(body: &[u8], what: &str) {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut wire = (body.len() as u32).to_be_bytes().to_vec();
        wire.extend_from_slice(body);
        let direct = std::str::from_utf8(body).ok().map(decode_frame);
        (read_frame(&mut &wire[..]), direct)
    }));
    let shown = String::from_utf8_lossy(body);
    let (via_wire, direct) =
        outcome.unwrap_or_else(|_| panic!("{what}: decoder panicked on {shown:?}"));
    for result in std::iter::once(via_wire).chain(direct) {
        assert!(
            matches!(result, Ok(_) | Err(WireError::BadFrame { .. })),
            "{what}: untyped outcome {result:?} for {shown:?}"
        );
    }
}

#[test]
fn samples_cover_every_variant_and_round_trip() {
    let frames = samples();
    let mut seen = [false; VARIANTS];
    for frame in &frames {
        seen[variant(frame)] = true;
        assert_eq!(decode_frame(&encode_frame(frame)).as_ref(), Ok(frame));
    }
    assert!(seen.iter().all(|&s| s), "unsampled variants: {seen:?}");
}

proptest! {
    #[test]
    fn mutated_frames_decode_to_a_frame_or_a_typed_error(
        pick in 0usize..1_000_000,
        donor in 0usize..1_000_000,
        seed in 0u64..u64::MAX,
    ) {
        let frames = samples();
        let frame = &frames[pick % frames.len()];
        let body = encode_frame(frame);
        let donor = encode_frame(&frames[donor % frames.len()]);
        let (mutant, how) = mutation::mutate(&body, &donor, &mut StdRng::seed_from_u64(seed));
        assert_typed(&mutant, &format!("{} frame, {how}", frame.tag()));
    }
}
