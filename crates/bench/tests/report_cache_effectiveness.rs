//! Golden guarantees of the report cache in the engine: a warm re-run is
//! **bit-identical** to the cold run that populated the cache (values and
//! rendered stdout), the warm run actually hits (nonzero hit delta — the
//! cache is load-bearing, not decorative), and a sharded subset executed
//! against a warm cache still reproduces the full run's bits. Together
//! these pin the cache's determinism contract: entry values are pure
//! functions of the key, so warmth can change speed but never bytes. With
//! single-flight loading the counters are pinned too: a cold run that
//! evicts nothing counts the same hits and misses on 1 thread as on 4.

use dap_bench::cell::ExperimentId;
use dap_bench::common::ExpOptions;
use dap_bench::engine::{cache_stats, run_cells, run_cells_subset, CellResult, ResultMap};
use dap_bench::report_cache::ReportCache;
use dap_core::parallel::set_thread_override;
use dap_datasets::PopulationCache;
use dap_estimation::MemoStats;
use std::sync::Mutex;

/// The process-wide caches are shared by every test thread; serialize the
/// tests so hit/miss deltas are attributable.
static CACHES: Mutex<()> = Mutex::new(());

fn opts() -> ExpOptions {
    ExpOptions { n: 1_000, trials: 2, seed: 7, max_d_out: 16 }
}

fn value_bits(results: &[CellResult]) -> Vec<(usize, Vec<u64>)> {
    results
        .iter()
        .map(|r| (r.index, r.values.iter().map(|v| v.to_bits()).collect()))
        .collect()
}

#[test]
fn warm_rerun_is_bit_identical_and_actually_hits() {
    let _guard = CACHES.lock().unwrap();
    let opts = opts();
    // fig7 is the perf-tracked experiment: protocol cells (grouped
    // prepared-report entries) and defense cells (flat batches) both ride
    // the report cache.
    let experiment = ExperimentId::Fig7;
    let cells = experiment.cells(&opts);

    PopulationCache::global().clear();
    ReportCache::global().clear();
    let before_cold = cache_stats().1;
    let cold = run_cells(&opts, &cells);
    let after_cold = cache_stats().1;
    assert!(
        after_cold.misses > before_cold.misses,
        "the cold run must populate the report cache"
    );

    let before_warm = after_cold;
    let warm = run_cells(&opts, &cells);
    let after_warm = cache_stats().1;
    assert!(
        after_warm.hits > before_warm.hits,
        "the warm run must be served from the report cache"
    );
    assert_eq!(
        after_warm.misses, before_warm.misses,
        "a warm re-run of identical coordinates must not re-perturb"
    );

    assert_eq!(
        value_bits(&cold),
        value_bits(&warm),
        "warm values diverged from the cold run at the bit level"
    );
    let cold_render = experiment.render(&opts, &ResultMap::from_results(&cold));
    let warm_render = experiment.render(&opts, &ResultMap::from_results(&warm));
    assert_eq!(cold_render, warm_render, "rendered stdout diverged under a warm cache");
}

#[test]
fn warm_shard_subset_matches_the_full_runs_bits() {
    let _guard = CACHES.lock().unwrap();
    let opts = opts();
    let experiment = ExperimentId::Fig7;
    let cells = experiment.cells(&opts);

    PopulationCache::global().clear();
    ReportCache::global().clear();
    let full = run_cells(&opts, &cells);
    let full_bits = value_bits(&full);

    // Shard 1/2 against the cache the full run just warmed: entries are
    // keyed by coordinate alone, so serving a subset from warm memory must
    // reproduce the corresponding full-run cells bit for bit.
    let before = cache_stats().1;
    let indices: Vec<usize> = (0..cells.len()).filter(|i| i % 2 == 1).collect();
    let shard = run_cells_subset(&opts, &cells, &indices);
    let after = cache_stats().1;
    assert!(after.hits > before.hits, "the warm shard must hit the report cache");

    let shard_bits = value_bits(&shard);
    let expected: Vec<(usize, Vec<u64>)> =
        full_bits.into_iter().filter(|(i, _)| i % 2 == 1).collect();
    assert_eq!(shard_bits, expected, "warm shard diverged from the full run");

    // And a *cold* shard (caches dropped) still lands on the same bits:
    // cache warmth is a pure speed effect in both directions.
    PopulationCache::global().clear();
    ReportCache::global().clear();
    let cold_shard = run_cells_subset(&opts, &cells, &indices);
    assert_eq!(
        value_bits(&cold_shard),
        shard_bits,
        "cold shard diverged from the warm shard"
    );
}

#[test]
fn cold_run_counters_do_not_depend_on_the_thread_count() {
    let _guard = CACHES.lock().unwrap();
    // Default-scale populations keep each load long enough for 4 threads
    // to collide on keys; without single-flight a collision loads a key
    // twice and shifts the counters.
    let opts = ExpOptions { n: 20_000, trials: 2, seed: 7, max_d_out: 64 };
    let cells = ExperimentId::Fig7.cells(&opts);
    let delta = |a: MemoStats, b: MemoStats| (b.hits - a.hits, b.misses - a.misses, b.evictions - a.evictions);
    let cold_run = |threads: usize| {
        PopulationCache::global().clear();
        ReportCache::global().clear();
        set_thread_override(Some(threads));
        let (pop_before, rep_before) = cache_stats();
        let results = run_cells(&opts, &cells);
        let (pop_after, rep_after) = cache_stats();
        set_thread_override(None);
        (value_bits(&results), delta(pop_before, pop_after), delta(rep_before, rep_after))
    };
    let (bits_1, pop_1, rep_1) = cold_run(1);
    assert_eq!((pop_1.2, rep_1.2), (0, 0), "the precondition: a cold fig7 run evicts nothing");
    for _ in 0..3 {
        let (bits_4, pop_4, rep_4) = cold_run(4);
        assert_eq!(bits_1, bits_4, "values diverged between 1 and 4 threads");
        assert_eq!(pop_1, pop_4, "population-cache (hits, misses, evictions) depend on threads");
        assert_eq!(rep_1, rep_4, "report-cache (hits, misses, evictions) depend on threads");
    }
}
