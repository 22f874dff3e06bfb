//! Process-wide population cache for the evaluation engine.
//!
//! At `--paper-scale` (N = 1 000 000) sampling a population dominates many
//! experiment cells, and the *same* `(dataset, γ)` population is consumed
//! by dozens of cells across experiments (every Fig. 6 panel column, every
//! Fig. 7 column at that γ, Table I, the ablations…). The cache memoizes
//! sampled populations under their sampling coordinate `(dataset, domain,
//! n, γ, seed, trial)`. Generation draws from an RNG stream derived from
//! that key alone, never from a caller's stream or from execution order,
//! so the bytes are **identical whether or not the cache is warm** — which
//! is what makes sharded runs bit-identical to single-process runs.
//!
//! The store is a [`Memo`]: single-flight (one sampling per key, however
//! many threads ask), LRU beyond [`DEFAULT_CAPACITY`] entries (override
//! with `DAP_POP_CACHE_CAP`), with hit/miss/eviction counters that
//! `experiments all` prints.

use crate::Dataset;
use dap_estimation::rng::{derive, Fnv};
use dap_estimation::stats::mean;
use dap_estimation::Memo;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// Default entry cap: at paper scale each entry is ~8 MB of honest values,
/// bounding the cache at ~½ GB; a full `experiments all` sweep needs ~40
/// distinct populations, so the default never evicts mid-run.
pub const DEFAULT_CAPACITY: usize = 64;

/// The normalization domain a population was sampled into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Domain {
    /// `[-1, 1]` — the Piecewise-Mechanism input domain.
    Signed,
    /// `[0, 1]` — the Square-Wave input domain.
    Unit,
}

/// One sampled population: honest values (already normalized), their mean
/// (the per-trial ground truth) and the coalition size implied by γ.
#[derive(Debug, Clone)]
pub struct SampledPopulation {
    /// Honest users' values in the key's [`Domain`].
    pub honest: Vec<f64>,
    /// `mean(honest)` — the estimand every defense is scored against.
    pub truth: f64,
    /// Number of Byzantine users: `round(n · γ)` of the total `n`.
    pub byzantine: usize,
}

/// The opaque key of a cached population: its sampling coordinate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PopulationKey {
    dataset: Dataset,
    domain: Domain,
    n: usize,
    gamma_bits: u64,
    seed: u64,
    trial: u64,
}

/// A bounded, thread-safe memo of sampled populations. See the module docs
/// for the determinism contract.
pub struct PopulationCache(Memo<PopulationKey, Arc<SampledPopulation>>);

impl Deref for PopulationCache {
    type Target = Memo<PopulationKey, Arc<SampledPopulation>>;
    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl PopulationCache {
    /// An empty cache holding at most `capacity` populations.
    pub fn new(capacity: usize) -> Self {
        PopulationCache(Memo::new(capacity))
    }

    /// The process-wide cache (capacity from `DAP_POP_CACHE_CAP`, default
    /// [`DEFAULT_CAPACITY`]).
    pub fn global() -> &'static PopulationCache {
        static GLOBAL: OnceLock<PopulationCache> = OnceLock::new();
        GLOBAL.get_or_init(|| PopulationCache(Memo::from_env("DAP_POP_CACHE_CAP", DEFAULT_CAPACITY)))
    }

    /// The population at a sampling coordinate, generated on first use.
    ///
    /// `n` is the *total* population (honest + Byzantine); `trial` is the
    /// trial-stream index. Generation draws from `derive(seed, h(key))`, so
    /// the returned values are a pure function of the arguments.
    pub fn population(
        &self,
        dataset: Dataset,
        domain: Domain,
        n: usize,
        gamma: f64,
        seed: u64,
        trial: u64,
    ) -> Arc<SampledPopulation> {
        let key = PopulationKey { dataset, domain, n, gamma_bits: gamma.to_bits(), seed, trial };
        self.0.get_or_load(key, || Arc::new(sample(&key)))
    }
}

/// The generation stream for a key — FNV-1a over the coordinate, so it
/// never collides with the experiment engine's cell streams by
/// construction (distinct tag word).
fn generation_stream(k: &PopulationKey) -> u64 {
    let mut h = Fnv::new();
    let tag = 0x706f_7075_6c61_7465; // "populate"
    for w in [tag, k.dataset as u64, k.domain as u64, k.n as u64, k.gamma_bits, k.trial] {
        h.word(w);
    }
    h.finish()
}

fn sample(key: &PopulationKey) -> SampledPopulation {
    let byzantine = (key.n as f64 * f64::from_bits(key.gamma_bits)).round() as usize;
    let mut rng = derive(key.seed, generation_stream(key));
    let honest = match key.domain {
        Domain::Signed => key.dataset.generate_signed(key.n - byzantine, &mut rng),
        Domain::Unit => key.dataset.generate_unit(key.n - byzantine, &mut rng),
    };
    let truth = mean(&honest);
    SampledPopulation { honest, truth, byzantine }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dap_estimation::MemoStats;

    #[test]
    fn hit_returns_the_same_population() {
        let cache = PopulationCache::new(8);
        let a = cache.population(Dataset::Taxi, Domain::Signed, 500, 0.25, 7, 0);
        let b = cache.population(Dataset::Taxi, Domain::Signed, 500, 0.25, 7, 0);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats(), MemoStats { hits: 1, misses: 1, evictions: 0 });
        assert_eq!(a.honest.len() + a.byzantine, 500);
        assert_eq!(a.byzantine, 125);
    }

    #[test]
    fn values_are_a_pure_function_of_the_key() {
        // Two caches, different access orders, same key → identical bytes.
        let warm = PopulationCache::new(8);
        warm.population(Dataset::Beta25, Domain::Unit, 300, 0.1, 3, 1);
        let via_warm = warm.population(Dataset::Beta52, Domain::Unit, 300, 0.1, 3, 2);
        let cold = PopulationCache::new(8);
        let via_cold = cold.population(Dataset::Beta52, Domain::Unit, 300, 0.1, 3, 2);
        assert_eq!(
            via_warm.honest.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            via_cold.honest.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(via_warm.truth.to_bits(), via_cold.truth.to_bits());
    }

    #[test]
    fn distinct_coordinates_get_distinct_streams() {
        let cache = PopulationCache::new(8);
        let t0 = cache.population(Dataset::Taxi, Domain::Signed, 200, 0.2, 5, 0);
        let t1 = cache.population(Dataset::Taxi, Domain::Signed, 200, 0.2, 5, 1);
        assert_ne!(t0.honest, t1.honest, "trial streams must differ");
        let other = cache.population(Dataset::Taxi, Domain::Unit, 200, 0.2, 5, 0);
        assert_ne!(t0.honest, other.honest, "domains must differ");
    }

    #[test]
    fn clear_drops_entries_but_not_counters() {
        let cache = PopulationCache::new(4);
        cache.population(Dataset::Retirement, Domain::Signed, 50, 0.1, 2, 0);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().misses, 1);
        cache.reset_stats();
        assert_eq!(cache.stats(), MemoStats::default());
    }
}
