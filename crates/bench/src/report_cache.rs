//! Process-wide perturbed-report cache for the evaluation engine.
//!
//! Perturbation is the second-largest cost in the figure drivers after EM,
//! yet honest reports depend only on `(population, mechanism, ε)` — never
//! on the attack, the defense, or the scheme under evaluation. This cache
//! memoizes every report set the engine consumes:
//!
//! * **flat batches** — every honest user perturbs once at full ε (the
//!   defense rows, probes, and single-batch estimators);
//! * **grouped protocol reports** — [`dap_core::PreparedReports`]: the
//!   shuffled [`dap_core::GroupPlan`] plus each honest user's `k_t`
//!   reports at `ε_t` (the DAP/SW-DAP cells, replayed through
//!   [`dap_core::Dap::run_schemes_prepared_with`]);
//! * **poison batches** — the coalition's flat draws and per-group
//!   protocol batches ([`dap_core::Dap::poison_batches`]), keyed by the
//!   honest coordinate plus [`AttackSpec::key_words`]. Cell reps are
//!   bit-identical re-runs anyway, so fresh draws per rep would buy no
//!   statistical independence.
//!
//! The determinism contract mirrors [`dap_datasets::PopulationCache`]:
//! every entry draws from an RNG stream derived from its key alone, so
//! reports are **identical whether or not the cache is warm** and sharded
//! runs are bit-identical to single-process runs. All entry kinds share
//! one [`Memo`]: single-flight, LRU beyond [`DEFAULT_CAPACITY`] entries
//! (override with `DAP_REPORT_CACHE_CAP`), with hit/miss/eviction counters
//! that `experiments all` prints next to the population cache's.

use crate::cell::AttackSpec;
use crate::common::perturb_all;
use dap_core::{Dap, DapConfig, PreparedReports, Scheme};
use dap_datasets::cache::{Domain, SampledPopulation};
use dap_datasets::{Dataset, PopulationCache};
use dap_estimation::rng::{derive, Fnv};
use dap_estimation::Memo;
use dap_ldp::{Duchi, Epsilon, PiecewiseMechanism, SquareWave};
use rand::rngs::StdRng;
use std::any::Any;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// Default entry cap. At the default scale (N = 20 000) a flat entry is
/// ~160 kB and a grouped entry ~320 kB; a full `experiments all` sweep
/// touches a few hundred distinct `(population, mechanism, ε)` coordinates,
/// so 256 holds the hot set in tens of MB. At `--paper-scale` entries are
/// 50× larger — lower `DAP_REPORT_CACHE_CAP` if memory-bound.
pub const DEFAULT_CAPACITY: usize = 256;

/// Which mechanism perturbed a cached report set. Engine-level mirror of
/// the mechanism constructors; part of the cache key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReportMech {
    /// Piecewise Mechanism.
    Pm,
    /// Duchi et al.'s mechanism.
    Duchi,
    /// Square Wave.
    Sw,
}

/// The population coordinate a report set was perturbed from — exactly the
/// [`PopulationCache`] key, so one `(opts, cell, trial)` names both the
/// population and its report sets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReportCoord {
    /// Source dataset.
    pub dataset: Dataset,
    /// Input-domain normalization.
    pub domain: Domain,
    /// Total population size (honest + Byzantine).
    pub n: usize,
    /// Coalition proportion γ.
    pub gamma: f64,
    /// Experiment base seed.
    pub seed: u64,
    /// Trial-stream index.
    pub trial: u64,
}

impl ReportCoord {
    /// The (cached) population at this coordinate.
    pub fn population(&self) -> Arc<SampledPopulation> {
        let (dataset, domain, gamma) = (self.dataset, self.domain, self.gamma);
        PopulationCache::global().population(dataset, domain, self.n, gamma, self.seed, self.trial)
    }
}

/// The opaque key of a cached report set: its population coordinate,
/// mechanism and budget, plus the grouped/poison discriminants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReportKey {
    dataset: Dataset,
    domain: Domain,
    n: usize,
    gamma_bits: u64,
    seed: u64,
    trial: u64,
    mech: ReportMech,
    eps_bits: u64,
    /// `None` for a flat batch; `Some(ε₀ bits)` for grouped reports (the
    /// plan depends on ε₀, so it is part of the coordinate).
    grouped: Option<u64>,
    /// `None` for honest entries; `Some(attack words)` for poison entries
    /// (see [`AttackSpec::key_words`]).
    attack: Option<[u64; 3]>,
}

/// A cached report set: a flat batch (`Vec<f64>`), [`PreparedReports`] or
/// per-group poison batches (`Vec<Vec<f64>>`); the key's kind fixes which.
pub type Entry = Arc<dyn Any + Send + Sync>;

/// A bounded, thread-safe memo of perturbed report sets. See the module
/// docs for the determinism contract.
pub struct ReportCache(Memo<ReportKey, Entry>);

impl Deref for ReportCache {
    type Target = Memo<ReportKey, Entry>;
    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl ReportCache {
    /// An empty cache holding at most `capacity` report sets.
    pub fn new(capacity: usize) -> Self {
        ReportCache(Memo::new(capacity))
    }

    /// The process-wide cache (capacity from `DAP_REPORT_CACHE_CAP`,
    /// default [`DEFAULT_CAPACITY`]).
    pub fn global() -> &'static ReportCache {
        static GLOBAL: OnceLock<ReportCache> = OnceLock::new();
        GLOBAL.get_or_init(|| ReportCache(Memo::from_env("DAP_REPORT_CACHE_CAP", DEFAULT_CAPACITY)))
    }

    /// The entry at `key`, loaded on a miss from the key's own RNG stream.
    fn entry<T: Any + Send + Sync>(
        &self,
        key: ReportKey,
        load: impl FnOnce(&mut StdRng) -> T,
    ) -> Arc<T> {
        let load = || Arc::new(load(&mut derive(key.seed, generation_stream(&key)))) as Entry;
        let entry = self.0.get_or_load(key, load);
        entry.downcast().expect("a key's kind fixes its entry type")
    }

    /// The honest users' single-batch reports at full ε under `mech`,
    /// perturbed on first use. Callers append the coalition's reports from
    /// their own trial stream.
    pub fn flat_batch(&self, coord: &ReportCoord, mech: ReportMech, eps: f64) -> Arc<Vec<f64>> {
        self.entry(key_of(coord, mech, eps, None, None), |rng| generate_flat(coord, mech, eps, rng))
    }

    /// The protocol's stages 1–2 for a population — shuffled plan plus
    /// per-group honest reports — frozen for replay through
    /// [`Dap::run_schemes_prepared_with`]. `ε₀` must match the replaying
    /// session's config (the replay rejects mismatches).
    pub fn prepared(
        &self,
        coord: &ReportCoord,
        mech: ReportMech,
        eps: f64,
        eps0: f64,
    ) -> Arc<PreparedReports> {
        let key = key_of(coord, mech, eps, Some(eps0.to_bits()), None);
        self.entry(key, |rng| generate_grouped(coord, mech, eps, eps0, rng))
    }

    /// The coalition's single-batch reports at full ε under `mech` for
    /// `spec` — the poison half a flat cell appends to
    /// [`ReportCache::flat_batch`]. Drawn from a stream derived from the
    /// extended key, so the draws are a pure function of
    /// `(coordinate, mechanism, ε, attack)`.
    pub fn poison_flat(
        &self,
        coord: &ReportCoord,
        mech: ReportMech,
        eps: f64,
        spec: AttackSpec,
    ) -> Arc<Vec<f64>> {
        let key = key_of(coord, mech, eps, None, Some(spec));
        self.entry(key, |rng| generate_poison_flat(coord, mech, eps, spec, rng))
    }

    /// The coalition's per-group protocol batches for `spec` against this
    /// coordinate's [`ReportCache::prepared`] entry (which it fetches — and
    /// warms — itself), ready for
    /// [`dap_core::Dap::run_schemes_prepared_with`].
    pub fn poison_grouped(
        &self,
        coord: &ReportCoord,
        mech: ReportMech,
        eps: f64,
        eps0: f64,
        spec: AttackSpec,
    ) -> Arc<Vec<Vec<f64>>> {
        let key = key_of(coord, mech, eps, Some(eps0.to_bits()), Some(spec));
        self.entry(key, |rng| {
            let prepared = self.prepared(coord, mech, eps, eps0);
            generate_poison_grouped(mech, eps, eps0, spec, &prepared, rng)
        })
    }
}

fn key_of(
    coord: &ReportCoord,
    mech: ReportMech,
    eps: f64,
    grouped: Option<u64>,
    attack: Option<AttackSpec>,
) -> ReportKey {
    ReportKey {
        dataset: coord.dataset,
        domain: coord.domain,
        n: coord.n,
        gamma_bits: coord.gamma.to_bits(),
        seed: coord.seed,
        trial: coord.trial,
        mech,
        eps_bits: eps.to_bits(),
        grouped,
        attack: attack.map(AttackSpec::key_words),
    }
}

/// The generation stream for a key — FNV-1a over the coordinate with a tag
/// word distinct from both the cell streams and the population cache's, so
/// the three stream families never collide by construction.
fn generation_stream(key: &ReportKey) -> u64 {
    let mut h = Fnv::new();
    for w in [
        0x7265_7065_7274_7262, // "report" tag
        key.dataset as u64,
        key.domain as u64,
        key.n as u64,
        key.gamma_bits,
        key.trial,
        key.mech as u64,
        key.eps_bits,
        key.grouped.map_or(u64::MAX, |b| b.rotate_left(1)),
    ] {
        h.word(w);
    }
    // Poison entries fold the attack words in on top; honest entries hash
    // exactly as they did before poison caching existed, keeping their
    // streams (and therefore every cached honest byte) stable.
    let Some(attack) = key.attack else { return h.finish() };
    for w in attack {
        h.word(w);
    }
    h.finish().rotate_left(17) ^ 0x6174_7461_636b_7073 // "attack" tag
}

/// Expands `$body` once per [`ReportMech`], with `$new` bound to that
/// mechanism's constructor.
macro_rules! with_mech {
    ($mech:expr, |$new:ident| $body:expr) => {
        match $mech {
            ReportMech::Pm => {
                let $new = PiecewiseMechanism::new;
                $body
            }
            ReportMech::Duchi => {
                let $new = Duchi::new;
                $body
            }
            ReportMech::Sw => {
                let $new = SquareWave::new;
                $body
            }
        }
    };
}

/// The minimal config that shapes prepared reports and poison batches: only
/// ε/ε₀ and the mechanism matter; the scheme and estimation knobs are
/// finalize-time concerns.
fn replay_config(eps: f64, eps0: f64) -> DapConfig {
    DapConfig { eps0, ..DapConfig::paper_default(eps, Scheme::Emf) }
}

fn generate_flat(coord: &ReportCoord, mech: ReportMech, eps: f64, rng: &mut StdRng) -> Vec<f64> {
    let sp = coord.population();
    with_mech!(mech, |new| perturb_all(&new(Epsilon::of(eps)), &sp.honest, rng))
}

fn generate_grouped(
    coord: &ReportCoord,
    mech: ReportMech,
    eps: f64,
    eps0: f64,
    rng: &mut StdRng,
) -> PreparedReports {
    let sp = coord.population();
    with_mech!(mech, |new| Dap::new(replay_config(eps, eps0), new)
        .expect("valid config")
        .prepare_reports(&sp.honest, sp.byzantine, rng)
        .expect("non-empty population"))
}

fn generate_poison_flat(
    coord: &ReportCoord,
    mech: ReportMech,
    eps: f64,
    spec: AttackSpec,
    rng: &mut StdRng,
) -> Vec<f64> {
    let sp = coord.population();
    let attack = spec.build();
    with_mech!(mech, |new| attack.reports(sp.byzantine, &new(Epsilon::of(eps)), rng))
}

/// Poison batches depend on the plan (frozen in `prepared`), the per-group
/// mechanisms and the attack.
fn generate_poison_grouped(
    mech: ReportMech,
    eps: f64,
    eps0: f64,
    spec: AttackSpec,
    prepared: &PreparedReports,
    rng: &mut StdRng,
) -> Vec<Vec<f64>> {
    let attack = spec.build();
    with_mech!(mech, |new| Dap::new(replay_config(eps, eps0), new)
        .expect("valid config")
        .poison_batches(prepared, attack.as_ref(), rng)
        .expect("prepared matches config"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dap_estimation::MemoStats;

    fn coord(trial: u64) -> ReportCoord {
        ReportCoord {
            dataset: Dataset::Taxi,
            domain: Domain::Signed,
            n: 400,
            gamma: 0.25,
            seed: 7,
            trial,
        }
    }

    #[test]
    fn hit_returns_the_same_reports() {
        let cache = ReportCache::new(8);
        let a = cache.flat_batch(&coord(0), ReportMech::Pm, 0.5);
        let b = cache.flat_batch(&coord(0), ReportMech::Pm, 0.5);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats(), MemoStats { hits: 1, misses: 1, evictions: 0 });
        assert_eq!(a.len(), 300, "one report per honest user");
    }

    #[test]
    fn values_are_a_pure_function_of_the_key() {
        // Two caches, different access orders, same key → identical bits.
        let warm = ReportCache::new(8);
        warm.flat_batch(&coord(1), ReportMech::Pm, 0.25);
        warm.prepared(&coord(0), ReportMech::Pm, 0.5, 1.0 / 16.0);
        let via_warm = warm.flat_batch(&coord(0), ReportMech::Pm, 0.5);
        let cold = ReportCache::new(8);
        let via_cold = cold.flat_batch(&coord(0), ReportMech::Pm, 0.5);
        assert_eq!(
            via_warm.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            via_cold.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );

        let prep_warm = warm.prepared(&coord(0), ReportMech::Pm, 0.5, 1.0 / 16.0);
        let prep_cold = cold.prepared(&coord(0), ReportMech::Pm, 0.5, 1.0 / 16.0);
        assert_eq!(*prep_warm, *prep_cold);
    }

    #[test]
    fn distinct_coordinates_get_distinct_streams() {
        let cache = ReportCache::new(16);
        let base = cache.flat_batch(&coord(0), ReportMech::Pm, 0.5);
        let other_eps = cache.flat_batch(&coord(0), ReportMech::Pm, 1.0);
        assert_ne!(*base, *other_eps, "ε must shape the stream");
        let other_mech = cache.flat_batch(&coord(0), ReportMech::Duchi, 0.5);
        assert_ne!(*base, *other_mech, "mechanisms must differ");
        let other_trial = cache.flat_batch(&coord(1), ReportMech::Pm, 0.5);
        assert_ne!(*base, *other_trial, "trial streams must differ");
    }

    #[test]
    fn grouped_entries_track_eps0() {
        let cache = ReportCache::new(8);
        let a = cache.prepared(&coord(0), ReportMech::Pm, 0.5, 1.0 / 16.0);
        let b = cache.prepared(&coord(0), ReportMech::Pm, 0.5, 1.0 / 8.0);
        assert_ne!(a.plan.assignment.len(), b.plan.assignment.len());
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn flat_and_grouped_share_the_lru_budget() {
        let cache = ReportCache::new(2);
        cache.flat_batch(&coord(0), ReportMech::Pm, 0.5);
        cache.prepared(&coord(0), ReportMech::Pm, 0.5, 1.0 / 16.0);
        // Touch the flat entry so the grouped one is the LRU victim.
        cache.flat_batch(&coord(0), ReportMech::Pm, 0.5);
        cache.flat_batch(&coord(1), ReportMech::Pm, 0.5);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        let before = cache.stats().misses;
        cache.flat_batch(&coord(0), ReportMech::Pm, 0.5);
        assert_eq!(cache.stats().misses, before, "flat survivor still resident");
        cache.prepared(&coord(0), ReportMech::Pm, 0.5, 1.0 / 16.0);
        assert_eq!(cache.stats().misses, before + 1, "grouped victim evicted");
    }

    #[test]
    fn clear_drops_entries_but_not_counters() {
        let cache = ReportCache::new(4);
        cache.flat_batch(&coord(0), ReportMech::Duchi, 0.5);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().misses, 1);
        cache.reset_stats();
        assert_eq!(cache.stats(), MemoStats::default());
    }
}
