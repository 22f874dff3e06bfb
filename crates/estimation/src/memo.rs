//! A bounded, thread-safe memo with single-flight loading.
//!
//! Every process-wide cache in the workspace — transform matrices,
//! sampled populations, perturbed reports — stores values that are a pure
//! function of their key, so a cache may drop an entry at any time and
//! rebuild it later without changing a single output bit. [`Memo`] is the
//! one implementation behind all of them:
//!
//! * **single-flight** — [`Memo::get_or_load`] runs the loader at most
//!   once per resident key: a second caller of a key whose loader is still
//!   running waits for that result instead of computing it again;
//! * **LRU** — past its capacity the least-recently-used entry is evicted;
//! * **counters** — hits, misses and evictions ([`MemoStats`]). A request
//!   is a miss exactly when it inserts its key, so without evictions the
//!   counters depend only on the set of requests, never on how threads
//!   interleave.
//!
//! The map lock is held only to look up, insert or evict; loaders run with
//! it released, so a loader may load *other* keys of the same memo. A
//! loader must not request its own key (or form a cycle of keys with other
//! in-flight loaders): that waits on itself.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Cumulative counters since construction or the last
/// [`Memo::reset_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Requests served by a resident (or in-flight) entry.
    pub hits: u64,
    /// Requests that inserted their key and ran its loader.
    pub misses: u64,
    /// Entries dropped to stay under the capacity.
    pub evictions: u64,
}

struct Slot<V> {
    value: Arc<OnceLock<V>>,
    last_use: u64,
}

struct State<K, V> {
    slots: HashMap<K, Slot<V>>,
    clock: u64,
    stats: MemoStats,
}

/// A keyed LRU memo (see the module docs).
pub struct Memo<K, V> {
    capacity: usize,
    state: Mutex<State<K, V>>,
}

impl<K: Eq + Hash + Clone, V: Clone> Memo<K, V> {
    /// An empty memo holding at most `capacity` entries (at least one).
    pub fn new(capacity: usize) -> Self {
        let state = State { slots: HashMap::new(), clock: 0, stats: MemoStats::default() };
        Memo { capacity: capacity.max(1), state: Mutex::new(state) }
    }

    /// [`Memo::new`] with the capacity read from the environment variable
    /// `var` when it parses as an integer, else `default`.
    pub fn from_env(var: &str, default: usize) -> Self {
        Memo::new(std::env::var(var).ok().and_then(|v| v.parse().ok()).unwrap_or(default))
    }

    fn lock(&self) -> MutexGuard<'_, State<K, V>> {
        self.state.lock().expect("memo lock poisoned by a panic under the lock")
    }

    /// The value for `key`, running `load` to produce it on a miss. The
    /// lock is released while `load` runs; concurrent callers of the same
    /// key wait for this one result.
    pub fn get_or_load(&self, key: K, load: impl FnOnce() -> V) -> V {
        let value = {
            let mut guard = self.lock();
            let state = &mut *guard;
            state.clock += 1;
            if let Some(slot) = state.slots.get_mut(&key) {
                slot.last_use = state.clock;
                state.stats.hits += 1;
                Arc::clone(&slot.value)
            } else {
                state.stats.misses += 1;
                if state.slots.len() >= self.capacity {
                    let lru = state.slots.iter().min_by_key(|(_, slot)| slot.last_use);
                    if let Some(victim) = lru.map(|(k, _)| k.clone()) {
                        state.slots.remove(&victim);
                        state.stats.evictions += 1;
                    }
                }
                let value = Arc::new(OnceLock::new());
                state.slots.insert(key, Slot { value: Arc::clone(&value), last_use: state.clock });
                value
            }
        };
        value.get_or_init(load).clone()
    }

    /// Cumulative counters.
    pub fn stats(&self) -> MemoStats {
        self.lock().stats
    }

    /// Zeroes the counters (entries stay).
    pub fn reset_stats(&self) {
        self.lock().stats = MemoStats::default();
    }

    /// Drops every entry (counters stay), so the next run is cold.
    pub fn clear(&self) {
        self.lock().slots.clear();
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.lock().slots.len()
    }

    /// Whether no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;
    use std::time::Duration;

    fn stats(hits: u64, misses: u64, evictions: u64) -> MemoStats {
        MemoStats { hits, misses, evictions }
    }

    #[test]
    fn concurrent_misses_on_one_key_load_it_once() {
        let memo: Memo<u32, u64> = Memo::new(4);
        let loads = AtomicUsize::new(0);
        let barrier = Barrier::new(8);
        let values: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        memo.get_or_load(7, || {
                            loads.fetch_add(1, Ordering::SeqCst);
                            std::thread::sleep(Duration::from_millis(50));
                            49
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("loader thread")).collect()
        });
        assert_eq!(values, vec![49; 8]);
        assert_eq!(loads.load(Ordering::SeqCst), 1, "the loader must run once");
        assert_eq!(memo.stats(), stats(7, 1, 0));
    }

    #[test]
    fn a_loader_may_load_another_key() {
        let memo: Memo<u32, u32> = Memo::new(4);
        let outer = memo.get_or_load(1, || memo.get_or_load(2, || 20) + 1);
        assert_eq!(outer, 21);
        assert_eq!(memo.get_or_load(2, || unreachable!("resident")), 20);
        assert_eq!(memo.stats(), stats(1, 2, 0));
    }

    #[test]
    fn the_least_recently_used_entry_is_evicted() {
        let memo: Memo<u32, u32> = Memo::new(2);
        memo.get_or_load(0, || 0);
        memo.get_or_load(1, || 1);
        // Touch 0 so 1 is the victim when 2 arrives.
        memo.get_or_load(0, || unreachable!("resident"));
        memo.get_or_load(2, || 2);
        assert_eq!(memo.len(), 2);
        assert_eq!(memo.stats(), stats(1, 3, 1));
        memo.get_or_load(0, || unreachable!("0 survived the eviction"));
        assert_eq!(memo.get_or_load(1, || 10), 10, "1 was evicted and reloads");
        assert_eq!(memo.stats(), stats(2, 4, 2));
    }

    #[test]
    fn clear_keeps_counters_and_reset_stats_keeps_entries() {
        let memo: Memo<u32, u32> = Memo::new(4);
        memo.get_or_load(0, || 0);
        memo.get_or_load(1, || 1);
        memo.reset_stats();
        assert_eq!(memo.stats(), MemoStats::default());
        assert_eq!(memo.len(), 2);
        memo.get_or_load(1, || unreachable!("entries survive reset_stats"));
        memo.clear();
        assert!(memo.is_empty());
        assert_eq!(memo.stats(), stats(1, 0, 0));
        assert_eq!(Memo::<u32, u32>::new(0).get_or_load(3, || 3), 3, "capacity clamps to 1");
    }
}
