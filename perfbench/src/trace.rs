//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its name, start, end, parent span and the run id. Spans
//! nest per thread: the innermost span open on the calling thread is the
//! parent. While the tracer is disabled, [`Tracer::span`] costs one atomic
//! load and records nothing, so the same code paths serve traced and
//! untraced units. Spans are kept in memory and written out once, when the
//! run ends ([`Tracer::write_jsonl`]).
//!
//! A layer's self time is its spans' durations minus the time their child
//! spans cover ([`Tracer::layer_self_ns`]).

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within the run.
    pub id: u32,
    /// The span open on the same thread when this one opened.
    pub parent: Option<u32>,
    /// Layer name, e.g. `session.ingest`.
    pub name: &'static str,
    /// Open time.
    pub start_ns: u64,
    /// Close time.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

thread_local! {
    /// Ids of the spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// The span recorder of one run.
#[derive(Debug)]
pub struct Tracer {
    enabled: AtomicBool,
    epoch: Instant,
    run_id: u64,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

/// Closes its span on drop.
#[must_use = "a span closes when its guard drops"]
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    open: Option<(u32, Option<u32>, &'static str, u64)>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some((id, parent, name, start_ns)) = self.open.take() {
            let end_ns = self.tracer.now_ns();
            OPEN.with(|s| {
                let mut s = s.borrow_mut();
                if let Some(pos) = s.iter().rposition(|&open| open == id) {
                    s.truncate(pos);
                }
            });
            // Never panic in drop: a poisoned store just loses the span.
            if let Ok(mut spans) = self.tracer.spans.lock() {
                spans.push(Span {
                    id,
                    parent,
                    name,
                    start_ns,
                    end_ns,
                });
            }
        }
    }
}

impl Tracer {
    /// A disabled tracer for run `run_id`.
    pub fn new(run_id: u64) -> Tracer {
        Tracer {
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
            run_id,
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Turns recording on or off for spans opened from now on.
    pub fn set_enabled(&self, on: bool) {
        // Relaxed: the flag publishes no other data.
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether spans opened now are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` under the innermost span open on this
    /// thread.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.enabled() {
            return SpanGuard {
                tracer: self,
                open: None,
            };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied();
            s.push(id);
            parent
        });
        SpanGuard {
            tracer: self,
            open: Some((id, parent, name, self.now_ns())),
        }
    }

    /// Every closed span, in close order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Self time of every span: its duration minus the time its children
    /// cover (children of one span nest on one thread, so they never
    /// overlap).
    fn self_ns(spans: &[Span]) -> HashMap<u32, u64> {
        let mut child_ns: HashMap<u32, u64> = HashMap::new();
        for s in spans {
            if let Some(p) = s.parent {
                *child_ns.entry(p).or_default() += s.dur_ns();
            }
        }
        spans
            .iter()
            .map(|s| {
                (
                    s.id,
                    s.dur_ns()
                        .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0)),
                )
            })
            .collect()
    }

    /// Per layer name: `(spans, total ns, self ns)`.
    pub fn layer_self_ns(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let spans = self.spans();
        let self_ns = Self::self_ns(&spans);
        let mut table: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for s in &spans {
            let e = table.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_ns();
            e.2 += self_ns[&s.id];
        }
        table
    }

    /// For each span named `root`: its duration and the self time of its
    /// descendants (the part of the root the layer spans account for).
    pub fn unit_breakdown(&self, root: &str) -> Vec<(u64, u64)> {
        let spans = self.spans();
        let self_ns = Self::self_ns(&spans);
        let parent: HashMap<u32, Option<u32>> = spans.iter().map(|s| (s.id, s.parent)).collect();
        let roots: HashSet<u32> = spans
            .iter()
            .filter(|s| s.name == root)
            .map(|s| s.id)
            .collect();
        let mut covered: HashMap<u32, u64> = HashMap::new();
        for s in &spans {
            // Walk up to the nearest enclosing root span.
            let mut at = s.parent;
            while let Some(p) = at {
                if roots.contains(&p) {
                    *covered.entry(p).or_default() += self_ns[&s.id];
                    break;
                }
                at = parent.get(&p).copied().flatten();
            }
        }
        spans
            .iter()
            .filter(|s| s.name == root)
            .map(|s| (s.dur_ns(), covered.get(&s.id).copied().unwrap_or(0)))
            .collect()
    }

    /// Writes every span as one JSON object per line, followed by the
    /// per-layer self-time table.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                w,
                "{{\"run\": {}, \"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                self.run_id,
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        for (name, (count, total, self_ns)) in self.layer_self_ns() {
            writeln!(
                w,
                "{{\"run\": {}, \"layer\": \"{name}\", \"spans\": {count}, \"total_ns\": {total}, \"self_ns\": {self_ns}}}",
                self.run_id
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(1);
        drop(t.span("x"));
        assert!(t.spans().is_empty());
    }

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new(7);
        t.set_enabled(true);
        {
            let _root = t.span("unit");
            spin(200_000);
            {
                let _a = t.span("a");
                spin(300_000);
                let _b = t.span("b");
                spin(100_000);
            }
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).expect("span").clone();
        assert_eq!(by_name("b").parent, Some(by_name("a").id));
        assert_eq!(by_name("a").parent, Some(by_name("unit").id));
        let table = t.layer_self_ns();
        let unit = by_name("unit").dur_ns();
        let sum: u64 = table.values().map(|v| v.2).sum();
        assert_eq!(sum, unit, "self times partition the root");
        assert!(table["a"].2 < table["a"].1);
        let breakdown = t.unit_breakdown("unit");
        assert_eq!(breakdown.len(), 1);
        assert_eq!(breakdown[0].1, table["a"].2 + table["b"].2);
    }
}
