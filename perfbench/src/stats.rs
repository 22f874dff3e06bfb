//! Small statistics and process helpers.

use dap_core::DapOutput;

/// Median of `values` (mean of the middle pair for an even count); `0`
/// for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile (`q` in `[0, 1]`); `0` for an empty slice.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Prints a one-line summary of unit wall times to standard error.
pub fn log_units(label: &str, walls_s: &[f64]) {
    let ms = |q: f64| percentile(walls_s, q) * 1e3;
    eprintln!(
        "{label}: {} untraced units, ms p10 {:.1} p25 {:.1} p50 {:.1} max {:.1}",
        walls_s.len(),
        ms(0.1),
        ms(0.25),
        ms(0.5),
        ms(1.0)
    );
}

/// Arithmetic mean; `0` for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Returns the allocator's free heap pages to the kernel, so a unit's
/// peak resident set does not depend on how much memory earlier units
/// left cached in the allocator. A no-op off glibc.
pub fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` takes a byte count, touches only
        // allocator-internal state under the allocator's own locks, and
        // is safe to call at any time from any thread.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Resets the process's peak resident set to its current size (Linux
/// `clear_refs` value 5), so the next [`peak_rss_mb`] covers only what
/// runs after this call. Returns whether the kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Every float of a finalize result, as bit patterns — two results are
/// bit-identical exactly when these vectors are equal.
pub fn output_bits(outputs: &[DapOutput]) -> Vec<u64> {
    let mut bits = Vec::new();
    for o in outputs {
        bits.extend([o.mean, o.gamma, o.min_variance].map(f64::to_bits));
        bits.push(o.side as u64);
        for g in &o.groups {
            bits.extend([g.eps_t, g.mean_t, g.m_hat, g.n_hat, g.weight].map(f64::to_bits));
            bits.push(g.n_reports as u64);
        }
    }
    bits
}

/// Mean over the three DAP schemes of the squared error against `truth`.
pub fn scheme_sq_err(outputs: &[DapOutput], truth: f64) -> f64 {
    mean(
        &outputs
            .iter()
            .map(|o| (o.mean - truth) * (o.mean - truth))
            .collect::<Vec<_>>(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().expect("linux procfs") > 0.0);
    }
}
