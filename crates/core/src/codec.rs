//! Shared exact-value codec: the one place f64s and strings become text.
//!
//! Two machine-readable surfaces serialize floating-point results: the
//! `dap-results/v1` JSON schema (`dap_bench::results`, behind
//! `experiments --out`) and the `dap-wire/v1` network protocol
//! ([`crate::net`]). Both must round-trip every f64 **bit for bit** — the
//! golden equivalence suites compare sharded/served runs to in-process
//! runs at the bit-pattern level — so the encoding lives here, once, and
//! both layers import it. A decimal printed for humans is advisory; the
//! `0x`-hex IEEE-754 bit pattern is authoritative.

use std::fmt::Write as _;

/// Largest integer an f64-backed JSON number represents exactly (2⁵³).
pub const MAX_EXACT_JSON_INT: u64 = 1 << 53;

/// Fixed-width u64 hex: `0x` + 16 digits (`{:#018x}`), the token format
/// shared by stream ids, digests and f64 bit patterns.
pub fn hex_u64(v: u64) -> String {
    let mut out = String::with_capacity(18);
    push_hex_u64(&mut out, v);
    out
}

/// The authoritative f64 encoding: its IEEE-754 bit pattern via
/// [`hex_u64`]. `parse_hex_f64` reconstructs the exact value, NaN payloads
/// and signed zeros included.
pub fn f64_to_hex(v: f64) -> String {
    hex_u64(v.to_bits())
}

/// Appends [`hex_u64`] to an existing buffer — the allocation-free form
/// for hot encoding loops (a million-report wire batch writes a million
/// of these).
pub fn push_hex_u64(out: &mut String, v: u64) {
    let _ = write!(out, "{v:#018x}");
}

/// Appends [`f64_to_hex`] to an existing buffer without allocating.
pub fn push_hex_f64(out: &mut String, v: f64) {
    push_hex_u64(out, v.to_bits());
}

/// Parses a `0x`-prefixed hex u64 (the inverse of [`hex_u64`]; leading
/// zeros optional).
pub fn parse_hex_u64(s: &str) -> Result<u64, String> {
    let digits = s.strip_prefix("0x").ok_or_else(|| format!("expected 0x-hex, got '{s}'"))?;
    u64::from_str_radix(digits, 16).map_err(|e| format!("bad hex '{s}': {e}"))
}

/// Parses an f64 from its [`f64_to_hex`] bit pattern.
pub fn parse_hex_f64(s: &str) -> Result<f64, String> {
    parse_hex_u64(s).map(f64::from_bits)
}

/// Shortest-roundtrip decimal for human consumers, with non-finite values
/// mapped to `null` (the hex bit pattern stays authoritative either way).
pub fn decimal(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// JSON-style string quoting (escapes quotes, backslashes and control
/// characters).
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

pub use dap_estimation::rng::Fnv;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_round_trips_awkward_values() {
        for v in [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            (0.1f64 + 0.2).powi(7),
            f64::MIN_POSITIVE,
        ] {
            let text = f64_to_hex(v);
            assert_eq!(text.len(), 18, "fixed width: {text}");
            let back = parse_hex_f64(&text).expect("own output parses");
            assert_eq!(back.to_bits(), v.to_bits(), "{text}");
        }
        assert!(parse_hex_u64("42").is_err(), "missing 0x prefix");
        assert!(parse_hex_u64("0xzz").is_err());
    }

    #[test]
    fn decimal_maps_non_finite_to_null() {
        assert_eq!(decimal(1.5), "1.5");
        assert_eq!(decimal(f64::NAN), "null");
        assert_eq!(decimal(f64::INFINITY), "null");
    }

    #[test]
    fn quoting_escapes_specials() {
        assert_eq!(quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(quote("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn fnv_separates_adjacent_encodings() {
        let digest = |f: &dyn Fn(&mut Fnv)| {
            let mut h = Fnv::new();
            f(&mut h);
            h.finish()
        };
        assert_ne!(
            digest(&|h| {
                h.bytes(b"ab");
                h.bytes(b"c");
            }),
            digest(&|h| {
                h.bytes(b"a");
                h.bytes(b"bc");
            }),
        );
        assert_ne!(digest(&|h| h.word(1)), digest(&|h| h.word(2)));
    }
}
