//! The mutation harness of the untrusted-input property suites
//! (`frame_mutations.rs` here, `results_mutations.rs` in `dap-bench`): one
//! seeded, structure-blind corruption of an encoded document, of the kinds
//! a faulty or hostile peer can produce.

use rand::rngs::StdRng;
use rand::Rng;

/// Counts a decoder must survive without sizing anything from them.
const INFLATED: [&str; 2] = ["1000000000000", "18446744073709551615"];

/// One mutation of `doc`: flip a byte, truncate it, inflate one run of
/// decimal digits (a count, a length, an index) to an absurd value, or
/// splice in a whitespace-separated token taken from `donor`. Returns the
/// mutated bytes, which need not be UTF-8, and what was done, for the
/// failure message.
pub fn mutate(doc: &str, donor: &str, rng: &mut StdRng) -> (Vec<u8>, String) {
    let mut bytes = doc.as_bytes().to_vec();
    match rng.gen_range(0..4u32) {
        0 if !bytes.is_empty() => {
            let at = rng.gen_range(0..bytes.len());
            let mask = rng.gen_range(1..=255u8);
            bytes[at] ^= mask;
            (bytes, format!("flip byte {at} ^ {mask:#04x}"))
        }
        1 => {
            let at = rng.gen_range(0..=bytes.len());
            bytes.truncate(at);
            (bytes, format!("truncate to {at} bytes"))
        }
        2 => {
            let runs = digit_runs(&bytes);
            if runs.is_empty() {
                return (bytes, "no count to inflate".into());
            }
            let (start, end) = runs[rng.gen_range(0..runs.len())];
            let value = INFLATED[rng.gen_range(0..INFLATED.len())];
            bytes.splice(start..end, value.bytes());
            (bytes, format!("inflate bytes {start}..{end} to {value}"))
        }
        _ => {
            let tokens: Vec<&str> = donor.split_whitespace().collect();
            if tokens.is_empty() {
                return (bytes, "no donor token".into());
            }
            let token = tokens[rng.gen_range(0..tokens.len())];
            // Splice at a token boundary (or the end), so the token lands
            // where a parser expects one.
            let mut cuts: Vec<usize> = (0..bytes.len())
                .filter(|&i| bytes[i].is_ascii_whitespace())
                .collect();
            cuts.push(bytes.len());
            let at = cuts[rng.gen_range(0..cuts.len())];
            let spliced = format!(" {token}");
            bytes.splice(at..at, spliced.bytes());
            (bytes, format!("splice '{token}' at byte {at}"))
        }
    }
}

/// Every maximal run of ASCII digits, as a byte range.
fn digit_runs(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut runs = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i].is_ascii_digit() {
            let start = i;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
            runs.push((start, i));
        } else {
            i += 1;
        }
    }
    runs
}
