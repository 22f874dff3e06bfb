//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one benchmark workload and prints, as the last line of standard
//! output, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end metrics, or with `--trace 1` the per-layer
//! metrics). Exits 2 on a usage error and 1 when the run cannot complete.

use perfbench::{run, RunSpec, Scale, Workload};

fn parse(args: &[String]) -> Result<RunSpec, String> {
    let mut spec = RunSpec {
        workload: Workload::SweepPm,
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::full(),
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} is missing its value"))?;
        let bad = || format!("invalid value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload '{value}' (one of {})", names.join(", "))
                })?)
            }
            "--seed" => spec.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                spec.seconds = value.parse().map_err(|_| bad())?;
                if !(spec.seconds.is_finite() && spec.seconds > 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                spec.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    spec.workload = workload.ok_or("--workload is required")?;
    Ok(spec)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spec = match parse(&args) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    match run(&spec) {
        Ok(outcome) => println!("{}", outcome.json(spec.trace)),
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", spec.workload.name());
            std::process::exit(1);
        }
    }
}
