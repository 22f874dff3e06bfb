//! Dataset generators for the DAP evaluation (Fig. 4 of the paper).
//!
//! Two synthetic distributions are exact re-creations of the paper's
//! (Beta(2,5), Beta(5,2)); the two real-world datasets are *behavioural
//! surrogates* generated from mixture models matching the published
//! histogram shapes — see `DESIGN.md` §3 for the substitution rationale:
//!
//! * **Taxi** — NYC January 2018 pick-up seconds-of-day (bimodal rush-hour
//!   peaks over a uniform base, integers in `[0, 86340]`),
//! * **Retirement** — SF employee compensation (left-concentrated truncated
//!   log-normal on `[10 000, 60 000]`),
//! * **COVID-19** — 15-bin categorical age-at-death frequencies for the
//!   frequency-estimation experiments (Fig. 9c, d).
//!
//! All numerical datasets can be emitted raw, normalized to `[-1, 1]` (the
//! PM domain) or to `[0, 1]` (the SW domain).

pub mod cache;
pub mod covid;
pub mod numeric;

pub use cache::{Domain, PopulationCache, SampledPopulation};
pub use covid::{covid_frequencies, sample_covid, COVID_GROUPS};
pub use numeric::Dataset;
