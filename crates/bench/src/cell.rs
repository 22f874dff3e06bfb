//! The declarative cell model: every figure/table/ablation of the paper's
//! evaluation is a pure function that *enumerates* [`Cell`] values.
//!
//! A cell is one executable experiment coordinate — typed parameters
//! (dataset, ε, γ, poison range, scheme set, mechanism, …) plus the
//! experiment/panel it renders into. Its RNG stream id is derived from the
//! coordinate alone ([`Cell::stream`]), never from enumeration or
//! execution order, which is what makes sharded execution exact: any
//! subset of the cell list computes bit-identical values to a full run.
//!
//! The layers around this module:
//! * [`crate::engine`] executes any cell list over
//!   [`dap_core::parallel_map`] and folds per-trial outputs into typed
//!   [`crate::engine::CellResult`] records;
//! * [`crate::results`] serializes result sets to a stable JSON schema and
//!   merges shards;
//! * each experiment module (`fig4` … `table1`, `ablations`) contributes
//!   its enumeration (`cells`) and its stdout renderer (`render`).

use crate::common::{ExpOptions, PoiRange};
use dap_attack::{
    Anchor, Attack, BetaShapedAttack, EvasionAttack, GaussianAttack, InputManipulationAttack,
    NoAttack, PointAttack, UniformAttack,
};
use dap_core::{Scheme, Weighting};
use dap_datasets::Dataset;
use dap_estimation::rng::Fnv;

/// Identifier of one paper artifact (subcommand of `experiments`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentId {
    Fig4,
    Table1,
    Fig5,
    Fig6,
    Fig7,
    Fig8,
    Fig9,
    Fig10,
    AblationWeights,
    AblationSplit,
    AblationMechanism,
}

impl ExperimentId {
    /// Every experiment, in `experiments all` execution order.
    pub const ALL: [ExperimentId; 11] = [
        ExperimentId::Fig4,
        ExperimentId::Table1,
        ExperimentId::Fig5,
        ExperimentId::Fig6,
        ExperimentId::Fig7,
        ExperimentId::Fig8,
        ExperimentId::Fig9,
        ExperimentId::Fig10,
        ExperimentId::AblationWeights,
        ExperimentId::AblationSplit,
        ExperimentId::AblationMechanism,
    ];

    /// The subcommand name.
    pub fn name(self) -> &'static str {
        match self {
            ExperimentId::Fig4 => "fig4",
            ExperimentId::Table1 => "table1",
            ExperimentId::Fig5 => "fig5",
            ExperimentId::Fig6 => "fig6",
            ExperimentId::Fig7 => "fig7",
            ExperimentId::Fig8 => "fig8",
            ExperimentId::Fig9 => "fig9",
            ExperimentId::Fig10 => "fig10",
            ExperimentId::AblationWeights => "ablation-weights",
            ExperimentId::AblationSplit => "ablation-split",
            ExperimentId::AblationMechanism => "ablation-mechanism",
        }
    }

    /// Parses a subcommand name.
    pub fn from_name(name: &str) -> Option<ExperimentId> {
        ExperimentId::ALL.into_iter().find(|e| e.name() == name)
    }

    /// Enumerates this experiment's cells (the spec layer).
    pub fn cells(self, opts: &ExpOptions) -> Vec<Cell> {
        match self {
            ExperimentId::Fig4 => crate::fig4::cells(opts),
            ExperimentId::Table1 => crate::table1::cells(opts),
            ExperimentId::Fig5 => crate::fig5::cells(opts),
            ExperimentId::Fig6 => crate::fig6::cells(opts),
            ExperimentId::Fig7 => crate::fig7::cells(opts),
            ExperimentId::Fig8 => crate::fig8::cells(opts),
            ExperimentId::Fig9 => crate::fig9::cells(opts),
            ExperimentId::Fig10 => crate::fig10::cells(opts),
            ExperimentId::AblationWeights => crate::ablations::weights_cells(opts),
            ExperimentId::AblationSplit => crate::ablations::split_cells(opts),
            ExperimentId::AblationMechanism => crate::ablations::mechanism_cells(opts),
        }
    }

    /// Renders this experiment's stdout tables from a result map.
    pub fn render(self, opts: &ExpOptions, r: &crate::engine::ResultMap) -> String {
        match self {
            ExperimentId::Fig4 => crate::fig4::render(opts, r),
            ExperimentId::Table1 => crate::table1::render(opts, r),
            ExperimentId::Fig5 => crate::fig5::render(opts, r),
            ExperimentId::Fig6 => crate::fig6::render(opts, r),
            ExperimentId::Fig7 => crate::fig7::render(opts, r),
            ExperimentId::Fig8 => crate::fig8::render(opts, r),
            ExperimentId::Fig9 => crate::fig9::render(opts, r),
            ExperimentId::Fig10 => crate::fig10::render(opts, r),
            ExperimentId::AblationWeights => crate::ablations::weights_render(opts, r),
            ExperimentId::AblationSplit => crate::ablations::split_render(opts, r),
            ExperimentId::AblationMechanism => crate::ablations::mechanism_render(opts, r),
        }
    }
}

/// Poison-value distribution over a [`PoiRange`] (Fig. 7c, d).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoiShape {
    Uniform,
    Gaussian,
    Beta16,
    Beta61,
}

impl PoiShape {
    /// Fig. 7's column order.
    pub const ALL: [PoiShape; 4] =
        [PoiShape::Uniform, PoiShape::Gaussian, PoiShape::Beta16, PoiShape::Beta61];

    /// The paper's label.
    pub fn label(self) -> &'static str {
        match self {
            PoiShape::Uniform => "Uniform",
            PoiShape::Gaussian => "Gaussian",
            PoiShape::Beta16 => "Beta(1,6)",
            PoiShape::Beta61 => "Beta(6,1)",
        }
    }
}

/// Typed attack coordinate — resolves to a `dyn Attack` at execution time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttackSpec {
    /// No coalition (false-positive panels).
    None,
    /// Uniform poison over one of the paper's four ranges.
    Poi(PoiRange),
    /// Shaped poison (Fig. 7c, d) over a range.
    Shaped(PoiShape, PoiRange),
    /// Input-manipulation attack with target `g`.
    Ima { g: f64 },
    /// Evasion attack: fraction `a` of the coalition reports decoys at
    /// −C/2, the rest poison `[C/2, C]` (Fig. 10).
    Evasion { a: f64 },
    /// Point attack at the top of the output domain
    /// (ablation-mechanism — the strongest attack both PM and Duchi admit).
    PointTop,
    /// The Square-Wave poison `Poi[1 + b/2, 1 + b]` (Fig. 8).
    SwTop,
}

impl AttackSpec {
    /// Builds the attack object.
    pub fn build(self) -> Box<dyn Attack> {
        match self {
            AttackSpec::None => Box::new(NoAttack),
            AttackSpec::Poi(range) => Box::new(range.attack()),
            AttackSpec::Shaped(shape, range) => {
                let (a, b) = range.fractions();
                let lo = if a == 0.0 { Anchor::Abs(0.0) } else { Anchor::OfUpper(a) };
                let hi = Anchor::OfUpper(b);
                match shape {
                    PoiShape::Uniform => Box::new(UniformAttack::new(lo, hi)),
                    PoiShape::Gaussian => Box::new(GaussianAttack::new(lo, hi)),
                    PoiShape::Beta16 => Box::new(BetaShapedAttack::new(1.0, 6.0, lo, hi)),
                    PoiShape::Beta61 => Box::new(BetaShapedAttack::new(6.0, 1.0, lo, hi)),
                }
            }
            AttackSpec::Ima { g } => Box::new(InputManipulationAttack { g }),
            AttackSpec::Evasion { a } => Box::new(EvasionAttack::new(
                a,
                Anchor::OfLower(0.5),
                UniformAttack::of_upper(0.5, 1.0),
            )),
            AttackSpec::PointTop => Box::new(PointAttack { value: Anchor::OfUpper(1.0) }),
            AttackSpec::SwTop => Box::new(UniformAttack::new(
                Anchor::AboveInputMax(0.5),
                Anchor::AboveInputMax(1.0),
            )),
        }
    }

    /// A stable word encoding of the attack coordinate —
    /// `[variant, param, param]` — used by the report cache both as part of
    /// the entry key and to derive the poison-generation RNG stream.
    /// Distinct specs map to distinct words; float parameters contribute
    /// their exact bit patterns.
    pub fn key_words(self) -> [u64; 3] {
        match self {
            AttackSpec::None => [0, 0, 0],
            AttackSpec::Poi(range) => [1, range as u64, 0],
            AttackSpec::Shaped(shape, range) => [2, shape as u64, range as u64],
            AttackSpec::Ima { g } => [3, g.to_bits(), 0],
            AttackSpec::Evasion { a } => [4, a.to_bits(), 0],
            AttackSpec::PointTop => [5, 0, 0],
            AttackSpec::SwTop => [6, 0, 0],
        }
    }

    /// Human/JSON label.
    pub fn label(self) -> String {
        match self {
            AttackSpec::None => "none".into(),
            AttackSpec::Poi(range) => format!("Poi{}", range.label()),
            AttackSpec::Shaped(shape, range) => format!("{}{}", shape.label(), range.label()),
            AttackSpec::Ima { g } => format!("IMA(g={g})"),
            AttackSpec::Evasion { a } => format!("Evasion(a={a})"),
            AttackSpec::PointTop => "Point(DR)".into(),
            AttackSpec::SwTop => "Poi[1+b/2,1+b]".into(),
        }
    }

    fn feed(self, h: &mut Fnv) {
        match self {
            AttackSpec::None => h.word(0),
            AttackSpec::Poi(range) => {
                h.word(1);
                h.word(range as u64);
            }
            AttackSpec::Shaped(shape, range) => {
                h.word(2);
                h.word(shape as u64);
                h.word(range as u64);
            }
            AttackSpec::Ima { g } => {
                h.word(3);
                h.word(g.to_bits());
            }
            AttackSpec::Evasion { a } => {
                h.word(4);
                h.word(a.to_bits());
            }
            AttackSpec::PointTop => h.word(5),
            AttackSpec::SwTop => h.word(6),
        }
    }
}

/// The underlying LDP mechanism of a protocol cell (§V-D generality).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MechKind {
    Pm,
    Duchi,
}

impl MechKind {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            MechKind::Pm => "PM",
            MechKind::Duchi => "Duchi",
        }
    }
}

/// Which reconstruction schemes a protocol cell evaluates (all three on one
/// shared execution, or a single one).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemeSet {
    All,
    One(Scheme),
}

impl SchemeSet {
    /// The concrete scheme list.
    pub fn schemes(self) -> Vec<Scheme> {
        match self {
            SchemeSet::All => Scheme::ALL.to_vec(),
            SchemeSet::One(s) => vec![s],
        }
    }
}

/// The poisoned category sets of Fig. 9(c)(d).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CatPoison {
    /// Category 10 only (panel c).
    Single,
    /// Categories 10–12 (panel d).
    Triple,
}

impl CatPoison {
    /// The poisoned category indices.
    pub fn groups(self) -> &'static [usize] {
        match self {
            CatPoison::Single => &[10],
            CatPoison::Triple => &[10, 11, 12],
        }
    }
}

/// How per-trial outputs fold into the cell's final values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fold {
    /// Single deterministic-ish rep; its outputs are the values.
    Once,
    /// Mean of each variant over trials.
    Mean,
    /// `|mean over trials − target|` per variant.
    AbsErrOfMean(f64),
    /// Mean squared error against the per-trial truth, per variant.
    Mse,
}

/// The typed computation of one cell. Every variant corresponds to one
/// simulation shape that used to live inline in a figure driver; the
/// engine ([`crate::engine`]) owns the execution code.
#[derive(Debug, Clone, PartialEq)]
pub enum CellKind {
    /// Fig. 4: dataset histogram + true mean. Values: `[mean, freq × buckets]`.
    DatasetHist { dataset: Dataset, buckets: usize },
    /// Table I: `[Var(x̂|L), Var(x̂|R)]` of one (range, ε) coordinate.
    ProbeVariance { dataset: Dataset, range: PoiRange, gamma: f64, eps: f64 },
    /// Fig. 5: EMF's Byzantine-proportion estimate γ̂ from one batch.
    /// Values: `[|mean γ̂ − γ|]` when `abs_err`, else `[mean γ̂]`.
    GammaHat { dataset: Dataset, gamma: f64, eps: f64, attack: AttackSpec, abs_err: bool },
    /// PM-protocol mean-estimation MSEs: the scheme set on **one shared
    /// protocol execution**, optionally plus Ostrich and Trimming on one
    /// shared full-budget batch of the same honest values (common random
    /// numbers). Values: per-scheme MSEs `[, Ostrich, Trimming]`.
    PmMse {
        dataset: Dataset,
        gamma: f64,
        eps: f64,
        attack: AttackSpec,
        schemes: SchemeSet,
        defenses: bool,
        weighting: Weighting,
        mechanism: MechKind,
    },
    /// Undefended single-batch mean under a mechanism (ablation reference
    /// rows). Values: `[MSE]`.
    RawMean { dataset: Dataset, gamma: f64, eps: f64, attack: AttackSpec, mechanism: MechKind },
    /// The k-means-based defense on one batch. Values: `[MSE]`.
    KMeans {
        dataset: Dataset,
        gamma: f64,
        eps: f64,
        attack: AttackSpec,
        beta: f64,
        subsets: usize,
    },
    /// EMF-based IMA integration (Fig. 9b). Values: `[MSE]`.
    ImaEmf { dataset: Dataset, gamma: f64, eps: f64, g: f64 },
    /// Fig. 8(a): Wasserstein distances of the reconstructed honest
    /// distribution. Values: `[EMF, EMF*, CEMF*, Ostrich]`.
    SwWasserstein { dataset: Dataset, gamma: f64, eps: f64 },
    /// Fig. 8(b): mean `|γ̂ − γ|` under SW. Values: `[err]`.
    SwGammaErr { dataset: Dataset, gamma: f64, eps: f64 },
    /// Fig. 8(c)(d): SW-DAP scheme MSEs on one shared protocol execution.
    SwMse { dataset: Dataset, gamma: f64, eps: f64 },
    /// Fig. 8(c)(d): Ostrich/Trimming on one shared SW batch. Values:
    /// `[Ostrich, Trimming]`.
    SwDefense { dataset: Dataset, gamma: f64, eps: f64 },
    /// Fig. 9(c)(d): categorical DAP frequency-estimation MSE on COVID-19.
    CatDap { scheme: Scheme, gamma: f64, eps: f64, poison: CatPoison },
    /// Fig. 9(c)(d): the undefended categorical baseline.
    CatOstrich { gamma: f64, eps: f64, poison: CatPoison },
    /// Budget-split ablation of the §IV baseline protocol. Values: `[MSE]`.
    BaselineSplit { dataset: Dataset, gamma: f64, eps: f64, alpha: f64, probing: bool },
}

impl CellKind {
    /// Stable kind tag for stream derivation and JSON coordinates.
    pub fn kind_name(&self) -> &'static str {
        match self {
            CellKind::DatasetHist { .. } => "dataset-hist",
            CellKind::ProbeVariance { .. } => "probe-variance",
            CellKind::GammaHat { .. } => "gamma-hat",
            CellKind::PmMse { .. } => "pm-mse",
            CellKind::RawMean { .. } => "raw-mean",
            CellKind::KMeans { .. } => "kmeans",
            CellKind::ImaEmf { .. } => "ima-emf",
            CellKind::SwWasserstein { .. } => "sw-wasserstein",
            CellKind::SwGammaErr { .. } => "sw-gamma-err",
            CellKind::SwMse { .. } => "sw-mse",
            CellKind::SwDefense { .. } => "sw-defense",
            CellKind::CatDap { .. } => "cat-dap",
            CellKind::CatOstrich { .. } => "cat-ostrich",
            CellKind::BaselineSplit { .. } => "baseline-split",
        }
    }

    /// Ordered labels of the values this cell produces.
    pub fn variants(&self) -> Vec<String> {
        fn scheme_labels(set: SchemeSet) -> Vec<String> {
            set.schemes().iter().map(|s| s.label().to_string()).collect()
        }
        match self {
            CellKind::DatasetHist { buckets, .. } => {
                let mut v = vec!["mean".to_string()];
                v.extend((0..*buckets).map(|b| format!("freq{b}")));
                v
            }
            CellKind::ProbeVariance { .. } => vec!["var_left".into(), "var_right".into()],
            CellKind::GammaHat { abs_err, .. } => {
                vec![if *abs_err { "gamma_err".into() } else { "gamma_hat".into() }]
            }
            CellKind::PmMse { schemes, defenses, .. } => {
                let mut v = scheme_labels(*schemes);
                if *defenses {
                    v.push("Ostrich".into());
                    v.push("Trimming".into());
                }
                v
            }
            CellKind::RawMean { mechanism, .. } => vec![format!("{}+Ostrich", mechanism.label())],
            CellKind::KMeans { beta, .. } => vec![format!("K-means(b={beta})")],
            CellKind::ImaEmf { .. } => vec!["EMF-based".into()],
            CellKind::SwWasserstein { .. } => {
                vec!["EMF".into(), "EMF*".into(), "CEMF*".into(), "Ostrich".into()]
            }
            CellKind::SwGammaErr { .. } => vec!["gamma_err".into()],
            CellKind::SwMse { .. } => scheme_labels(SchemeSet::All),
            CellKind::SwDefense { .. } => vec!["Ostrich".into(), "Trimming".into()],
            CellKind::CatDap { scheme, .. } => vec![scheme.label().to_string()],
            CellKind::CatOstrich { .. } => vec!["Ostrich".into()],
            CellKind::BaselineSplit { probing, .. } => {
                vec![if *probing { "probing-aware".into() } else { "naive".into() }]
            }
        }
    }

    /// How many independent reps the engine runs for this cell.
    pub fn reps(&self, opts: &ExpOptions) -> usize {
        match self {
            // Single-draw artifacts (a histogram sketch, one probe table
            // entry) — matching the historical drivers, which did not
            // average these over trials.
            CellKind::DatasetHist { .. } | CellKind::ProbeVariance { .. } => 1,
            _ => opts.trials.max(1),
        }
    }

    /// The fold of per-rep outputs into final values.
    pub fn fold(&self) -> Fold {
        match self {
            CellKind::DatasetHist { .. } | CellKind::ProbeVariance { .. } => Fold::Once,
            CellKind::GammaHat { gamma, abs_err, .. } => {
                if *abs_err {
                    Fold::AbsErrOfMean(*gamma)
                } else {
                    Fold::Mean
                }
            }
            CellKind::SwWasserstein { .. }
            | CellKind::SwGammaErr { .. }
            | CellKind::CatDap { .. }
            | CellKind::CatOstrich { .. } => Fold::Mean,
            CellKind::PmMse { .. }
            | CellKind::RawMean { .. }
            | CellKind::KMeans { .. }
            | CellKind::ImaEmf { .. }
            | CellKind::SwMse { .. }
            | CellKind::SwDefense { .. }
            | CellKind::BaselineSplit { .. } => Fold::Mse,
        }
    }

    /// Flat `(key, value)` coordinates for the JSON record.
    pub fn coords(&self) -> Vec<(&'static str, String)> {
        let mut c: Vec<(&'static str, String)> = vec![("kind", self.kind_name().to_string())];
        match self {
            CellKind::DatasetHist { dataset, buckets } => {
                c.push(("dataset", dataset.label().into()));
                c.push(("buckets", buckets.to_string()));
            }
            CellKind::ProbeVariance { dataset, range, gamma, eps } => {
                c.push(("dataset", dataset.label().into()));
                c.push(("range", range.label().into()));
                c.push(("gamma", gamma.to_string()));
                c.push(("eps", eps.to_string()));
            }
            CellKind::GammaHat { dataset, gamma, eps, attack, abs_err } => {
                c.push(("dataset", dataset.label().into()));
                c.push(("gamma", gamma.to_string()));
                c.push(("eps", eps.to_string()));
                c.push(("attack", attack.label()));
                c.push(("abs_err", abs_err.to_string()));
            }
            CellKind::PmMse { dataset, gamma, eps, attack, schemes, defenses, weighting, mechanism } => {
                c.push(("dataset", dataset.label().into()));
                c.push(("gamma", gamma.to_string()));
                c.push(("eps", eps.to_string()));
                c.push(("attack", attack.label()));
                c.push((
                    "schemes",
                    match schemes {
                        SchemeSet::All => "all".into(),
                        SchemeSet::One(s) => s.label().to_string(),
                    },
                ));
                c.push(("defenses", defenses.to_string()));
                c.push(("weighting", format!("{weighting:?}")));
                c.push(("mechanism", mechanism.label().into()));
            }
            CellKind::RawMean { dataset, gamma, eps, attack, mechanism } => {
                c.push(("dataset", dataset.label().into()));
                c.push(("gamma", gamma.to_string()));
                c.push(("eps", eps.to_string()));
                c.push(("attack", attack.label()));
                c.push(("mechanism", mechanism.label().into()));
            }
            CellKind::KMeans { dataset, gamma, eps, attack, beta, subsets } => {
                c.push(("dataset", dataset.label().into()));
                c.push(("gamma", gamma.to_string()));
                c.push(("eps", eps.to_string()));
                c.push(("attack", attack.label()));
                c.push(("beta", beta.to_string()));
                c.push(("subsets", subsets.to_string()));
            }
            CellKind::ImaEmf { dataset, gamma, eps, g } => {
                c.push(("dataset", dataset.label().into()));
                c.push(("gamma", gamma.to_string()));
                c.push(("eps", eps.to_string()));
                c.push(("g", g.to_string()));
            }
            CellKind::SwWasserstein { dataset, gamma, eps }
            | CellKind::SwGammaErr { dataset, gamma, eps }
            | CellKind::SwMse { dataset, gamma, eps }
            | CellKind::SwDefense { dataset, gamma, eps } => {
                c.push(("dataset", dataset.label().into()));
                c.push(("gamma", gamma.to_string()));
                c.push(("eps", eps.to_string()));
            }
            CellKind::CatDap { scheme, gamma, eps, poison } => {
                c.push(("scheme", scheme.label().into()));
                c.push(("gamma", gamma.to_string()));
                c.push(("eps", eps.to_string()));
                c.push(("poison", format!("{:?}", poison.groups())));
            }
            CellKind::CatOstrich { gamma, eps, poison } => {
                c.push(("gamma", gamma.to_string()));
                c.push(("eps", eps.to_string()));
                c.push(("poison", format!("{:?}", poison.groups())));
            }
            CellKind::BaselineSplit { dataset, gamma, eps, alpha, probing } => {
                c.push(("dataset", dataset.label().into()));
                c.push(("gamma", gamma.to_string()));
                c.push(("eps", eps.to_string()));
                c.push(("alpha", alpha.to_string()));
                c.push(("probing", probing.to_string()));
            }
        }
        c
    }

    fn feed(&self, h: &mut Fnv) {
        fn feed_scheme_set(h: &mut Fnv, set: SchemeSet) {
            match set {
                SchemeSet::All => h.word(100),
                SchemeSet::One(s) => h.word(s as u64),
            }
        }
        match self {
            CellKind::DatasetHist { dataset, buckets } => {
                h.word(1);
                h.word(*dataset as u64);
                h.word(*buckets as u64);
            }
            CellKind::ProbeVariance { dataset, range, gamma, eps } => {
                h.word(2);
                h.word(*dataset as u64);
                h.word(*range as u64);
                h.word(gamma.to_bits());
                h.word(eps.to_bits());
            }
            CellKind::GammaHat { dataset, gamma, eps, attack, abs_err } => {
                h.word(3);
                h.word(*dataset as u64);
                h.word(gamma.to_bits());
                h.word(eps.to_bits());
                attack.feed(h);
                h.word(*abs_err as u64);
            }
            CellKind::PmMse { dataset, gamma, eps, attack, schemes, defenses, weighting, mechanism } => {
                h.word(4);
                h.word(*dataset as u64);
                h.word(gamma.to_bits());
                h.word(eps.to_bits());
                attack.feed(h);
                feed_scheme_set(h, *schemes);
                h.word(*defenses as u64);
                h.word(*weighting as u64);
                h.word(*mechanism as u64);
            }
            CellKind::RawMean { dataset, gamma, eps, attack, mechanism } => {
                h.word(5);
                h.word(*dataset as u64);
                h.word(gamma.to_bits());
                h.word(eps.to_bits());
                attack.feed(h);
                h.word(*mechanism as u64);
            }
            CellKind::KMeans { dataset, gamma, eps, attack, beta, subsets } => {
                h.word(6);
                h.word(*dataset as u64);
                h.word(gamma.to_bits());
                h.word(eps.to_bits());
                attack.feed(h);
                h.word(beta.to_bits());
                h.word(*subsets as u64);
            }
            CellKind::ImaEmf { dataset, gamma, eps, g } => {
                h.word(7);
                h.word(*dataset as u64);
                h.word(gamma.to_bits());
                h.word(eps.to_bits());
                h.word(g.to_bits());
            }
            CellKind::SwWasserstein { dataset, gamma, eps } => {
                h.word(8);
                h.word(*dataset as u64);
                h.word(gamma.to_bits());
                h.word(eps.to_bits());
            }
            CellKind::SwGammaErr { dataset, gamma, eps } => {
                h.word(9);
                h.word(*dataset as u64);
                h.word(gamma.to_bits());
                h.word(eps.to_bits());
            }
            CellKind::SwMse { dataset, gamma, eps } => {
                h.word(10);
                h.word(*dataset as u64);
                h.word(gamma.to_bits());
                h.word(eps.to_bits());
            }
            CellKind::SwDefense { dataset, gamma, eps } => {
                h.word(11);
                h.word(*dataset as u64);
                h.word(gamma.to_bits());
                h.word(eps.to_bits());
            }
            CellKind::CatDap { scheme, gamma, eps, poison } => {
                h.word(12);
                h.word(*scheme as u64);
                h.word(gamma.to_bits());
                h.word(eps.to_bits());
                h.word(*poison as u64);
            }
            CellKind::CatOstrich { gamma, eps, poison } => {
                h.word(13);
                h.word(gamma.to_bits());
                h.word(eps.to_bits());
                h.word(*poison as u64);
            }
            CellKind::BaselineSplit { dataset, gamma, eps, alpha, probing } => {
                h.word(14);
                h.word(*dataset as u64);
                h.word(gamma.to_bits());
                h.word(eps.to_bits());
                h.word(alpha.to_bits());
                h.word(*probing as u64);
            }
        }
    }
}

/// One experiment coordinate: where it renders (`experiment`, `panel`) and
/// what it computes (`kind`).
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    pub experiment: ExperimentId,
    /// Panel id within the experiment (`"a"` … or a composite like
    /// `"Taxi|[C/2,C]"`); rendering metadata, but also part of the cell
    /// coordinate fed into the stream id.
    pub panel: String,
    pub kind: CellKind,
}

impl Cell {
    /// Builds a cell.
    pub fn new(experiment: ExperimentId, panel: impl Into<String>, kind: CellKind) -> Cell {
        Cell { experiment, panel: panel.into(), kind }
    }

    /// The cell's RNG stream id — FNV-1a over the *coordinate* (experiment,
    /// panel, typed parameters). Independent of enumeration order, shard
    /// layout and thread count by construction.
    pub fn stream(&self) -> u64 {
        let mut h = Fnv::new();
        h.bytes(self.experiment.name().as_bytes());
        h.bytes(self.panel.as_bytes());
        self.kind.feed(&mut h);
        h.finish()
    }

    /// Ordered labels of this cell's values.
    pub fn variants(&self) -> Vec<String> {
        self.kind.variants()
    }

    /// Rep count under `opts`.
    pub fn reps(&self, opts: &ExpOptions) -> usize {
        self.kind.reps(opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_depend_on_every_coordinate() {
        let base = Cell::new(
            ExperimentId::Fig6,
            "p",
            CellKind::PmMse {
                dataset: Dataset::Taxi,
                gamma: 0.25,
                eps: 1.0,
                attack: AttackSpec::Poi(PoiRange::TopHalf),
                schemes: SchemeSet::All,
                defenses: true,
                weighting: Weighting::AlgorithmFive,
                mechanism: MechKind::Pm,
            },
        );
        let mut other = base.clone();
        other.panel = "q".into();
        assert_ne!(base.stream(), other.stream(), "panel must feed the stream");
        let eps_changed = Cell::new(
            ExperimentId::Fig6,
            "p",
            CellKind::PmMse {
                dataset: Dataset::Taxi,
                gamma: 0.25,
                eps: 2.0,
                attack: AttackSpec::Poi(PoiRange::TopHalf),
                schemes: SchemeSet::All,
                defenses: true,
                weighting: Weighting::AlgorithmFive,
                mechanism: MechKind::Pm,
            },
        );
        assert_ne!(base.stream(), eps_changed.stream());
    }

    #[test]
    fn stream_is_stable_across_calls() {
        let cell = Cell::new(
            ExperimentId::Table1,
            "",
            CellKind::ProbeVariance {
                dataset: Dataset::Taxi,
                range: PoiRange::Full,
                gamma: 0.25,
                eps: 0.5,
            },
        );
        assert_eq!(cell.stream(), cell.stream());
    }

    #[test]
    fn experiment_names_round_trip() {
        for e in ExperimentId::ALL {
            assert_eq!(ExperimentId::from_name(e.name()), Some(e));
        }
        assert_eq!(ExperimentId::from_name("fig99"), None);
    }

    #[test]
    fn variant_counts_match_kind_shape() {
        let all = CellKind::PmMse {
            dataset: Dataset::Taxi,
            gamma: 0.25,
            eps: 1.0,
            attack: AttackSpec::Poi(PoiRange::TopHalf),
            schemes: SchemeSet::All,
            defenses: true,
            weighting: Weighting::AlgorithmFive,
            mechanism: MechKind::Pm,
        };
        assert_eq!(all.variants().len(), Scheme::ALL.len() + 2);
        let hist = CellKind::DatasetHist { dataset: Dataset::Beta25, buckets: 20 };
        assert_eq!(hist.variants().len(), 21);
    }
}
