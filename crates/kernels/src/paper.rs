//! The numbers the paper reports, as data.
//!
//! Every experiment in `cme-bench` prints its measured values next to
//! these, and `EXPERIMENTS.md` records both. Values are percentages exactly as they
//! appear in the paper's tables and conclusions.

/// One row of Table 2 (8 KB direct-mapped, 32 B lines): miss ratios before
/// and after tiling.
#[derive(Debug, Clone, Copy)]
pub struct Table2Row {
    pub kernel: &'static str,
    pub size: i64,
    pub no_tiling_total: f64,
    pub no_tiling_repl: f64,
    pub tiling_total: f64,
    pub tiling_repl: f64,
}

/// Table 2 as printed in the paper.
pub const TABLE2: &[Table2Row] = &[
    Table2Row {
        kernel: "T2D",
        size: 2000,
        no_tiling_total: 63.3,
        no_tiling_repl: 36.4,
        tiling_total: 27.7,
        tiling_repl: 0.9,
    },
    Table2Row {
        kernel: "T3DJIK",
        size: 200,
        no_tiling_total: 63.4,
        no_tiling_repl: 36.7,
        tiling_total: 30.2,
        tiling_repl: 3.6,
    },
    Table2Row {
        kernel: "T3DIKJ",
        size: 200,
        no_tiling_total: 34.6,
        no_tiling_repl: 7.0,
        tiling_total: 27.9,
        tiling_repl: 0.3,
    },
    Table2Row {
        kernel: "JACOBI3D",
        size: 200,
        no_tiling_total: 25.6,
        no_tiling_repl: 7.2,
        tiling_total: 19.8,
        tiling_repl: 1.3,
    },
];

/// One row of Table 3: replacement miss ratios for the conflict-dominated
/// kernels — original, after padding, after padding + tiling.
#[derive(Debug, Clone, Copy)]
pub struct Table3Row {
    pub kernel: &'static str,
    /// Size the paper names in the row label (None = kernel default).
    pub size: Option<i64>,
    pub original: f64,
    pub padding: f64,
    pub padding_tiling: f64,
}

/// Table 3, 8 KB cache.
pub const TABLE3_8K: &[Table3Row] = &[
    Table3Row { kernel: "ADD", size: None, original: 60.2, padding: 59.8, padding_tiling: 0.5 },
    Table3Row { kernel: "BTRIX", size: None, original: 50.1, padding: 0.2, padding_tiling: 0.2 },
    Table3Row { kernel: "VPENTA1", size: None, original: 78.3, padding: 52.4, padding_tiling: 0.0 },
    Table3Row { kernel: "VPENTA2", size: None, original: 86.0, padding: 11.9, padding_tiling: 0.0 },
    Table3Row {
        kernel: "ADI",
        size: Some(1000),
        original: 26.2,
        padding: 12.3,
        padding_tiling: 4.1,
    },
    Table3Row {
        kernel: "ADI",
        size: Some(2000),
        original: 25.7,
        padding: 12.4,
        padding_tiling: 3.4,
    },
];

/// Table 3, 32 KB cache.
pub const TABLE3_32K: &[Table3Row] = &[
    Table3Row { kernel: "ADD", size: None, original: 60.2, padding: 59.8, padding_tiling: 0.0 },
    Table3Row { kernel: "BTRIX", size: None, original: 34.1, padding: 0.0, padding_tiling: 0.0 },
    Table3Row { kernel: "VPENTA1", size: None, original: 78.1, padding: 32.9, padding_tiling: 0.0 },
    Table3Row { kernel: "VPENTA2", size: None, original: 86.0, padding: 11.3, padding_tiling: 0.0 },
];

/// Table 4: percentage of kernels (excluding Table 3 kernels) whose
/// post-tiling replacement miss ratio falls below each threshold.
#[derive(Debug, Clone, Copy)]
pub struct Table4Row {
    pub cache_kb: i64,
    pub below_1pct: f64,
    pub below_2pct: f64,
    pub below_5pct: f64,
}

/// Table 4 as printed.
pub const TABLE4: &[Table4Row] = &[
    Table4Row { cache_kb: 8, below_1pct: 56.4, below_2pct: 79.5, below_5pct: 100.0 },
    Table4Row { cache_kb: 32, below_1pct: 90.2, below_2pct: 97.6, below_5pct: 100.0 },
];

/// Headline claims from §1 and §6.
pub mod headline {
    /// "a decrease of the miss ratio that can be as significant as a
    /// factor of 7 for the matrix multiply kernel" (§1).
    pub const MM_MISS_RATIO_FACTOR: f64 = 7.0;
    /// "reduce the replacement miss ratio of the 3D matrix transposition
    /// (N=100) from 36.7% to 0.6%" (§6).
    pub const T3DJIK_BEFORE: f64 = 36.7;
    pub const T3DJIK_AFTER: f64 = 0.6;
    /// "the replacement miss ratio of the Dpssb kernel from 55.5% to
    /// 1.25%" (§6).
    pub const DPSSB_BEFORE: f64 = 55.5;
    pub const DPSSB_AFTER: f64 = 1.25;
}

/// GA parameters of §3.3 — kept as named constants so the optimiser's
/// defaults provably match the paper.
pub mod ga_params {
    pub const POPULATION: usize = 30;
    pub const CROSSOVER_PROB: f64 = 0.9;
    pub const MUTATION_PROB: f64 = 0.001;
    pub const MIN_GENERATIONS: u32 = 15;
    pub const MAX_GENERATIONS: u32 = 25;
    /// Convergence: best within 2 % of the population average.
    pub const CONVERGENCE_MARGIN: f64 = 0.02;
}

/// Sampling parameters of §2.3.
pub mod sampling_params {
    /// Confidence-interval width 0.1 ⇒ half-width 0.05.
    pub const CI_HALF_WIDTH: f64 = 0.05;
    /// The paper's "90 % confidence" constant (the one-sided 90 % normal
    /// quantile; this is the value that reproduces their 164 points).
    pub const Z: f64 = 1.28;
    /// "only 164 points of the iteration space must be explored".
    pub const PAPER_SAMPLE_SIZE: u64 = 164;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_are_complete() {
        assert_eq!(TABLE2.len(), 4);
        assert_eq!(TABLE3_8K.len(), 6);
        assert_eq!(TABLE3_32K.len(), 4);
        assert_eq!(TABLE4.len(), 2);
    }

    #[test]
    fn sample_size_formula_reproduces_164() {
        // n = ceil(z²·p(1−p)/h²) with p = 0.5.
        let n = (sampling_params::Z * sampling_params::Z * 0.25
            / (sampling_params::CI_HALF_WIDTH * sampling_params::CI_HALF_WIDTH))
            .ceil() as u64;
        assert_eq!(n, sampling_params::PAPER_SAMPLE_SIZE);
    }
}
