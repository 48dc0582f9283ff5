//! Kernel registry: Table 1 of the paper, with the figure problem sizes.

use crate::{bihar, linalg, nas, stencils, transposes, triangular};
use cme_loopnest::{LoopNest, NestError};

/// A kernel entry of Table 1.
#[derive(Debug, Clone, Copy)]
pub struct KernelSpec {
    /// Table 1 kernel name (e.g. "MM").
    pub name: &'static str,
    /// Source program (Table 1 column 2; "-" for generic kernels).
    pub program: &'static str,
    /// Table 1 description.
    pub description: &'static str,
    /// Nest depth (Table 1 "nested loops").
    pub depth: usize,
    /// Problem sizes used in Figs. 8/9 (empty slice ⇒ fixed-size kernel,
    /// run at `default_size`).
    pub sizes: &'static [i64],
    /// Size used when the figures give no explicit size.
    pub default_size: i64,
    /// Constructor. Fails on a size the kernel cannot take: one whose
    /// arrays exceed [`LoopNest::MAX_TOTAL_BYTES`], or an odd size for
    /// the radix-2 BIHAR passes.
    pub build: fn(i64) -> Result<LoopNest, NestError>,
}

impl KernelSpec {
    /// Build at the default size.
    pub fn build_default(&self) -> Result<LoopNest, NestError> {
        (self.build)(self.default_size)
    }

    /// All `(display name, size)` configurations this kernel contributes
    /// to Figs. 8/9.
    pub fn configs(&self) -> Vec<KernelConfig> {
        if self.sizes.is_empty() {
            vec![KernelConfig {
                spec: *self,
                size: self.default_size,
                sized_name: self.name.to_string(),
            }]
        } else {
            self.sizes
                .iter()
                .map(|&s| KernelConfig {
                    spec: *self,
                    size: s,
                    sized_name: format!("{}_{s}", self.name),
                })
                .collect()
        }
    }
}

/// One concrete (kernel, problem size) point of the evaluation.
#[derive(Debug, Clone)]
pub struct KernelConfig {
    pub spec: KernelSpec,
    pub size: i64,
    /// Figure label, e.g. "MM_500" or "ADD".
    pub sized_name: String,
}

impl KernelConfig {
    pub fn build(&self) -> Result<LoopNest, NestError> {
        (self.spec.build)(self.size)
    }
}

/// The complete kernel registry: the 17 kernels of Table 1 plus TSHIFT
/// (a shifted in-place transpose whose reference pair is non-uniform —
/// the stress case for the dependence analysis) and the three triangular
/// kernels TRMM, TRSOLVE and TTRANS (trapezoidal iteration spaces — the
/// stress cases for affine loop bounds). None of the ride-alongs appear
/// in the figures.
pub fn all_kernels() -> Vec<KernelSpec> {
    vec![
        KernelSpec {
            name: "T2D",
            program: "-",
            description: "2D matrix transposition",
            depth: 2,
            sizes: &[100, 500, 2000],
            default_size: 500,
            build: transposes::t2d,
        },
        KernelSpec {
            name: "TSHIFT",
            program: "-",
            description: "shifted in-place 2D transposition a(i,j+n) = a(j,i)",
            depth: 2,
            sizes: &[],
            default_size: 256,
            build: transposes::tshift,
        },
        KernelSpec {
            name: "T3DJIK",
            program: "-",
            description: "3D matrix transposition a(k,j,i) = b(j,i,k)",
            depth: 3,
            sizes: &[20, 100, 200],
            default_size: 100,
            build: transposes::t3djik,
        },
        KernelSpec {
            name: "T3DIKJ",
            program: "-",
            description: "3D matrix transposition a(k,j,i) = b(i,k,j)",
            depth: 3,
            sizes: &[20, 100, 200],
            default_size: 100,
            build: transposes::t3dikj,
        },
        KernelSpec {
            name: "JACOBI3D",
            program: "-",
            description: "partial differential equations solver",
            depth: 3,
            sizes: &[20, 100, 200],
            default_size: 100,
            build: stencils::jacobi3d,
        },
        KernelSpec {
            name: "MATMUL",
            program: "-",
            description: "matrix by vector multiplication",
            depth: 3,
            sizes: &[100, 500, 2000],
            default_size: 500,
            build: linalg::matmul,
        },
        KernelSpec {
            name: "MM",
            program: "LIVERMORE",
            description: "matrix multiplication",
            depth: 3,
            sizes: &[100, 500, 2000],
            default_size: 500,
            build: linalg::mm,
        },
        KernelSpec {
            name: "ADI",
            program: "LIVERMORE",
            description: "2D ADI integration",
            depth: 2,
            sizes: &[100, 500, 2000],
            default_size: 500,
            build: stencils::adi,
        },
        KernelSpec {
            name: "ADD",
            program: "NAS",
            description: "addition of update to a matrix",
            depth: 4,
            sizes: &[],
            default_size: nas::ADD_N,
            build: nas::add,
        },
        KernelSpec {
            name: "BTRIX",
            program: "NAS",
            description: "block tri-diagonal solver, backward block sweep",
            depth: 3,
            sizes: &[],
            default_size: nas::BTRIX_N,
            build: nas::btrix,
        },
        KernelSpec {
            name: "VPENTA1",
            program: "NAS",
            description: "invert 3 pentadiagonals simultaneously, loop 1",
            depth: 2,
            sizes: &[],
            default_size: nas::VPENTA_N,
            build: nas::vpenta1,
        },
        KernelSpec {
            name: "VPENTA2",
            program: "NAS",
            description: "invert 3 pentadiagonals simultaneously, loop 2",
            depth: 2,
            sizes: &[],
            default_size: nas::VPENTA_N,
            build: nas::vpenta2,
        },
        KernelSpec {
            name: "DPSSB",
            program: "BIHAR",
            description:
                "unnormalised inverse of a forward transform of a complex periodic sequence",
            depth: 3,
            sizes: &[],
            default_size: bihar::BIHAR_N,
            build: bihar::dpssb,
        },
        KernelSpec {
            name: "DPSSF",
            program: "BIHAR",
            description: "forward transform of a complex periodic sequence",
            depth: 3,
            sizes: &[],
            default_size: bihar::BIHAR_N,
            build: bihar::dpssf,
        },
        KernelSpec {
            name: "DRADBG1",
            program: "BIHAR",
            description: "backward transform of a real coefficient array, loop 1",
            depth: 3,
            sizes: &[],
            default_size: bihar::BIHAR_N,
            build: bihar::dradbg1,
        },
        KernelSpec {
            name: "DRADBG2",
            program: "BIHAR",
            description: "backward transform of a real coefficient array, loop 2",
            depth: 3,
            sizes: &[],
            default_size: bihar::BIHAR_N,
            build: bihar::dradbg2,
        },
        KernelSpec {
            name: "DRADFG1",
            program: "BIHAR",
            description: "forward transform of a real periodic sequence, loop 1",
            depth: 3,
            sizes: &[],
            default_size: bihar::BIHAR_N,
            build: bihar::dradfg1,
        },
        KernelSpec {
            name: "DRADFG2",
            program: "BIHAR",
            description: "forward transform of a real periodic sequence, loop 2",
            depth: 3,
            sizes: &[],
            default_size: bihar::BIHAR_N,
            build: bihar::dradfg2,
        },
        KernelSpec {
            name: "TRMM",
            program: "-",
            description: "triangular matrix multiplication c += a*b, a lower-triangular",
            depth: 3,
            sizes: &[],
            default_size: 64,
            build: triangular::trmm,
        },
        KernelSpec {
            name: "TRSOLVE",
            program: "-",
            description: "forward substitution on a lower-triangular system",
            depth: 2,
            sizes: &[],
            default_size: 64,
            build: triangular::trsolve,
        },
        KernelSpec {
            name: "TTRANS",
            program: "-",
            description: "upper-triangle transposition a(j,i) = b(i,j), j >= i",
            depth: 2,
            sizes: &[],
            default_size: 64,
            build: triangular::ttrans,
        },
    ]
}

/// Look up a kernel by Table 1 name (case-insensitive).
pub fn kernel_by_name(name: &str) -> Option<KernelSpec> {
    all_kernels().into_iter().find(|k| k.name.eq_ignore_ascii_case(name))
}

/// The kernel/size configurations on the x-axis of Figs. 8 and 9, in the
/// paper's order. (The figures omit DPSSF, DRADBG2 and DRADFG2 and, for
/// VPENTA, show only VPENTA2 — we follow the figure.)
pub fn figure_configs() -> Vec<KernelConfig> {
    let fig_names = [
        "T2D", "T3DJIK", "T3DIKJ", "JACOBI3D", "MATMUL", "MM", "ADI", "ADD", "BTRIX", "VPENTA2",
        "DPSSB", "DRADBG1", "DRADFG1",
    ];
    let mut out = Vec::new();
    for name in fig_names {
        let spec = kernel_by_name(name).expect("figure kernel in registry");
        out.extend(spec.configs());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_matches_table1() {
        let ks = all_kernels();
        assert_eq!(
            ks.len(),
            21,
            "Table 1 lists 17 kernels; TSHIFT and the triangular trio ride along"
        );
        for k in &ks {
            let size = k.sizes.first().copied().unwrap_or(k.default_size).clamp(8, 20);
            let nest = (k.build)(size).unwrap();
            assert_eq!(nest.depth(), k.depth, "{}: depth must match Table 1", k.name);
            assert!(nest.validate().is_ok(), "{}", k.name);
        }
    }

    #[test]
    fn every_size_builds() {
        for k in all_kernels() {
            for cfg in k.configs() {
                // Cap huge sizes in tests: building is cheap but validate
                // everything the figures actually use up to 500.
                if cfg.size <= 500 {
                    let nest = cfg.build().unwrap();
                    assert!(nest.validate().is_ok(), "{}", cfg.sized_name);
                }
            }
        }
    }

    #[test]
    fn figure_axis_has_27_configs() {
        let cfgs = figure_configs();
        assert_eq!(cfgs.len(), 27);
        assert_eq!(cfgs[0].sized_name, "T2D_100");
        assert!(cfgs.iter().any(|c| c.sized_name == "MM_2000"));
        assert!(cfgs.iter().any(|c| c.sized_name == "DRADFG1"));
    }

    #[test]
    fn lookup_is_case_insensitive() {
        assert!(kernel_by_name("mm").is_some());
        assert!(kernel_by_name("Vpenta2").is_some());
        assert!(kernel_by_name("nope").is_none());
    }
}
