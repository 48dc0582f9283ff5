//! The execution seam: a [`Session`] turns requests into outcomes, one at
//! a time or as a parallel batch — the surface a future service layer
//! (HTTP handler, queue worker) binds to.

use crate::error::ApiError;
use crate::outcome::{AnalyzeOutcome, CompareOutcome, LintOutcome, Outcome};
use crate::problem::Problem;
use crate::request::{AnalyzeRequest, CompareRequest, LintRequest, OptimizeRequest};
use cme_core::{DisplacementProvider, EvalEngine, SharedDisplacements};
use cme_loopnest::MemoryLayout;
use rayon::prelude::*;
use std::sync::Arc;
use std::time::Instant;

/// Configures and builds a [`Session`].
#[derive(Debug, Clone)]
pub struct SessionBuilder {
    parallel: bool,
    displacements: Option<SharedDisplacements>,
}

impl SessionBuilder {
    /// Run batches on all available cores (default) or sequentially.
    /// Results are bit-identical either way — parallelism only changes
    /// wall-clock time.
    pub fn parallel(mut self, parallel: bool) -> Self {
        self.parallel = parallel;
        self
    }

    /// Attach a process-wide displacement store, shared by every engine
    /// the session builds (across `run`, `run_batch` and `analyze`).
    /// Displacement sets are pure functions of their key, so outcomes are
    /// byte-identical with or without a provider — only the Diophantine
    /// work is shared.
    pub fn displacement_provider(mut self, provider: Arc<dyn DisplacementProvider>) -> Self {
        self.displacements = Some(SharedDisplacements::new(provider));
        self
    }

    pub fn build(self) -> Session {
        Session { parallel: self.parallel, displacements: self.displacements }
    }
}

/// Stateless executor for API requests. Cheap to build and `Sync`: one
/// session can serve many threads. (With an attached displacement
/// provider the session stays deterministic — the provider only memoises
/// pure computations.)
#[derive(Debug, Clone)]
pub struct Session {
    parallel: bool,
    displacements: Option<SharedDisplacements>,
}

impl Default for Session {
    fn default() -> Self {
        Session::builder().build()
    }
}

impl Session {
    pub fn builder() -> SessionBuilder {
        SessionBuilder { parallel: true, displacements: None }
    }

    /// Run one optimisation request through [`crate::search`]. The
    /// outcome carries the dependence-analysis digest of the original
    /// nest in [`Outcome::legality`].
    pub fn run(&self, req: &OptimizeRequest) -> Result<Outcome, ApiError> {
        let mut problem = Problem::from_request(req)?;
        problem.displacements = self.displacements.clone();
        crate::strategy::search(&req.strategy, &problem)
    }

    /// Run a batch of independent requests, in parallel unless the session
    /// was built with `.parallel(false)`. The result order matches the
    /// request order, and every outcome equals what [`Self::run`] would
    /// return for that request alone (modulo `wall_ms`).
    pub fn run_batch(&self, reqs: &[OptimizeRequest]) -> Vec<Result<Outcome, ApiError>> {
        if self.parallel {
            reqs.par_iter().map(|req| self.run(req)).collect()
        } else {
            reqs.iter().map(|req| self.run(req)).collect()
        }
    }

    /// Run a strategy tournament: every family in `req.strategies` over
    /// the shared base request, ranked by the latency-weighted objective
    /// (`after.weighted_cost()`, ties keep request order). Each entrant
    /// equals what [`Self::run`] would answer for the per-family request
    /// alone (modulo `wall_ms`), so all entries share one byte-identical
    /// canonical `before`. Any entrant's failure fails the tournament —
    /// a ranking over half a line-up would be misleading.
    pub fn compare(&self, req: &CompareRequest) -> Result<CompareOutcome, ApiError> {
        let started = Instant::now();
        let outcomes = self.run_batch(&req.entrants()?).into_iter().collect::<Result<_, _>>()?;
        Ok(CompareOutcome::rank(outcomes, started.elapsed().as_millis() as u64))
    }

    /// Run a pure analysis request (no search). The engine-assembled
    /// analysis equals the from-scratch `CmeModel` path byte-for-byte on
    /// a legacy single-level cache; a non-legacy hierarchy additionally
    /// yields the per-level breakdown in the estimate/report.
    pub fn analyze(&self, req: &AnalyzeRequest) -> Result<AnalyzeOutcome, ApiError> {
        let started = Instant::now();
        crate::problem::validate_cache(&req.cache)?;
        let nest = req.nest.resolve()?;
        if let Some(tiles) = &req.tiles {
            tiles.validate(&nest).map_err(|e| ApiError::BadRequest(e.to_string()))?;
        }
        let layout = MemoryLayout::contiguous(&nest);
        let engine = EvalEngine::new_hierarchy_shared(
            &req.cache,
            &nest,
            &layout,
            req.sampling,
            req.seed,
            self.displacements.as_ref().map(SharedDisplacements::provider),
        );
        let effective = req.tiles.as_ref().filter(|t| !t.is_trivial(&nest));
        let (estimate, exact) = if req.exhaustive {
            (None, Some(engine.exhaustive_report(effective)))
        } else {
            (Some(engine.estimate_canonical(effective)), None)
        };
        Ok(AnalyzeOutcome {
            kernel: nest.name.clone(),
            cache: req.cache.clone(),
            tiles: req.tiles.clone(),
            estimate,
            exact,
            wall_ms: started.elapsed().as_millis() as u64,
        })
    }

    /// Run a lint request: static dependence analysis plus the kernel
    /// lints, no miss estimation. Deterministic for a fixed request, so
    /// outcomes are cacheable in [`LintOutcome::without_timing`] form.
    pub fn lint(&self, req: &LintRequest) -> Result<LintOutcome, ApiError> {
        let started = Instant::now();
        crate::problem::validate_cache(&req.cache)?;
        let nest = req.nest.resolve()?;
        let report = cme_analysis::lint_report(&nest, &req.cache);
        Ok(LintOutcome {
            kernel: nest.name.clone(),
            cache: req.cache.clone(),
            legality: report.legality,
            diagnostics: report.diagnostics,
            wall_ms: started.elapsed().as_millis() as u64,
        })
    }
}
