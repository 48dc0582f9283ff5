//! Multi-level cache hierarchies and the latency-weighted cost model.
//!
//! The paper's CMEs model a single cache level; real targets have at
//! least L1+L2, and a tiling that is near-optimal for L1 alone can be
//! badly suboptimal once L2 miss cost dominates. A [`CacheHierarchy`] is
//! an ordered list of [`CacheLevel`]s — innermost (L1) first — each a
//! [`CacheSpec`] geometry plus a **miss latency**: the cost, in arbitrary
//! time units, of fetching a line into that level from the next level out
//! (memory, for the last level). The analysis runs the CMEs per level —
//! the standard per-level CME extension. Every level classifies the same
//! sampled points, and levels with one line size share the source search
//! and the interference walk, each keeping only its own set-conflict
//! test (see [`crate::engine`]), so each level's figures equal a one-level
//! analysis of its geometry. The search objective becomes
//!
//! ```text
//! weighted cost = Σ_level  replacement_misses(level) × miss_latency(level)
//! ```
//!
//! mirroring how *Latency Based Tiling* turns miss counts into a
//! hardware-meaningful objective. Cold (compulsory) misses are excluded,
//! as in the paper's single-level objective: tiling cannot change them.
//!
//! **Backward compatibility.** A one-level hierarchy at the legacy miss
//! latency ([`LEGACY_MISS_LATENCY`] = 1.0) is *the* single-cache model:
//! its weighted cost is byte-identical to the legacy replacement-miss
//! count, it serialises as the bare `{"size", "line", "assoc"}` object
//! the pre-hierarchy wire format used, and a bare cache object
//! deserialises back to it — so every existing request, outcome, golden
//! snapshot and cache key is unchanged.

use crate::CacheSpec;
use serde::{DeError, Deserialize, Serialize, Value};

/// Miss latency assigned to a bare single-level cache: one cost unit per
/// replacement miss, making the weighted cost equal the legacy
/// replacement-miss objective.
pub const LEGACY_MISS_LATENCY: f64 = 1.0;

/// One level of a cache hierarchy: a geometry plus the cost of a miss at
/// this level (the fetch from the next level out).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheLevel {
    pub spec: CacheSpec,
    /// Cost of one miss at this level, in arbitrary time units.
    pub miss_latency: f64,
}

impl CacheLevel {
    pub fn new(spec: CacheSpec, miss_latency: f64) -> Self {
        CacheLevel { spec, miss_latency }
    }
}

/// An ordered, non-empty list of cache levels, innermost (L1) first.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheHierarchy {
    /// Invariant: non-empty (every constructor and the deserialiser
    /// enforce it).
    levels: Vec<CacheLevel>,
}

impl CacheHierarchy {
    /// A single-level hierarchy at the legacy miss latency — the exact
    /// semantic (and wire) equivalent of a bare [`CacheSpec`].
    pub fn single(spec: CacheSpec) -> Self {
        CacheHierarchy { levels: vec![CacheLevel::new(spec, LEGACY_MISS_LATENCY)] }
    }

    /// Build from explicit levels (innermost first). Errors on an empty
    /// list — a hierarchy always has at least L1.
    pub fn new(levels: Vec<CacheLevel>) -> Result<Self, String> {
        if levels.is_empty() {
            return Err("cache hierarchy needs at least one level".into());
        }
        Ok(CacheHierarchy { levels })
    }

    /// A two-level hierarchy.
    pub fn two_level(
        l1: CacheSpec,
        l1_miss_latency: f64,
        l2: CacheSpec,
        l2_miss_latency: f64,
    ) -> Self {
        CacheHierarchy {
            levels: vec![
                CacheLevel::new(l1, l1_miss_latency),
                CacheLevel::new(l2, l2_miss_latency),
            ],
        }
    }

    /// A representative two-level default: the paper's 8 KB direct-mapped
    /// L1 (32 B lines) backed by a 64 KB 4-way L2 with the same line
    /// size. Latencies follow the usual order-of-magnitude split — an L1
    /// miss that hits L2 costs 10 units, an L2 miss costs 80.
    pub fn l1l2_default() -> Self {
        CacheHierarchy::two_level(
            CacheSpec::paper_8k(),
            10.0,
            CacheSpec { size: 64 * 1024, line: 32, assoc: 4 },
            80.0,
        )
    }

    /// The levels, innermost first (always at least one).
    pub fn levels(&self) -> &[CacheLevel] {
        &self.levels
    }

    /// Number of levels.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// The innermost (L1) geometry — what legacy single-cache consumers
    /// (baseline heuristics, padding decode, geometry printing) use.
    pub fn l1(&self) -> CacheSpec {
        self.levels[0].spec
    }

    /// True when this hierarchy is semantically the legacy single cache:
    /// one level at [`LEGACY_MISS_LATENCY`]. Legacy hierarchies produce
    /// estimates without a per-level breakdown and serialise as the bare
    /// cache object.
    pub fn is_legacy(&self) -> bool {
        self.levels.len() == 1 && self.levels[0].miss_latency == LEGACY_MISS_LATENCY
    }

    /// Validate every level: the geometry rules the single-cache model
    /// has always enforced, plus finite positive latencies.
    pub fn validate(&self) -> Result<(), String> {
        for (k, level) in self.levels.iter().enumerate() {
            let c = &level.spec;
            if c.size <= 0 || c.line <= 0 || c.assoc <= 0 {
                return Err(format!("level {k}: cache geometry must be positive, got {c:?}"));
            }
            if c.size % (c.line * c.assoc) != 0 {
                return Err(format!(
                    "level {k}: cache size {} is not a multiple of line × assoc = {}",
                    c.size,
                    c.line * c.assoc
                ));
            }
            if !(level.miss_latency.is_finite() && level.miss_latency > 0.0) {
                return Err(format!(
                    "level {k}: miss latency must be finite and positive, got {}",
                    level.miss_latency
                ));
            }
        }
        Ok(())
    }
}

impl From<CacheSpec> for CacheHierarchy {
    fn from(spec: CacheSpec) -> Self {
        CacheHierarchy::single(spec)
    }
}

// Hand-written serde: the wire format is the back-compat contract.
//
// * legacy single level  ⇄  bare `{"size": …, "line": …, "assoc": …}`
// * anything else        ⇄  `{"levels": [{size, line, assoc, miss_latency}, …]}`
//
// `miss_latency` may be omitted per level (defaults to the legacy 1.0).

impl Serialize for CacheLevel {
    fn to_value(&self) -> Value {
        let mut fields = match self.spec.to_value() {
            Value::Object(fields) => fields,
            _ => unreachable!("CacheSpec serialises as an object"),
        };
        fields.push(("miss_latency".to_string(), self.miss_latency.to_value()));
        Value::Object(fields)
    }
}

impl Deserialize for CacheLevel {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let spec = CacheSpec::from_value(v)?;
        let obj = v.as_object().ok_or_else(|| DeError::expected("object for CacheLevel", v))?;
        let miss_latency = match serde::get_field(obj, "miss_latency") {
            Some(lat) => f64::from_value(lat)?,
            None => LEGACY_MISS_LATENCY,
        };
        Ok(CacheLevel { spec, miss_latency })
    }
}

impl Serialize for CacheHierarchy {
    fn to_value(&self) -> Value {
        if self.is_legacy() {
            return self.levels[0].spec.to_value();
        }
        let levels = self.levels.iter().map(Serialize::to_value).collect();
        Value::Object(vec![("levels".to_string(), Value::Array(levels))])
    }
}

impl Deserialize for CacheHierarchy {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let obj = v.as_object().ok_or_else(|| DeError::expected("object for CacheHierarchy", v))?;
        match serde::get_field(obj, "levels") {
            None => Ok(CacheHierarchy::single(CacheSpec::from_value(v)?)),
            Some(levels) => {
                let arr = levels
                    .as_array()
                    .ok_or_else(|| DeError::expected("array for CacheHierarchy levels", levels))?;
                let levels =
                    arr.iter().map(CacheLevel::from_value).collect::<Result<Vec<_>, _>>()?;
                CacheHierarchy::new(levels).map_err(DeError::custom)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_cache_object_parses_as_legacy_single_level() {
        let h: CacheHierarchy =
            serde_json::from_str(r#"{"size": 1024, "line": 32, "assoc": 1}"#).unwrap();
        assert!(h.is_legacy());
        assert_eq!(h.l1(), CacheSpec::direct_mapped(1024, 32));
        assert_eq!(h.levels()[0].miss_latency, LEGACY_MISS_LATENCY);
    }

    #[test]
    fn legacy_single_level_serialises_as_bare_cache_object() {
        let h = CacheHierarchy::single(CacheSpec::paper_8k());
        let json = serde_json::to_string(&h).unwrap();
        assert_eq!(json, serde_json::to_string(&CacheSpec::paper_8k()).unwrap());
        let back: CacheHierarchy = serde_json::from_str(&json).unwrap();
        assert_eq!(back, h);
    }

    #[test]
    fn multi_level_round_trips_through_levels_form() {
        let h = CacheHierarchy::l1l2_default();
        let json = serde_json::to_string(&h).unwrap();
        assert!(json.contains("\"levels\""), "{json}");
        assert!(json.contains("\"miss_latency\""), "{json}");
        let back: CacheHierarchy = serde_json::from_str(&json).unwrap();
        assert_eq!(back, h);
    }

    #[test]
    fn single_level_with_custom_latency_keeps_the_levels_form() {
        // Latency ≠ 1.0 is semantic information: it must survive the wire
        // even for one level.
        let h = CacheHierarchy::new(vec![CacheLevel::new(CacheSpec::paper_8k(), 25.0)]).unwrap();
        assert!(!h.is_legacy());
        let back: CacheHierarchy =
            serde_json::from_str(&serde_json::to_string(&h).unwrap()).unwrap();
        assert_eq!(back, h);
    }

    #[test]
    fn level_without_latency_defaults_to_legacy() {
        let h: CacheHierarchy = serde_json::from_str(
            r#"{"levels": [{"size": 1024, "line": 32, "assoc": 1},
                           {"size": 8192, "line": 32, "assoc": 2, "miss_latency": 50.0}]}"#,
        )
        .unwrap();
        assert_eq!(h.depth(), 2);
        assert_eq!(h.levels()[0].miss_latency, LEGACY_MISS_LATENCY);
        assert_eq!(h.levels()[1].miss_latency, 50.0);
    }

    #[test]
    fn empty_levels_are_rejected_at_parse_time() {
        assert!(serde_json::from_str::<CacheHierarchy>(r#"{"levels": []}"#).is_err());
    }

    #[test]
    fn validate_checks_every_level() {
        let mut h = CacheHierarchy::l1l2_default();
        assert!(h.validate().is_ok());
        h.levels[1].spec.size = 100; // not a multiple of line × assoc
        assert!(h.validate().is_err());
        let bad_latency =
            CacheHierarchy::new(vec![CacheLevel::new(CacheSpec::paper_8k(), 0.0)]).unwrap();
        assert!(bad_latency.validate().is_err());
    }
}
