//! Documentation link check: every intra-repo markdown link in `docs/`
//! and `README.md` must point at a file or directory that exists, so the
//! docs cannot silently rot as the tree moves. CI runs this as part of
//! the `docs-and-examples` job.

use std::path::PathBuf;

/// The documents under contract: the README plus everything in `docs/`.
fn documents() -> Vec<PathBuf> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut docs = vec![root.join("README.md")];
    let dir = root.join("docs");
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("docs/ exists")
        .map(|e| e.expect("readable docs entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "md"))
        .collect();
    entries.sort();
    assert!(!entries.is_empty(), "docs/ holds at least one markdown file");
    docs.extend(entries);
    docs
}

/// Extract `](target)` markdown link targets, skipping fenced code blocks
/// (where `](…)` is almost always example text, not a link).
fn link_targets(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut in_fence = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        let mut rest = line;
        while let Some(k) = rest.find("](") {
            rest = &rest[k + 2..];
            if let Some(end) = rest.find(')') {
                out.push(rest[..end].to_string());
                rest = &rest[end + 1..];
            } else {
                break;
            }
        }
    }
    out
}

#[test]
fn intra_repo_links_resolve() {
    let mut broken = Vec::new();
    let mut checked = 0usize;
    for doc in documents() {
        let text =
            std::fs::read_to_string(&doc).unwrap_or_else(|e| panic!("{}: {e}", doc.display()));
        let base = doc.parent().expect("document has a directory");
        for target in link_targets(&text) {
            // External links and pure anchors are out of scope here.
            if target.starts_with("http://")
                || target.starts_with("https://")
                || target.starts_with("mailto:")
                || target.starts_with('#')
            {
                continue;
            }
            let path = target.split('#').next().expect("split yields a head");
            if path.is_empty() {
                continue;
            }
            checked += 1;
            if !base.join(path).exists() {
                broken.push(format!("{}: broken link `{target}`", doc.display()));
            }
        }
    }
    assert!(broken.is_empty(), "{}", broken.join("\n"));
    assert!(checked >= 10, "sanity: the docs carry intra-repo links (saw {checked})");
}

/// SCHEMA.md's capability table says, for every family name, what
/// `StrategySpec::needs()` says: whether the family takes affine bounds
/// (and, when it does not, the capability its 400 names) and whether it
/// needs a tileable nest. One row per family, in the code's table order.
#[test]
fn schema_capability_table_matches_the_code() {
    use cme_suite::api::FAMILIES;
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let schema = std::fs::read_to_string(root.join("docs/SCHEMA.md")).expect("SCHEMA.md");
    let header = "| Family | Affine (triangular) bounds | Needs a tileable nest |";
    let start = schema.find(header).expect("SCHEMA.md carries the capability table");
    let mut documented = Vec::new();
    for line in schema[start..].lines().skip(2).take_while(|l| l.starts_with('|')) {
        let cells: Vec<String> =
            line.trim_matches('|').split('|').map(|c| c.trim().replace('`', "")).collect();
        let [family, affine, tileable] = cells.as_slice() else {
            panic!("malformed capability row: {line}");
        };
        let spec = FAMILIES
            .iter()
            .find(|spec| spec.name() == *family)
            .unwrap_or_else(|| panic!("capability row names no family: {line}"));
        let needs = spec.needs();
        let box_only = match affine.as_str() {
            "yes" => None,
            other => Some(other.strip_prefix("no: ").unwrap_or_else(|| panic!("{line}"))),
        };
        assert_eq!(box_only, needs.box_only, "{family}: affine-bounds column");
        assert!(["yes", "no"].contains(&tileable.as_str()), "{line}");
        assert_eq!(tileable == "yes", needs.tileable, "{family}: tileable column");
        documented.push(family.clone());
    }
    let names: Vec<String> = FAMILIES.iter().map(|spec| spec.name()).collect();
    assert_eq!(documented, names, "one row per family, in table order");
}

/// The schema document must keep documenting the wire format's
/// load-bearing pieces — a heading rename is fine, dropping a section is
/// not.
#[test]
fn schema_doc_covers_the_wire_surface() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let schema = std::fs::read_to_string(root.join("docs/SCHEMA.md")).expect("SCHEMA.md");
    for needle in [
        "OptimizeRequest",
        "\"Inline\"",
        "\"Kernel\"",
        "CacheHierarchy",
        "miss_latency",
        "StrategySpec",
        "AnalyzeRequest",
        "LintRequest",
        "POST /lint",
        "no-reuse",
        "UnknownKernel",
        "wall_ms",
        "base 0;",
        "curl",
        "--cache-dir",
        "--displacement-entries",
        "outcomes.jsonl",
        "schema fingerprint",
        "CompareRequest",
        "CompareOutcome",
        "POST /compare",
        "\"winner\"",
        "weighted_cost",
        "lo_aff",
        "hi_aff",
        "tightest constant hull",
        "rectangular loop bounds only",
        "TRSOLVE",
    ] {
        assert!(schema.contains(needle), "docs/SCHEMA.md no longer mentions `{needle}`");
    }
    let arch = std::fs::read_to_string(root.join("docs/ARCHITECTURE.md")).expect("ARCHITECTURE.md");
    for needle in [
        "EvalEngine",
        "cme-frontend",
        "cme-analysis",
        "Determinism",
        "without_timing",
        "cme-runtime",
        "DisplacementProvider",
        "coalescing",
        "frame_request",
        "readiness",
        "Strategy families",
        "oblivious",
        "latency",
        "Tournament memo",
        "Iteration spaces",
        "SpaceShape",
        "shape_volume",
        "StrategySpec::needs",
        "statement-major",
    ] {
        assert!(arch.contains(needle), "docs/ARCHITECTURE.md no longer mentions `{needle}`");
    }
    let analysis = std::fs::read_to_string(root.join("docs/ANALYSIS.md")).expect("ANALYSIS.md");
    for needle in [
        "GCD test",
        "Banerjee",
        "direction vector",
        "budget_exhausted",
        "oracle_analyze",
        "illegal-tiling",
        "cme lint",
        "POST /lint",
    ] {
        assert!(analysis.contains(needle), "docs/ANALYSIS.md no longer mentions `{needle}`");
    }
    let readme = std::fs::read_to_string(root.join("README.md")).expect("README.md");
    for needle in [
        "Linting your kernels",
        "cme lint",
        "docs/ANALYSIS.md",
        "crates/runtime",
        "displacement_cache",
        "coalescing.leaders",
        "cache.disk",
        "--cache-dir",
        "Tournament mode",
        "cme compare",
        "compare_cache",
        "--bin experiments",
    ] {
        assert!(readme.contains(needle), "README.md no longer mentions `{needle}`");
    }
}
