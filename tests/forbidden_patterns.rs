//! Source-hygiene gate for the service request path.
//!
//! `cme-serve`'s router and HTTP framing sit between untrusted network
//! input and the process, and `cme-runtime`'s caches, singleflight and
//! persistence run inside every request: a stray `unwrap()`/`expect(`
//! there turns a malformed request (or a poisoned lock, or a corrupt
//! cache file) into a worker-thread panic instead of a 4xx/5xx response
//! or a graceful recompute. Handlers must thread every fallible step
//! into an error response. This test greps the *non-test* portion of
//! those files so the pattern cannot creep back in (test modules are
//! free to unwrap — a panic there is a failing test, which is the
//! point).

use std::fs;
use std::path::Path;

/// `(path, anchor)`: the anchor must survive the test-module strip, so
/// an over-eager strip or a file move cannot silently vacate the gate.
const REQUEST_PATH_FILES: &[(&str, &str)] = &[
    ("crates/serve/src/router.rs", "HttpResponse"),
    ("crates/serve/src/http.rs", "HttpResponse"),
    ("crates/runtime/src/lib.rs", "RuntimeError"),
    ("crates/runtime/src/displacement.rs", "DisplacementCache"),
    ("crates/runtime/src/flight.rs", "Singleflight"),
    ("crates/runtime/src/lru.rs", "Lru"),
    ("crates/runtime/src/memo.rs", "Memo"),
    ("crates/runtime/src/outcome.rs", "TieredOutcomeCache"),
    ("crates/runtime/src/persist.rs", "DiskTier"),
];
const FORBIDDEN: &[&str] = &[".unwrap()", ".expect("];

/// The request-path portion of a source file: everything before the
/// trailing `#[cfg(test)]` module.
fn request_path_code(src: &str) -> &str {
    src.split("#[cfg(test)]").next().unwrap_or(src)
}

#[test]
fn serve_request_paths_never_unwrap() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for (rel, _) in REQUEST_PATH_FILES {
        let path = root.join(rel);
        let src = fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        let code = request_path_code(&src);
        for (lineno, line) in code.lines().enumerate() {
            let line = line.split("//").next().unwrap_or(line);
            for pat in FORBIDDEN {
                assert!(
                    !line.contains(pat),
                    "{rel}:{}: `{pat}` in the request path — map the failure to a \
                     4xx/5xx response instead",
                    lineno + 1
                );
            }
        }
    }
}

/// The gate itself must be looking at the right thing: when a gated
/// file has a test module (which freely unwraps), the strip must remove
/// it, and the request-path portion must still contain the expected
/// anchor type — an over-eager strip (or a file move) would silently
/// turn this test vacuous.
#[test]
fn the_gate_is_not_vacuous() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for (rel, anchor) in REQUEST_PATH_FILES {
        let src = fs::read_to_string(root.join(rel)).unwrap();
        let code = request_path_code(&src);
        if src.contains("#[cfg(test)]") {
            assert!(code.len() < src.len(), "{rel}: test-module strip did nothing");
        }
        assert!(
            code.contains("fn ") && code.contains(anchor),
            "{rel}: request-path portion lacks `{anchor}` — did the file move?"
        );
    }
}

/// Every workspace crate except `cme-serve` (whose signal handler needs
/// two `unsafe` lines) forbids unsafe code at the crate root.
#[test]
fn unsafe_code_is_forbidden_outside_the_server() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut libs = vec![root.join("src/lib.rs")];
    for entry in fs::read_dir(root.join("crates")).unwrap() {
        libs.push(entry.unwrap().path().join("src/lib.rs"));
    }
    for lib in libs {
        let src = fs::read_to_string(&lib).unwrap();
        let is_serve = lib.parent().unwrap().parent().unwrap().ends_with("serve");
        assert_eq!(
            src.contains("#![forbid(unsafe_code)]"),
            !is_serve,
            "{}: {}",
            lib.display(),
            if is_serve {
                "cme-serve cannot forbid unsafe (signal handler) — did that change?"
            } else {
                "crate is missing `#![forbid(unsafe_code)]`"
            }
        );
    }
}
