//! Lossless rendering: [`LoopNest`] → canonical kernel source.

use crate::{is_bare_name, FrontendError};
use cme_loopnest::{AccessKind, Layout, LoopNest, MemRef};
use cme_polyhedra::AffineForm;

/// Render a nest as canonical kernel source such that
/// [`crate::parse`]`(render(n)) == n` — the serializer half of the
/// textual format.
///
/// The canonical form is always 1-based (no `base` directive) and uses
/// only `=`-assignments and `load` statements: the reference stream is
/// split at each write, so `[read a, read b, write c]` becomes
/// `c[…] = a[…] + b[…];`. Fails with [`FrontendError::Render`] when the
/// nest cannot round-trip: invalid nests, empty loop towers, or loop /
/// array names that are not distinct bare identifiers.
pub fn render(nest: &LoopNest) -> Result<String, FrontendError> {
    nest.validate().map_err(FrontendError::Invalid)?;
    if nest.loops.is_empty() {
        return Err(FrontendError::Render("the loop tower is empty".into()));
    }
    let mut names: Vec<&str> = Vec::new();
    for l in &nest.loops {
        names.push(&l.name);
    }
    for a in &nest.arrays {
        names.push(&a.name);
    }
    for (k, name) in names.iter().enumerate() {
        if !is_bare_name(name) {
            return Err(FrontendError::Render(format!(
                "`{name}` is not a bare identifier (loop and array names must be)"
            )));
        }
        if names[..k].contains(name) {
            return Err(FrontendError::Render(format!(
                "name `{name}` is used by more than one loop/array"
            )));
        }
    }

    let mut out = String::new();
    if is_bare_name(&nest.name) {
        out.push_str(&format!("kernel {};\n", nest.name));
    } else {
        let escaped = nest.name.replace('\\', "\\\\").replace('"', "\\\"");
        out.push_str(&format!("kernel \"{escaped}\";\n"));
    }
    for a in &nest.arrays {
        let prefix = match a.layout {
            Layout::ColumnMajor => "",
            Layout::RowMajor => "rowmajor ",
        };
        let extents: String = a.extents.iter().map(|e| format!("[{e}]")).collect();
        out.push_str(&format!("{prefix}real{} {}{extents};\n", a.elem_size, a.name));
    }
    for (d, l) in nest.loops.iter().enumerate() {
        let lo = match &l.lo_aff {
            Some(f) => affine_text(nest, f),
            None => l.lo.to_string(),
        };
        let hi = match &l.hi_aff {
            Some(f) => affine_text(nest, f),
            None => l.hi.to_string(),
        };
        out.push_str(&"  ".repeat(d));
        out.push_str(&format!("for ({v} = {lo}; {v} <= {hi}; {v}++) {{\n", v = l.name));
    }
    let body_indent = "  ".repeat(nest.depth());
    for stmt in partition(&nest.refs) {
        out.push_str(&body_indent);
        let reads: Vec<String> = stmt.reads.iter().map(|r| ref_text(nest, r)).collect();
        match stmt.write {
            Some(w) => {
                let rhs = if reads.is_empty() { "0".to_string() } else { reads.join(" + ") };
                out.push_str(&format!("{} = {rhs};\n", ref_text(nest, w)));
            }
            None => out.push_str(&format!("load {};\n", reads.join(" + "))),
        }
    }
    for d in (0..nest.depth()).rev() {
        out.push_str(&"  ".repeat(d));
        out.push_str("}\n");
    }
    Ok(out)
}

/// A renderable statement: the reads preceding a write (or the trailing
/// reads of the stream, as one `load`).
struct Stmt<'a> {
    reads: Vec<&'a MemRef>,
    write: Option<&'a MemRef>,
}

/// Split the reference stream at each write. Re-parsing the statements
/// replays the exact stream: reads left-to-right, then the write.
fn partition(refs: &[MemRef]) -> Vec<Stmt<'_>> {
    let mut stmts = Vec::new();
    let mut reads = Vec::new();
    for r in refs {
        match r.access {
            AccessKind::Read => reads.push(r),
            AccessKind::Write => {
                stmts.push(Stmt { reads: std::mem::take(&mut reads), write: Some(r) });
            }
        }
    }
    if !reads.is_empty() {
        stmts.push(Stmt { reads, write: None });
    }
    stmts
}

fn ref_text(nest: &LoopNest, r: &MemRef) -> String {
    let subs: String = r.subscripts.iter().map(|s| format!("[{}]", affine_text(nest, s))).collect();
    format!("{}{subs}", nest.array(r.array).name)
}

/// `2*i - j + 3` — the affine form over the nest's loop-variable names.
fn affine_text(nest: &LoopNest, form: &AffineForm) -> String {
    let mut s = String::new();
    for (t, &c) in form.coeffs.iter().enumerate() {
        if c == 0 {
            continue;
        }
        let var = &nest.loops[t].name;
        let magnitude = c.unsigned_abs();
        let term = if magnitude == 1 { var.clone() } else { format!("{magnitude}*{var}") };
        if s.is_empty() {
            if c < 0 {
                s.push('-');
            }
            s.push_str(&term);
        } else {
            s.push_str(if c < 0 { " - " } else { " + " });
            s.push_str(&term);
        }
    }
    if s.is_empty() {
        return form.c0.to_string();
    }
    if form.c0 != 0 {
        s.push_str(if form.c0 < 0 { " - " } else { " + " });
        s.push_str(&form.c0.unsigned_abs().to_string());
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn registry_kernels_round_trip() {
        // Every Table 1 kernel must survive render → parse unchanged:
        // the textual format can express the whole registry.
        for spec in cme_kernels::all_kernels() {
            let nest = (spec.build)(spec.default_size.clamp(8, 20)).unwrap();
            let src = render(&nest).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            let back = parse(&src).unwrap_or_else(|e| panic!("{}: {e}\n{src}", spec.name));
            assert_eq!(back, nest, "{}:\n{src}", spec.name);
        }
    }

    #[test]
    fn triangular_bounds_render_and_round_trip() {
        let src = "real4 a[7][7];
             for (i = 1; i <= 7; i++) {
               for (j = i; j <= 7; j++) {
                 for (k = 1; k <= j - i + 1; k++) { a[j][k] = a[i][k]; }
               }
             }";
        let n = parse(src).unwrap();
        assert!(!n.is_rectangular());
        let canon = render(&n).unwrap();
        assert!(canon.contains("for (j = i; j <= 7; j++)"), "{canon}");
        assert!(canon.contains("for (k = 1; k <= -i + j + 1; k++)"), "{canon}");
        assert_eq!(parse(&canon).unwrap(), n);
    }

    #[test]
    fn write_only_and_trailing_reads_render() {
        let n = parse(
            "real4 x[4]; real4 y[4];
             for (i = 1; i <= 4; i++) { x[i] = 0; load y[i]; }",
        )
        .unwrap();
        let src = render(&n).unwrap();
        assert!(src.contains("x[i] = 0;"));
        assert!(src.contains("load y[i];"));
        assert_eq!(parse(&src).unwrap(), n);
    }

    #[test]
    fn quoted_kernel_names_round_trip() {
        let mut n = parse("real4 x[4]; for (i = 1; i <= 4; i++) { x[i] = 0; }").unwrap();
        n.name = "odd name \"x\\y\"".to_string();
        let src = render(&n).unwrap();
        assert_eq!(parse(&src).unwrap(), n);
    }

    #[test]
    fn unrenderable_nests_are_refused() {
        let mut n = parse("real4 x[4]; for (i = 1; i <= 4; i++) { x[i] = 0; }").unwrap();
        n.arrays[0].name = "weird name".to_string();
        assert!(matches!(render(&n), Err(FrontendError::Render(_))));
    }
}
