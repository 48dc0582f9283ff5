//! Recursive-descent parser: kernel source → [`LoopNest`].

use crate::lex::{lex, Tok, Token};
use crate::{is_keyword, FrontendError};
use cme_loopnest::{AccessKind, ArrayDecl, ArrayId, Layout, LoopDef, LoopNest, MemRef};
use cme_polyhedra::AffineForm;

/// 1-based source position of one array reference, aligned with the
/// nest's reference stream: `spans[k]` is where `nest.refs[k]`'s array
/// name appears in the source (diagnostics attach these to lints).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefSpan {
    /// Line of the reference's array name.
    pub line: usize,
    /// Column of the reference's array name.
    pub col: usize,
}

/// Parse kernel source text into a validated [`LoopNest`].
///
/// See the crate docs for the format. The returned nest has already
/// passed [`LoopNest::validate`]; errors carry 1-based source positions
/// for syntax problems and the IR's reference-indexed wording for
/// semantic ones.
pub fn parse(src: &str) -> Result<LoopNest, FrontendError> {
    parse_with_spans(src).map(|(nest, _)| nest)
}

/// As [`parse`], also returning one [`RefSpan`] per reference, in
/// reference-stream order. The `base 0;` rebase rewrites subscripts in
/// place without reordering the stream, so spans stay aligned.
pub fn parse_with_spans(src: &str) -> Result<(LoopNest, Vec<RefSpan>), FrontendError> {
    let tokens = lex(src)?;
    let mut p = Parser { tokens, pos: 0 };
    let (nest, spans) = p.program()?;
    nest.validate().map_err(FrontendError::Invalid)?;
    debug_assert_eq!(nest.refs.len(), spans.len());
    Ok((nest, spans))
}

/// Lower a possibly *imperfect* nest into perfect sub-nests.
///
/// Where [`parse`] insists a block holds either exactly one `for` or a
/// statement list, `lower` accepts any interleaving of statements and
/// nested `for` towers (and several towers at top level) and splits the
/// program at statement boundaries: every maximal run of statements
/// becomes one perfect [`LoopNest`] under its full enclosing loop tower,
/// in textual order — statement-major fission. Sub-nests are named
/// `{kernel}__s{k}` (`k` counting runs in textual order), share the full
/// array table (so array ids and layouts agree across sub-nests), and
/// each passes [`LoopNest::validate`].
///
/// Concatenating the sub-nests' access streams tower-by-tower reproduces
/// the statement-major reading of the source: for each run, its tower's
/// iteration space in lexicographic order, the run's references in
/// textual order per point.
pub fn lower(src: &str) -> Result<Vec<LoopNest>, FrontendError> {
    let tokens = lex(src)?;
    let mut p = Parser { tokens, pos: 0 };
    let nests = p.program_imperfect()?;
    for nest in &nests {
        nest.validate().map_err(FrontendError::Invalid)?;
    }
    Ok(nests)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos]
    }

    fn next(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn err_at(&self, tok: &Token, msg: impl Into<String>) -> FrontendError {
        FrontendError::Parse { line: tok.line, col: tok.col, msg: msg.into() }
    }

    fn expect(&mut self, want: Tok) -> Result<Token, FrontendError> {
        let t = self.next();
        if t.kind == want {
            Ok(t)
        } else {
            Err(self.err_at(&t, format!("expected {want}, found {}", t.kind)))
        }
    }

    fn expect_ident(&mut self, what: &str) -> Result<(String, Token), FrontendError> {
        let t = self.next();
        match &t.kind {
            Tok::Ident(s) => Ok((s.clone(), t.clone())),
            other => Err(self.err_at(&t, format!("expected {what}, found {other}"))),
        }
    }

    /// A possibly negated integer literal.
    fn expect_int(&mut self, what: &str) -> Result<i64, FrontendError> {
        let neg = self.peek().kind == Tok::Minus;
        if neg {
            self.next();
        }
        let t = self.next();
        match &t.kind {
            Tok::Int(v) => Ok(if neg { -v } else { *v }),
            other => Err(self.err_at(&t, format!("expected {what}, found {other}"))),
        }
    }

    fn program(&mut self) -> Result<(LoopNest, Vec<RefSpan>), FrontendError> {
        let (name, base, arrays) = self.header()?;

        // The loop tower and its body.
        let mut loops: Vec<LoopDef> = Vec::new();
        let mut refs: Vec<(MemRef, RefSpan)> = Vec::new();
        self.for_tower(&arrays, &mut loops, &mut refs)?;
        self.expect(Tok::Eof)?;
        finalize_bounds(&mut loops);

        let (refs, spans) = refs.into_iter().unzip();
        let mut nest =
            LoopNest { name: name.unwrap_or_else(|| "inline".to_string()), loops, arrays, refs };
        if base == Some(0) {
            rebase_to_one(&mut nest);
        }
        Ok((nest, spans))
    }

    /// As [`Self::program`], accepting imperfect nesting: statement runs
    /// and `for` towers interleave freely; each run snapshots one perfect
    /// sub-nest (see [`lower`]).
    fn program_imperfect(&mut self) -> Result<Vec<LoopNest>, FrontendError> {
        let (name, base, arrays) = self.header()?;
        let name = name.unwrap_or_else(|| "inline".to_string());
        let mut loops: Vec<LoopDef> = Vec::new();
        let mut out: Vec<LoopNest> = Vec::new();
        let mut counter = 0usize;
        while matches!(&self.peek().kind, Tok::Ident(w) if w == "for") {
            self.imperfect_tower(&arrays, &mut loops, &name, &mut counter, &mut out)?;
        }
        let eof = self.expect(Tok::Eof)?;
        if out.is_empty() {
            return Err(self.err_at(&eof, "the program has no statements to lower"));
        }
        if base == Some(0) {
            for nest in &mut out {
                rebase_to_one(nest);
            }
        }
        Ok(out)
    }

    /// Header: directives and declarations, any order, until `for`.
    #[allow(clippy::type_complexity)]
    fn header(&mut self) -> Result<(Option<String>, Option<i64>, Vec<ArrayDecl>), FrontendError> {
        let mut name: Option<String> = None;
        let mut base: Option<i64> = None;
        let mut arrays: Vec<ArrayDecl> = Vec::new();
        loop {
            let tok = self.peek().clone();
            match &tok.kind {
                Tok::Ident(word) => match word.as_str() {
                    "for" => break,
                    "kernel" => {
                        self.next();
                        if name.is_some() {
                            return Err(self.err_at(&tok, "duplicate `kernel` directive"));
                        }
                        let t = self.next();
                        name = Some(match &t.kind {
                            Tok::Ident(s) => s.clone(),
                            Tok::Str(s) => s.clone(),
                            other => {
                                return Err(
                                    self.err_at(&t, format!("expected kernel name, found {other}"))
                                )
                            }
                        });
                        self.expect(Tok::Semi)?;
                    }
                    "base" => {
                        self.next();
                        if base.is_some() {
                            return Err(self.err_at(&tok, "duplicate `base` directive"));
                        }
                        let v = self.expect_int("0 or 1")?;
                        if v != 0 && v != 1 {
                            return Err(self.err_at(&tok, "`base` must be 0 or 1"));
                        }
                        base = Some(v);
                        self.expect(Tok::Semi)?;
                    }
                    _ => {
                        let decl = self.declaration(&arrays)?;
                        arrays.push(decl);
                    }
                },
                Tok::Eof => return Err(self.err_at(&tok, "expected a `for` loop nest")),
                other => {
                    return Err(self
                        .err_at(&tok, format!("expected a declaration or `for`, found {other}")))
                }
            }
        }
        Ok((name, base, arrays))
    }

    /// `[rowmajor|colmajor] TYPE NAME [E]... ;` — `TYPE` is `float`,
    /// `double` or `realN`. The layout prefix applies to this
    /// declaration only (the default is always column-major).
    fn declaration(&mut self, arrays: &[ArrayDecl]) -> Result<ArrayDecl, FrontendError> {
        let mut decl_layout = Layout::ColumnMajor;
        let (mut word, mut tok) = self.expect_ident("an element type")?;
        if word == "rowmajor" || word == "colmajor" {
            decl_layout = if word == "rowmajor" { Layout::RowMajor } else { Layout::ColumnMajor };
            (word, tok) = self.expect_ident("an element type")?;
        }
        let elem_size = match word.as_str() {
            "float" => 4,
            "double" => 8,
            w if is_keyword(w) && w.starts_with("real") => w[4..]
                .parse::<i64>()
                .map_err(|_| self.err_at(&tok, format!("element size in `{w}` overflows i64")))?,
            other => {
                return Err(self.err_at(
                    &tok,
                    format!("unknown element type `{other}` (use float, double or realN)"),
                ))
            }
        };
        let (name, name_tok) = self.expect_ident("an array name")?;
        if is_keyword(&name) {
            return Err(self.err_at(&name_tok, format!("`{name}` is a reserved word")));
        }
        if arrays.iter().any(|a| a.name == name) {
            return Err(self.err_at(&name_tok, format!("array `{name}` declared twice")));
        }
        let mut extents = Vec::new();
        while self.peek().kind == Tok::LBracket {
            self.next();
            extents.push(self.expect_int("an array extent")?);
            self.expect(Tok::RBracket)?;
        }
        if extents.is_empty() {
            return Err(
                self.err_at(&name_tok, format!("array `{name}` needs at least one `[extent]`"))
            );
        }
        self.expect(Tok::Semi)?;
        Ok(ArrayDecl { name, extents, elem_size, layout: decl_layout })
    }

    /// One `for (v = lo; v <= hi; v++) {` header. Bounds are affine in
    /// the *outer* loop variables (`loops` so far); a constant expression
    /// folds to a plain constant bound, keeping rectangular nests
    /// byte-identical on the wire. The returned def's affine forms span
    /// only the outer variables — [`finalize_bounds`] widens them to the
    /// final nest depth.
    fn for_header(
        &mut self,
        arrays: &[ArrayDecl],
        loops: &[LoopDef],
    ) -> Result<LoopDef, FrontendError> {
        let (word, tok) = self.expect_ident("`for`")?;
        if word != "for" {
            return Err(self.err_at(&tok, format!("expected `for`, found `{word}`")));
        }
        self.expect(Tok::LParen)?;
        let (var, var_tok) = self.expect_ident("a loop variable")?;
        if is_keyword(&var) {
            return Err(self.err_at(&var_tok, format!("`{var}` is a reserved word")));
        }
        if loops.iter().any(|l| l.name == var) || arrays.iter().any(|a| a.name == var) {
            return Err(self.err_at(&var_tok, format!("name `{var}` is already in use")));
        }
        self.expect(Tok::Assign)?;
        let lo_tok = self.peek().clone();
        let lo_form = self.affine(loops)?;
        self.expect(Tok::Semi)?;
        let (cond_var, cond_tok) = self.expect_ident("the loop variable")?;
        if cond_var != var {
            return Err(self.err_at(
                &cond_tok,
                format!("condition tests `{cond_var}`, loop variable is `{var}`"),
            ));
        }
        let strict = match self.next() {
            t if t.kind == Tok::Le => false,
            t if t.kind == Tok::Lt => true,
            t => return Err(self.err_at(&t, format!("expected `<` or `<=`, found {}", t.kind))),
        };
        let hi_tok = self.peek().clone();
        let mut hi_form = self.affine(loops)?;
        if strict {
            hi_form = hi_form.shift(-1);
        }
        self.expect(Tok::Semi)?;
        let (inc_var, inc_tok) = self.expect_ident("the loop variable")?;
        if inc_var != var {
            return Err(self.err_at(
                &inc_tok,
                format!("increment updates `{inc_var}`, loop variable is `{var}`"),
            ));
        }
        match self.next() {
            t if t.kind == Tok::PlusPlus => {}
            t if t.kind == Tok::PlusEq => {
                let step_tok = self.peek().clone();
                let step = self.expect_int("a step")?;
                if step != 1 {
                    return Err(self.err_at(
                        &step_tok,
                        format!("only unit-stride loops are supported, got step {step}"),
                    ));
                }
            }
            t => return Err(self.err_at(&t, format!("expected `++` or `+= 1`, found {}", t.kind))),
        }
        self.expect(Tok::RParen)?;
        self.expect(Tok::LBrace)?;
        // Constant hull of each bound over the outer loops' hull
        // intervals — the IR's canonical hull rule.
        let lo = self.hull_bound(&lo_form, loops, false, &lo_tok)?;
        let hi = self.hull_bound(&hi_form, loops, true, &hi_tok)?;
        Ok(LoopDef::with_affine_bounds(
            var,
            lo,
            hi,
            Some(lo_form).filter(|f| !f.is_constant()),
            Some(hi_form).filter(|f| !f.is_constant()),
        ))
    }

    /// Interval-hull endpoint of a bound form over the outer loops' hull
    /// ranges, in widened arithmetic.
    fn hull_bound(
        &self,
        form: &AffineForm,
        loops: &[LoopDef],
        want_max: bool,
        tok: &Token,
    ) -> Result<i64, FrontendError> {
        let mut acc = form.c0 as i128;
        for (c, l) in form.coeffs.iter().zip(loops) {
            let (a, b) = ((*c as i128) * (l.lo as i128), (*c as i128) * (l.hi as i128));
            acc += if want_max { a.max(b) } else { a.min(b) };
        }
        i64::try_from(acc).map_err(|_| self.err_at(tok, "loop bound overflows i64"))
    }

    /// One `for` header + its block; recurses while the block holds
    /// another `for`, otherwise parses body statements. Enforces perfect
    /// nesting: a block is either one `for` or a statement list.
    fn for_tower(
        &mut self,
        arrays: &[ArrayDecl],
        loops: &mut Vec<LoopDef>,
        refs: &mut Vec<(MemRef, RefSpan)>,
    ) -> Result<(), FrontendError> {
        let def = self.for_header(arrays, loops)?;
        loops.push(def);

        if matches!(&self.peek().kind, Tok::Ident(w) if w == "for") {
            self.for_tower(arrays, loops, refs)?;
        } else {
            while self.peek().kind != Tok::RBrace {
                self.statement(arrays, loops, refs)?;
            }
        }
        self.expect(Tok::RBrace)?;
        Ok(())
    }

    /// One `for` header + a block interleaving statement runs and nested
    /// towers (the imperfect grammar behind [`lower`]). Each maximal
    /// statement run snapshots a perfect sub-nest over the current tower.
    fn imperfect_tower(
        &mut self,
        arrays: &[ArrayDecl],
        loops: &mut Vec<LoopDef>,
        kernel: &str,
        counter: &mut usize,
        out: &mut Vec<LoopNest>,
    ) -> Result<(), FrontendError> {
        let def = self.for_header(arrays, loops)?;
        loops.push(def);
        loop {
            match &self.peek().kind {
                Tok::RBrace => break,
                Tok::Ident(w) if w == "for" => {
                    self.imperfect_tower(arrays, loops, kernel, counter, out)?;
                }
                _ => {
                    let mut refs: Vec<(MemRef, RefSpan)> = Vec::new();
                    loop {
                        match &self.peek().kind {
                            Tok::RBrace => break,
                            Tok::Ident(w) if w == "for" => break,
                            _ => self.statement(arrays, loops, &mut refs)?,
                        }
                    }
                    let mut sub_loops = loops.clone();
                    finalize_bounds(&mut sub_loops);
                    out.push(LoopNest {
                        name: format!("{kernel}__s{counter}"),
                        loops: sub_loops,
                        arrays: arrays.to_vec(),
                        refs: refs.into_iter().map(|(r, _)| r).collect(),
                    });
                    *counter += 1;
                }
            }
        }
        self.expect(Tok::RBrace)?;
        loops.pop();
        Ok(())
    }

    /// One body statement; appends its reference stream to `refs`.
    fn statement(
        &mut self,
        arrays: &[ArrayDecl],
        loops: &[LoopDef],
        refs: &mut Vec<(MemRef, RefSpan)>,
    ) -> Result<(), FrontendError> {
        if matches!(&self.peek().kind, Tok::Ident(w) if w == "load") {
            self.next();
            self.expression(arrays, loops, refs)?;
            self.expect(Tok::Semi)?;
            return Ok(());
        }
        let tok = self.peek().clone();
        let Tok::Ident(_) = &tok.kind else {
            return Err(self.err_at(&tok, format!("expected a statement, found {}", tok.kind)));
        };
        let first = self.reference(arrays, loops)?;
        let assign = match self.peek().kind {
            Tok::Assign => Some(false),
            Tok::PlusEq | Tok::MinusEq | Tok::StarEq | Tok::SlashEq => Some(true),
            _ => None,
        };
        match assign {
            Some(read_modify_write) => {
                let Some((lhs, span)) = first else {
                    return Err(self.err_at(&tok, "cannot assign to a loop variable"));
                };
                self.next();
                if read_modify_write {
                    refs.push((MemRef { access: AccessKind::Read, ..lhs.clone() }, span));
                }
                self.expression(arrays, loops, refs)?;
                refs.push((MemRef { access: AccessKind::Write, ..lhs }, span));
            }
            None => {
                // Expression statement: the parsed prefix is a read,
                // whatever follows adds more reads.
                if let Some(r) = first {
                    refs.push(r);
                }
                self.expression_tail(arrays, loops, refs)?;
            }
        }
        self.expect(Tok::Semi)?;
        Ok(())
    }

    /// `IDENT [aff]...` — an array reference (as a read) with its source
    /// span, or `None` when the identifier is a bare loop variable.
    fn reference(
        &mut self,
        arrays: &[ArrayDecl],
        loops: &[LoopDef],
    ) -> Result<Option<(MemRef, RefSpan)>, FrontendError> {
        let (name, tok) = self.expect_ident("an array reference")?;
        if self.peek().kind != Tok::LBracket {
            if loops.iter().any(|l| l.name == name) {
                return Ok(None); // loop variable used as a value
            }
            return Err(self.err_at(
                &tok,
                format!("`{name}` is not a loop variable and has no subscripts (scalars are not modelled; declare an array)"),
            ));
        }
        let Some(idx) = arrays.iter().position(|a| a.name == name) else {
            return Err(self.err_at(&tok, format!("array `{name}` is not declared")));
        };
        let mut subscripts = Vec::new();
        while self.peek().kind == Tok::LBracket {
            self.next();
            subscripts.push(self.affine(loops)?);
            self.expect(Tok::RBracket)?;
        }
        let span = RefSpan { line: tok.line, col: tok.col };
        Ok(Some((MemRef { array: ArrayId(idx), subscripts, access: AccessKind::Read }, span)))
    }

    /// Body expression: scanned for array references (in textual order —
    /// that *is* the semantics the cache model sees); arithmetic shape is
    /// not interpreted.
    fn expression(
        &mut self,
        arrays: &[ArrayDecl],
        loops: &[LoopDef],
        refs: &mut Vec<(MemRef, RefSpan)>,
    ) -> Result<(), FrontendError> {
        self.unary(arrays, loops, refs)?;
        self.expression_tail(arrays, loops, refs)
    }

    fn expression_tail(
        &mut self,
        arrays: &[ArrayDecl],
        loops: &[LoopDef],
        refs: &mut Vec<(MemRef, RefSpan)>,
    ) -> Result<(), FrontendError> {
        while matches!(self.peek().kind, Tok::Plus | Tok::Minus | Tok::Star | Tok::Slash) {
            self.next();
            self.unary(arrays, loops, refs)?;
        }
        Ok(())
    }

    fn unary(
        &mut self,
        arrays: &[ArrayDecl],
        loops: &[LoopDef],
        refs: &mut Vec<(MemRef, RefSpan)>,
    ) -> Result<(), FrontendError> {
        let tok = self.peek().clone();
        match &tok.kind {
            Tok::Minus => {
                self.next();
                self.unary(arrays, loops, refs)
            }
            Tok::Int(_) => {
                self.next();
                Ok(())
            }
            Tok::LParen => {
                self.next();
                self.expression(arrays, loops, refs)?;
                self.expect(Tok::RParen)?;
                Ok(())
            }
            Tok::Ident(_) => {
                if let Some(r) = self.reference(arrays, loops)? {
                    refs.push(r);
                }
                Ok(())
            }
            other => Err(self.err_at(&tok, format!("expected an operand, found {other}"))),
        }
    }

    /// Affine subscript expression over the loop variables.
    fn affine(&mut self, loops: &[LoopDef]) -> Result<AffineForm, FrontendError> {
        let mut acc = self.affine_term(loops)?;
        loop {
            match self.peek().kind {
                Tok::Plus => {
                    self.next();
                    acc = acc.add(&self.affine_term(loops)?);
                }
                Tok::Minus => {
                    self.next();
                    acc = acc.sub(&self.affine_term(loops)?);
                }
                _ => return Ok(acc),
            }
        }
    }

    fn affine_term(&mut self, loops: &[LoopDef]) -> Result<AffineForm, FrontendError> {
        let mut acc = self.affine_factor(loops)?;
        while self.peek().kind == Tok::Star {
            let tok = self.next();
            let rhs = self.affine_factor(loops)?;
            if rhs.is_constant() {
                acc = acc.scale(rhs.c0);
            } else if acc.is_constant() {
                acc = rhs.scale(acc.c0);
            } else {
                return Err(self.err_at(
                    &tok,
                    "non-affine subscript: cannot multiply two loop-variable expressions",
                ));
            }
        }
        Ok(acc)
    }

    fn affine_factor(&mut self, loops: &[LoopDef]) -> Result<AffineForm, FrontendError> {
        let tok = self.next();
        match &tok.kind {
            Tok::Minus => Ok(self.affine_factor(loops)?.scale(-1)),
            Tok::Int(v) => Ok(AffineForm::constant(loops.len(), *v)),
            Tok::LParen => {
                let inner = self.affine(loops)?;
                self.expect(Tok::RParen)?;
                Ok(inner)
            }
            Tok::Ident(name) => match loops.iter().position(|l| &l.name == name) {
                Some(v) => Ok(AffineForm::var(loops.len(), v)),
                None => Err(self.err_at(
                    &tok,
                    format!("`{name}` is not a loop variable (subscripts must be affine in the loop variables)"),
                )),
            },
            other => Err(self.err_at(&tok, format!("expected a subscript term, found {other}"))),
        }
    }
}

/// Widen each loop's affine bound forms (parsed over its own outer
/// prefix) to span the full nest depth — the IR invariant. Coefficients
/// at the loop's own level and deeper stay zero.
fn finalize_bounds(loops: &mut [LoopDef]) {
    let depth = loops.len();
    for l in loops {
        for f in [&mut l.lo_aff, &mut l.hi_aff].into_iter().flatten() {
            let mut coeffs = f.coeffs.clone();
            coeffs.resize(depth, 0);
            *f = AffineForm::new(coeffs, f.c0);
        }
    }
}

/// Shift a `base 0;` nest onto the IR's 1-based convention without
/// changing its access pattern: every loop runs `[lo+1, hi+1]` and each
/// subscript is rewritten under the substitution `i ↦ i − 1` plus the
/// 0-based→1-based array shift, i.e. `c0 ↦ c0 − Σ coeffs + 1`. The
/// touched addresses (and therefore the analysis) are identical. Affine
/// loop bounds shift alongside: the bound value itself moves up by one
/// while its arguments (the shifted outer variables) move too, so
/// `c0 ↦ c0 + 1 − Σ coeffs`.
fn rebase_to_one(nest: &mut LoopNest) {
    for l in &mut nest.loops {
        l.lo += 1;
        l.hi += 1;
        for f in [&mut l.lo_aff, &mut l.hi_aff].into_iter().flatten() {
            let coeff_sum: i64 = f.coeffs.iter().sum();
            *f = f.shift(1 - coeff_sum);
        }
    }
    for r in &mut nest.refs {
        for s in &mut r.subscripts {
            let coeff_sum: i64 = s.coeffs.iter().sum();
            *s = s.shift(1 - coeff_sum);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MM8: &str = "
        kernel MM_8;
        real4 a[8][8];
        real4 b[8][8];
        real4 c[8][8];
        base 0;
        for (i = 0; i < 8; i++) {
          for (j = 0; j < 8; j++) {
            for (k = 0; k < 8; k++) {
              a[i][j] += b[i][k] * c[k][j];
            }
          }
        }";

    #[test]
    fn base0_mm_equals_registry_mm() {
        // The C-style source above must produce the registry nest
        // *exactly* — same loop bounds, same affine forms, same ref
        // stream — so inline outcomes can be byte-identical to named ones.
        let parsed = parse(MM8).unwrap();
        let registry = cme_kernels::kernel_by_name("MM").unwrap();
        assert_eq!(parsed, (registry.build)(8).unwrap());
    }

    #[test]
    fn compound_assignment_reads_lhs_first() {
        let n = parse("real4 x[4]; for (i = 1; i <= 4; i++) { x[i] *= 2; }").unwrap();
        assert_eq!(n.refs.len(), 2);
        assert_eq!(n.refs[0].access, AccessKind::Read);
        assert_eq!(n.refs[1].access, AccessKind::Write);
        assert_eq!(n.refs[0].subscripts, n.refs[1].subscripts);
    }

    #[test]
    fn load_and_expression_statements_read_only() {
        let n = parse(
            "real4 x[4]; real8 y[4];
             for (i = 1; i <= 4; i++) { load x[i] + y[i]; x[i]; }",
        )
        .unwrap();
        assert_eq!(n.refs.len(), 3);
        assert!(n.refs.iter().all(|r| r.access == AccessKind::Read));
        assert_eq!(n.arrays[1].elem_size, 8);
    }

    #[test]
    fn affine_subscripts_parse() {
        let n = parse(
            "real4 cc[19];
             for (j = 1; j <= 9; j++) { cc[2*j - 1] = cc[19 - 2*j] + j; }",
        )
        .unwrap();
        assert_eq!(n.refs[0].subscripts[0], AffineForm::new(vec![-2], 19));
        assert_eq!(n.refs[1].subscripts[0], AffineForm::new(vec![2], -1));
    }

    #[test]
    fn triangular_bounds_parse() {
        let n = parse(
            "kernel tri;
             real4 a[9][9];
             for (i = 1; i <= 9; i++) {
               for (j = 1; j <= i; j++) { a[i][j] = 0; }
             }",
        )
        .unwrap();
        assert!(n.loops[0].is_rectangular());
        assert_eq!(n.loops[1].hi_aff, Some(AffineForm::new(vec![1, 0], 0)));
        assert_eq!((n.loops[1].lo, n.loops[1].hi), (1, 9), "hull of i over [1,9]");
        assert_eq!(n.iterations(), 45);
    }

    #[test]
    fn triangular_lower_bounds_parse() {
        // j from i to 6: upper-triangle walk via an affine *lower* bound.
        let n = parse(
            "real4 a[6][6];
             for (i = 1; i <= 6; i++) {
               for (j = i; j <= 6; j++) { a[i][j] = 0; }
             }",
        )
        .unwrap();
        assert_eq!(n.loops[1].lo_aff, Some(AffineForm::new(vec![1, 0], 0)));
        assert_eq!((n.loops[1].lo, n.loops[1].hi), (1, 6));
        assert_eq!(n.iterations(), 21);
    }

    #[test]
    fn strict_and_base0_triangular_bounds_rebase() {
        // C-style strict triangle: i in 0..8, j in 0..i. Rebasing to the
        // 1-based convention must rewrite the affine bound alongside the
        // hulls: j' <= i' - 1.
        let n = parse(
            "real4 a[8][8];
             base 0;
             for (i = 0; i < 8; i++) {
               for (j = 0; j < i; j++) { a[i][j] = 0; }
             }",
        )
        .unwrap();
        assert_eq!((n.loops[0].lo, n.loops[0].hi), (1, 8));
        assert_eq!(n.loops[1].hi_aff, Some(AffineForm::new(vec![1, 0], -1)));
        assert_eq!((n.loops[1].lo, n.loops[1].hi), (1, 7));
        assert_eq!(n.iterations(), 28); // sum over i' of (i' - 1)
    }

    #[test]
    fn affine_bound_referencing_the_loop_itself_is_rejected() {
        // `i` is not an *outer* variable of its own loop header.
        let e = parse("real4 a[4]; for (i = 1; i <= i; i++) { a[i] = 0; }").unwrap_err();
        assert!(matches!(e, FrontendError::Parse { .. }), "{e}");
    }

    #[test]
    fn lowering_splits_statement_runs_in_textual_order() {
        let subs = lower(
            "kernel imp;
             real4 x[4];
             real4 a[4][4];
             for (i = 1; i <= 4; i++) {
               x[i] = 0;
               for (j = 1; j <= i; j++) { a[i][j] = x[i]; }
               load x[i];
             }",
        )
        .unwrap();
        assert_eq!(subs.len(), 3);
        assert_eq!(
            subs.iter().map(|s| s.name.as_str()).collect::<Vec<_>>(),
            ["imp__s0", "imp__s1", "imp__s2"]
        );
        assert_eq!(subs.iter().map(LoopNest::depth).collect::<Vec<_>>(), [1, 2, 1]);
        // Sub-nests share one array table, so ids and layouts agree.
        assert_eq!(subs[0].arrays, subs[1].arrays);
        assert_eq!(subs[0].arrays, subs[2].arrays);
        // The triangular inner tower keeps its exact affine bound.
        assert_eq!(subs[1].loops[1].hi_aff, Some(AffineForm::new(vec![1, 0], 0)));
        assert_eq!(subs[1].iterations(), 10);
        // Each sub-nest is perfect: it renders and round-trips.
        for s in &subs {
            let src = crate::render(s).unwrap();
            assert_eq!(&parse(&src).unwrap(), s, "{src}");
        }
    }

    #[test]
    fn lowering_allows_sibling_towers_and_name_reuse() {
        let subs = lower(
            "real4 x[4]; real4 y[4];
             for (i = 1; i <= 4; i++) {
               for (j = 1; j <= 4; j++) { x[j] = 0; }
               for (j = 1; j <= 4; j++) { y[j] = 0; }
             }",
        )
        .unwrap();
        assert_eq!(subs.len(), 2);
        assert_eq!(subs[0].name, "inline__s0");
        assert_eq!(subs[1].name, "inline__s1");
        assert_eq!(subs[0].loops[1].name, "j");
        assert_eq!(subs[1].loops[1].name, "j");
    }

    #[test]
    fn lowering_handles_base0_and_top_level_siblings() {
        let subs = lower(
            "real4 x[8];
             base 0;
             for (i = 0; i < 8; i++) { x[i] = 0; }
             for (i = 0; i < 4; i++) { load x[i]; }",
        )
        .unwrap();
        assert_eq!(subs.len(), 2);
        assert_eq!((subs[0].loops[0].lo, subs[0].loops[0].hi), (1, 8));
        assert_eq!((subs[1].loops[0].lo, subs[1].loops[0].hi), (1, 4));
    }

    #[test]
    fn imperfect_nesting_is_rejected() {
        let e = parse(
            "real4 x[9];
             for (i = 1; i <= 3; i++) {
               x[i] = 0;
               for (j = 1; j <= 3; j++) { x[j] = 0; }
             }",
        )
        .unwrap_err();
        // The statement list may not be followed by a `for`: the inner
        // header's `(` trips the statement parser.
        assert!(matches!(e, FrontendError::Parse { .. }), "{e}");
    }

    #[test]
    fn spans_align_with_the_reference_stream() {
        let (nest, spans) = parse_with_spans(MM8).unwrap();
        assert_eq!(spans.len(), nest.refs.len());
        // Ref stream for `a[i][j] += b[i][k] * c[k][j]`: read a, read b,
        // read c, write a — the write's span is the *lhs* occurrence.
        assert_eq!(nest.refs.len(), 4);
        let stmt_line = spans[0].line;
        assert!(spans.iter().all(|s| s.line == stmt_line), "one statement, one line: {spans:?}");
        assert_eq!(spans[0], spans[3], "read-modify-write shares the lhs span");
        assert!(spans[0].col < spans[1].col && spans[1].col < spans[2].col, "{spans:?}");
    }

    #[test]
    fn semantic_errors_carry_ref_indices() {
        let e = parse("real4 x[4]; for (i = 1; i <= 5; i++) { x[i] = 1; }").unwrap_err();
        match e {
            FrontendError::Invalid(inner) => {
                assert!(inner.to_string().starts_with("ref 0 (`x`)"), "{inner}");
            }
            other => panic!("expected Invalid, got {other}"),
        }
    }

    #[test]
    fn syntax_errors_carry_positions() {
        let e = parse("real4 x[4]\nfor (i = 1; i <= 4; i++) { x[i] = 1; }").unwrap_err();
        match e {
            FrontendError::Parse { line, .. } => {
                assert_eq!(line, 2, "missing `;` flagged at the next token")
            }
            other => panic!("expected Parse, got {other}"),
        }
    }

    #[test]
    fn reserved_and_duplicate_names_are_rejected() {
        assert!(parse("real4 load[4]; for (i = 1; i <= 4; i++) {}").is_err());
        assert!(parse("real4 x[4]; real8 x[4]; for (i = 1; i <= 4; i++) {}").is_err());
        assert!(parse("real4 x[4]; for (x = 1; x <= 4; x++) {}").is_err());
        assert!(parse("for (i = 1; i <= 2; i++) { for (i = 1; i <= 2; i++) {} }").is_err());
    }
}
