//! Per-point miss classification — the §2.2 traversal method.

use crate::interference::InterferenceEngine;
use crate::lexmax::lexmax_at_level;
use crate::model::NestAnalysis;
use cme_polyhedra::boxes::lex_cmp;
use cme_polyhedra::Interval;

/// Outcome for one (iteration point, reference) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Classification {
    Hit,
    /// Compulsory miss: no same-line source access precedes this one.
    Cold,
    /// Replacement miss: the line was touched before but interference
    /// evicted it (capacity or conflict).
    Replacement,
}

/// Classify reference `ref_a` at analysis point `v0` for every level of
/// `engine`, writing one verdict per level into `out`.
///
/// Finds the most recent preceding access to the same memory line (see
/// `most_recent_source`), then decides hit vs. replacement per level with
/// a single interference walk (older sources see a superset of the
/// interference, so the most recent one is decisive). No source ⇒ cold at
/// every level. Both steps depend on the line size alone, so the levels
/// of one engine share them; only the set-conflict test is per level.
pub fn classify_point(
    an: &NestAnalysis,
    engine: &mut InterferenceEngine,
    v0: &[i64],
    ref_a: usize,
    out: &mut [Classification],
) {
    debug_assert_eq!(out.len(), engine.levels.len());
    let l0 = engine.line_of(an.addr[ref_a].eval(v0));
    let Some(src_pos) = most_recent_source(an, engine, v0, ref_a, l0) else {
        out.fill(Classification::Cold);
        return;
    };
    // Lend the source point out of the engine for the interference walk
    // (a move: the buffer keeps its allocation).
    let src = std::mem::take(&mut engine.source);
    engine.blocks_reuse(&an.space, &an.addr, &src, src_pos, v0, ref_a, l0);
    engine.source = src;
    for (c, level) in out.iter_mut().zip(&engine.levels) {
        *c = if level.blocked() { Classification::Replacement } else { Classification::Hit };
    }
}

/// The most recent access preceding `(v0, ref_a)` that touches line `l0`:
/// within the current iteration by direct scan over earlier body
/// references (any array), across iterations by the exact lexmax search
/// over uniformly generated references, deepest divergence level first.
/// Returns the source's body position and leaves its point in
/// `engine.source`; `None` when no access precedes (a cold miss).
pub(crate) fn most_recent_source(
    an: &NestAnalysis,
    engine: &mut InterferenceEngine,
    v0: &[i64],
    ref_a: usize,
    l0: i64,
) -> Option<usize> {
    // Intra-iteration sources: most recent earlier body position first.
    if let Some(pos) = (0..ref_a).rev().find(|&pos| engine.line_of(an.addr[pos].eval(v0)) == l0) {
        engine.source.clear();
        engine.source.extend_from_slice(v0);
        return Some(pos);
    }
    // Cross-iteration sources: deepest divergence level = most recent.
    let window = Interval::new(l0 * engine.line(), (l0 + 1) * engine.line() - 1);
    for s in (0..v0.len()).rev() {
        let mut best: Option<usize> = None;
        for &b in &an.uniform_sources[ref_a] {
            if !lexmax_at_level(
                &an.space,
                &an.addr[b],
                &an.suffix[b],
                v0,
                window,
                s,
                &mut engine.candidate,
            ) {
                continue;
            }
            let better = match best {
                None => true,
                Some(bpos) => match lex_cmp(&engine.candidate, &engine.source) {
                    std::cmp::Ordering::Greater => true,
                    std::cmp::Ordering::Equal => b > bpos,
                    std::cmp::Ordering::Less => false,
                },
            };
            if better {
                std::mem::swap(&mut engine.candidate, &mut engine.source);
                best = Some(b);
            }
        }
        if best.is_some() {
            return best;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::CmeModel;
    use crate::CacheSpec;
    use cme_loopnest::builder::{sub, NestBuilder};
    use cme_loopnest::MemoryLayout;

    /// Streaming read of x(i): first element of each line is cold, the
    /// rest hit (no interference anywhere).
    #[test]
    fn streaming_classification() {
        let mut nb = NestBuilder::new("stream");
        let i = nb.add_loop("i", 1, 64);
        let x = nb.array("x", &[64]);
        nb.read(x, &[sub(i)]);
        let nest = nb.finish().unwrap();
        let layout = MemoryLayout::contiguous(&nest);
        let model = CmeModel::new(CacheSpec::direct_mapped(256, 32));
        let an = model.analyze(&nest, &layout, None);
        let mut eng = an.engine();
        let mut cold = 0;
        let mut hit = 0;
        let mut c = [Classification::Hit];
        for i in 1..=64i64 {
            classify_point(&an, &mut eng, &[i], 0, &mut c);
            match c[0] {
                Classification::Cold => cold += 1,
                Classification::Hit => hit += 1,
                Classification::Replacement => panic!("streaming cannot replace"),
            }
        }
        assert_eq!(cold, 8); // 64 elements × 4 B / 32 B lines
        assert_eq!(hit, 56);
    }

    /// Two aliased arrays ping-ponging in a direct-mapped cache.
    #[test]
    fn pingpong_classification() {
        let mut nb = NestBuilder::new("pingpong");
        let i = nb.add_loop("i", 1, 16);
        let x = nb.array("x", &[16]);
        let y = nb.array("y", &[16]);
        nb.read(x, &[sub(i)]);
        nb.read(y, &[sub(i)]);
        let nest = nb.finish().unwrap();
        let layout = MemoryLayout::contiguous(&nest);
        // 64-byte cache, 8-byte lines: x and y are 64 bytes apart — alias.
        let model = CmeModel::new(CacheSpec::direct_mapped(64, 8));
        let an = model.analyze(&nest, &layout, None);
        let mut eng = an.engine();
        let mut repl = 0;
        let mut c = [Classification::Hit];
        for i in 1..=16i64 {
            for r in 0..2 {
                classify_point(&an, &mut eng, &[i], r, &mut c);
                if c[0] == Classification::Replacement {
                    repl += 1;
                }
            }
        }
        // Elements per line = 2: within each line, after the two cold
        // touches the remaining x/y accesses all replace.
        assert!(repl >= 16, "ping-pong must produce many replacement misses, got {repl}");
    }
}
