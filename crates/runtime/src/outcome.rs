//! The outcome, lint and compare memos, keyed by the *canonical*
//! serialisation of a parsed request, and the request-body alias in front
//! of them.
//!
//! Canonical means the key is produced by re-serialising the **parsed**
//! request, so two JSON bodies that differ in object key order,
//! whitespace, or spelled-out default fields collapse onto one entry.
//! Values are stored as their served form, [`Encoded`]: the JSON text of
//! the timing-stripped answer ([`Outcome::without_timing`] and its lint
//! and compare counterparts), encoded once when the answer is computed.
//! A hit copies that text and re-stamps `wall_ms` with the (near-zero)
//! time the lookup took, so it is byte-identical to a fresh run modulo
//! `wall_ms` with no decode and no re-encode. Every search in the suite
//! is deterministic for a fixed request, which is what makes memoisation
//! sound in the first place.
//!
//! The alias maps the exact bytes of a request body, per [`Route`], to
//! the canonical key they parse to, so a byte-identical repeat skips
//! parsing and canonicalisation too. It never answers on its own: the
//! key it yields is looked up in the route's memo, the only owner of
//! answers, and since a canonical key is a pure function of the body
//! bytes an alias cannot go stale.
//!
//! [`TieredOutcomeCache`] fronts the hot outcome [`Memo`] with an optional
//! persistent layer ([`DiskTier`]): misses fall through to disk, disk
//! hits are promoted back into the hot tier as text, inserts feed both.

use crate::memo::{CacheStats, Footprint, Memo, Stored};
use crate::persist::{DiskStats, DiskTier};
use cme_api::{CompareOutcome, CompareRequest, LintOutcome, LintRequest, OptimizeRequest, Outcome};
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::hash::{Hash, Hasher};
use std::marker::PhantomData;
use std::sync::Arc;

/// The cache key for a request: its serialised form after parsing, which
/// normalises field order and defaults. (Serialisation of a parsed
/// request cannot fail; the debug form is a defensive fallback, not a
/// second key space.)
pub fn canonical_key(req: &OptimizeRequest) -> String {
    // A spelled-out `estimator` (only ever `"cme"`) collapses onto the
    // field-absent form: same behaviour ⇒ same entry. The common absent
    // case serialises without a clone.
    if req.estimator.is_some() {
        let mut r = req.clone();
        r.estimator = None;
        return serde_json::to_string(&r).unwrap_or_else(|_| format!("unserialisable:{r:?}"));
    }
    serde_json::to_string(req).unwrap_or_else(|_| format!("unserialisable:{req:?}"))
}

/// The cache key for a lint request (same canonicalisation rule).
pub fn canonical_lint_key(req: &LintRequest) -> String {
    serde_json::to_string(req).unwrap_or_else(|_| format!("unserialisable:{req:?}"))
}

/// The cache key for a compare request. Two extra normalisations on top
/// of the canonical-serialisation rule: the base request's own
/// `strategy` field is pinned to a fixed value (the tournament ignores
/// it — `strategies` selects the entrants), and a spelled-out
/// `estimator` collapses onto the field-absent form, both so requests
/// that answer identically share one entry.
pub fn canonical_compare_key(req: &CompareRequest) -> String {
    let mut r = req.clone();
    r.base.strategy = cme_api::StrategySpec::Tiling;
    r.base.estimator = None;
    serde_json::to_string(&r).unwrap_or_else(|_| format!("unserialisable:{r:?}"))
}

/// An answer type the memos keep encoded. Its only non-deterministic
/// field is the `wall_ms` stamp, which it serialises last.
pub trait Answer: Serialize + Deserialize {
    /// A copy with every wall-clock field zeroed.
    fn without_timing(&self) -> Self;
    /// Set the answer's own `wall_ms`.
    fn stamp(&mut self, wall_ms: u64);
}

macro_rules! answer {
    ($($t:ty),*) => {$(
        impl Answer for $t {
            fn without_timing(&self) -> $t {
                <$t>::without_timing(self)
            }

            fn stamp(&mut self, wall_ms: u64) {
                self.wall_ms = wall_ms;
            }
        }
    )*};
}

answer!(Outcome, LintOutcome, CompareOutcome);

/// The tail of every stored text: the zeroed stamp closing the object.
const UNSTAMPED: &str = "\"wall_ms\":0}";

/// An answer in the form it is served in: the JSON text of its
/// timing-stripped form, encoded once. The one text feeds the memo, the
/// disk line and the response; typed readers decode it.
pub struct Encoded<T> {
    text: Arc<str>,
    answer: PhantomData<fn() -> T>,
}

impl<T> Clone for Encoded<T> {
    fn clone(&self) -> Self {
        Encoded { text: Arc::clone(&self.text), answer: PhantomData }
    }
}

impl<T> std::fmt::Debug for Encoded<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Encoded").field(&self.text).finish()
    }
}

impl<T> PartialEq for Encoded<T> {
    fn eq(&self, other: &Self) -> bool {
        self.text == other.text
    }
}

impl<T: Answer> Encoded<T> {
    /// Encode `answer`'s timing-stripped form.
    pub fn new(answer: &T) -> Result<Self, serde_json::Error> {
        let text = serde_json::to_string(&answer.without_timing())?;
        Ok(Encoded { text: text.into(), answer: PhantomData })
    }

    /// The stored text: the answer with `wall_ms` 0.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The response body: the stored text with `wall_ms` re-stamped,
    /// byte-identical to encoding the answer with that stamp. The stamp
    /// is the text's tail, so this is a copy; a text without that tail is
    /// re-encoded from its decoded form instead.
    pub fn body(&self, wall_ms: u64) -> String {
        if wall_ms == 0 {
            return self.text.to_string();
        }
        match self.text.strip_suffix(UNSTAMPED) {
            Some(head) => {
                let mut body = String::with_capacity(self.text.len() + 20);
                body.push_str(head);
                body.push_str("\"wall_ms\":");
                body.push_str(&wall_ms.to_string());
                body.push('}');
                body
            }
            None => self.restamped(wall_ms).unwrap_or_else(|| self.text.to_string()),
        }
    }

    fn restamped(&self, wall_ms: u64) -> Option<String> {
        let mut answer = self.load()?;
        answer.stamp(wall_ms);
        serde_json::to_string(&answer).ok()
    }
}

impl<T: Answer> Stored for Encoded<T> {
    type Value = T;

    fn store(value: &T) -> Option<Self> {
        Encoded::new(value).ok()
    }

    fn load(&self) -> Option<T> {
        serde_json::from_str(&self.text).ok()
    }
}

impl<T> Footprint for Encoded<T> {
    fn footprint(&self) -> usize {
        self.text.len()
    }
}

/// The routes whose answers are memoised. Aliases are kept per route, so
/// the same bytes sent to two routes never share one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Route {
    Optimize,
    Lint,
    Compare,
}

/// Bodies longer than this are never aliased (nor looked up): their
/// repeats pay the parse, and one alias holds at most this much body.
pub const MAX_ALIASED_BODY: usize = 16 * 1024;

/// An alias key: a route and the exact body bytes sent to it.
#[derive(Debug, Clone)]
pub struct BodyKey {
    route: Route,
    body: Box<[u8]>,
}

impl BodyKey {
    pub fn new(route: Route, body: &[u8]) -> Self {
        BodyKey { route, body: body.into() }
    }
}

/// What an alias lookup hashes and compares: a route and body bytes,
/// owned ([`BodyKey`]) or borrowed (`(Route, &[u8])`), so a lookup never
/// copies the body.
pub trait BodyView {
    fn view(&self) -> (Route, &[u8]);
}

impl BodyView for BodyKey {
    fn view(&self) -> (Route, &[u8]) {
        (self.route, &self.body)
    }
}

impl BodyView for (Route, &[u8]) {
    fn view(&self) -> (Route, &[u8]) {
        (self.0, self.1)
    }
}

impl<'a> Borrow<dyn BodyView + 'a> for BodyKey {
    fn borrow(&self) -> &(dyn BodyView + 'a) {
        self
    }
}

impl Hash for dyn BodyView + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.view().hash(state);
    }
}

impl PartialEq for dyn BodyView + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.view() == other.view()
    }
}

impl Eq for dyn BodyView + '_ {}

// Hashed and compared through the view, as `Borrow` requires.
impl Hash for BodyKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.view().hash(state);
    }
}

impl PartialEq for BodyKey {
    fn eq(&self, other: &Self) -> bool {
        self.view() == other.view()
    }
}

impl Eq for BodyKey {}

impl Footprint for BodyKey {
    fn footprint(&self) -> usize {
        self.body.len()
    }
}

/// An alias's value: the canonical key, shared rather than copied on a
/// hit.
impl Stored for Arc<str> {
    type Value = Arc<str>;

    fn store(key: &Arc<str>) -> Option<Self> {
        Some(Arc::clone(key))
    }

    fn load(&self) -> Option<Arc<str>> {
        Some(Arc::clone(self))
    }
}

/// The request-body alias memo.
pub type BodyAliases = Memo<BodyKey, Arc<str>>;

/// Which tier answered a [`TieredOutcomeCache`] lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    Hot,
    Disk,
}

/// The hot outcome memo backed by an optional persistent layer. Both
/// tiers keep the timing-stripped text.
pub struct TieredOutcomeCache {
    hot: Memo<String, Encoded<Outcome>>,
    disk: Option<DiskTier>,
}

impl TieredOutcomeCache {
    /// A hot tier of `capacity` entries, backed by `disk` when given.
    pub fn new(capacity: usize, disk: Option<DiskTier>) -> Self {
        TieredOutcomeCache { hot: Memo::new(capacity), disk }
    }

    /// Look up a key across the tiers, as served text; a disk hit is
    /// promoted into the hot tier so the next lookup stays in memory.
    pub fn lookup(&self, key: &str) -> Option<(Encoded<Outcome>, Tier)> {
        match self.hot.get_stored(key) {
            Some(hit) => Some((hit, Tier::Hot)),
            None => self.promote(key).map(|(_, hit)| (hit, Tier::Disk)),
        }
    }

    /// Look up a key across the tiers and decode the answer.
    pub fn get_tiered(&self, key: &str) -> Option<(Outcome, Tier)> {
        match self.hot.get(key) {
            Some(out) => Some((out, Tier::Hot)),
            None => self.promote(key).map(|(out, _)| (out, Tier::Disk)),
        }
    }

    /// Tier-blind typed lookup.
    pub fn get(&self, key: &str) -> Option<Outcome> {
        self.get_tiered(key).map(|(out, _)| out)
    }

    /// A disk hit, decoded (which validates it) and promoted as text.
    fn promote(&self, key: &str) -> Option<(Outcome, Encoded<Outcome>)> {
        let out = self.disk.as_ref()?.get(key)?;
        let hit = Encoded::new(&out).ok()?;
        self.hot.insert_stored(key.to_string(), hit.clone());
        Some((out, hit))
    }

    /// Encode `outcome` and store it in both tiers.
    pub fn insert(&self, key: String, outcome: &Outcome) {
        if let Ok(encoded) = Encoded::new(outcome) {
            self.insert_encoded(key, encoded);
        }
    }

    /// Store an encoded outcome in the hot tier and (when configured)
    /// queue its disk line.
    pub fn insert_encoded(&self, key: String, outcome: Encoded<Outcome>) {
        if let Some(disk) = &self.disk {
            disk.insert(&key, &outcome);
        }
        self.hot.insert_stored(key, outcome);
    }

    /// Flush the persistent layer (no-op without one); returns entries
    /// written.
    pub fn flush(&self) -> usize {
        self.disk.as_ref().map_or(0, DiskTier::flush)
    }

    /// Hot-tier telemetry (a disk hit counts as a hot miss plus a
    /// `disk.hits`).
    pub fn stats(&self) -> CacheStats {
        self.hot.stats()
    }

    /// Persistent-layer telemetry, when configured.
    pub fn disk_stats(&self) -> Option<DiskStats> {
        self.disk.as_ref().map(DiskTier::stats)
    }
}

#[cfg(test)]
mod key_tests {
    use super::{canonical_compare_key, canonical_key};
    use cme_api::{CompareRequest, EstimatorSpec, NestSource, OptimizeRequest, StrategySpec};

    #[test]
    fn canonical_key_covers_the_estimator_field() {
        let base = OptimizeRequest::new(NestSource::kernel_sized("T2D", 32), StrategySpec::Tiling);
        let spelled = OptimizeRequest { estimator: Some(EstimatorSpec::cme), ..base.clone() };

        // A spelled-out `"cme"` collapses onto the field-absent key —
        // same behaviour, one cache entry.
        assert_eq!(canonical_key(&base), canonical_key(&spelled));
        assert!(!canonical_key(&base).contains("estimator"));
    }

    #[test]
    fn compare_key_ignores_the_base_strategy_and_collapses_the_estimator() {
        let base = OptimizeRequest::new(NestSource::kernel_sized("T2D", 32), StrategySpec::Tiling);
        let tournament = CompareRequest::new(base.clone());

        // The base request's own strategy is ignored by the tournament,
        // so spelling a different one must not split the cache entry.
        let mut other = tournament.clone();
        other.base.strategy = StrategySpec::Interchange;
        assert_eq!(canonical_compare_key(&tournament), canonical_compare_key(&other));

        // Estimator canonicalisation matches the optimize-key rule.
        let mut spelled = tournament.clone();
        spelled.base.estimator = Some(EstimatorSpec::cme);
        assert_eq!(canonical_compare_key(&tournament), canonical_compare_key(&spelled));
        assert!(!canonical_compare_key(&spelled).contains("estimator"));

        // A different line-up is a different tournament.
        let solo = tournament.clone().with_strategies(vec![StrategySpec::Tiling]);
        assert_ne!(canonical_compare_key(&tournament), canonical_compare_key(&solo));
    }
}

#[cfg(test)]
mod encoded_tests {
    use super::*;
    use cme_api::cme::CacheSpec;
    use cme_api::{BaselineKind, NestSource, Session, StrategySpec};

    fn outcome() -> Outcome {
        let req = OptimizeRequest::new(
            NestSource::kernel_sized("T2D", 8),
            StrategySpec::Baseline { kind: BaselineKind::LrwSquare },
        )
        .with_cache(CacheSpec::direct_mapped(256, 16));
        Session::default().run(&req).unwrap()
    }

    fn lint() -> LintOutcome {
        Session::default().lint(&LintRequest::new(NestSource::kernel_sized("T2D", 16))).unwrap()
    }

    /// The re-stamp copies the text only while `wall_ms` is serialised
    /// last; a field added after it must fail here, not corrupt bodies.
    fn assert_stamp_is_the_tail<T: Answer>(answer: T) {
        let encoded = Encoded::new(&answer).unwrap();
        assert!(encoded.text().ends_with(UNSTAMPED), "stamp is not the tail: {}", encoded.text());
        for ms in [0, 7, 1_234_567] {
            let mut stamped = answer.without_timing();
            stamped.stamp(ms);
            assert_eq!(encoded.body(ms), serde_json::to_string(&stamped).unwrap());
        }
    }

    #[test]
    fn every_answer_type_serialises_its_stamp_last() {
        assert_stamp_is_the_tail(outcome());
        assert_stamp_is_the_tail(lint());
        assert_stamp_is_the_tail(CompareOutcome::rank(vec![outcome(); 2], 3));
    }

    #[test]
    fn a_text_without_the_stamp_tail_is_re_encoded_and_a_broken_one_misses() {
        let answer = outcome();
        let canonical = Encoded::new(&answer).unwrap();
        // Decodes to the same answer, but the stamp is not the tail.
        let spaced = canonical.text().replace(UNSTAMPED, "\"wall_ms\": 0}");
        let spaced: Encoded<Outcome> = Encoded { text: spaced.into(), answer: PhantomData };
        assert_eq!(spaced.body(9), canonical.body(9));

        let memo: Memo<String, Encoded<Outcome>> = Memo::new(4);
        let torn = &canonical.text()[..canonical.text().len() / 2];
        memo.insert_stored("k".into(), Encoded { text: torn.into(), answer: PhantomData });
        assert_eq!(memo.get("k"), None, "an undecodable text is no answer");
        assert_eq!((memo.hits(), memo.misses()), (0, 1), "and counts as a miss");
    }

    #[test]
    fn alias_keys_are_looked_up_by_borrowed_bytes_per_route() {
        let aliases = BodyAliases::new(8);
        aliases.insert(BodyKey::new(Route::Optimize, b"{}"), &Arc::from("key"));
        let find = |route, body: &[u8]| aliases.get(&(route, body) as &dyn BodyView);
        assert_eq!(find(Route::Optimize, b"{}").as_deref(), Some("key"));
        assert_eq!(find(Route::Lint, b"{}"), None, "the same bytes on another route");
        assert_eq!(find(Route::Optimize, b"{ }"), None, "other bytes");
        assert_eq!(aliases.stats().bytes, 2 * 2 + 3);
    }
}
