//! Dependency-free log-bucketed streaming histograms.
//!
//! A [`Histogram`] records non-negative integer samples (nanosecond
//! latencies, probe fanouts, …) into **log2 buckets with 32 linear
//! sub-buckets per octave**: values below 32 get one exact bucket each;
//! a value `v ≥ 32` with most-significant bit `m` lands in the bucket
//! covering `[v & !mask, v | mask]` where `mask = 2^(m-5) - 1`. Every
//! bucket's width is at most `1/32` of its lower bound, so the midpoint
//! representative returned by [`Histogram::quantile`] is within
//! **~1.6% relative error** (`2^-6`) of any sample in the bucket —
//! inside the ~2% budget the telemetry design calls for.
//!
//! The bucket layout is *fixed* (never rebalanced), which is what makes
//! [`Histogram::merge`] **exact**: merging shard histograms recorded on
//! different threads is bucket-wise addition, so a sharded-then-merged
//! histogram is identical — bucket for bucket, and therefore quantile
//! for quantile — to single-threaded recording of the same samples
//! (property-tested in `tests/histogram_merge.rs` and, end-to-end
//! through the executor, in `crates/engine/tests/histogram_merge.rs`).
//!
//! Quantiles are answered by a cumulative scan over the (sorted, sparse)
//! bucket table; [`Histogram::quantile`] is monotone in `q` by
//! construction and clamps to the exactly-tracked `min`/`max`.
//!
//! Each bucket can additionally carry an [`Exemplar`] — the most recent
//! `(span id, scope, value)` triple recorded into it while a recorded
//! span was open — linking the bucket to a concrete
//! flight-recorder span (see [`crate::exemplar`]). Exemplars are
//! diagnostic annotations: they ride [`Histogram::merge`] (incoming side
//! wins, being newer) but are **excluded from equality**, so the exact
//! cross-thread merge invariants are stated over the measurements alone.

use crate::exemplar::Exemplar;
use crate::json::Json;
use std::collections::BTreeMap;

/// Linear sub-buckets per octave, as a bit count: 2^5 = 32 sub-buckets.
const SUB_BITS: u32 = 5;

/// The largest possible bucket index for a `u64` sample
/// (`bucket_index(u64::MAX)`).
const MAX_BUCKET_INDEX: u32 = ((64 - SUB_BITS) << SUB_BITS) + ((1 << SUB_BITS) - 1);

/// The fixed bucket a sample falls into. Values below `2^5` are exact
/// (index = value); larger values share an index with at most `1/32`
/// relative spread.
fn bucket_index(v: u64) -> u32 {
    if v < (1 << SUB_BITS) {
        return u32::try_from(v).expect("v < 32");
    }
    let msb = 63 - v.leading_zeros();
    let sub = u32::try_from((v >> (msb - SUB_BITS)) - (1 << SUB_BITS)).expect("5 sub bits");
    ((msb - SUB_BITS + 1) << SUB_BITS) + sub
}

/// The inclusive `[lo, hi]` range of samples mapping to bucket `idx`:
/// every sample in it, and no other, lands in bucket `idx`.
#[must_use]
pub fn bucket_bounds(idx: u32) -> (u64, u64) {
    if idx < (1 << SUB_BITS) {
        return (u64::from(idx), u64::from(idx));
    }
    let octave = idx >> SUB_BITS;
    let sub = u64::from(idx & ((1 << SUB_BITS) - 1));
    let lo = ((1 << SUB_BITS) + sub) << (octave - 1);
    let width = 1u64 << (octave - 1);
    (lo, lo + (width - 1))
}

/// A streaming log-bucketed histogram. See the module docs for the
/// bucketing scheme and the exact-merge guarantee.
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    /// Sparse bucket table: bucket index → sample count. Sorted (and
    /// deterministic) by construction, which keeps merge, equality and
    /// the quantile scan order-independent.
    buckets: BTreeMap<u32, u64>,
    /// Most recent exemplar per bucket. Excluded from equality: which
    /// span a bucket cites depends on timing and thread interleaving,
    /// while the measurements above are exact and order-independent.
    exemplars: BTreeMap<u32, Exemplar>,
}

impl PartialEq for Histogram {
    fn eq(&self, other: &Histogram) -> bool {
        self.count == other.count
            && self.sum == other.sum
            && self.min == other.min
            && self.max == other.max
            && self.buckets == other.buckets
    }
}

impl Eq for Histogram {}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        *self.buckets.entry(bucket_index(v)).or_insert(0) += 1;
    }

    /// Record one sample and stamp its bucket's exemplar with the
    /// recorded span that produced it (most recent wins).
    pub(crate) fn record_exemplar(&mut self, v: u64, span_id: u64, scope: &str) {
        self.record(v);
        self.exemplars
            .insert(bucket_index(v), Exemplar { span_id, scope: scope.to_string(), value: v });
    }

    /// The exemplar currently retained for bucket `idx`, if any.
    #[must_use]
    pub fn exemplar(&self, idx: u32) -> Option<&Exemplar> {
        self.exemplars.get(&idx)
    }

    /// Fold `other` into `self`: bucket-wise addition, exact (the result
    /// equals recording both sample streams into one histogram).
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        for (&idx, &n) in &other.buckets {
            *self.buckets.entry(idx).or_insert(0) += n;
        }
        // The incoming side's exemplars are newer (a child scope folding
        // into its parent at drop): most recent wins.
        for (&idx, ex) in &other.exemplars {
            self.exemplars.insert(idx, ex.clone());
        }
    }

    /// Total samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all samples (saturating at `u64::MAX`).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample recorded (`None` when empty).
    #[must_use]
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample recorded (`None` when empty).
    #[must_use]
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// The non-empty buckets as `(index, count)` pairs in ascending
    /// index order.
    pub fn buckets(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.buckets.iter().map(|(&idx, &n)| (idx, n))
    }

    /// The `q`-quantile (`q` clamped to `[0, 1]`): the midpoint of the
    /// bucket holding the sample of rank `ceil(q · count)`, clamped to
    /// the exactly-tracked `[min, max]`. Within ~1.6% relative error of
    /// the true order statistic; monotone in `q`. `None` when empty.
    #[must_use]
    #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        // The extreme order statistics are tracked exactly; returning
        // them directly keeps monotonicity (min/max bound every clamped
        // bucket representative).
        if rank == 1 {
            return Some(self.min);
        }
        if rank == self.count {
            return Some(self.max);
        }
        let mut seen = 0u64;
        for (&idx, &n) in &self.buckets {
            seen += n;
            if seen >= rank {
                let (lo, hi) = bucket_bounds(idx);
                let mid = lo + (hi - lo) / 2;
                return Some(mid.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Bucket-wise difference `self - earlier` (for "what this round
    /// recorded" deltas). Counts and sums subtract saturating; since the
    /// removed samples' extremes are unknowable, `min`/`max` are
    /// re-derived from the surviving buckets' bounds (clamped to the
    /// exactly-tracked outer extremes) — still within the bucket scheme's
    /// ~1.6% relative error.
    #[must_use]
    pub fn since(&self, earlier: &Histogram) -> Histogram {
        let mut buckets = BTreeMap::new();
        for (&idx, &n) in &self.buckets {
            let before = earlier.buckets.get(&idx).copied().unwrap_or(0);
            let diff = n.saturating_sub(before);
            if diff > 0 {
                buckets.insert(idx, diff);
            }
        }
        let count: u64 = buckets.values().sum();
        if count == 0 {
            return Histogram::new();
        }
        let lowest = *buckets.keys().next().expect("non-empty");
        let highest = *buckets.keys().next_back().expect("non-empty");
        let exemplars = self
            .exemplars
            .iter()
            .filter(|(idx, _)| buckets.contains_key(idx))
            .map(|(&idx, ex)| (idx, ex.clone()))
            .collect();
        Histogram {
            count,
            sum: self.sum.saturating_sub(earlier.sum),
            min: bucket_bounds(lowest).0.max(self.min),
            max: bucket_bounds(highest).1.min(self.max),
            buckets,
            exemplars,
        }
    }

    /// Render as a JSON object: `count`, `sum`, `min`, `max`, the sparse
    /// bucket table as an array of `[index, count]` pairs, and (when any
    /// are retained) the exemplar table as `[index, [span_id, value,
    /// scope]]` pairs.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let buckets = self
            .buckets
            .iter()
            .map(|(&idx, &n)| Json::Arr(vec![Json::from(u64::from(idx)), Json::from(n)]))
            .collect();
        let doc = Json::obj()
            .field("count", self.count)
            .field("sum", self.sum)
            .field("min", self.min)
            .field("max", self.max)
            .field("buckets", Json::Arr(buckets));
        if self.exemplars.is_empty() {
            return doc;
        }
        let exemplars = self
            .exemplars
            .iter()
            .map(|(&idx, ex)| Json::Arr(vec![Json::from(u64::from(idx)), ex.to_json()]))
            .collect();
        doc.field("exemplars", Json::Arr(exemplars))
    }

    /// Parse the [`Histogram::to_json`] form back.
    ///
    /// # Errors
    /// A message naming the first missing or mistyped field.
    pub fn from_json(v: &Json) -> Result<Histogram, String> {
        let get = |key: &str| {
            v.get(key).and_then(Json::as_u64).ok_or_else(|| format!("histogram missing \"{key}\""))
        };
        let mut buckets = BTreeMap::new();
        for pair in
            v.get("buckets").and_then(Json::as_arr).ok_or("histogram missing \"buckets\"")?
        {
            let pair = pair.as_arr().ok_or("histogram bucket not a pair")?;
            let [idx, n] = pair else { return Err("histogram bucket not a pair".into()) };
            let idx = idx.as_u64().ok_or("histogram bucket index not a number")?;
            let idx = u32::try_from(idx).map_err(|_| "histogram bucket index overflows")?;
            if idx > MAX_BUCKET_INDEX {
                return Err(format!("histogram bucket index {idx} out of range"));
            }
            let n = n.as_u64().ok_or("histogram bucket count not a number")?;
            if buckets.insert(idx, n).is_some() {
                return Err(format!("duplicate histogram bucket {idx}"));
            }
        }
        let mut exemplars = BTreeMap::new();
        if let Some(rows) = v.get("exemplars") {
            for pair in rows.as_arr().ok_or("histogram exemplars not an array")? {
                let pair = pair.as_arr().ok_or("histogram exemplar not a pair")?;
                let [idx, ex] = pair else { return Err("histogram exemplar not a pair".into()) };
                let idx = idx.as_u64().ok_or("histogram exemplar index not a number")?;
                let idx = u32::try_from(idx).map_err(|_| "histogram exemplar index overflows")?;
                if !buckets.contains_key(&idx) {
                    return Err(format!("exemplar for absent bucket {idx}"));
                }
                if exemplars.insert(idx, Exemplar::from_json(ex)?).is_some() {
                    return Err(format!("duplicate histogram exemplar {idx}"));
                }
            }
        }
        Ok(Histogram {
            count: get("count")?,
            sum: get("sum")?,
            min: get("min")?,
            max: get("max")?,
            buckets,
            exemplars,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        for v in 0..32u64 {
            assert_eq!(bucket_index(v), u32::try_from(v).unwrap());
            assert_eq!(bucket_bounds(bucket_index(v)), (v, v));
        }
    }

    #[test]
    fn bounds_invert_index_across_the_range() {
        for &v in &[32u64, 33, 63, 64, 65, 1000, 4095, 4096, 1 << 20, u64::MAX / 3, u64::MAX] {
            let idx = bucket_index(v);
            let (lo, hi) = bucket_bounds(idx);
            assert!(lo <= v && v <= hi, "{v} outside [{lo}, {hi}]");
            assert_eq!(bucket_index(lo), idx);
            assert_eq!(bucket_index(hi), idx);
        }
        assert_eq!(bucket_index(u64::MAX), MAX_BUCKET_INDEX);
    }

    #[test]
    fn bucket_indices_are_contiguous_and_monotone() {
        // Walking bucket lower bounds upward visits every index once.
        let mut idx = 0u32;
        loop {
            let (lo, hi) = bucket_bounds(idx);
            assert_eq!(bucket_index(lo), idx);
            if hi == u64::MAX {
                break;
            }
            assert_eq!(bucket_index(hi + 1), idx + 1, "gap after bucket {idx}");
            idx += 1;
        }
        assert_eq!(idx, MAX_BUCKET_INDEX);
    }

    #[test]
    #[allow(clippy::cast_precision_loss)]
    fn midpoint_relative_error_is_under_two_percent() {
        for &v in &[32u64, 100, 999, 12345, 1 << 30, (1 << 40) + 7] {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            let mid = lo + (hi - lo) / 2;
            let err = (mid as f64 - v as f64).abs() / v as f64;
            assert!(err < 0.02, "value {v}: midpoint {mid} err {err}");
        }
    }

    #[test]
    fn merge_equals_single_stream() {
        let samples: Vec<u64> = (0..1000).map(|i| (i * i * 2654435761u64) >> 17).collect();
        let mut whole = Histogram::new();
        for &s in &samples {
            whole.record(s);
        }
        let mut merged = Histogram::new();
        for chunk in samples.chunks(137) {
            let mut shard = Histogram::new();
            for &s in chunk {
                shard.record(s);
            }
            merged.merge(&shard);
        }
        assert_eq!(merged, whole);
    }

    #[test]
    fn quantiles_are_monotone_and_clamped() {
        let mut h = Histogram::new();
        for v in [3u64, 7, 7, 40, 90, 1000, 5000, 5001, 100_000] {
            h.record(v);
        }
        let qs: Vec<u64> = (0..=20).map(|i| h.quantile(f64::from(i) / 20.0).unwrap()).collect();
        for pair in qs.windows(2) {
            assert!(pair[0] <= pair[1], "quantiles not monotone: {qs:?}");
        }
        assert!(h.quantile(0.0).unwrap() >= h.min().unwrap());
        assert_eq!(h.quantile(1.0).unwrap(), h.max().unwrap());
        assert_eq!(h.quantile(0.0).unwrap(), 3);
    }

    #[test]
    fn quantile_of_empty_is_none() {
        assert_eq!(Histogram::new().quantile(0.5), None);
        assert_eq!(Histogram::new().min(), None);
        assert_eq!(Histogram::new().max(), None);
    }

    #[test]
    fn json_round_trip() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 31, 32, 1000, u64::MAX] {
            h.record(v);
        }
        let text = h.to_json().pretty();
        let back = Histogram::from_json(&crate::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, h);
    }

    #[test]
    fn exemplars_retain_most_recent_per_bucket() {
        let mut h = Histogram::new();
        h.record_exemplar(1000, 7, "a");
        h.record_exemplar(1001, 8, "b"); // same bucket as 1000: overwrites
        h.record_exemplar(5, 9, "c");
        let idx = bucket_index(1000);
        assert_eq!(bucket_index(1001), idx, "test premise: shared bucket");
        assert_eq!(h.exemplar(idx).map(|e| e.span_id), Some(8));
        assert_eq!(h.exemplar(bucket_index(5)).map(|e| e.span_id), Some(9));
        assert_eq!(h.exemplars.len(), 2);
    }

    #[test]
    fn merge_prefers_incoming_exemplars() {
        let mut parent = Histogram::new();
        parent.record_exemplar(100, 1, "parent");
        let mut child = Histogram::new();
        child.record_exemplar(100, 2, "child");
        parent.merge(&child);
        let ex = parent.exemplar(bucket_index(100)).expect("exemplar survives merge");
        assert_eq!((ex.span_id, ex.scope.as_str()), (2, "child"));
        assert_eq!(parent.count(), 2);
    }

    #[test]
    fn equality_ignores_exemplars() {
        let mut a = Histogram::new();
        a.record_exemplar(100, 1, "a");
        let mut b = Histogram::new();
        b.record(100);
        assert_eq!(a, b, "exemplars are annotations, not measurements");
    }

    #[test]
    fn exemplars_round_trip_through_json() {
        let mut h = Histogram::new();
        h.record_exemplar(1000, 42, "view/main");
        h.record(7);
        let back = Histogram::from_json(&crate::json::parse(&h.to_json().pretty()).unwrap())
            .expect("round trip");
        assert_eq!(back, h);
        let idx = bucket_index(1000);
        assert_eq!(back.exemplar(idx), h.exemplar(idx));
        // An exemplar citing a bucket with no samples is corrupt.
        let orphan = crate::json::parse(
            r#"{"count":1,"sum":5,"min":5,"max":5,"buckets":[[5,1]],"exemplars":[[9,[1,9,"s"]]]}"#,
        )
        .unwrap();
        assert!(Histogram::from_json(&orphan).is_err());
    }

    #[test]
    fn json_rejects_malformed_buckets() {
        let dup =
            crate::json::parse(r#"{"count":2,"sum":2,"min":1,"max":1,"buckets":[[1,1],[1,1]]}"#)
                .unwrap();
        assert!(Histogram::from_json(&dup).is_err());
        let out_of_range =
            crate::json::parse(r#"{"count":1,"sum":1,"min":1,"max":1,"buckets":[[99999,1]]}"#)
                .unwrap();
        assert!(Histogram::from_json(&out_of_range).is_err());
    }
}
