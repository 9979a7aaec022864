//! Fixed-bucket latency histograms.
//!
//! Values are microseconds. Bucket bounds follow a 1–2–3–5–7 per-decade
//! log-linear ladder from 1 µs to 7×10⁸ µs (~12 minutes), which keeps
//! adjacent bounds within a factor of two; with rank interpolation
//! inside the landing bucket, quantile estimates stay within a few
//! percent of the exact sorted value on realistic latency
//! distributions (`tests::quantiles_interpolate_close_to_exact` holds
//! this against an exact sort).
//! Observation is an O(log B) bound search plus one increment — cheap
//! enough for per-request hot paths.

/// Upper bounds (inclusive, microseconds) of the finite buckets; one
/// overflow bucket catches everything above the last bound.
pub const BUCKET_BOUNDS: [u64; 45] = [
    1,
    2,
    3,
    5,
    7,
    10,
    20,
    30,
    50,
    70,
    100,
    200,
    300,
    500,
    700,
    1_000,
    2_000,
    3_000,
    5_000,
    7_000,
    10_000,
    20_000,
    30_000,
    50_000,
    70_000,
    100_000,
    200_000,
    300_000,
    500_000,
    700_000,
    1_000_000,
    2_000_000,
    3_000_000,
    5_000_000,
    7_000_000,
    10_000_000,
    20_000_000,
    30_000_000,
    50_000_000,
    70_000_000,
    100_000_000,
    200_000_000,
    300_000_000,
    500_000_000,
    700_000_000,
];

/// A fixed-bucket histogram over microsecond observations.
///
/// Each bucket additionally retains the *last non-zero trace id*
/// observed into it (an exemplar, OpenMetrics-style), so a spike in a
/// tail bucket of `/metrics` links straight to a `/trace/<id>` tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Per-bucket counts; `counts[BUCKET_BOUNDS.len()]` is overflow.
    counts: [u64; BUCKET_BOUNDS.len() + 1],
    /// Per-bucket last trace id observed (0 = none recorded).
    exemplars: [u64; BUCKET_BOUNDS.len() + 1],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            counts: [0; BUCKET_BOUNDS.len() + 1],
            exemplars: [0; BUCKET_BOUNDS.len() + 1],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one microsecond observation.
    pub fn observe(&mut self, micros: u64) {
        self.observe_with_exemplar(micros, 0);
    }

    /// Records one microsecond observation; when `trace_id` is
    /// non-zero it becomes the landing bucket's exemplar (last write
    /// wins — recency beats magnitude for incident triage).
    pub fn observe_with_exemplar(&mut self, micros: u64, trace_id: u64) {
        let idx = BUCKET_BOUNDS.partition_point(|&bound| bound < micros);
        self.counts[idx] += 1;
        if trace_id != 0 {
            self.exemplars[idx] = trace_id;
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(micros);
        self.min = self.min.min(micros);
        self.max = self.max.max(micros);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations (µs).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean observation in µs (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimated `q`-quantile (0.0 ≤ q ≤ 1.0) in microseconds, by rank
    /// interpolation inside the landing bucket; the overflow bucket
    /// answers with the recorded maximum. Returns `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = q * self.count as f64;
        let mut cumulative = 0u64;
        for (idx, &bucket_count) in self.counts.iter().enumerate() {
            if bucket_count == 0 {
                continue;
            }
            let next = cumulative + bucket_count;
            if (next as f64) >= rank {
                if idx >= BUCKET_BOUNDS.len() {
                    return Some(self.max as f64);
                }
                let upper = BUCKET_BOUNDS[idx] as f64;
                let lower = if idx == 0 {
                    0.0
                } else {
                    BUCKET_BOUNDS[idx - 1] as f64
                };
                // Clamp the interpolation window to the observed range:
                // a single-bucket histogram then answers exactly.
                let lower = lower.max(self.min as f64).min(upper);
                let upper = upper.min(self.max as f64).max(lower);
                let within = (rank - cumulative as f64) / bucket_count as f64;
                return Some(lower + (upper - lower) * within.clamp(0.0, 1.0));
            }
            cumulative = next;
        }
        Some(self.max as f64)
    }

    /// Cumulative counts per finite bound, Prometheus style:
    /// `(bound_µs, observations ≤ bound)`; the caller appends the
    /// `+Inf` bucket from [`Histogram::count`].
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::with_capacity(BUCKET_BOUNDS.len());
        let mut cumulative = 0u64;
        for (idx, &bound) in BUCKET_BOUNDS.iter().enumerate() {
            cumulative += self.counts[idx];
            out.push((bound, cumulative));
        }
        out
    }

    /// Per-bucket exemplar trace ids, aligned with
    /// [`Histogram::cumulative_buckets`]; the final element is the
    /// overflow (`+Inf`) bucket's. `None` where no traced observation
    /// ever landed.
    pub fn bucket_exemplars(&self) -> Vec<Option<u64>> {
        self.exemplars
            .iter()
            .map(|&t| (t != 0).then_some(t))
            .collect()
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        for (mine, &theirs) in self.exemplars.iter_mut().zip(other.exemplars.iter()) {
            if theirs != 0 {
                *mine = theirs;
            }
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observations_land_in_the_right_buckets() {
        let mut h = Histogram::new();
        h.observe(1); // ≤ 1
        h.observe(2); // ≤ 2
        h.observe(1_500); // ≤ 2000
        h.observe(u64::MAX); // overflow
        assert_eq!(h.count(), 4);
        let buckets = h.cumulative_buckets();
        assert_eq!(buckets[0], (1, 1));
        assert_eq!(buckets[1], (2, 2));
        let (bound, cum) = buckets[16];
        assert_eq!((bound, cum), (2_000, 3));
        assert_eq!(buckets.last().unwrap().1, 3, "overflow excluded");
    }

    #[test]
    fn quantiles_interpolate_close_to_exact() {
        let ladder: Vec<u64> = (1..=1000).map(|i| i * 37 % 90_000 + 1).collect();
        // Latencies spread log-evenly over 100 µs – 1 s, the range real
        // spans land in: the bucket ladder is built for these.
        let mut rng = lodify_resilience::DetRng::seed_from_u64(17);
        let spread: Vec<u64> = (0..10_000)
            .map(|_| {
                let magnitude = 100 * 10u64.pow(rng.random_range(0..4u32));
                magnitude + rng.random_range(0..magnitude * 9)
            })
            .collect();
        for (mut values, bound) in [(ladder, 0.25), (spread, 0.15)] {
            let mut h = Histogram::new();
            for &v in &values {
                h.observe(v);
            }
            values.sort_unstable();
            for q in [0.5, 0.95, 0.99] {
                let rank = ((q * values.len() as f64).ceil() as usize).min(values.len());
                let exact = values[rank - 1] as f64;
                let estimate = h.quantile(q).unwrap();
                let error = (estimate - exact).abs() / exact;
                assert!(error < bound, "q={q}: exact {exact} vs estimate {estimate}");
            }
        }
    }

    #[test]
    fn single_value_quantiles_are_exact() {
        let mut h = Histogram::new();
        for _ in 0..10 {
            h.observe(450);
        }
        assert_eq!(h.quantile(0.5), Some(450.0));
        assert_eq!(h.quantile(0.99), Some(450.0));
        assert_eq!(h.min(), Some(450));
        assert_eq!(h.max(), Some(450));
    }

    #[test]
    fn empty_histogram_answers_none() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.observe(10);
        b.observe(1_000);
        b.observe(5);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 1_015);
        assert_eq!(a.min(), Some(5));
        assert_eq!(a.max(), Some(1_000));
    }

    #[test]
    fn exemplars_track_the_last_traced_observation() {
        let mut h = Histogram::new();
        h.observe(650); // untraced — leaves no exemplar
        h.observe_with_exemplar(650, 7);
        h.observe_with_exemplar(620, 9); // same bucket: last wins
        h.observe_with_exemplar(u64::MAX, 3); // overflow bucket
        let exemplars = h.bucket_exemplars();
        assert_eq!(exemplars.len(), BUCKET_BOUNDS.len() + 1);
        let set: Vec<(usize, u64)> = exemplars
            .iter()
            .enumerate()
            .filter_map(|(i, t)| t.map(|t| (i, t)))
            .collect();
        assert_eq!(set, vec![(14, 9), (BUCKET_BOUNDS.len(), 3)]);

        // Merge carries exemplars, preferring the other's fresher id.
        let mut other = Histogram::new();
        other.observe_with_exemplar(650, 11);
        h.merge(&other);
        assert_eq!(h.bucket_exemplars()[14], Some(11));
    }

    #[test]
    fn bounds_are_strictly_increasing() {
        for pair in BUCKET_BOUNDS.windows(2) {
            assert!(pair[0] < pair[1]);
        }
    }
}
