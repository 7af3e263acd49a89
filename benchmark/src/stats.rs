//! The one place percentiles, the segmented p95 and span self-time are
//! defined.

/// Slices the measured phase's samples are cut into for the p95.
pub const SEGMENTS: usize = 10;
/// Samples a slice must hold so that at least ten lie beyond its p95.
pub const MIN_FOR_P95: usize = 200;

/// Nearest-rank percentile of an ascending slice: the value at rank
/// `ceil(p·n)` (1-based). Empty input gives 0.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank median of values in any order.
pub fn median_f64(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[v.len().div_ceil(2) - 1]
}

/// One latency sample: when it completed (ns since the phase began) and how
/// long it took.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub end_ns: u64,
    pub lat_ns: u64,
}

#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50_ns: u64,
    pub p95_ns: u64,
    /// False when fewer than ten samples lie beyond the p95, i.e. the p95 is
    /// printed but must not carry a claim.
    pub p95_resolved: bool,
}

/// p50 over the whole phase; p95 as the median over slices of each slice's
/// p95, so that one scheduler hiccup cannot move it but a convoy does. The
/// samples, in completion order, are cut into as many equal slices as hold
/// [`MIN_FOR_P95`] samples each, at most [`SEGMENTS`]; with fewer than
/// [`MIN_FOR_P95`] samples in all there is one slice and the p95 is
/// unresolved.
pub fn summarize(samples: &[Sample]) -> Summary {
    let mut in_order = samples.to_vec();
    in_order.sort_by_key(|s| s.end_ns);
    let slices = (in_order.len() / MIN_FOR_P95).clamp(1, SEGMENTS);
    let mut p95s: Vec<u64> = (0..slices)
        .map(|i| {
            let slice = &in_order[i * in_order.len() / slices..(i + 1) * in_order.len() / slices];
            let mut lat: Vec<u64> = slice.iter().map(|s| s.lat_ns).collect();
            lat.sort_unstable();
            percentile(&lat, 0.95)
        })
        .collect();
    p95s.sort_unstable();
    let mut all: Vec<u64> = samples.iter().map(|s| s.lat_ns).collect();
    all.sort_unstable();
    Summary {
        n: all.len(),
        p50_ns: percentile(&all, 0.5),
        p95_ns: percentile(&p95s, 0.5),
        p95_resolved: all.len() >= MIN_FOR_P95,
    }
}

/// A span as self-time needs it.
#[derive(Debug, Clone, Copy)]
pub struct SpanIv {
    pub id: u64,
    /// 0 marks a root.
    pub parent: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Self time of each span, in input order: its duration minus the part of
/// its interval that its direct children cover (overlapping children —
/// parallel workers — are counted once).
pub fn self_times(spans: &[SpanIv]) -> Vec<u64> {
    spans
        .iter()
        .map(|s| {
            let mut kids: Vec<(u64, u64)> = spans
                .iter()
                .filter(|c| c.parent == s.id && c.id != s.id)
                .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
                .filter(|(a, b)| a < b)
                .collect();
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                if b > reach {
                    covered += b - a.max(reach);
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_series() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.95), 95);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        // ceil(0.5·5) = 3rd, ceil(0.95·5) = 5th.
        assert_eq!(percentile(&[10, 20, 30, 40, 50], 0.5), 30);
        assert_eq!(percentile(&[10, 20, 30, 40, 50], 0.95), 50);
        assert_eq!(percentile(&[7], 0.95), 7);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(median_f64(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
    }

    /// Ten slices of 200 samples each, completing in order: latencies
    /// 1..=200 in every slice except one, which is a hundred times slower.
    fn sliced(slow: Option<usize>) -> Vec<Sample> {
        let mut out = Vec::new();
        for slice in 0..SEGMENTS {
            for i in 0..MIN_FOR_P95 {
                let scale = if Some(slice) == slow { 100 } else { 1 };
                out.push(Sample {
                    end_ns: (slice * 1000 + i) as u64,
                    lat_ns: (i as u64 + 1) * scale,
                });
            }
        }
        out
    }

    #[test]
    fn slice_median_p95_ignores_one_bad_slice() {
        let calm = summarize(&sliced(None));
        assert_eq!((calm.n, calm.p95_ns, calm.p95_resolved), (2000, 190, true));
        let mut hiccup = sliced(Some(3));
        hiccup.reverse(); // the order handed in does not matter, completion order does
        let hiccup = summarize(&hiccup);
        assert_eq!(hiccup.p95_ns, 190, "one slow slice does not move it");
        assert!(hiccup.p95_resolved);
        // The whole-run p95 of the same data would have moved.
        let mut all: Vec<u64> = sliced(Some(3)).iter().map(|s| s.lat_ns).collect();
        all.sort_unstable();
        assert!(percentile(&all, 0.95) > 190);
    }

    #[test]
    fn fewer_samples_mean_fewer_slices_and_too_few_are_unresolved() {
        let ramp = |n: u64| -> Vec<Sample> {
            (0..n)
                .map(|i| Sample {
                    end_ns: i,
                    lat_ns: i + 1,
                })
                .collect()
        };
        // 500 samples: two slices of 250 with p95s 238 and 488; the
        // nearest-rank median of two values is the lower.
        let s = summarize(&ramp(500));
        assert_eq!(
            (s.n, s.p50_ns, s.p95_ns, s.p95_resolved),
            (500, 250, 238, true)
        );
        // 199 samples: one slice, nine samples beyond its p95.
        let s = summarize(&ramp(199));
        assert_eq!((s.n, s.p50_ns, s.p95_ns), (199, 100, 190));
        assert!(!s.p95_resolved);
        assert_eq!(summarize(&[]), Summary::default());
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let iv = |id, parent, start_ns, end_ns| SpanIv {
            id,
            parent,
            start_ns,
            end_ns,
        };
        let spans = [
            iv(1, 0, 0, 100),  // root
            iv(2, 1, 10, 40),  // child
            iv(3, 1, 30, 60),  // overlaps its sibling: 10..60 covered once
            iv(4, 2, 15, 20),  // grandchild: only its parent pays
            iv(5, 1, 90, 130), // runs past the root: clipped to 90..100
        ];
        assert_eq!(self_times(&spans), vec![40, 25, 30, 5, 40]);
        // The self times of a properly nested tree add up to its root.
        let nested = [iv(1, 0, 0, 50), iv(2, 1, 5, 25), iv(3, 2, 10, 20)];
        assert_eq!(self_times(&nested).iter().sum::<u64>(), 50);
    }
}
