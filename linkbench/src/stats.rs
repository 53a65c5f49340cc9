//! Order statistics for reported timings.
//!
//! Every latency figure follows one rule: report the median and the
//! highest percentile that still has at least [`TAIL_SAMPLES`] samples
//! beyond it, together with the sample count. With 1,000 samples that is
//! p99; with 100 it is p90; below [`TAIL_SAMPLES`] + 1 samples there is no
//! tail and the maximum is reported instead.

/// Samples a reported tail percentile must have strictly above it.
pub const TAIL_SAMPLES: usize = 10;

/// A latency summary: median, tail, the tail's percentile and the count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub p50: f64,
    /// Which percentile `tail` is (99.0 for p99).
    pub tail_pct: f64,
    pub tail: f64,
}

/// The highest whole percentile `q` such that the nearest-rank value at
/// `q` leaves at least [`TAIL_SAMPLES`] samples above it, capped at 99.
/// `None` when `n` is too small to leave that many.
pub fn tail_percentile(n: usize) -> Option<f64> {
    (1..=99).rev().map(|q| q as f64).find(|&q| n - nearest_rank(n, q) >= TAIL_SAMPLES)
}

/// 1-based nearest rank of percentile `q` in `n` sorted samples.
fn nearest_rank(n: usize, q: f64) -> usize {
    ((q / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `q` of `samples` (sorted internally).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    sorted[nearest_rank(sorted.len(), q) - 1]
}

/// Median as the mean of the two middle values (for repetition counts,
/// where interpolating between two runs is the natural estimate).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Median and rule-conforming tail of a latency sample.
pub fn summarize(samples: &[f64]) -> Summary {
    summarize_at(samples, tail_percentile(samples.len()))
}

/// Median plus the tail at a fixed percentile `tail` — for workloads whose
/// sample count varies from run to run, the percentile the workload's
/// guaranteed minimum count supports, so every run reports the same one.
pub fn summarize_at(samples: &[f64], tail: Option<f64>) -> Summary {
    let p50 = percentile(samples, 50.0);
    match tail {
        Some(q) => Summary { count: samples.len(), p50, tail_pct: q, tail: percentile(samples, q) },
        None => Summary {
            count: samples.len(),
            p50,
            tail_pct: 100.0,
            tail: samples.iter().copied().fold(f64::NAN, f64::max),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thousand_samples_give_p99_with_ten_beyond() {
        assert_eq!(tail_percentile(1000), Some(99.0));
        let v: Vec<f64> = (1..=1000).map(|i| i as f64).collect();
        let s = summarize(&v);
        assert_eq!(s.tail_pct, 99.0);
        assert_eq!(s.tail, 990.0);
        assert_eq!(v.iter().filter(|&&x| x > s.tail).count(), 10);
    }

    #[test]
    fn fewer_samples_lower_the_percentile_to_keep_ten_beyond() {
        // 999 samples: p99 is rank 990, leaving only 9 above it.
        assert_eq!(tail_percentile(999), Some(98.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(36), Some(72.0));
        for n in 11..3000 {
            let q = tail_percentile(n).expect("n > 10 always has a tail");
            assert!(n - nearest_rank(n, q) >= TAIL_SAMPLES, "n={n} q={q}");
            if q < 99.0 {
                assert!(n - nearest_rank(n, q + 1.0) < TAIL_SAMPLES, "n={n}: q={q} not highest");
            }
        }
    }

    #[test]
    fn too_few_samples_have_no_tail_and_report_the_max() {
        assert_eq!(tail_percentile(10), None);
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.p50, s.tail_pct, s.tail), (2.0, 100.0, 3.0));
    }

    #[test]
    fn median_interpolates_even_counts() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert!(median(&[]).is_nan());
    }
}
