//! Checked percentiles.

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;
/// Order statistics further apart than this ratio, within 2% of the
/// samples (at least one) on either side of a percentile, sit in different
/// job-size clusters.
pub const MODE_GAP: f64 = 1.5;

/// The nearest-rank `p` percentile of `samples`. Fails instead of
/// returning a number that is unstable by construction: when fewer than
/// [`MIN_BEYOND`] samples lie beyond it, or when its neighbouring order
/// statistics straddle a gap between job-size clusters, where a small
/// shift moves it from one cluster to the other.
pub fn percentile(name: &str, samples: &[f64], p: f64) -> Result<f64, String> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
    if n < 2 || n - rank < MIN_BEYOND {
        return Err(format!(
            "{name}: p{} of {n} samples has {} beyond it, fewer than {MIN_BEYOND}",
            p * 100.0,
            n.saturating_sub(rank)
        ));
    }
    let w = (n / 50).max(1);
    let (lo, hi) = (
        s[(rank - 1).saturating_sub(w)],
        s[(rank - 1 + w).min(n - 1)],
    );
    if hi > lo * MODE_GAP {
        return Err(format!(
            "{name}: p{} = {} lies in a gap between job-size clusters \
             (neighbours {lo} and {hi})",
            p * 100.0,
            s[rank - 1]
        ));
    }
    Ok(s[rank - 1])
}

/// Median of non-empty `v`, by sorting a copy (no sample-count check:
/// for medians of repeated set-ups and per-pass totals).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_with_ten_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile("t", &v, 0.5).unwrap(), 50.0);
        assert_eq!(percentile("t", &v, 0.9).unwrap(), 90.0);
        assert!(percentile("t", &v, 0.95).is_err(), "only 5 samples beyond");
    }

    #[test]
    fn a_percentile_between_clusters_fails() {
        let mut v = vec![10.0; 50];
        v.extend(vec![40.0; 50]);
        assert!(percentile("t", &v, 0.5).is_err());
        assert_eq!(percentile("t", &v, 0.3).unwrap(), 10.0);
    }
}
