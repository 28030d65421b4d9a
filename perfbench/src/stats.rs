//! Order statistics used by every reported timing.

/// Nearest-rank percentile of `samples` (`p` in `(0, 100]`): the
/// smallest sample such that at least `p`% of all samples are at or
/// below it. `None` for an empty slice.
pub fn nearest_rank(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median as the nearest-rank 50th percentile.
pub fn median(samples: &[f64]) -> Option<f64> {
    nearest_rank(samples, 50.0)
}

/// Fewest samples for which at least ten lie beyond the `p`th
/// percentile (1000 for p99).
pub fn min_samples_for(p: f64) -> usize {
    (10.0 / (1.0 - p / 100.0)).round() as usize
}

/// Number of samples strictly above the nearest-rank `p`th percentile.
pub fn beyond(samples: &[f64], p: f64) -> usize {
    match nearest_rank(samples, p) {
        Some(cut) => samples.iter().filter(|&&s| s > cut).count(),
        None => 0,
    }
}

/// Arithmetic mean (`None` for an empty slice).
pub fn mean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        None
    } else {
        Some(samples.iter().sum::<f64>() / samples.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_an_actual_sample() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 50.0), Some(5.0));
        assert_eq!(nearest_rank(&s, 90.0), Some(9.0));
        assert_eq!(nearest_rank(&s, 91.0), Some(10.0));
        assert_eq!(nearest_rank(&s, 100.0), Some(10.0));
        assert_eq!(nearest_rank(&s, 0.1), Some(1.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
    }

    #[test]
    fn order_of_input_does_not_matter() {
        let a = [3.0, 1.0, 2.0, 5.0, 4.0];
        assert_eq!(median(&a), Some(3.0));
        assert_eq!(nearest_rank(&a, 99.0), Some(5.0));
    }

    #[test]
    fn p99_needs_a_thousand_samples_for_ten_beyond() {
        assert_eq!(min_samples_for(99.0), 1000);
        assert_eq!(min_samples_for(90.0), 100);
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 99.0), Some(990.0));
        assert_eq!(beyond(&s, 99.0), 10);
        let short: Vec<f64> = (1..=999).map(f64::from).collect();
        assert!(beyond(&short, 99.0) < 10);
    }

    #[test]
    fn ties_are_not_counted_beyond() {
        let s = vec![1.0; 2000];
        assert_eq!(beyond(&s, 99.0), 0);
    }

    #[test]
    fn mean_of_samples() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }
}
