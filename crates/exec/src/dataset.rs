use serde::{Deserialize, Serialize};

/// Observed evaluations accumulated during an optimization run.
///
/// # Example
///
/// ```
/// use easybo_exec::Dataset;
///
/// let mut d = Dataset::new();
/// d.push(vec![0.1, 0.2], 1.5);
/// d.push(vec![0.9, 0.3], 2.5);
/// assert_eq!(d.len(), 2);
/// assert_eq!(d.best().unwrap().1, 2.5);
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Dataset {
    x: Vec<Vec<f64>>,
    y: Vec<f64>,
}

impl Dataset {
    /// Creates an empty dataset.
    pub fn new() -> Self {
        Dataset::default()
    }

    /// Appends an observation.
    pub fn push(&mut self, x: Vec<f64>, y: f64) {
        self.x.push(x);
        self.y.push(y);
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// Observed inputs.
    pub fn xs(&self) -> &[Vec<f64>] {
        &self.x
    }

    /// Observed values.
    pub fn ys(&self) -> &[f64] {
        &self.y
    }

    /// Best (maximum) *finite* observation, if any, as `(x, y)`.
    ///
    /// Non-finite values (NaN and ±Inf, e.g. non-convergent simulator
    /// runs recorded verbatim) are never candidates: an `+Inf` "best"
    /// would make every improvement test vacuous and a `-Inf` one would
    /// poison incumbent-based acquisitions.
    pub fn best(&self) -> Option<(&[f64], f64)> {
        let mut best: Option<(usize, f64)> = None;
        for (i, &v) in self.y.iter().enumerate() {
            if !v.is_finite() {
                continue;
            }
            match best {
                Some((_, bv)) if bv >= v => {}
                _ => best = Some((i, v)),
            }
        }
        best.map(|(i, v)| (self.x[i].as_slice(), v))
    }

    /// Best observed value, or `-inf` when empty.
    pub fn best_value(&self) -> f64 {
        self.best().map_or(f64::NEG_INFINITY, |(_, v)| v)
    }
}

/// A query point currently being evaluated by a worker (the "busy" points
/// that EasyBO's penalization scheme hallucinates observations for).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BusyPoint {
    /// The design under evaluation.
    pub x: Vec<f64>,
    /// Executor-wide task id (issue order). Uniquely identifies this
    /// in-flight evaluation even when several workers run identical
    /// `x` vectors.
    pub task: usize,
    /// Which worker is running it.
    pub worker: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_dataset() {
        let d = Dataset::new();
        assert!(d.is_empty());
        assert_eq!(d.best(), None);
        assert_eq!(d.best_value(), f64::NEG_INFINITY);
    }

    #[test]
    fn best_tracks_maximum() {
        let mut d = Dataset::new();
        d.push(vec![0.0], 1.0);
        d.push(vec![1.0], 3.0);
        d.push(vec![2.0], 2.0);
        let (x, y) = d.best().unwrap();
        assert_eq!(x, &[1.0]);
        assert_eq!(y, 3.0);
    }

    #[test]
    fn best_skips_nan() {
        let mut d = Dataset::new();
        d.push(vec![0.0], f64::NAN);
        d.push(vec![1.0], 1.0);
        assert_eq!(d.best_value(), 1.0);
    }

    #[test]
    fn best_skips_positive_infinity() {
        let mut d = Dataset::new();
        d.push(vec![0.0], f64::INFINITY);
        d.push(vec![1.0], 2.0);
        let (x, y) = d.best().unwrap();
        assert_eq!(x, &[1.0]);
        assert_eq!(y, 2.0);
    }

    #[test]
    fn best_skips_negative_infinity() {
        let mut d = Dataset::new();
        d.push(vec![0.0], f64::NEG_INFINITY);
        d.push(vec![1.0], -5.0);
        assert_eq!(d.best_value(), -5.0);
    }

    #[test]
    fn all_non_finite_dataset_has_no_best() {
        let mut d = Dataset::new();
        d.push(vec![0.0], f64::NAN);
        d.push(vec![1.0], f64::INFINITY);
        d.push(vec![2.0], f64::NEG_INFINITY);
        assert_eq!(d.best(), None);
        assert_eq!(d.best_value(), f64::NEG_INFINITY);
    }

    #[test]
    fn accessors_round_trip() {
        let mut d = Dataset::new();
        d.push(vec![0.5, 0.6], -1.0);
        assert_eq!(d.xs(), &[vec![0.5, 0.6]]);
        assert_eq!(d.ys(), &[-1.0]);
        assert_eq!(d.len(), 1);
    }
}
