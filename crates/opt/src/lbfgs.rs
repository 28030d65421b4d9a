//! Limited-memory BFGS with a weak-Wolfe line search, for smooth
//! minimization with analytic gradients: unconstrained for GP
//! hyperparameter training, inside a box for acquisition refinement.

use std::collections::VecDeque;

use crate::{Bounds, OptError};

/// Configuration for [`Lbfgs`].
#[derive(Debug, Clone, PartialEq)]
pub struct LbfgsConfig {
    /// History size `m` (default 8).
    pub memory: usize,
    /// Maximum number of outer iterations (default 100).
    pub max_iters: usize,
    /// Stop when the gradient infinity-norm drops below this (default 1e-7).
    pub grad_tol: f64,
    /// Armijo sufficient-decrease constant (default 1e-4).
    pub armijo_c: f64,
    /// Line-search backtracking factor (default 0.5).
    pub backtrack: f64,
    /// Maximum line-search trials per iteration (default 30).
    pub max_line_search: usize,
}

impl Default for LbfgsConfig {
    fn default() -> Self {
        LbfgsConfig {
            memory: 8,
            max_iters: 100,
            grad_tol: 1e-7,
            armijo_c: 1e-4,
            backtrack: 0.5,
            max_line_search: 30,
        }
    }
}

impl LbfgsConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`OptError::InvalidConfig`] for zero memory/iterations or a
    /// backtracking factor outside `(0, 1)`.
    pub fn validate(&self) -> crate::Result<()> {
        if self.memory == 0 {
            return Err(OptError::InvalidConfig {
                parameter: "memory",
                reason: "must be at least 1".into(),
            });
        }
        if self.max_iters == 0 {
            return Err(OptError::InvalidConfig {
                parameter: "max_iters",
                reason: "must be at least 1".into(),
            });
        }
        if !(self.backtrack > 0.0 && self.backtrack < 1.0) {
            return Err(OptError::InvalidConfig {
                parameter: "backtrack",
                reason: format!("must be in (0, 1), got {}", self.backtrack),
            });
        }
        Ok(())
    }
}

/// Limited-memory BFGS minimizer.
///
/// Uses the classic two-loop recursion with `(s, y)` curvature pairs and an
/// Armijo backtracking line search. Falls back to steepest descent whenever
/// the curvature condition `s^T y > 0` fails.
///
/// # Example
///
/// ```
/// use easybo_opt::{Lbfgs, LbfgsConfig};
///
/// # fn main() -> Result<(), easybo_opt::OptError> {
/// let lbfgs = Lbfgs::new(LbfgsConfig::default())?;
/// // Minimize the 2-d Rosenbrock function.
/// let (x, f) = lbfgs.minimize(vec![-1.2, 1.0], |x, g| {
///     let (a, b) = (x[0], x[1]);
///     g[0] = -2.0 * (1.0 - a) - 400.0 * a * (b - a * a);
///     g[1] = 200.0 * (b - a * a);
///     (1.0 - a).powi(2) + 100.0 * (b - a * a).powi(2)
/// });
/// assert!(f < 1e-8);
/// assert!((x[0] - 1.0).abs() < 1e-3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Lbfgs {
    config: LbfgsConfig,
}

impl Lbfgs {
    /// Creates an L-BFGS optimizer.
    ///
    /// # Errors
    ///
    /// Returns [`OptError::InvalidConfig`] if the configuration is invalid;
    /// see [`LbfgsConfig::validate`].
    pub fn new(config: LbfgsConfig) -> crate::Result<Self> {
        config.validate()?;
        Ok(Lbfgs { config })
    }

    /// The active configuration.
    pub fn config(&self) -> &LbfgsConfig {
        &self.config
    }

    /// Minimizes `f`, which must write the gradient into its second argument
    /// and return the objective value. Returns the best `(x, f(x))` seen.
    pub fn minimize<F>(&self, x0: Vec<f64>, f: F) -> (Vec<f64>, f64)
    where
        F: FnMut(&[f64], &mut [f64]) -> f64,
    {
        self.run(x0, None, usize::MAX, f)
    }

    /// Minimizes `f` over the box `bounds` from `x0` (clamped into the
    /// box) with at most `max_evals` calls of `f`, and returns the best
    /// `(x, f(x))` seen. Every point `f` sees lies in the box: a
    /// coordinate on a face its gradient pushes through is held for the
    /// iteration, the search direction never leaves through a face, and
    /// the line search stops at the first face it reaches. Non-finite
    /// values fail the sufficient-decrease test, so the search backs out
    /// of non-finite regions.
    ///
    /// # Panics
    ///
    /// Panics if `x0.len() != bounds.dim()`.
    pub fn minimize_in<F>(
        &self,
        bounds: &Bounds,
        x0: Vec<f64>,
        max_evals: usize,
        f: F,
    ) -> (Vec<f64>, f64)
    where
        F: FnMut(&[f64], &mut [f64]) -> f64,
    {
        assert_eq!(x0.len(), bounds.dim(), "start point dimension mismatch");
        self.run(bounds.clamp(&x0), Some(bounds), max_evals.max(1), f)
    }

    /// The one L-BFGS loop. Without `bounds` every box step below is
    /// skipped, so unconstrained minimization keeps its arithmetic.
    fn run<F>(
        &self,
        x0: Vec<f64>,
        bounds: Option<&Bounds>,
        max_evals: usize,
        mut f: F,
    ) -> (Vec<f64>, f64)
    where
        F: FnMut(&[f64], &mut [f64]) -> f64,
    {
        let n = x0.len();
        let c = &self.config;
        let mut x = x0;
        let mut grad = vec![0.0; n];
        let mut fx = f(&x, &mut grad);
        let mut evals = 1;
        if !fx.is_finite() {
            return (x, fx);
        }
        let mut best_x = x.clone();
        let mut best_f = fx;
        // (s, y, rho) curvature pairs, newest at the back.
        let mut pairs: VecDeque<(Vec<f64>, Vec<f64>, f64)> = VecDeque::new();
        let mut held = vec![false; n];

        for _ in 0..c.max_iters {
            // The gradient over the free coordinates: a coordinate on a
            // face its gradient pushes through is held for this iteration.
            let mut free = grad.clone();
            if let Some(b) = bounds {
                for (i, (h, g)) in held.iter_mut().zip(free.iter_mut()).enumerate() {
                    let (lo, hi) = b.pair(i);
                    *h = (x[i] <= lo && *g > 0.0) || (x[i] >= hi && *g < 0.0);
                    if *h {
                        *g = 0.0;
                    }
                }
            }
            let gmax = free.iter().fold(0.0f64, |a, &g| a.max(g.abs()));
            if gmax < c.grad_tol || !gmax.is_finite() {
                break;
            }
            // Two-loop recursion: direction = -H grad.
            let mut q = free.clone();
            let mut alphas = Vec::with_capacity(pairs.len());
            for (s, y, rho) in pairs.iter().rev() {
                let alpha = rho * dot(s, &q);
                axpy(&mut q, -alpha, y);
                alphas.push(alpha);
            }
            // Initial Hessian scaling gamma = s^T y / y^T y of the newest pair.
            if let Some((s, y, _)) = pairs.back() {
                let gamma = dot(s, y) / dot(y, y).max(1e-300);
                for qi in q.iter_mut() {
                    *qi *= gamma;
                }
            }
            for ((s, y, rho), alpha) in pairs.iter().zip(alphas.iter().rev()) {
                let beta = rho * dot(y, &q);
                axpy(&mut q, alpha - beta, s);
            }
            let mut dir: Vec<f64> = q.iter().map(|v| -v).collect();
            if let Some(b) = bounds {
                // Never move a held coordinate, nor leave through a face.
                for (i, (d, &h)) in dir.iter_mut().zip(&held).enumerate() {
                    let (lo, hi) = b.pair(i);
                    if h || (x[i] <= lo && *d < 0.0) || (x[i] >= hi && *d > 0.0) {
                        *d = 0.0;
                    }
                }
            }
            let mut dg = dot(&dir, &free);
            if dg >= 0.0 || !dg.is_finite() {
                // Not a descent direction: reset to steepest descent (which
                // points into the box from every face it does not push
                // through).
                pairs.clear();
                dir = free.iter().map(|g| -g).collect();
                dg = -dot(&free, &free);
                if dg == 0.0 {
                    break;
                }
            }
            // The longest step that stays in the box.
            let t_max = bounds.map_or(f64::INFINITY, |b| {
                dir.iter().enumerate().fold(f64::INFINITY, |t, (i, &d)| {
                    let (lo, hi) = b.pair(i);
                    if d > 0.0 {
                        t.min((hi - x[i]) / d)
                    } else if d < 0.0 {
                        t.min((lo - x[i]) / d)
                    } else {
                        t
                    }
                })
            });

            // Weak-Wolfe bracketing line search (Lewis–Overton bisection).
            // The curvature condition guarantees s^T y > 0, which keeps the
            // quasi-Newton history valid — Armijo alone does not.
            let c2 = 0.9;
            let mut lo = 0.0f64;
            let mut hi = f64::INFINITY;
            let mut step = if pairs.is_empty() {
                // First iteration is raw steepest descent; temper the step so
                // a huge gradient does not launch the search into the void.
                1.0 / (1.0 + (-dg).sqrt())
            } else {
                1.0
            }
            .min(t_max);
            let mut new_x = x.clone();
            let mut new_grad = vec![0.0; n];
            let mut new_f = f64::INFINITY;
            // Best Armijo-satisfying fallback if Wolfe is never satisfied.
            let mut fallback: Option<(Vec<f64>, Vec<f64>, f64)> = None;
            let mut ok = false;
            for _ in 0..c.max_line_search {
                if evals >= max_evals {
                    break;
                }
                for i in 0..n {
                    new_x[i] = x[i] + step * dir[i];
                }
                if let Some(b) = bounds {
                    // Rounding at `t_max` must not leave the box.
                    new_x = b.clamp(&new_x);
                }
                new_f = f(&new_x, &mut new_grad);
                evals += 1;
                let armijo = new_f.is_finite() && new_f <= fx + c.armijo_c * step * dg;
                if !armijo {
                    hi = step;
                    step = 0.5 * (lo + hi);
                } else if dot(&new_grad, &dir) < c2 * dg {
                    fallback = Some((new_x.clone(), new_grad.clone(), new_f));
                    lo = step;
                    if lo >= t_max {
                        // Still descending at the face: stop there.
                        ok = true;
                        break;
                    }
                    step = if hi.is_finite() {
                        0.5 * (lo + hi)
                    } else {
                        2.0 * lo
                    }
                    .min(t_max);
                } else {
                    ok = true;
                    break;
                }
            }
            if !ok {
                match fallback {
                    Some((fx_, fg_, ff_)) => {
                        new_x = fx_;
                        new_grad = fg_;
                        new_f = ff_;
                    }
                    None => break,
                }
            }

            // Update curvature history.
            let s: Vec<f64> = new_x.iter().zip(x.iter()).map(|(a, b)| a - b).collect();
            let y: Vec<f64> = new_grad
                .iter()
                .zip(grad.iter())
                .map(|(a, b)| a - b)
                .collect();
            let sy = dot(&s, &y);
            if sy > 1e-12 * norm(&s) * norm(&y) {
                if pairs.len() == c.memory {
                    pairs.pop_front();
                }
                pairs.push_back((s, y.clone(), 1.0 / sy));
            }
            x = new_x.clone();
            grad = new_grad.clone();
            fx = new_f;
            if fx < best_f {
                best_f = fx;
                best_x.copy_from_slice(&x);
            }
        }
        (best_x, best_f)
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

fn axpy(dst: &mut [f64], alpha: f64, src: &[f64]) {
    for (d, s) in dst.iter_mut().zip(src.iter()) {
        *d += alpha * s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_quadratic_exactly() {
        let lbfgs = Lbfgs::new(LbfgsConfig::default()).unwrap();
        let (x, fval) = lbfgs.minimize(vec![10.0, -7.0], |x, g| {
            g[0] = 2.0 * (x[0] - 4.0);
            g[1] = 8.0 * (x[1] - 1.0);
            (x[0] - 4.0).powi(2) + 4.0 * (x[1] - 1.0).powi(2)
        });
        assert!(fval < 1e-12);
        assert!((x[0] - 4.0).abs() < 1e-6);
        assert!((x[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn solves_rosenbrock() {
        let lbfgs = Lbfgs::new(LbfgsConfig {
            max_iters: 300,
            ..Default::default()
        })
        .unwrap();
        let (x, fval) = lbfgs.minimize(vec![-1.2, 1.0], |x, g| {
            let (a, b) = (x[0], x[1]);
            g[0] = -2.0 * (1.0 - a) - 400.0 * a * (b - a * a);
            g[1] = 200.0 * (b - a * a);
            (1.0 - a).powi(2) + 100.0 * (b - a * a).powi(2)
        });
        assert!(fval < 1e-10, "f = {fval}");
        assert!((x[0] - 1.0).abs() < 1e-4);
        assert!((x[1] - 1.0).abs() < 1e-4);
    }

    #[test]
    fn beats_adam_on_ill_conditioned_quadratic() {
        let hessian_diag = [1.0, 100.0, 10000.0];
        let obj = |x: &[f64], g: &mut [f64]| {
            let mut fx = 0.0;
            for i in 0..3 {
                fx += 0.5 * hessian_diag[i] * x[i] * x[i];
                g[i] = hessian_diag[i] * x[i];
            }
            fx
        };
        let lbfgs = Lbfgs::new(LbfgsConfig::default()).unwrap();
        let (_, f_lbfgs) = lbfgs.minimize(vec![1.0; 3], obj);
        assert!(f_lbfgs < 1e-10, "lbfgs stalled at {f_lbfgs}");
    }

    #[test]
    fn starts_at_optimum() {
        let lbfgs = Lbfgs::new(LbfgsConfig::default()).unwrap();
        let (x, fval) = lbfgs.minimize(vec![0.0], |x, g| {
            g[0] = 2.0 * x[0];
            x[0] * x[0]
        });
        assert_eq!(fval, 0.0);
        assert_eq!(x[0], 0.0);
    }

    #[test]
    fn returns_start_on_nan_objective() {
        let lbfgs = Lbfgs::new(LbfgsConfig::default()).unwrap();
        let (x, fval) = lbfgs.minimize(vec![1.0], |_, g| {
            g[0] = 0.0;
            f64::NAN
        });
        assert_eq!(x, vec![1.0]);
        assert!(fval.is_nan());
    }

    #[test]
    fn minimize_in_minimizes_a_shifted_sphere() {
        let lbfgs = Lbfgs::new(LbfgsConfig::default()).unwrap();
        let bounds = Bounds::new(vec![(-10.0, 10.0); 3]).unwrap();
        let c = [1.0, -2.0, 3.0];
        let (x, fval) = lbfgs.minimize_in(&bounds, vec![8.0, 8.0, 8.0], 100, |p, g| {
            for i in 0..3 {
                g[i] = 2.0 * (p[i] - c[i]);
            }
            p.iter().zip(c).map(|(v, c)| (v - c) * (v - c)).sum()
        });
        assert!(fval < 1e-12, "f = {fval}");
        for i in 0..3 {
            assert!((x[i] - c[i]).abs() < 1e-6, "{x:?}");
        }
    }

    #[test]
    fn minimize_in_clamps_a_start_outside_the_box_within_its_budget() {
        let lbfgs = Lbfgs::new(LbfgsConfig::default()).unwrap();
        let bounds = Bounds::new(vec![(0.0, 1.0), (-1.0, 0.5), (2.0, 3.0)]).unwrap();
        for budget in [1usize, 3, 10, 50] {
            let mut seen = 0usize;
            // Minimum at (-1, 0.2, 5): two coordinates end on a face.
            let (x, fx) = lbfgs.minimize_in(&bounds, vec![7.0, 0.0, 2.5], budget, |p, g| {
                seen += 1;
                assert!(bounds.contains(p), "{p:?} left the box");
                let c = [-1.0, 0.2, 5.0];
                for i in 0..3 {
                    g[i] = 2.0 * (p[i] - c[i]);
                }
                p.iter().zip(c).map(|(v, c)| (v - c) * (v - c)).sum()
            });
            assert!(seen <= budget, "budget {budget}: {seen} evaluations");
            assert!(bounds.contains(&x) && fx.is_finite());
            if budget == 50 {
                assert_eq!((x[0], x[2]), (0.0, 3.0));
                assert!((x[1] - 0.2).abs() < 1e-8, "{x:?}");
            }
        }
    }

    #[test]
    fn rejects_bad_config() {
        assert!(Lbfgs::new(LbfgsConfig {
            memory: 0,
            ..Default::default()
        })
        .is_err());
        assert!(Lbfgs::new(LbfgsConfig {
            backtrack: 1.0,
            ..Default::default()
        })
        .is_err());
    }
}
