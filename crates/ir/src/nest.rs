//! The perfectly nested affine loop nest.

use crate::{IrError, Stmt};
use an_poly::{Affine, ConstraintSystem, LoopBounds, Space};

/// A perfectly nested loop nest: `depth` loops around a straight-line
/// body. Loop `k`'s bounds may reference loops `0..k` and parameters.
/// All input loops have unit step; non-unit steps only arise in
/// *generated* (SPMD / lattice) code, which has its own representation in
/// `an-codegen`.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopNest {
    /// Variable/parameter naming context.
    pub space: Space,
    /// Bounds for each loop, outermost first; `bounds[k].var == k`.
    pub bounds: Vec<LoopBounds>,
    /// The loop body.
    pub body: Vec<Stmt>,
}

impl LoopNest {
    /// Nesting depth.
    pub fn depth(&self) -> usize {
        self.bounds.len()
    }

    /// The iteration-space polyhedron as a constraint system:
    /// for every lower bound `x ≥ ceil(e/d)` the inequality `d·x - e ≥ 0`,
    /// and for every upper bound `x ≤ floor(e/d)` the inequality
    /// `e - d·x ≥ 0`.
    pub fn constraint_system(&self) -> ConstraintSystem {
        let mut sys = ConstraintSystem::new(self.space.clone());
        for lb in &self.bounds {
            for b in &lb.lowers {
                let scaled_var = Affine::var(&self.space, lb.var, b.divisor);
                sys.add(&scaled_var.sub(&b.expr));
            }
            for b in &lb.uppers {
                let scaled_var = Affine::var(&self.space, lb.var, b.divisor);
                sys.add(&b.expr.sub(&scaled_var));
            }
        }
        sys
    }

    /// Walks the iteration space in lexicographic order, calling `f`
    /// with each iteration vector.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::UnboundedLoop`] if any loop lacks a lower or
    /// upper bound.
    pub fn for_each_iteration(
        &self,
        param_values: &[i64],
        mut f: impl FnMut(&[i64]),
    ) -> Result<(), IrError> {
        let mut point = vec![0i64; self.depth()];
        self.walk(0, param_values, &mut point, &mut f)
    }

    fn walk(
        &self,
        k: usize,
        params: &[i64],
        point: &mut Vec<i64>,
        f: &mut impl FnMut(&[i64]),
    ) -> Result<(), IrError> {
        if k == self.depth() {
            f(point);
            return Ok(());
        }
        let (lo, hi) = self.bounds[k]
            .eval(point, params)
            .ok_or(IrError::UnboundedLoop { var: k })?;
        // Innermost level: iterate flat instead of recursing per leaf —
        // the leaf call is the hottest edge of every iteration-space
        // walk (interpreter, range analysis, reference simulators).
        if k + 1 == self.depth() {
            for v in lo..=hi {
                point[k] = v;
                f(point);
            }
            point[k] = 0;
            return Ok(());
        }
        for v in lo..=hi {
            point[k] = v;
            self.walk(k + 1, params, point, f)?;
        }
        point[k] = 0;
        Ok(())
    }

    /// Total number of iterations under a parameter binding.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::UnboundedLoop`] if any loop lacks bounds.
    pub fn iteration_count(&self, param_values: &[i64]) -> Result<u64, IrError> {
        let mut n = 0u64;
        self.for_each_iteration(param_values, |_| n += 1)?;
        Ok(n)
    }

    /// Like [`iteration_count`](Self::iteration_count) but gives up (with
    /// `Ok(None)`) once the count exceeds `cap`, without walking the
    /// rest — cheap feasibility probe for analyses that only want to
    /// enumerate small spaces.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::UnboundedLoop`] if any loop lacks bounds.
    pub fn iteration_count_capped(
        &self,
        param_values: &[i64],
        cap: u64,
    ) -> Result<Option<u64>, IrError> {
        let mut point = vec![0i64; self.depth()];
        let mut count = 0u64;
        let hit_cap = self.count_capped(0, param_values, &mut point, cap, &mut count)?;
        Ok(if hit_cap { None } else { Some(count) })
    }

    fn count_capped(
        &self,
        k: usize,
        params: &[i64],
        point: &mut Vec<i64>,
        cap: u64,
        count: &mut u64,
    ) -> Result<bool, IrError> {
        if k == self.depth() {
            *count += 1;
            return Ok(*count > cap);
        }
        let (lo, hi) = self.bounds[k]
            .eval(point, params)
            .ok_or(IrError::UnboundedLoop { var: k })?;
        // Innermost level: the trip count is closed-form — charging it
        // in one add turns the probe from O(iterations) into
        // O(loop headers), which is what makes the cap cheap to test
        // on paper-sized spaces.
        if k + 1 == self.depth() {
            let span = (hi as i128 - lo as i128 + 1).max(0) as u128;
            *count = (*count as u128).saturating_add(span).min(u64::MAX as u128) as u64;
            return Ok(*count > cap);
        }
        for v in lo..=hi {
            point[k] = v;
            if self.count_capped(k + 1, params, point, cap, count)? {
                return Ok(true);
            }
        }
        point[k] = 0;
        Ok(false)
    }

    /// Bounds `|v_k|` for every loop variable over the nest's bounding
    /// box at `param_values`, level by level: the loop runs from one of
    /// its lower terms to one of its upper terms, and a divisor only
    /// shrinks them, so `reach[k]` is the largest [`magnitude`] of a
    /// bound term of loop `k` given `reach[..k]`. Stops early at a loop
    /// with no bound term at all (a walk reports
    /// [`IrError::UnboundedLoop`] there).
    ///
    /// Every walk of the nest evaluates its bounds and guards unchecked
    /// at concrete points; this is the up-front check that keeps those
    /// evaluations inside `i64`.
    ///
    /// # Errors
    ///
    /// [`IrError::BoundOverflow`] naming the first loop a bound term or
    /// guard of which can leave `i64`.
    pub fn reach(&self, param_values: &[i64]) -> Result<Vec<i128>, IrError> {
        let mut reach: Vec<i128> = Vec::with_capacity(self.depth());
        for (var, b) in self.bounds.iter().enumerate() {
            let m = |a: &Affine| magnitude(a, param_values, &reach);
            let terms = b.lowers.iter().chain(&b.uppers).map(|t| m(&t.expr)).max();
            let guards = b.guards.iter().map(m).max();
            if terms.max(guards).is_some_and(|w| w > i64::MAX as i128) {
                return Err(IrError::BoundOverflow { var });
            }
            let Some(t) = terms else {
                break;
            };
            reach.push(t);
        }
        Ok(reach)
    }
}

/// `|constant and parameter part| + Σ |c_k|·reach[k]` of `a` at
/// `param_values`: a bound on the value of `a`, and of every partial sum
/// of its terms, wherever `|v_k| ≤ reach[k]` (a variable past the end of
/// `reach` counts as zero). Arithmetic is saturating `i128`: a
/// saturated bound is out of range for certain.
pub fn magnitude(a: &Affine, param_values: &[i64], reach: &[i128]) -> i128 {
    let fixed = a
        .param_coeffs()
        .iter()
        .zip(param_values)
        .fold(a.constant_term() as i128, |acc, (c, v)| {
            acc.saturating_add(*c as i128 * *v as i128)
        });
    a.var_coeffs()
        .iter()
        .zip(reach)
        .fold(fixed.saturating_abs(), |acc, (c, m)| {
            acc.saturating_add((*c as i128).abs().saturating_mul(*m))
        })
}

#[cfg(test)]
mod tests {
    use crate::build::NestBuilder;

    fn triangle() -> crate::Program {
        // for i = 0..N-1 { for j = i..N-1 { } } with one dummy statement.
        let mut b = NestBuilder::new(&["i", "j"], &[("N", 4)]);
        let a = b.array("A", &[b.par(0), b.par(0)], crate::Distribution::Replicated);
        let n1 = b.par(0).sub(&b.cst(1));
        b.bounds(0, b.cst(0), n1.clone());
        b.bounds(1, b.var(0), n1);
        let lhs = b.access(a, &[b.var(0), b.var(1)]);
        b.assign(lhs, crate::Expr::lit(1.0));
        b.finish()
    }

    #[test]
    fn lexicographic_walk() {
        let p = triangle();
        let mut seen = Vec::new();
        p.nest
            .for_each_iteration(&[3], |pt| seen.push(pt.to_vec()))
            .unwrap();
        assert_eq!(
            seen,
            vec![
                vec![0, 0],
                vec![0, 1],
                vec![0, 2],
                vec![1, 1],
                vec![1, 2],
                vec![2, 2]
            ]
        );
        assert_eq!(p.nest.iteration_count(&[3]).unwrap(), 6);
    }

    #[test]
    fn empty_iteration_space() {
        let p = triangle();
        assert_eq!(p.nest.iteration_count(&[0]).unwrap(), 0);
    }

    #[test]
    fn reach_bounds_every_loop_and_rejects_bounds_past_i64() {
        let p = triangle();
        // i ∈ [0, N-1], j ∈ [i, N-1]: both within N - 1 in magnitude.
        assert_eq!(p.nest.reach(&[4]).unwrap(), vec![3, 3]);
        // At N = 2⁶² the upper bound `N - 1` still fits, `j`'s does too.
        assert!(p.nest.reach(&[1 << 62]).is_ok());
        // A bound `2⁶² · N` leaves i64 at N = 4, where evaluating it
        // would panic.
        let mut b = NestBuilder::new(&["i"], &[("N", 4)]);
        let a = b.array("A", &[b.par(0)], crate::Distribution::Replicated);
        b.bounds(0, b.cst(0), b.par(0).scale(1 << 62));
        let lhs = b.access(a, &[b.var(0)]);
        b.assign(lhs, crate::Expr::lit(1.0));
        let p = b.finish();
        assert_eq!(p.nest.reach(&[1]).unwrap(), vec![1 << 62]);
        assert_eq!(
            p.nest.reach(&[4]),
            Err(crate::IrError::BoundOverflow { var: 0 })
        );
    }

    #[test]
    fn constraint_system_agrees_with_walk() {
        let p = triangle();
        let sys = p.nest.constraint_system();
        let mut count = 0;
        for i in -2..6 {
            for j in -2..6 {
                if sys.contains(&[i, j], &[4]) {
                    count += 1;
                }
            }
        }
        assert_eq!(count, p.nest.iteration_count(&[4]).unwrap() as i64);
    }
}
