//! Whole programs: parameters, arrays, and one loop nest.

use crate::nest::magnitude;
use crate::{ArrayDecl, ArrayId, IrError, LoopNest, Stmt};
use an_poly::Affine;

/// A symbolic parameter with a default value (used when running or
/// simulating without explicit bindings).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamDecl {
    /// Parameter name (matches the nest space).
    pub name: String,
    /// Default value.
    pub default: i64,
}

/// A named scalar coefficient (e.g. `alpha` in SYR2K), with the value
/// the interpreter and simulator should use.
#[derive(Debug, Clone, PartialEq)]
pub struct CoefDecl {
    /// Coefficient name.
    pub name: String,
    /// Concrete value.
    pub value: f64,
}

/// A complete input program: parameter declarations, distributed array
/// declarations, and a single affine loop nest (the unit the paper's
/// compiler transforms).
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Symbolic parameters, in the order of the nest space.
    pub params: Vec<ParamDecl>,
    /// Named scalar coefficients referenced by [`Expr::Coef`](crate::Expr::Coef).
    pub coefs: Vec<CoefDecl>,
    /// Array declarations; [`ArrayId`] indexes into this table.
    pub arrays: Vec<ArrayDecl>,
    /// Variable-free parameter preconditions (`e ≥ 0` each), declared
    /// with `assume` in the surface language; used to simplify generated
    /// loop bounds.
    pub assumptions: Vec<an_poly::Affine>,
    /// The loop nest.
    pub nest: LoopNest,
}

impl Program {
    /// The declaration for an array id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn array(&self, id: ArrayId) -> &ArrayDecl {
        &self.arrays[id.0]
    }

    /// Looks up an array by name.
    pub fn array_by_name(&self, name: &str) -> Option<(ArrayId, &ArrayDecl)> {
        self.arrays
            .iter()
            .enumerate()
            .find(|(_, a)| a.name == name)
            .map(|(i, a)| (ArrayId(i), a))
    }

    /// Default parameter values, in declaration order.
    pub fn default_param_values(&self) -> Vec<i64> {
        self.params.iter().map(|p| p.default).collect()
    }

    /// Resolves a partial name→value binding into a full value vector,
    /// falling back to defaults.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::BadParameter`] for unknown names.
    pub fn bind_params(&self, bindings: &[(&str, i64)]) -> Result<Vec<i64>, IrError> {
        let mut values = self.default_param_values();
        for (name, v) in bindings {
            let idx = self
                .params
                .iter()
                .position(|p| p.name == *name)
                .ok_or_else(|| IrError::BadParameter {
                    name: name.to_string(),
                    reason: "unknown parameter".into(),
                })?;
            values[idx] = *v;
        }
        Ok(values)
    }

    /// Rejects an array extent that can leave `i64` at `param_values`:
    /// [`ArrayDecl::extents`] evaluates them unchecked, so this is the
    /// up-front check that, like [`LoopNest::reach`] for loop bounds,
    /// keeps that evaluation inside `i64`.
    ///
    /// # Errors
    ///
    /// [`IrError::ExtentOverflow`] naming the first such array dimension.
    pub fn check_extents(&self, param_values: &[i64]) -> Result<(), IrError> {
        let fits = |d: &Affine| magnitude(d, param_values, &[]) <= i64::MAX as i128;
        for a in &self.arrays {
            if let Some(dim) = a.dims.iter().position(|d| !fits(d)) {
                let array = a.name.clone();
                return Err(IrError::ExtentOverflow { array, dim });
            }
        }
        Ok(())
    }

    /// Validates structural invariants: subscript arity, distribution
    /// dimensions, and that every loop has at least one lower and upper
    /// bound.
    ///
    /// # Errors
    ///
    /// The first violation found, as an [`IrError`].
    pub fn validate(&self) -> Result<(), IrError> {
        for a in &self.assumptions {
            if !a.is_var_free() {
                return Err(IrError::BadParameter {
                    name: "assume".into(),
                    reason: "assumptions must not involve loop variables".into(),
                });
            }
        }
        for a in &self.arrays {
            for dim in a.distribution.dims() {
                if dim >= a.rank() {
                    return Err(IrError::BadDistributionDim {
                        array: a.name.clone(),
                        dim,
                        rank: a.rank(),
                    });
                }
            }
        }
        for lb in &self.nest.bounds {
            if lb.lowers.is_empty() || lb.uppers.is_empty() {
                return Err(IrError::UnboundedLoop { var: lb.var });
            }
        }
        for stmt in &self.nest.body {
            let Stmt::Assign { lhs, rhs } = stmt;
            self.check_ref(lhs)?;
            for r in rhs.reads() {
                self.check_ref(r)?;
            }
        }
        Ok(())
    }

    fn check_ref(&self, r: &crate::ArrayRef) -> Result<(), IrError> {
        let decl = self.array(r.array);
        if r.subscripts.len() != decl.rank() {
            return Err(IrError::SubscriptArity {
                array: decl.name.clone(),
                expected: decl.rank(),
                got: r.subscripts.len(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::NestBuilder;
    use crate::{Distribution, Expr};

    #[test]
    fn lookup_and_bindings() {
        let mut b = NestBuilder::new(&["i"], &[("N", 10), ("b", 3)]);
        let a = b.array("A", &[b.par(0)], Distribution::Wrapped { dim: 0 });
        b.bounds(0, b.cst(0), b.par(0).sub(&b.cst(1)));
        let lhs = b.access(a, &[b.var(0)]);
        b.assign(lhs, Expr::lit(0.0));
        let p = b.finish();
        assert_eq!(p.default_param_values(), vec![10, 3]);
        assert_eq!(p.bind_params(&[("b", 7)]).unwrap(), vec![10, 7]);
        assert!(p.bind_params(&[("zz", 1)]).is_err());
        let (id, decl) = p.array_by_name("A").unwrap();
        assert_eq!(id, ArrayId(0));
        assert_eq!(decl.name, "A");
        assert!(p.array_by_name("Z").is_none());
    }

    #[test]
    fn validation_catches_bad_distribution() {
        let mut b = NestBuilder::new(&["i"], &[("N", 10)]);
        let a = b.array("A", &[b.par(0)], Distribution::Wrapped { dim: 3 });
        b.bounds(0, b.cst(0), b.par(0));
        let lhs = b.access(a, &[b.var(0)]);
        b.assign(lhs, Expr::lit(0.0));
        let p = b.try_finish().unwrap_err();
        assert!(matches!(p, IrError::BadDistributionDim { .. }));
    }

    #[test]
    fn validation_catches_arity() {
        let mut b = NestBuilder::new(&["i"], &[("N", 10)]);
        let a = b.array("A", &[b.par(0), b.par(0)], Distribution::Replicated);
        b.bounds(0, b.cst(0), b.par(0));
        let lhs = crate::ArrayRef::new(a, vec![b.var(0)]); // rank 2, one subscript
        b.assign(lhs, Expr::lit(0.0));
        assert!(matches!(
            b.try_finish(),
            Err(IrError::SubscriptArity { .. })
        ));
    }
}
