//! Collection of array accesses from a loop body.
//!
//! The data access matrix (paper §2.2) is built from the *distinct
//! subscript expressions* appearing in the body, weighted by importance.
//! This module extracts the raw material: every array reference with its
//! read/write role.

use crate::{ArrayRef, Program, Stmt};

/// One array access occurrence in the loop body.
#[derive(Debug, Clone, PartialEq)]
pub struct AccessInfo {
    /// The reference.
    pub reference: ArrayRef,
    /// `true` for the left-hand side of an assignment.
    pub is_write: bool,
    /// Index of the statement the access occurs in.
    pub stmt_index: usize,
}

/// Collects every array access in the program body, writes first within
/// each statement (matching evaluation relevance for dependence
/// analysis).
pub fn collect_accesses(program: &Program) -> Vec<AccessInfo> {
    let mut out = Vec::new();
    for (stmt_index, Stmt::Assign { lhs, rhs }) in program.nest.body.iter().enumerate() {
        out.push(AccessInfo {
            reference: lhs.clone(),
            is_write: true,
            stmt_index,
        });
        for r in rhs.reads() {
            out.push(AccessInfo {
                reference: r.clone(),
                is_write: false,
                stmt_index,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::NestBuilder;
    use crate::{Distribution, Expr};

    #[test]
    fn collects_writes_then_reads() {
        // B[i] = B[i] + A[i+1]
        let mut b = NestBuilder::new(&["i"], &[("N", 8)]);
        let arr_b = b.array("B", &[b.par(0)], Distribution::Wrapped { dim: 0 });
        let arr_a = b.array(
            "A",
            &[b.par(0).add(&b.cst(1))],
            Distribution::Wrapped { dim: 0 },
        );
        b.bounds(0, b.cst(0), b.par(0).sub(&b.cst(2)));
        let lhs = b.access(arr_b, &[b.var(0)]);
        let rhs = Expr::add(
            Expr::access(b.access(arr_b, &[b.var(0)])),
            Expr::access(b.access(arr_a, &[b.var(0).add(&b.cst(1))])),
        );
        b.assign(lhs, rhs);
        let p = b.finish();
        let acc = collect_accesses(&p);
        assert_eq!(acc.len(), 3);
        assert!(acc[0].is_write);
        assert_eq!(acc[0].reference.array, arr_b);
        assert!(!acc[1].is_write);
        assert_eq!(acc[2].reference.array, arr_a);
        assert_eq!(acc[2].stmt_index, 0);
    }
}
