//! Affine loop-nest intermediate representation.
//!
//! This is the program representation the access-normalization pipeline
//! operates on: a perfectly nested affine loop nest (bounds are `max`es /
//! `min`s of affine forms of outer indices and symbolic parameters), a
//! straight-line body of array assignments with affine subscripts, and
//! per-array *data distribution* declarations in the style of FORTRAN-D
//! (wrapped and blocked row/column distributions, plus 2-D blocks).
//!
//! The crate also provides:
//!
//! - [`interp`] — a reference interpreter over `f64` array stores, used
//!   throughout the test suite to check that transformed programs compute
//!   the same function as the originals;
//! - [`iterate`](nest::LoopNest::for_each_iteration) — lexicographic
//!   iteration-space walks;
//! - [`pretty`] — a pseudo-code pretty printer matching the paper's
//!   presentation style.
//!
//! # Example
//!
//! ```
//! use an_ir::build::NestBuilder;
//!
//! // for i = 0..7 { for j = i..i+3 { B[i, j-i] = B[i, j-i] + 1.0 } }
//! let mut b = NestBuilder::new(&["i", "j"], &[]);
//! let arr = b.array("B", &[b.cst(8), b.cst(4)], an_ir::Distribution::Wrapped { dim: 1 });
//! b.bounds(0, b.cst(0), b.cst(7));
//! b.bounds(1, b.var(0), b.var(0).add(&b.cst(3)));
//! let lhs = b.access(arr, &[b.var(0), b.var(1).sub(&b.var(0))]);
//! let rhs = an_ir::Expr::add(an_ir::Expr::access(lhs.clone()), an_ir::Expr::lit(1.0));
//! b.assign(lhs, rhs);
//! let program = b.finish();
//! assert_eq!(program.nest.depth(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod access;
pub mod array;
pub mod build;
pub mod expr;
pub mod interp;
pub mod nest;
pub mod pretty;
pub mod program;
pub mod stmt;

mod error;

pub use access::{collect_accesses, AccessInfo};
pub use array::{ArrayDecl, ArrayId, Distribution};
pub use error::IrError;
pub use expr::{BinOp, Expr};
pub use nest::LoopNest;
pub use program::{CoefDecl, ParamDecl, Program};
pub use stmt::{ArrayRef, Stmt};
