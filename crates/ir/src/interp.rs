//! A reference interpreter for IR programs.
//!
//! Executes the loop nest sequentially over `f64` array stores. The test
//! suite uses it as the semantic oracle: a loop transformation is correct
//! iff the transformed program leaves every array in the same state as
//! the original.

use crate::{ArrayId, ArrayRef, BinOp, Expr, IrError, Program, Stmt};

/// Concrete storage for every array of a program.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayStore {
    extents: Vec<Vec<i64>>,
    data: Vec<Vec<f64>>,
}

impl ArrayStore {
    /// Allocates zero-initialized storage for all arrays of `program`
    /// under the given parameter binding.
    pub fn zeros(program: &Program, param_values: &[i64]) -> ArrayStore {
        let extents: Vec<Vec<i64>> = program
            .arrays
            .iter()
            .map(|a| a.extents(param_values))
            .collect();
        let data = extents
            .iter()
            .map(|e| vec![0.0; e.iter().product::<i64>().max(0) as usize])
            .collect();
        ArrayStore { extents, data }
    }

    /// Allocates storage with deterministic pseudo-random contents
    /// (a hash of array id and flat index), so two programs initialized
    /// the same way can be compared element-wise.
    pub fn seeded(program: &Program, param_values: &[i64], seed: u64) -> ArrayStore {
        let mut store = ArrayStore::zeros(program, param_values);
        for (aid, arr) in store.data.iter_mut().enumerate() {
            for (i, v) in arr.iter_mut().enumerate() {
                *v = hash_to_unit(seed ^ mix(aid as u64, i as u64));
            }
        }
        store
    }

    /// The flat data of one array.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn array(&self, id: ArrayId) -> &[f64] {
        &self.data[id.0]
    }

    /// Reads one element.
    ///
    /// # Errors
    ///
    /// [`IrError::OutOfBounds`] if an index is outside the extents.
    pub fn read(&self, id: ArrayId, indices: &[i64], name: &str) -> Result<f64, IrError> {
        let flat = self.flatten(id, indices, name)?;
        Ok(self.data[id.0][flat])
    }

    /// Writes one element.
    ///
    /// # Errors
    ///
    /// [`IrError::OutOfBounds`] if an index is outside the extents.
    pub fn write(
        &mut self,
        id: ArrayId,
        indices: &[i64],
        name: &str,
        value: f64,
    ) -> Result<(), IrError> {
        let flat = self.flatten(id, indices, name)?;
        self.data[id.0][flat] = value;
        Ok(())
    }

    fn flatten(&self, id: ArrayId, indices: &[i64], name: &str) -> Result<usize, IrError> {
        let extents = &self.extents[id.0];
        debug_assert_eq!(indices.len(), extents.len());
        let mut flat: i64 = 0;
        for (dim, (&ix, &ext)) in indices.iter().zip(extents).enumerate() {
            if ix < 0 || ix >= ext {
                return Err(IrError::OutOfBounds {
                    array: name.to_string(),
                    dim,
                    index: ix,
                    extent: ext,
                });
            }
            flat = flat * ext + ix;
        }
        Ok(flat as usize)
    }

    /// Maximum absolute element-wise difference across all arrays.
    ///
    /// # Panics
    ///
    /// Panics if the stores have different shapes.
    pub fn max_abs_diff(&self, other: &ArrayStore) -> f64 {
        assert_eq!(self.extents, other.extents, "stores of different shapes");
        self.data
            .iter()
            .zip(&other.data)
            .flat_map(|(a, b)| a.iter().zip(b).map(|(x, y)| (x - y).abs()))
            .fold(0.0, f64::max)
    }
}

fn mix(a: u64, b: u64) -> u64 {
    // splitmix64-style mixing.
    let mut x = a.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(b);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn hash_to_unit(h: u64) -> f64 {
    (mix(h, 0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
}

/// Executes every statement of the nest body at one iteration `point`,
/// mutating `store`. This is the single-iteration building block that
/// [`run`] loops over; it is public so alternative schedulers (e.g. a
/// degraded-mode runtime that replays a dead processor's iterations)
/// can reuse the exact same statement semantics.
///
/// # Errors
///
/// [`IrError::OutOfBounds`] for bad accesses, [`IrError::DivisionByZero`]
/// on division by zero.
pub fn execute_point(
    program: &Program,
    point: &[i64],
    param_values: &[i64],
    store: &mut ArrayStore,
) -> Result<(), IrError> {
    for stmt in &program.nest.body {
        let Stmt::Assign { lhs, rhs } = stmt;
        let v = eval_expr(program, rhs, point, param_values, store)?;
        let idx = lhs.eval_subscripts(point, param_values);
        let name = &program.array(lhs.array).name;
        store.write(lhs.array, &idx, name, v)?;
    }
    Ok(())
}

/// Runs the program sequentially, mutating `store`: [`execute_point`]
/// at every iteration in lexicographic order, stopping at the first
/// fault.
///
/// # Errors
///
/// [`IrError::OutOfBounds`] for bad accesses, [`IrError::UnboundedLoop`]
/// for malformed nests, [`IrError::DivisionByZero`] on division by zero.
pub fn run(program: &Program, param_values: &[i64], store: &mut ArrayStore) -> Result<(), IrError> {
    let mut status = Ok(());
    program.nest.for_each_iteration(param_values, |point| {
        if status.is_ok() {
            status = execute_point(program, point, param_values, store);
        }
    })?;
    status
}

/// Runs the program on a fresh seeded store and returns it.
///
/// # Errors
///
/// Same as [`run`].
pub fn run_seeded(
    program: &Program,
    param_values: &[i64],
    seed: u64,
) -> Result<ArrayStore, IrError> {
    let mut store = ArrayStore::seeded(program, param_values, seed);
    run(program, param_values, &mut store)?;
    Ok(store)
}

fn eval_expr(
    program: &Program,
    e: &Expr,
    point: &[i64],
    params: &[i64],
    store: &ArrayStore,
) -> Result<f64, IrError> {
    match e {
        Expr::Lit(v) => Ok(*v),
        Expr::Coef(i) => Ok(program.coefs[*i].value),
        Expr::Access(r) => read_ref(program, r, point, params, store),
        Expr::Neg(a) => Ok(-eval_expr(program, a, point, params, store)?),
        Expr::Bin(op, a, b) => {
            let x = eval_expr(program, a, point, params, store)?;
            let y = eval_expr(program, b, point, params, store)?;
            match op {
                BinOp::Add => Ok(x + y),
                BinOp::Sub => Ok(x - y),
                BinOp::Mul => Ok(x * y),
                BinOp::Div => {
                    if y == 0.0 {
                        Err(IrError::DivisionByZero)
                    } else {
                        Ok(x / y)
                    }
                }
            }
        }
    }
}

fn read_ref(
    program: &Program,
    r: &ArrayRef,
    point: &[i64],
    params: &[i64],
    store: &ArrayStore,
) -> Result<f64, IrError> {
    let idx = r.eval_subscripts(point, params);
    let name = &program.array(r.array).name;
    store.read(r.array, &idx, name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::NestBuilder;
    use crate::Distribution;

    /// B[i] = B[i] + A[i] over i in 0..N-1.
    fn vector_add() -> Program {
        let mut b = NestBuilder::new(&["i"], &[("N", 8)]);
        let arr_b = b.array("B", &[b.par(0)], Distribution::Wrapped { dim: 0 });
        let arr_a = b.array("A", &[b.par(0)], Distribution::Wrapped { dim: 0 });
        b.bounds(0, b.cst(0), b.par(0).sub(&b.cst(1)));
        let lhs = b.access(arr_b, &[b.var(0)]);
        let rhs = Expr::add(
            Expr::access(b.access(arr_b, &[b.var(0)])),
            Expr::access(b.access(arr_a, &[b.var(0)])),
        );
        b.assign(lhs, rhs);
        b.finish()
    }

    #[test]
    fn executes_vector_add() {
        let p = vector_add();
        let params = [4];
        let mut store = ArrayStore::zeros(&p, &params);
        for i in 0..4 {
            store.write(ArrayId(1), &[i], "A", (i + 1) as f64).unwrap();
        }
        run(&p, &params, &mut store).unwrap();
        assert_eq!(store.array(ArrayId(0)), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn seeded_stores_are_deterministic() {
        let p = vector_add();
        let a = ArrayStore::seeded(&p, &[8], 42);
        let b = ArrayStore::seeded(&p, &[8], 42);
        assert_eq!(a, b);
        let c = ArrayStore::seeded(&p, &[8], 43);
        assert!(a.max_abs_diff(&c) > 0.0);
    }

    #[test]
    fn out_of_bounds_is_reported() {
        // A[i+N] with i up to N-1 overruns.
        let mut b = NestBuilder::new(&["i"], &[("N", 4)]);
        let a = b.array("A", &[b.par(0)], Distribution::Replicated);
        b.bounds(0, b.cst(0), b.par(0).sub(&b.cst(1)));
        let lhs = b.access(a, &[b.var(0).add(&b.par(0))]);
        b.assign(lhs, Expr::lit(1.0));
        let p = b.finish();
        let mut store = ArrayStore::zeros(&p, &[4]);
        assert!(matches!(
            run(&p, &[4], &mut store),
            Err(IrError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn division_by_zero_is_reported() {
        let mut b = NestBuilder::new(&["i"], &[]);
        let a = b.array("A", &[b.cst(1)], Distribution::Replicated);
        b.bounds(0, b.cst(0), b.cst(0));
        let lhs = b.access(a, &[b.var(0)]);
        b.assign(lhs, Expr::div(Expr::lit(1.0), Expr::lit(0.0)));
        let p = b.finish();
        let mut store = ArrayStore::zeros(&p, &[]);
        assert_eq!(run(&p, &[], &mut store), Err(IrError::DivisionByZero));
    }
}
