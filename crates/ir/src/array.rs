//! Array declarations and data distributions.

use an_poly::Affine;
use std::fmt;

/// Identifier of an array within a [`Program`](crate::Program) (index
/// into its array table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArrayId(pub usize);

/// How an array is laid out across the local memories of the machine
/// (paper Section 2.1).
///
/// The *distribution dimension(s)* are the dimensions used by the
/// distribution function; subscripts in those dimensions are what access
/// normalization tries hardest to normalize.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Distribution {
    /// Every processor holds a full copy; all accesses are local.
    Replicated,
    /// Round-robin along `dim`: element with index `x` in that dimension
    /// lives on processor `x mod P` (the paper's *wrapped* distribution;
    /// `dim = 1` on a 2-D array is the wrapped-*column* distribution).
    Wrapped {
        /// The distribution dimension.
        dim: usize,
    },
    /// Contiguous blocks along `dim`: with block size `S = ceil(extent/P)`
    /// the element lives on processor `x / S`.
    Blocked {
        /// The distribution dimension.
        dim: usize,
    },
    /// Rectangular 2-D blocks over a `pr x pc` virtual processor grid
    /// (paper Section 2.1 mentions these; supported as an extension).
    Block2D {
        /// First distribution dimension (blocked over `pr`).
        row_dim: usize,
        /// Second distribution dimension (blocked over `pc`).
        col_dim: usize,
    },
}

impl Distribution {
    /// The distribution dimensions of this distribution, in priority
    /// order.
    pub fn dims(&self) -> Vec<usize> {
        match self {
            Distribution::Replicated => vec![],
            Distribution::Wrapped { dim } | Distribution::Blocked { dim } => vec![*dim],
            Distribution::Block2D { row_dim, col_dim } => vec![*row_dim, *col_dim],
        }
    }

    /// Returns `true` if `dim` is a distribution dimension.
    pub fn distributes(&self, dim: usize) -> bool {
        self.dims().contains(&dim)
    }
}

impl fmt::Display for Distribution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Distribution::Replicated => write!(f, "replicated"),
            Distribution::Wrapped { dim } => write!(f, "wrapped({dim})"),
            Distribution::Blocked { dim } => write!(f, "blocked({dim})"),
            Distribution::Block2D { row_dim, col_dim } => {
                write!(f, "block2d({row_dim}, {col_dim})")
            }
        }
    }
}

/// An array declaration: name, per-dimension extents (variable-free
/// affine forms over the parameters), and a distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayDecl {
    /// Array name (for diagnostics and pretty printing).
    pub name: String,
    /// Extent of each dimension; must be variable-free.
    pub dims: Vec<Affine>,
    /// How the array is distributed across processors.
    pub distribution: Distribution,
}

impl ArrayDecl {
    /// Rank (number of dimensions).
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Concrete extents under a parameter binding.
    ///
    /// # Panics
    ///
    /// Panics if an extent involves loop variables (builders reject
    /// this) or the parameter slice has the wrong length.
    pub fn extents(&self, param_values: &[i64]) -> Vec<i64> {
        self.dims
            .iter()
            .map(|d| {
                let nvars = d.space().num_vars();
                d.eval(&vec![0; nvars], param_values)
            })
            .collect()
    }

    /// Total element count under a parameter binding.
    pub fn len(&self, param_values: &[i64]) -> i64 {
        self.extents(param_values).iter().product()
    }

    /// Returns `true` if the array has zero elements.
    pub fn is_empty(&self, param_values: &[i64]) -> bool {
        self.len(param_values) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use an_poly::Space;

    #[test]
    fn distribution_dims() {
        assert_eq!(Distribution::Replicated.dims(), Vec::<usize>::new());
        assert_eq!(Distribution::Wrapped { dim: 1 }.dims(), vec![1]);
        assert!(Distribution::Blocked { dim: 0 }.distributes(0));
        assert!(!Distribution::Blocked { dim: 0 }.distributes(1));
        assert_eq!(
            Distribution::Block2D {
                row_dim: 0,
                col_dim: 1
            }
            .dims(),
            vec![0, 1]
        );
    }

    #[test]
    fn extents_and_len() {
        let s = Space::new(&["i"], &["N"]);
        let decl = ArrayDecl {
            name: "A".into(),
            dims: vec![
                Affine::param(&s, 0, 1),
                Affine::param(&s, 0, 2).add(&Affine::constant(&s, 1)),
            ],
            distribution: Distribution::Wrapped { dim: 1 },
        };
        assert_eq!(decl.rank(), 2);
        assert_eq!(decl.extents(&[10]), vec![10, 21]);
        assert_eq!(decl.len(&[10]), 210);
        assert!(!decl.is_empty(&[10]));
        assert!(decl.is_empty(&[0]));
    }

    #[test]
    fn display() {
        assert_eq!(Distribution::Wrapped { dim: 1 }.to_string(), "wrapped(1)");
        assert_eq!(
            Distribution::Block2D {
                row_dim: 0,
                col_dim: 1
            }
            .to_string(),
            "block2d(0, 1)"
        );
    }
}
