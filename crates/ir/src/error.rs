use std::fmt;

/// Errors produced when building or interpreting IR programs.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum IrError {
    /// An array reference has the wrong number of subscripts.
    SubscriptArity {
        /// Array name.
        array: String,
        /// Declared rank.
        expected: usize,
        /// Number of subscripts in the reference.
        got: usize,
    },
    /// A distribution names a dimension the array does not have.
    BadDistributionDim {
        /// Array name.
        array: String,
        /// Offending dimension index.
        dim: usize,
        /// Declared rank.
        rank: usize,
    },
    /// A loop has no lower or upper bound.
    UnboundedLoop {
        /// Index of the unbounded loop variable.
        var: usize,
    },
    /// A bound term or guard of a loop can leave `i64` somewhere in the
    /// nest's bounding box at the given parameters (see
    /// [`LoopNest::reach`](crate::LoopNest::reach)).
    BoundOverflow {
        /// Index of the loop variable.
        var: usize,
    },
    /// An array extent leaves `i64` at the given parameters (see
    /// [`Program::check_extents`](crate::Program::check_extents)).
    ExtentOverflow {
        /// Array name.
        array: String,
        /// Dimension index.
        dim: usize,
    },
    /// An array access evaluated outside the declared extents.
    OutOfBounds {
        /// Array name.
        array: String,
        /// Dimension index.
        dim: usize,
        /// The evaluated subscript value.
        index: i64,
        /// The extent of that dimension.
        extent: i64,
    },
    /// A parameter binding is missing or a value is invalid.
    BadParameter {
        /// Parameter name.
        name: String,
        /// What went wrong.
        reason: String,
    },
    /// Division by zero during interpretation.
    DivisionByZero,
}

impl fmt::Display for IrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrError::SubscriptArity {
                array,
                expected,
                got,
            } => write!(
                f,
                "array `{array}` has rank {expected} but reference has {got} subscripts"
            ),
            IrError::BadDistributionDim { array, dim, rank } => write!(
                f,
                "array `{array}` distribution names dimension {dim} but rank is {rank}"
            ),
            IrError::UnboundedLoop { var } => {
                write!(f, "loop variable #{var} has no finite bounds")
            }
            IrError::BoundOverflow { var } => write!(
                f,
                "a bound of loop variable #{var} can leave the 64-bit range at these parameters"
            ),
            IrError::ExtentOverflow { array, dim } => write!(
                f,
                "the extent of array `{array}` in dimension {dim} leaves the 64-bit range at \
                 these parameters"
            ),
            IrError::OutOfBounds {
                array,
                dim,
                index,
                extent,
            } => write!(
                f,
                "access to `{array}` out of bounds in dimension {dim}: index {index}, extent {extent}"
            ),
            IrError::BadParameter { name, reason } => {
                write!(f, "bad parameter `{name}`: {reason}")
            }
            IrError::DivisionByZero => write!(f, "division by zero"),
        }
    }
}

impl std::error::Error for IrError {}
