use std::fmt;

/// Errors from simulation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// A loop of the SPMD program has no finite bounds.
    UnboundedLoop {
        /// Loop level.
        var: usize,
    },
    /// The processor count must be at least 1.
    NoProcessors,
    /// Parameter vector has the wrong arity for the program.
    BadParameters {
        /// Expected number of parameters.
        expected: usize,
        /// Provided number.
        got: usize,
    },
    /// An array extent evaluates to a negative size at the given
    /// parameters, or, along a blocked dimension, to one past
    /// [`crate::distribution::HEADROOM`].
    BadExtent {
        /// Array name (empty when the extent has no array context).
        array: String,
        /// Dimension index.
        dim: usize,
        /// The offending evaluated extent.
        extent: i64,
    },
    /// An array extent leaves `i64` at the given parameters.
    ExtentOverflow {
        /// Array name.
        array: String,
        /// Dimension index.
        dim: usize,
    },
    /// A subscript pricing would evaluate — of an access, a hoisted
    /// transfer or the outer assignment — can leave `i64` somewhere in
    /// the nest's bounding box at the given parameters, or, along a
    /// blocked dimension, [`crate::distribution::HEADROOM`].
    SubscriptOverflow {
        /// Array name.
        array: String,
        /// Dimension index.
        dim: usize,
    },
    /// A loop bound can leave [`crate::distribution::HEADROOM`] somewhere
    /// in the nest's bounding box at the given parameters.
    BoundOverflow {
        /// Loop level.
        var: usize,
    },
    /// A processor's access, operation or transfer count, or a traced
    /// sum of one over the processors, leaves `u64` at the given
    /// parameters.
    CountOverflow,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnboundedLoop { var } => write!(f, "loop #{var} has no finite bounds"),
            SimError::NoProcessors => write!(f, "processor count must be at least 1"),
            SimError::BadParameters { expected, got } => {
                write!(f, "expected {expected} parameter values, got {got}")
            }
            SimError::BadExtent { array, dim, extent } if array.is_empty() => {
                write!(f, "negative extent {extent} in dimension {dim}")
            }
            SimError::BadExtent { array, dim, extent } if *extent < 0 => {
                write!(
                    f,
                    "array {array} dimension {dim} has negative extent {extent} at these parameters"
                )
            }
            SimError::BadExtent { array, dim, extent } => write!(
                f,
                "array {array} dimension {dim} has extent {extent}, too large to price as blocked, \
                 at these parameters"
            ),
            SimError::ExtentOverflow { array, dim } => write!(
                f,
                "the extent of array {array} in dimension {dim} leaves the 64-bit range at these \
                 parameters"
            ),
            SimError::SubscriptOverflow { array, dim } => write!(
                f,
                "a subscript of array {array} in dimension {dim} can leave the range pricing \
                 evaluates at these parameters"
            ),
            SimError::BoundOverflow { var } => write!(
                f,
                "a bound of loop #{var} can leave the range pricing evaluates at these parameters"
            ),
            SimError::CountOverflow => write!(
                f,
                "an access or transfer count leaves the 64-bit range at these parameters"
            ),
        }
    }
}

impl std::error::Error for SimError {}
