//! Error type for model construction and evaluation.

use std::fmt;

/// Errors produced when constructing or evaluating the analytical models.
///
/// Marked `#[non_exhaustive]`: downstream matches need a wildcard arm,
/// so adding variants is not a breaking change.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// A machine parameter was negative, NaN, or otherwise out of its
    /// physical domain. Carries the parameter name and offending value.
    InvalidParameter {
        /// Name of the parameter (e.g. `"gamma_t"`).
        name: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// The requested memory per processor `M` lies outside the validity
    /// range of the algorithm's cost model (e.g. below one copy of the
    /// data, `M < n²/p`, or above the replication limit, `M > n²/p^(2/3)`
    /// for classical matmul).
    MemoryOutOfRange {
        /// Requested memory per processor, in words.
        m: f64,
        /// Smallest valid memory for this (n, p).
        min: f64,
        /// Largest memory the algorithm can exploit for this (n, p).
        max: f64,
    },
    /// The problem/processor configuration is invalid for the algorithm
    /// (e.g. `p = 0`, or an FFT size that is not a power of two).
    InvalidConfiguration(String),
    /// A constrained optimization problem has no feasible point (e.g. an
    /// energy budget below the minimum attainable energy).
    Infeasible(String),
    /// Finite machine prices priced a quantity to infinity or NaN: the
    /// prices are too large for the run.
    PriceOverflow {
        /// The quantity that is not finite (e.g. `"T"`).
        quantity: &'static str,
        /// The prices that price it, as prose (e.g. `"gamma_t, beta_t
        /// and alpha_t"`).
        prices: &'static str,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidParameter { name, value } => {
                write!(f, "invalid machine parameter {name} = {value}")
            }
            CoreError::MemoryOutOfRange { m, min, max } => write!(
                f,
                "memory per processor M = {m} words outside valid range [{min}, {max}]"
            ),
            CoreError::InvalidConfiguration(msg) => write!(f, "invalid configuration: {msg}"),
            CoreError::Infeasible(msg) => write!(f, "infeasible constraint: {msg}"),
            CoreError::PriceOverflow { quantity, prices } => {
                write!(
                    f,
                    "{quantity} overflows: {prices} are too large for this run"
                )
            }
        }
    }
}

impl std::error::Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_informative() {
        let e = CoreError::InvalidParameter {
            name: "gamma_t",
            value: -1.0,
        };
        assert!(e.to_string().contains("gamma_t"));

        let e = CoreError::MemoryOutOfRange {
            m: 1.0,
            min: 2.0,
            max: 3.0,
        };
        let s = e.to_string();
        assert!(s.contains('1') && s.contains('2') && s.contains('3'));

        let e = CoreError::InvalidConfiguration("p must be a square".into());
        assert!(e.to_string().contains("square"));

        let e = CoreError::Infeasible("energy budget too small".into());
        assert!(e.to_string().contains("budget"));

        let e = CoreError::PriceOverflow {
            quantity: "T",
            prices: "gamma_t, beta_t and alpha_t",
        };
        assert_eq!(
            e.to_string(),
            "T overflows: gamma_t, beta_t and alpha_t are too large for this run"
        );
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
    }
}
