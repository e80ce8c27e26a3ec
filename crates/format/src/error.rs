//! Error type for format construction and conversion.

use core::fmt;

/// Errors raised while constructing or converting Anda/BFP data.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum FormatError {
    /// A group size outside the supported range was requested.
    InvalidGroupSize {
        /// The requested group size.
        requested: usize,
        /// Largest supported group size for this format.
        max: usize,
    },
    /// A mantissa length outside the supported range was requested.
    InvalidMantissaBits {
        /// The requested mantissa length.
        requested: u32,
        /// Inclusive supported range.
        range: (u32, u32),
    },
    /// The input contained a NaN or infinity, which block floating point
    /// cannot represent.
    NonFinite {
        /// Index of the offending element in the input slice.
        index: usize,
    },
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormatError::InvalidGroupSize { requested, max } => write!(
                f,
                "invalid group size {requested}: must be between 1 and {max}"
            ),
            FormatError::InvalidMantissaBits { requested, range } => write!(
                f,
                "invalid mantissa length {requested}: must be between {} and {}",
                range.0, range.1
            ),
            FormatError::NonFinite { index } => write!(
                f,
                "input element {index} is NaN or infinite; block floating point \
                 requires finite values"
            ),
        }
    }
}

impl std::error::Error for FormatError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = FormatError::InvalidMantissaBits {
            requested: 0,
            range: (1, 16),
        };
        let msg = e.to_string();
        assert!(msg.contains('0') && msg.contains("16"), "{msg}");
        assert!(FormatError::NonFinite { index: 3 }
            .to_string()
            .contains('3'));
    }

    #[test]
    fn error_trait_is_implemented() {
        fn takes_error(_: &dyn std::error::Error) {}
        takes_error(&FormatError::NonFinite { index: 0 });
    }
}
