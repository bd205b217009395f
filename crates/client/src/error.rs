//! The top-level error type of the public API.
//!
//! Application code talks to an [`crate::AppServer`]; everything that can go
//! wrong behind that facade — store failures, bad real-time queries,
//! rejected configuration — surfaces as one [`Error`]. Crate-internal error
//! types ([`invalidb_store::StoreError`], [`invalidb_common::ConfigError`])
//! are unchanged and convert via `From`, so `?` keeps working across the
//! layer boundary.

use invalidb_common::ConfigError;
use invalidb_store::StoreError;

/// Any failure of the public InvaliDB API.
///
/// Marked `#[non_exhaustive]`: future versions may add variants without a
/// breaking change, so match with a wildcard arm.
#[non_exhaustive]
#[derive(Debug)]
pub enum Error {
    /// The primary store rejected the operation.
    Store(StoreError),
    /// A configuration value was rejected (builder validation).
    Config(ConfigError),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Store(e) => write!(f, "store error: {e}"),
            Error::Config(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Store(e) => Some(e),
            Error::Config(e) => Some(e),
        }
    }
}

impl From<StoreError> for Error {
    fn from(e: StoreError) -> Self {
        Error::Store(e)
    }
}

impl From<ConfigError> for Error {
    fn from(e: ConfigError) -> Self {
        Error::Config(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_preserve_inner_errors() {
        let e: Error = StoreError::BadQuery("q".into()).into();
        assert!(matches!(e, Error::Store(StoreError::BadQuery(_))));
        let e: Error = ConfigError::new("slack", "too big").into();
        match &e {
            Error::Config(c) => assert_eq!(c.field, "slack"),
            other => panic!("unexpected: {other:?}"),
        }
        assert!(e.to_string().contains("slack"));
    }

    #[test]
    fn question_mark_crosses_the_boundary() {
        fn store_op() -> Result<(), StoreError> {
            Err(StoreError::BadQuery("x".into()))
        }
        fn api_op() -> Result<(), Error> {
            store_op()?;
            Ok(())
        }
        assert!(matches!(api_op(), Err(Error::Store(_))));
    }
}
