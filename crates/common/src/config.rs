//! The error of configuration validation.
//!
//! `AppServerConfig::validate` (crates/client) and
//! `ClusterConfig::validate` (crates/core) report an inconsistent setting
//! through this one error type, so the facade crate can surface a single
//! configuration error whichever layer rejected the settings. The
//! components' `start` functions run the same checks and panic with its
//! text.

/// A rejected configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// Which setting (or pair of settings) was inconsistent.
    pub field: String,
    /// Human-readable explanation of the constraint that was violated.
    pub message: String,
}

impl ConfigError {
    /// Creates an error for `field` with the given explanation.
    pub fn new(field: impl Into<String>, message: impl Into<String>) -> ConfigError {
        ConfigError { field: field.into(), message: message.into() }
    }
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid config `{}`: {}", self.field, self.message)
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_field() {
        let e = ConfigError::new("slack", "must not exceed max_slack");
        assert_eq!(e.to_string(), "invalid config `slack`: must not exceed max_slack");
    }
}
