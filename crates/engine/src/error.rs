//! Error taxonomy and the typed result of a governed engine run.

use crate::stats::EngineStats;
use recurs_datalog::error::DatalogError;
use recurs_datalog::govern::Outcome;
use std::fmt;

/// Why an engine run failed (as opposed to stopping early: budget-exhausted
/// runs are *not* errors — they return [`Saturation`] with
/// [`Outcome::Truncated`]).
#[derive(Debug)]
pub enum EngineError {
    /// A substrate error from the Datalog layer: unknown relation, arity
    /// mismatch, unbound head variable.
    Datalog(DatalogError),
    /// An engine invariant was violated (e.g. a compiled rule referenced a
    /// relation or index the setup phase failed to prepare). Always a bug in
    /// the engine, never user error.
    Internal(&'static str),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Datalog(e) => write!(f, "{e}"),
            EngineError::Internal(msg) => write!(f, "internal engine invariant violated: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Datalog(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DatalogError> for EngineError {
    fn from(e: DatalogError) -> EngineError {
        EngineError::Datalog(e)
    }
}

/// The typed result of a successful engine run: how it ended, and what it
/// did. `outcome` is [`Outcome::Complete`] when the fixpoint was reached (or
/// a proven rank bound made further work provably unproductive) and
/// [`Outcome::Truncated`] when the budget stopped the run early — in which
/// case the written-back IDB relations are a sound under-approximation of
/// the fixpoint.
#[derive(Debug, Clone)]
pub struct Saturation {
    /// How the run ended.
    pub outcome: Outcome,
    /// What the run did.
    pub stats: EngineStats,
}

impl serde::Serialize for Saturation {
    fn to_value(&self) -> serde::Value {
        serde::Value::object([
            ("outcome", self.outcome.to_value()),
            ("stats", self.stats.to_value()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recurs_datalog::symbol::Symbol;

    #[test]
    fn display_formats_each_variant() {
        let e = EngineError::Datalog(DatalogError::UnknownRelation(Symbol::intern("Nope")));
        assert!(e.to_string().contains("Nope"));
        let e = EngineError::Internal("missing index");
        assert!(e.to_string().contains("missing index"));
    }

    #[test]
    fn datalog_errors_convert() {
        let d = DatalogError::UnknownRelation(Symbol::intern("R"));
        let e: EngineError = d.into();
        assert!(matches!(e, EngineError::Datalog(_)));
        assert!(std::error::Error::source(&e).is_some());
    }
}
