//! Execution statistics: what the engine did, per iteration and in total.

use crate::storage::IndexCounters;
use std::fmt;
use std::time::Duration;

/// Which class-aware kernel the dispatcher selected (see [`crate::kernel`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// Frontier BFS for one-directional formulas (classes A1/A3/A5 and the
    /// stable A2 cases that still need fixpoint detection): semi-naive with
    /// the delta as the expanding frontier, run until the frontier dries up.
    Frontier,
    /// Bounded unrolling for formulas with a *proven* rank bound (pure
    /// permutational A2/A4, bounded B, acyclic D): apply the recursive rule
    /// exactly `rank` times and stop — no trailing empty iteration to detect
    /// the fixpoint.
    BoundedUnroll {
        /// The proven rank bound (number of recursive applications).
        rank: u64,
    },
    /// Generic semi-naive fallback for everything else (classes C/E/F and
    /// arbitrary multi-rule programs).
    Generic,
}

impl KernelKind {
    /// Short label for reports, e.g. `"frontier"`, `"unroll(3)"`.
    pub fn label(&self) -> String {
        match self {
            KernelKind::Frontier => "frontier".to_string(),
            KernelKind::BoundedUnroll { rank } => format!("unroll({rank})"),
            KernelKind::Generic => "generic".to_string(),
        }
    }
}

impl fmt::Display for KernelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

impl serde::Serialize for KernelKind {
    fn to_value(&self) -> serde::Value {
        serde::Value::string(self.label())
    }
}

/// One fixpoint iteration as the engine saw it.
#[derive(Debug, Clone, Default)]
pub struct IterationStats {
    /// Tuples in the incoming delta (0 for the seeding iteration).
    pub delta_in: usize,
    /// Head tuples produced by rule evaluation (before deduplication).
    pub derived: usize,
    /// Tuples that were genuinely new (the outgoing delta).
    pub new_tuples: usize,
    /// Wall-clock time of the iteration.
    pub duration: Duration,
}

impl serde::Serialize for IterationStats {
    fn to_value(&self) -> serde::Value {
        serde::Value::object([
            ("delta_in", self.delta_in.to_value()),
            ("derived", self.derived.to_value()),
            ("new_tuples", self.new_tuples.to_value()),
            ("duration_us", (self.duration.as_micros() as u64).to_value()),
        ])
    }
}

/// Statistics of an engine run.
#[derive(Debug, Clone, Default)]
pub struct EngineStats {
    /// The kernel the dispatcher selected.
    pub kernel: Option<KernelKind>,
    /// Per-iteration detail, in order (iteration 0 is the non-recursive
    /// seeding round).
    pub iterations: Vec<IterationStats>,
    /// Total new tuples added to IDB relations.
    pub tuples_derived: usize,
    /// Index builds/updates performed by the storage layer.
    pub index: IndexCounters,
    /// Hash-index probes issued by join steps.
    pub probes: u64,
    /// Tuples returned by those probes (the "hits").
    pub probe_hits: u64,
}

impl EngineStats {
    /// Number of iterations run (including the seeding round).
    pub fn iteration_count(&self) -> usize {
        self.iterations.len()
    }

    /// Total wall-clock time across iterations.
    pub fn total_duration(&self) -> Duration {
        self.iterations.iter().map(|i| i.duration).sum()
    }

    /// One-line summary for CLI output.
    pub fn summary(&self) -> String {
        format!(
            "kernel={} iterations={} derived={} probes={} hits={} index_builds={} index_updates={}",
            self.kernel.map_or_else(|| "?".to_string(), |k| k.label()),
            self.iteration_count(),
            self.tuples_derived,
            self.probes,
            self.probe_hits,
            self.index.builds,
            self.index.updates,
        )
    }
}

impl serde::Serialize for EngineStats {
    fn to_value(&self) -> serde::Value {
        serde::Value::object([
            ("kernel", self.kernel.to_value()),
            ("iterations", self.iterations.to_value()),
            ("iteration_count", self.iteration_count().to_value()),
            ("tuples_derived", self.tuples_derived.to_value()),
            (
                "total_duration_us",
                (self.total_duration().as_micros() as u64).to_value(),
            ),
            ("index_builds", self.index.builds.to_value()),
            ("index_updates", self.index.updates.to_value()),
            ("probes", self.probes.to_value()),
            ("probe_hits", self.probe_hits.to_value()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_labels() {
        assert_eq!(KernelKind::Frontier.label(), "frontier");
        assert_eq!(KernelKind::BoundedUnroll { rank: 3 }.label(), "unroll(3)");
        assert_eq!(KernelKind::Generic.to_string(), "generic");
    }

    #[test]
    fn summary_mentions_kernel_and_counts() {
        let s = EngineStats {
            kernel: Some(KernelKind::Frontier),
            tuples_derived: 42,
            ..EngineStats::default()
        };
        let line = s.summary();
        assert!(line.contains("kernel=frontier"));
        assert!(line.contains("derived=42"));
    }
}
