//! Fault injection for robustness tests: artificial slowdowns and
//! allocation pressure at configurable points.
//!
//! Compiled only under `cfg(test)` or the `fault-inject` feature — release
//! builds without the feature contain none of these hooks. A test arms a
//! [`FaultPlan`] with [`arm`]; the returned [`FaultGuard`] holds a global
//! serialization gate (faulty tests must not overlap, the plan is process
//! global) and disarms the plan on drop, even if the test panics.
//!
//! Decisions are made under the plan lock but the injected actions (sleep)
//! run *outside* it, so a slow round never holds the plan mutex.

use recurs_obs::{field, Obs};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// One armed fault scenario.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Sleep this long at the start of every recursive round (simulates a
    /// slow round, for deadline tests).
    pub slowdown: Option<Duration>,
    /// Extra bytes reported to the engine's memory estimate (simulates
    /// allocation pressure without actually allocating).
    pub ballast_bytes: usize,
}

static PLAN: Mutex<Option<FaultPlan>> = Mutex::new(None);
static GATE: Mutex<()> = Mutex::new(());

fn plan_lock() -> MutexGuard<'static, Option<FaultPlan>> {
    PLAN.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Arms `plan` for the duration of the returned guard. Tests that inject
/// faults are serialized on a global gate; the plan is disarmed when the
/// guard drops.
pub fn arm(plan: FaultPlan) -> FaultGuard {
    let gate = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    *plan_lock() = Some(plan);
    FaultGuard { _gate: gate }
}

/// RAII guard of an armed [`FaultPlan`]; see [`arm`].
#[derive(Debug)]
pub struct FaultGuard {
    _gate: MutexGuard<'static, ()>,
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        *plan_lock() = None;
    }
}

/// Hook called by the fixpoint driver at the start of each recursive round.
/// Sleeps according to the armed plan, announcing the slowdown as a
/// `fault.injected` trace event first, so a trace reader can tell an
/// injected stall from an organic one.
pub fn round_start(obs: &Obs) {
    let sleep = plan_lock().as_ref().and_then(|p| p.slowdown);
    if let Some(d) = sleep {
        if obs.enabled() {
            obs.event(
                "fault.injected",
                &[
                    ("kind", field::s("slowdown")),
                    ("site", field::s("round")),
                    ("duration_us", field::us(d)),
                ],
            );
        }
        std::thread::sleep(d);
    }
}

/// Extra bytes the armed plan adds to the engine's memory estimate.
pub fn ballast_bytes() -> usize {
    plan_lock().as_ref().map_or(0, |p| p.ballast_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_disarms_on_drop() {
        {
            let _g = arm(FaultPlan {
                ballast_bytes: 1024,
                ..FaultPlan::default()
            });
            assert_eq!(ballast_bytes(), 1024);
        }
        assert_eq!(ballast_bytes(), 0);
    }

    #[test]
    fn unarmed_hooks_are_noops() {
        let _g = arm(FaultPlan::default());
        round_start(&Obs::noop());
        assert_eq!(ballast_bytes(), 0);
    }
}
