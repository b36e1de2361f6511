//! The engine's entry points to the `repl-analysis` configuration
//! linter. [`SimParams`] is this crate's, so the translation to the
//! linter's [`LintConfig`] lives here; the protocol and tree names are
//! `repl-protocol`'s and pass through unchanged.
//!
//! * [`lint`] — run every check, return the raw diagnostics;
//! * [`assert_clean`] — panic with the rendered findings if any
//!   error-severity diagnostic fires (warnings pass).

use repl_analysis::{lint_scenario, Diagnostic, LintConfig};
use repl_copygraph::DataPlacement;

use crate::config::SimParams;

/// Translate engine parameters into the linter's configuration.
pub fn lint_config(params: &SimParams) -> LintConfig {
    LintConfig {
        protocol: params.protocol,
        tree: params.tree,
        network_latency_us: params.network_latency.as_micros(),
        deadlock_timeout_us: params.deadlock_timeout.as_micros(),
        retry_backoff_us: params.retry_backoff.as_micros(),
        epoch_period_us: params.tuning.epoch_period.as_micros() as u64,
        crash_faults: !params.faults.crashes.is_empty(),
    }
}

/// Lint `placement` under `params`; returns every finding (warnings
/// included).
pub fn lint(placement: &DataPlacement, params: &SimParams) -> Vec<Diagnostic> {
    lint_scenario(placement, &lint_config(params))
}

/// Run the linter and panic with the rendered diagnostics if any
/// error-severity finding fires. Warnings are returned for the caller to
/// surface (or ignore).
pub fn assert_clean(placement: &DataPlacement, params: &SimParams) -> Vec<Diagnostic> {
    let diags = lint(placement, params);
    if repl_analysis::has_errors(&diags) {
        panic!(
            "configuration failed pre-run lint for {}:\n{}",
            params.protocol.name(),
            repl_analysis::render(&diags)
        );
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProtocolKind;
    use crate::scenario;
    use repl_analysis::Severity;

    #[test]
    fn default_scenarios_lint_clean() {
        use repl_types::SiteId;
        // A 4-site §5.2-style placement: replicas always at higher ids, so
        // the copy graph is a DAG in natural site order.
        let mut spread = DataPlacement::new(4);
        for primary in 0..3u32 {
            for replica in (primary + 1)..4 {
                spread.add_item(SiteId(primary), &[SiteId(replica)]);
            }
        }
        for protocol in ProtocolKind::ALL {
            let params = SimParams { protocol, ..SimParams::default() };
            for placement in [scenario::example_1_1_placement(), spread.clone()] {
                let diags = lint(&placement, &params);
                assert!(diags.is_empty(), "{}: {:?}", protocol.name(), diags);
            }
        }
    }

    #[test]
    fn cyclic_graph_flagged_for_dag_protocols() {
        let placement = scenario::example_4_1_placement();
        for protocol in [ProtocolKind::DagWt, ProtocolKind::DagT] {
            let params = SimParams { protocol, ..SimParams::default() };
            let diags = lint(&placement, &params);
            assert!(
                diags.iter().any(|d| d.code == "RA001" && d.severity == Severity::Error),
                "{}: {:?}",
                protocol.name(),
                diags
            );
        }
        let params = SimParams { protocol: ProtocolKind::BackEdge, ..SimParams::default() };
        assert!(!repl_analysis::has_errors(&lint(&placement, &params)));
    }

    #[test]
    #[should_panic(expected = "configuration failed pre-run lint")]
    fn assert_clean_panics_on_cycle() {
        let params = SimParams { protocol: ProtocolKind::DagWt, ..SimParams::default() };
        assert_clean(&scenario::example_4_1_placement(), &params);
    }

    #[test]
    fn crash_plan_rejected_for_protocols_without_recovery() {
        use repl_sim::{FaultPlan, SimTime};
        let faults =
            FaultPlan::none().crash(repl_types::SiteId(0), SimTime(1_000), Some(SimTime(2_000)));
        for protocol in ProtocolKind::ALL {
            let params = SimParams { protocol, faults: faults.clone(), ..SimParams::default() };
            let diags = lint(&scenario::example_1_1_placement(), &params);
            let flagged = diags.iter().any(|d| d.code == "RA010");
            let eager = matches!(protocol, ProtocolKind::BackEdge | ProtocolKind::Eager);
            assert_eq!(flagged, eager, "{}: {:?}", protocol.name(), diags);
        }
    }

    #[test]
    fn timing_warnings_do_not_panic() {
        use crate::config::Tuning;
        use std::time::Duration;
        let params = SimParams {
            protocol: ProtocolKind::DagT,
            tuning: Tuning { epoch_period: Duration::from_micros(10), ..Tuning::PAPER },
            ..SimParams::default()
        };
        let diags = assert_clean(&scenario::example_1_1_placement(), &params);
        assert!(diags.iter().any(|d| d.code == "RA006"), "{diags:?}");
    }
}
