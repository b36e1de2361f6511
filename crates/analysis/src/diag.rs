//! Diagnostic records shared by every analysis pass.
//!
//! A [`Diagnostic`] carries a stable code (`RA…` for configuration lints,
//! `RL…` for the source determinism lint, `MC…` for model-checker
//! violations), a severity, a human-readable message and a
//! machine-readable [`Witness`] — the concrete structure that proves the
//! finding (a cycle, an edge, a scheduler trace). Diagnostics serialize
//! to JSON via the workspace `serde` so harnesses can archive them next
//! to run results.

use serde::Serialize;

use repl_types::{ItemId, SiteId};

/// How bad a finding is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum Severity {
    /// Suspicious but runnable: the simulation proceeds, the configuration
    /// deserves a second look (e.g. an epoch period shorter than the
    /// network latency).
    Warning,
    /// The configuration violates a protocol precondition; running it
    /// would produce wrong or meaningless results. Callers fail fast.
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// The structure that substantiates a diagnostic.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub enum Witness {
    /// No structural witness (timing lints, source lints).
    None,
    /// A cycle through these sites, in order (closing edge implied).
    Cycle(Vec<SiteId>),
    /// A single offending copy-graph or tree edge.
    Edge {
        /// Edge source.
        from: SiteId,
        /// Edge target.
        to: SiteId,
    },
    /// A replica placement that the propagation structure cannot serve.
    Replica {
        /// The item whose copy is stranded.
        item: ItemId,
        /// The item's primary site.
        primary: SiteId,
        /// The unreachable replica site.
        replica: SiteId,
    },
    /// A timing parameter out of range with respect to its bound.
    Timing {
        /// The configured value, in microseconds.
        value_us: u64,
        /// The bound it violates, in microseconds.
        bound_us: u64,
    },
    /// A source location (determinism lint).
    Source {
        /// Path of the offending file.
        file: String,
        /// 1-based line number.
        line: u32,
        /// The offending source line, trimmed.
        text: String,
    },
    /// A model-checker counterexample: the (shrunk) scheduler trace that
    /// reproduces the violation, one rendered action per step. Replaying
    /// the steps in order from the scenario's initial state reaches the
    /// violating state.
    McTrace {
        /// Rendered scheduler actions, in execution order.
        steps: Vec<String>,
    },
}

/// One finding from an analysis pass.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct Diagnostic {
    /// Finding severity.
    pub severity: Severity,
    /// Stable diagnostic code (`RA001`, `RL002`, `MC003`, …).
    pub code: &'static str,
    /// Human-readable description.
    pub message: String,
    /// Machine-readable evidence.
    pub witness: Witness,
}

impl Diagnostic {
    /// Construct an error-severity diagnostic.
    pub fn error(code: &'static str, message: impl Into<String>, witness: Witness) -> Self {
        Diagnostic { severity: Severity::Error, code, message: message.into(), witness }
    }

    /// Construct a warning-severity diagnostic.
    pub fn warning(code: &'static str, message: impl Into<String>, witness: Witness) -> Self {
        Diagnostic { severity: Severity::Warning, code, message: message.into(), witness }
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.code, self.message)
    }
}

/// True if any diagnostic in `diags` is an [`Severity::Error`].
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

/// Render a diagnostic list as one line per finding.
pub fn render(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&format!("{d}\n"));
        match &d.witness {
            Witness::None => {}
            w => out.push_str(&format!("    witness: {w:?}\n")),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_error_above_warning() {
        assert!(Severity::Error > Severity::Warning);
    }

    #[test]
    fn diagnostics_serialize_to_json() {
        let d = Diagnostic::error(
            "RA001",
            "cycle in copy graph",
            Witness::Cycle(vec![SiteId(0), SiteId(1)]),
        );
        let json = serde::to_json(&d);
        assert!(json.contains("\"RA001\""), "{json}");
        assert!(json.contains("Cycle"), "{json}");
    }

    #[test]
    fn render_includes_witness() {
        let d = Diagnostic::warning(
            "RA006",
            "epoch too short",
            Witness::Timing { value_us: 10, bound_us: 150 },
        );
        let text = render(&[d]);
        assert!(text.contains("warning[RA006]"), "{text}");
        assert!(text.contains("value_us: 10"), "{text}");
    }
}
