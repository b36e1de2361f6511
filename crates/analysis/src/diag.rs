//! Diagnostic records shared by every analysis pass.
//!
//! A [`Diagnostic`] carries a stable code (`RA…` for configuration lints,
//! `MC…` for model-checker violations), a severity, a human-readable message and a
//! machine-readable [`Witness`] — the concrete structure that proves the
//! finding (a cycle, an edge, a scheduler trace). Diagnostics serialize
//! to JSON ([`to_json`]) so harnesses can archive them next to run
//! results.

use repl_types::json::{self, Object};
use repl_types::{ItemId, SiteId};

/// How bad a finding is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
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
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Witness {
    /// No structural witness (timing lints).
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
#[derive(Clone, Debug, PartialEq)]
pub struct Diagnostic {
    /// Finding severity.
    pub severity: Severity,
    /// Stable diagnostic code (`RA001`, `MC003`, …).
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

impl Witness {
    /// Append the witness as JSON: the bare variant name for `None`,
    /// otherwise `{"Variant":payload}` — the site list for `Cycle`, an
    /// object of the named fields for the rest.
    fn write_json(&self, out: &mut String) {
        match self {
            Witness::None => json::string(out, "None"),
            Witness::Cycle(sites) => tagged(out, "Cycle", |out| {
                json::array(out, sites, |out, s| out.push_str(&s.0.to_string()))
            }),
            Witness::Edge { from, to } => variant(out, "Edge", |o| {
                o.uint("from", from.0.into()).uint("to", to.0.into());
            }),
            Witness::Replica { item, primary, replica } => variant(out, "Replica", |o| {
                o.uint("item", item.0.into()).uint("primary", primary.0.into());
                o.uint("replica", replica.0.into());
            }),
            Witness::Timing { value_us, bound_us } => variant(out, "Timing", |o| {
                o.uint("value_us", *value_us).uint("bound_us", *bound_us);
            }),
            Witness::McTrace { steps } => variant(out, "McTrace", |o| {
                o.field("steps", |out| json::array(out, steps, |out, s| json::string(out, s)));
            }),
        }
    }
}

/// Append `{"name":payload}`, an enum variant with a payload.
fn tagged(out: &mut String, name: &str, payload: impl FnOnce(&mut String)) {
    let mut o = Object::new(out);
    o.field(name, payload);
    o.end();
}

/// Append `{"name":{fields…}}`, a variant with named fields.
fn variant(out: &mut String, name: &str, fields: impl FnOnce(&mut Object)) {
    tagged(out, name, |out| {
        let mut o = Object::new(out);
        fields(&mut o);
        o.end();
    });
}

impl Diagnostic {
    fn write_json(&self, out: &mut String) {
        let severity = match self.severity {
            Severity::Warning => "Warning",
            Severity::Error => "Error",
        };
        let mut o = Object::new(out);
        o.str("severity", severity).str("code", self.code).str("message", &self.message);
        o.field("witness", |out| self.witness.write_json(out));
        o.end();
    }
}

/// `diags` as a JSON array of `{"severity", "code", "message",
/// "witness"}` objects (what `replmc --json` prints).
pub fn to_json(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    json::array(&mut out, diags, |out, d| d.write_json(out));
    out
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
        let json = to_json(&[d]);
        assert!(json.contains("\"RA001\""), "{json}");
        assert!(json.contains("Cycle"), "{json}");
    }

    /// The bytes the `serde` derive wrote for one diagnostic per witness
    /// variant, before the hand-written writer replaced it. The last
    /// case pins the escaping of a witness string: a backslash, a quote,
    /// a control character and non-ASCII text.
    #[test]
    fn json_is_byte_identical_for_every_witness() {
        let message = "q\"b\\n\nc\u{1}t\té→";
        let witnesses = [
            Witness::None,
            Witness::Cycle(vec![SiteId(0), SiteId(2), SiteId(1)]),
            Witness::Edge { from: SiteId(3), to: SiteId(4) },
            Witness::Replica { item: ItemId(7), primary: SiteId(0), replica: SiteId(2) },
            Witness::Timing { value_us: 10, bound_us: 150 },
            Witness::McTrace { steps: vec!["commit s0 t1".into(), "deliver s0→s1".into()] },
            Witness::McTrace { steps: vec!["a\\b.rs".into(), "x = \"y\";\r\u{1f}é".into()] },
        ];
        let pinned = [
            r#"{"severity":"Error","code":"RA001","message":"q\"b\\n\nc\u0001t\té→","witness":"None"}"#,
            r#"{"severity":"Warning","code":"MC003","message":"q\"b\\n\nc\u0001t\té→","witness":{"Cycle":[0,2,1]}}"#,
            r#"{"severity":"Error","code":"RA001","message":"q\"b\\n\nc\u0001t\té→","witness":{"Edge":{"from":3,"to":4}}}"#,
            r#"{"severity":"Warning","code":"MC003","message":"q\"b\\n\nc\u0001t\té→","witness":{"Replica":{"item":7,"primary":0,"replica":2}}}"#,
            r#"{"severity":"Error","code":"RA001","message":"q\"b\\n\nc\u0001t\té→","witness":{"Timing":{"value_us":10,"bound_us":150}}}"#,
            r#"{"severity":"Warning","code":"MC003","message":"q\"b\\n\nc\u0001t\té→","witness":{"McTrace":{"steps":["commit s0 t1","deliver s0→s1"]}}}"#,
            r#"{"severity":"Error","code":"RA001","message":"q\"b\\n\nc\u0001t\té→","witness":{"McTrace":{"steps":["a\\b.rs","x = \"y\";\r\u001fé"]}}}"#,
        ];
        for (i, (w, want)) in witnesses.into_iter().zip(pinned).enumerate() {
            let d = if i % 2 == 0 {
                Diagnostic::error("RA001", message, w)
            } else {
                Diagnostic::warning("MC003", message, w)
            };
            assert_eq!(to_json(&[d]), format!("[{want}]"));
        }
        assert_eq!(to_json(&[]), "[]");
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
