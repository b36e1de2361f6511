//! The findings of the model checker.
//!
//! A [`Diagnostic`] carries a stable code (`MC001`–`MC006`), a
//! human-readable message and a machine-readable [`Witness`] — the
//! scheduler trace that reproduces the finding. Every finding is an
//! error: a violated invariant ends the branch it was found on.
//! Diagnostics serialize to JSON ([`to_json`]) so harnesses can archive
//! them next to run results.

use repl_types::json::{self, Object};

/// The structure that substantiates a diagnostic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Witness {
    /// No witness yet: the explorer attaches the trace once it has
    /// shrunk it.
    None,
    /// A model-checker counterexample: the (shrunk) scheduler trace that
    /// reproduces the violation, one rendered action per step. Replaying
    /// the steps in order from the scenario's initial state reaches the
    /// violating state.
    McTrace {
        /// Rendered scheduler actions, in execution order.
        steps: Vec<String>,
    },
}

/// One finding from the model checker.
#[derive(Clone, Debug, PartialEq)]
pub struct Diagnostic {
    /// Stable diagnostic code (`MC001`, …).
    pub code: &'static str,
    /// Human-readable description.
    pub message: String,
    /// Machine-readable evidence.
    pub witness: Witness,
}

impl Diagnostic {
    /// Construct a finding.
    pub fn error(code: &'static str, message: impl Into<String>, witness: Witness) -> Self {
        Diagnostic { code, message: message.into(), witness }
    }

    fn write_json(&self, out: &mut String) {
        let mut o = Object::new(out);
        o.str("severity", "Error").str("code", self.code).str("message", &self.message);
        o.field("witness", |out| match &self.witness {
            Witness::None => json::string(out, "None"),
            Witness::McTrace { steps } => {
                let mut o = Object::new(out);
                o.field("McTrace", |out| {
                    let mut o = Object::new(out);
                    o.field("steps", |out| json::array(out, steps, |out, s| json::string(out, s)));
                    o.end();
                });
                o.end();
            }
        });
        o.end();
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "error[{}]: {}", self.code, self.message)
    }
}

/// `diags` as a JSON array of `{"severity", "code", "message",
/// "witness"}` objects (what `replmc --json` prints).
pub fn to_json(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    json::array(&mut out, diags, |out, d| d.write_json(out));
    out
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
    fn diagnostics_serialize_to_json() {
        let d = Diagnostic::error("MC003", "not 1SR", Witness::McTrace { steps: vec!["a".into()] });
        let json = to_json(&[d]);
        assert!(json.contains("\"MC003\""), "{json}");
        assert!(json.contains("McTrace"), "{json}");
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
            Witness::McTrace { steps: vec!["commit s0 t1".into(), "deliver s0→s1".into()] },
            Witness::McTrace { steps: vec!["a\\b.rs".into(), "x = \"y\";\r\u{1f}é".into()] },
        ];
        let pinned = [
            r#"{"severity":"Error","code":"MC001","message":"q\"b\\n\nc\u0001t\té→","witness":"None"}"#,
            r#"{"severity":"Error","code":"MC003","message":"q\"b\\n\nc\u0001t\té→","witness":{"McTrace":{"steps":["commit s0 t1","deliver s0→s1"]}}}"#,
            r#"{"severity":"Error","code":"MC001","message":"q\"b\\n\nc\u0001t\té→","witness":{"McTrace":{"steps":["a\\b.rs","x = \"y\";\r\u001fé"]}}}"#,
        ];
        for (i, (w, want)) in witnesses.into_iter().zip(pinned).enumerate() {
            let code = if i % 2 == 0 { "MC001" } else { "MC003" };
            assert_eq!(to_json(&[Diagnostic::error(code, message, w)]), format!("[{want}]"));
        }
        assert_eq!(to_json(&[]), "[]");
    }

    #[test]
    fn render_includes_witness() {
        let d = Diagnostic::error(
            "MC001",
            "diverged",
            Witness::McTrace { steps: vec!["commit s0 t1".into()] },
        );
        let text = render(&[d]);
        assert!(text.contains("error[MC001]: diverged"), "{text}");
        assert!(text.contains("witness: McTrace { steps: [\"commit s0 t1\"] }"), "{text}");
    }
}
