//! A small JSON writer for the two kinds of record the tree writes:
//! analysis diagnostics (`replint`/`replmc --json`) and a run's metrics
//! summary (`repro`'s emitted sweeps and its point cache).
//!
//! Each record writes itself field by field through [`Object`]. Strings
//! are escaped by [`string`]; numbers are written with Rust's
//! shortest-representation formatting, so a float read back with
//! `str::parse` is bit-identical, and a non-finite float — JSON has no
//! NaN or infinity — is written as `null`.

/// Append `s` as a quoted, escaped JSON string: `"` and `\` are
/// backslash-escaped, `\n`, `\r` and `\t` take their short forms, any
/// other control character is `\u00XX`, and everything else (non-ASCII
/// included) is copied as is.
pub fn string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Append `v`, or `null` when it is NaN or infinite.
pub fn float(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&v.to_string());
    } else {
        out.push_str("null");
    }
}

/// Append `[e0,e1,…]`, writing each element with `each`.
pub fn array<T>(out: &mut String, items: &[T], mut each: impl FnMut(&mut String, &T)) {
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        each(out, item);
    }
    out.push(']');
}

/// A JSON object being written: `{` on [`Object::new`], one `"key":value`
/// per field call, `}` on [`Object::end`].
#[derive(Debug)]
pub struct Object<'a> {
    out: &'a mut String,
    empty: bool,
}

impl<'a> Object<'a> {
    /// Open an object at the end of `out`.
    pub fn new(out: &'a mut String) -> Self {
        out.push('{');
        Object { out, empty: true }
    }

    /// A field whose value `value` appends.
    pub fn field(&mut self, key: &str, value: impl FnOnce(&mut String)) -> &mut Self {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        string(self.out, key);
        self.out.push(':');
        value(self.out);
        self
    }

    /// An unsigned integer field.
    pub fn uint(&mut self, key: &str, v: u64) -> &mut Self {
        self.field(key, |out| out.push_str(&v.to_string()))
    }

    /// A float field (`null` when non-finite).
    pub fn float(&mut self, key: &str, v: f64) -> &mut Self {
        self.field(key, |out| float(out, v))
    }

    /// A string field.
    pub fn str(&mut self, key: &str, v: &str) -> &mut Self {
        self.field(key, |out| string(out, v))
    }

    /// Close the object.
    pub fn end(self) {
        self.out.push('}');
    }
}
