//! The one deployment name kept at this path: `benchmark/` imports the
//! one-valued [`ReactorKind`] from here. It lives in the settings table
//! of a live site (`repl_runtime::config`), which is why this crate
//! depends on the site's crate and never the reverse.

pub use repl_runtime::config::ReactorKind;
