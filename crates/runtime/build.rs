//! Hot text first: link `repld` with the functions a site executes at
//! the front of its `.text` (DESIGN.md §9.5). The kernel maps file
//! pages in 64 kB fault-around windows, so a site whose executed
//! functions sit together maps less than half of its code instead of
//! all of it. `repld.order` lists them, one symbol a line, and
//! `tools/hot_text.py` regenerates it from the benchmark's traffic.
//!
//! Only on the target `.cargo/config.toml` links statically, whose
//! default linker is rust-lld: the flag is lld's. It is a link argument
//! of this package, so a `RUSTFLAGS` environment variable does not
//! replace it. A name the build no longer has is skipped silently
//! (`--no-warn-symbol-ordering`); `tools/ci.sh` counts them.

use std::env;
use std::path::Path;

fn main() {
    println!("cargo::rerun-if-changed=repld.order");
    if env::var("TARGET").as_deref() != Ok("x86_64-unknown-linux-gnu") {
        return;
    }
    let Ok(dir) = env::var("CARGO_MANIFEST_DIR") else { return };
    let order = Path::new(&dir).join("repld.order");
    println!(
        "cargo::rustc-link-arg-bin=repld=-Wl,--symbol-ordering-file={},--no-warn-symbol-ordering",
        order.display()
    );
}
