//! Hot text first: link `repld` with the functions a site executes at
//! the front of its `.text`, and the read-only data it reads at the
//! front of its read-only segment (DESIGN.md §9.5). The kernel maps
//! file pages in 64 kB fault-around windows, so a site whose executed
//! functions sit together maps less than half of its code instead of
//! all of it. `repld.order` lists them, one symbol a line (functions,
//! then `# data`), and `tools/hot_text.py` regenerates it from the
//! benchmark's traffic. `repld.ld`, an INSERT-only linker script, moves
//! the always-run stubs before `.text` and the unnamed hot data before
//! `.rodata`. `-z pack-relative-relocs` packs the relative relocations
//! the static PIE applies to itself (`DT_RELR`, glibc 2.36): 0.7 kB
//! instead of 64 kB of `.rela.dyn`.
//!
//! Only on the target `.cargo/config.toml` links statically, whose
//! default linker is rust-lld: the flags are lld's. They are link
//! arguments of this package, so a `RUSTFLAGS` environment variable
//! does not replace them. A name the build no longer has is skipped
//! silently (`--no-warn-symbol-ordering`); the `hot_text` test counts
//! them.

use std::env;
use std::path::Path;

fn main() {
    println!("cargo::rerun-if-changed=repld.order");
    println!("cargo::rerun-if-changed=repld.ld");
    if env::var("TARGET").as_deref() != Ok("x86_64-unknown-linux-gnu") {
        return;
    }
    let Ok(dir) = env::var("CARGO_MANIFEST_DIR") else { return };
    let (order, script) = (Path::new(&dir).join("repld.order"), Path::new(&dir).join("repld.ld"));
    println!(
        "cargo::rustc-link-arg-bin=repld=-Wl,--symbol-ordering-file={},--no-warn-symbol-ordering",
        order.display()
    );
    println!("cargo::rustc-link-arg-bin=repld=-Wl,-z,pack-relative-relocs,-T,{}", script.display());
}
